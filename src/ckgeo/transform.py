"""Generalized orthogonal transforms assembled from generator words.

Generators are two-index rotations (generalized Givens blocks, whose kind is
set by the product of characteristics strictly between the two indices) and
single-axis reflections.  A transform keeps both its matrix and the word that
built it; validation of an arbitrary matrix is exact when no cumulative
product vanishes and falls back to sampled product preservation otherwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .entity import Imaginary, MPlane, ProjPoint, Space
from .errors import DimensionMismatch
from .gtrig import gcos, gsin

# Seed for the deterministic sample used to validate matrices in degenerate
# signatures; fixed so validation reports are reproducible.
_SAMPLE_SEED = 1729
_SAMPLE_PAIRS = 32

Generator = Tuple  # ("givens", i, j, t) or ("reflect", axis)


class GOrthoTransform:
    """A generalized orthogonal matrix together with its generator word."""

    __slots__ = ("space", "matrix", "word")

    def __init__(self, space: Space, matrix, word: Sequence[Generator] = ()):
        arr = np.array(matrix, dtype=float)
        if arr.shape != (space.n + 1, space.n + 1):
            raise DimensionMismatch("transform matrix must be (n+1) x (n+1)")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "word", tuple(word))

    def __setattr__(self, name, value):
        raise AttributeError("GOrthoTransform is immutable")

    def __repr__(self):
        return "GOrthoTransform(%s, word=%s)" % (self.space, list(self.word))

    def to_dict(self) -> dict:
        return {
            "n": self.space.n,
            "matrix": [float(v) for v in self.matrix.reshape(-1)],
            "word": [list(g) for g in self.word],
        }


def identity(space: Space) -> GOrthoTransform:
    return GOrthoTransform(space, np.eye(space.n + 1), ())


def block_kind(space: Space, i: int, j: int) -> int:
    """Characteristic product governing the (i, j) rotation block."""
    if not 0 <= i < j <= space.n:
        raise ValueError("need 0 <= i < j <= n")
    kind = 1
    for k in space.sig[i:j]:
        kind *= k
    return kind


def givens(space: Space, i: int, j: int, t: float) -> GOrthoTransform:
    """Rotation-like generator acting in coordinates (i, j) with parameter t.

    The block is [[C, -kind*S], [S, C]] with C, S the generalized cosine and
    sine of the block's kind, so it is circular, shearing, or boosting as the
    signature dictates.
    """
    kind = block_kind(space, i, j)
    c, s = gcos(kind, t), gsin(kind, t)
    mat = np.eye(space.n + 1)
    mat[i, i] = c
    mat[j, j] = c
    mat[j, i] = s
    mat[i, j] = -kind * s
    return GOrthoTransform(space, mat, (("givens", i, j, float(t)),))


def reflect(space: Space, axis: int) -> GOrthoTransform:
    """Reflection negating a single coordinate axis."""
    if not 0 <= axis <= space.n:
        raise ValueError("axis out of range")
    mat = np.eye(space.n + 1)
    mat[axis, axis] = -1.0
    return GOrthoTransform(space, mat, (("reflect", axis),))


def compose(a: GOrthoTransform, b: GOrthoTransform) -> GOrthoTransform:
    """Composition applying b first, then a (matrix product a.matrix @ b.matrix)."""
    if a.space.sig != b.space.sig:
        raise DimensionMismatch("transforms from different spaces")
    return GOrthoTransform(a.space, a.matrix @ b.matrix, a.word + b.word)


def inverse(g: GOrthoTransform) -> GOrthoTransform:
    """Inverse transform, with the reversed word of negated parameters."""
    word: List[Generator] = []
    for gen in reversed(g.word):
        if gen[0] == "givens":
            _, i, j, t = gen
            word.append(("givens", i, j, -t))
        else:
            word.append(gen)
    if g.word:
        mat = np.eye(g.space.n + 1)
        for gen in word:
            mat = mat @ _generator_matrix(g.space, gen)
        return GOrthoTransform(g.space, mat, word)
    return GOrthoTransform(g.space, np.linalg.inv(g.matrix), ())


def _generator_matrix(space: Space, gen: Generator) -> np.ndarray:
    if gen[0] == "givens":
        _, i, j, t = gen
        return givens(space, i, j, t).matrix
    return reflect(space, gen[1]).matrix


def from_word(space: Space, word: Sequence[Generator]) -> GOrthoTransform:
    """Multiply out a generator word (first element acts last, as in compose)."""
    mat = np.eye(space.n + 1)
    for gen in word:
        mat = mat @ _generator_matrix(space, gen)
    return GOrthoTransform(space, mat, tuple(word))


def apply_point(g: GOrthoTransform, x) -> ProjPoint:
    """Apply the transform to a point; the unit self-product is preserved.

    The representative sign is taken as-is (no re-canonicalization), since
    flipping signs after the fact would not commute with the group action.
    """
    vec = x.coords if isinstance(x, ProjPoint) else np.asarray(x, dtype=float)
    if vec.shape != (g.space.n + 1,):
        raise DimensionMismatch("point has wrong coordinate count")
    return ProjPoint(g.matrix @ vec)


def apply_plane(g: GOrthoTransform, X: MPlane) -> MPlane:
    if X.space.sig != g.space.sig:
        raise DimensionMismatch("plane belongs to a different space")
    return MPlane(g.space, g.matrix @ X.cols, validate=False)


def random_transform(space: Space, seed: int) -> GOrthoTransform:
    """Deterministic pseudo-random word of 3n rotation generators.

    Parameters are uniform on [-1, 1], except blocks of circular kind which
    draw from [0, pi).  The stdlib generator is used so the stream is stable
    across platforms for a given seed.
    """
    rng = random.Random(seed)
    n = space.n
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    word: List[Generator] = []
    for _ in range(3 * n):
        i, j = pairs[rng.randrange(len(pairs))]
        if block_kind(space, i, j) == 1:
            t = rng.uniform(0.0, math.pi)
        else:
            t = rng.uniform(-1.0, 1.0)
        word.append(("givens", i, j, t))
    return from_word(space, word)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    mode: str
    worst_residual: float
    checks: Tuple[Tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "worst_residual": self.worst_residual,
            "checks": {name: value for name, value in self.checks},
        }


def validate(space: Space, matrix, tol: float = 1e-9) -> ValidationReport:
    """Check whether a matrix is a generalized orthogonal transform.

    With no vanishing cumulative product the column relations
    c_i (.) c_j = K_min(i,j) delta_ij are verified directly (plus |det| = 1).
    In degenerate signatures those relations underdetermine the group, so the
    weak column relations are combined with preservation of point dot and
    cross products on a fixed seeded sample of raw vector pairs.
    """
    mat = np.array(matrix, dtype=float)
    if mat.shape != (space.n + 1, space.n + 1):
        raise DimensionMismatch("matrix must be (n+1) x (n+1)")
    degenerate = any(K == 0 for K in space.K)
    checks: List[Tuple[str, float]] = []

    scale = max(1.0, float(np.abs(mat).max()) ** 2)
    worst_cols = 0.0
    for i in range(space.n + 1):
        for j in range(i, space.n + 1):
            want = float(space.K[i]) if i == j else 0.0
            got = space.dot_points(mat[:, i], mat[:, j])
            kmin = space.K[min(i, j)]
            if kmin != 0:
                resid = abs(got / kmin - (1.0 if i == j else 0.0))
            else:
                resid = abs(got - want) / scale
            worst_cols = max(worst_cols, resid)
    checks.append(("column_products", worst_cols))

    if not degenerate:
        det_resid = abs(abs(float(np.linalg.det(mat))) - 1.0)
        checks.append(("determinant", det_resid))
        worst = max(worst_cols, det_resid)
        return ValidationReport(worst <= tol, "direct", worst, tuple(checks))

    # The same seeded draws as pair by pair (x, then y), checked as two stacks.
    rng = random.Random(_SAMPLE_SEED)
    dim = space.n + 1
    draws = np.array([rng.uniform(-1.0, 1.0) for _ in range(2 * _SAMPLE_PAIRS * dim)])
    x, y = draws.reshape(_SAMPLE_PAIRS, 2, dim).transpose(1, 0, 2)
    gx, gy = x @ mat.T, y @ mat.T
    ref = max(1.0, scale * scale)
    worst_dot = float(np.abs(space.dot_points(gx, gy) - space.dot_points(x, y)).max()) / ref
    worst_cross = (
        float(np.abs(space.point_cross_radicand(gx, gy) - space.point_cross_radicand(x, y)).max())
        / ref
    )
    checks.append(("sampled_dot", worst_dot))
    checks.append(("sampled_cross", worst_cross))
    worst = max(worst_cols, worst_dot, worst_cross)
    return ValidationReport(worst <= tol, "sampled", worst, tuple(checks))
