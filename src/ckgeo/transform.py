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
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from . import tolerance
from .entity import MPlane, Space, _column_targets, _float_array, _require_finite
from .errors import DimensionMismatch, DomainError
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
        arr = _float_array(matrix, "matrix", copy=True)
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
    signature dictates.  A non-finite t raises DomainError.
    """
    kind = block_kind(space, i, j)
    c, s = _block_cs(kind, t)
    mat = np.eye(space.n + 1)
    mat[i, i] = c
    mat[j, j] = c
    mat[j, i] = s
    mat[i, j] = -kind * s
    return GOrthoTransform(space, mat, (("givens", i, j, float(t)),))


def _block_cs(kind: int, t: float) -> Tuple[float, float]:
    """The (gcos, gsin) pair of a rotation block of this kind at parameter t;
    a non-finite t raises DomainError before either kernel is evaluated."""
    if not math.isfinite(t):
        raise DomainError("givens parameter is %r, not a finite number" % (t,))
    return gcos(kind, t), gsin(kind, t)


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
        return from_word(g.space, word)
    return GOrthoTransform(g.space, np.linalg.inv(g.matrix), ())


def _generator_matrix(space: Space, gen: Generator) -> np.ndarray:
    if len(gen) == 4 and gen[0] == "givens":
        _, i, j, t = gen
        return givens(space, i, j, t).matrix
    if len(gen) == 2 and gen[0] == "reflect":
        return reflect(space, gen[1]).matrix
    raise ValueError('generator %r is not ("givens", i, j, t) or ("reflect", axis)' % (gen,))


def from_word(space: Space, word: Sequence[Generator]) -> GOrthoTransform:
    """Multiply out a generator word (first element acts last, as in compose).

    Each generator is ("givens", i, j, t) or ("reflect", axis); any other
    raises ValueError.
    """
    mat = np.eye(space.n + 1)
    for gen in word:
        mat = mat @ _generator_matrix(space, gen)
    return GOrthoTransform(space, mat, tuple(word))


def apply_point(g: GOrthoTransform, x) -> np.ndarray:
    """Apply the transform to a point; the unit self-product is preserved.

    The representative sign is taken as-is (no re-canonicalization), since
    flipping signs after the fact would not commute with the group action.
    The image is a read-only row; a non-finite coordinate raises DomainError.
    """
    vec = _float_array(x, "point")
    if vec.shape != (g.space.n + 1,):
        raise DimensionMismatch("point has wrong coordinate count")
    _require_finite(vec, "point coordinate")
    out = g.matrix @ vec
    out.setflags(write=False)
    return out


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


def validate(space: Space, matrix) -> ValidationReport:
    """Check whether a matrix is a generalized orthogonal transform.

    With no vanishing cumulative product the column relations
    c_i (.) c_j = K_min(i,j) delta_ij are verified directly (plus |det| = 1).
    In degenerate signatures those relations underdetermine the group, so the
    weak column relations are combined with preservation of point dot and
    cross products on a fixed seeded sample of raw vector pairs, whose own
    products are formed once per signature.  A
    non-finite entry, or else one above tolerance.ENTRY_LIMIT in magnitude,
    raises DomainError naming its index, before any product is formed.
    """
    mat = _float_array(matrix, "matrix", copy=True)
    if mat.shape != (space.n + 1, space.n + 1):
        raise DimensionMismatch("matrix must be (n+1) x (n+1)")
    _require_finite(mat, "matrix entry", tolerance.ENTRY_LIMIT)
    degenerate = any(K == 0 for K in space.K)
    checks: List[Tuple[str, float]] = []

    scale = max(1.0, float(np.abs(mat).max()) ** 2)
    # Entry (i, j) is column i against column j; for j >= i, K_min(i,j) = K_i,
    # and rows with K_i = 0 compare against 0 at the matrix's scale.
    cols = mat.T
    got = space.dot_points(cols[:, None, :], cols[None, :, :])
    kmin = space._Karr[:, None]
    want, upper = _column_targets(space.sig, space.n)
    # |K_i| on the diagonal: 1 where K_i != 0, and 0 where the row compares against 0.
    resid = np.abs(got / np.where(kmin != 0, kmin, scale) - np.abs(want))
    # fmax skips NaN residuals, as the running max(worst, resid) of a pairwise loop does.
    worst_cols = float(np.fmax.reduce(resid[upper], initial=0.0))
    checks.append(("column_products", worst_cols))

    if not degenerate:
        det_resid = abs(abs(float(np.linalg.det(mat))) - 1.0)
        checks.append(("determinant", det_resid))
        worst = max(worst_cols, det_resid)
        return ValidationReport(worst <= tolerance.ISOMETRY, "direct", worst, tuple(checks))

    x, y, dots, radicands = _sample_products(space.sig)
    gx, gy = x @ mat.T, y @ mat.T
    ref = max(1.0, scale * scale)
    worst_dot = float(np.abs(space.dot_points(gx, gy) - dots).max()) / ref
    worst_cross = float(np.abs(space.point_cross_radicand(gx, gy) - radicands).max()) / ref
    checks.append(("sampled_dot", worst_dot))
    checks.append(("sampled_cross", worst_cross))
    worst = max(worst_cols, worst_dot, worst_cross)
    return ValidationReport(worst <= tolerance.ISOMETRY, "sampled", worst, tuple(checks))


@lru_cache(maxsize=None)
def _sample_pairs(dim: int) -> np.ndarray:
    """The seeded raw vector pairs of sampled validation, drawn pair by pair
    (x, then y) once per dimension: a read-only (2, pairs, dim) array."""
    rng = random.Random(_SAMPLE_SEED)
    draws = np.array([rng.uniform(-1.0, 1.0) for _ in range(2 * _SAMPLE_PAIRS * dim)])
    draws.setflags(write=False)
    return draws.reshape(_SAMPLE_PAIRS, 2, dim).transpose(1, 0, 2)


@lru_cache(maxsize=None)
def _sample_products(sig: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """The sampled pairs x, y of the signature's dimension with their own
    point dot products and cross radicands, which every matrix validated in
    it is compared against: read-only, built once per signature."""
    space = Space(sig)
    x, y = _sample_pairs(space.n + 1)
    dots, radicands = space.dot_points(x, y), space.point_cross_radicand(x, y)
    dots.setflags(write=False)
    radicands.setflags(write=False)
    return x, y, dots, radicands
