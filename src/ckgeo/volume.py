"""Monte-Carlo native volume of geodesic simplices.

The native volume of a figure equals the vertex count times the ordinary
linear volume of the cone joining the figure to the origin of the ambient
space.  The estimator samples a region that holds that cone, counts
membership, and scales the hit rate by the region's volume and the vertex
count.

Write a point of the vertices' span as p = M mu, with the vertices as the
columns of M and G = M^T K M their Gram form.  p lies in the cone when
mu >= 0 and p is inside the unit shell, mu^T G mu <= 1.  Where the squared
norm is not positive (possible in degenerate and indefinite signatures)
cone_contains falls back to the coefficient sum, which plays the role of the
ray parameter.  mc_volume needs no fallback: it requires
g* > tolerance.NORM_FLOOR = 1e-12 (below), and then a small squared norm
forces a small coefficient sum, so both cuts agree.

Sampling region.  Let g* be the minimum of mu^T G mu over the probability
simplex.  It is exact: the minimizer is a stationary point inside some
face, so g* is the least of the faces' stationary values.  A face on whose
affine hull the form is degenerate is skipped, since its stationary set, if
it meets the face, reaches the face's boundary along a null direction, and
that boundary point is stationary on a sub-face with the same value; by
induction a smaller face, at worst a vertex, supplies it.  Every cone point
has mu^T G mu >= g* sum(mu)^2, so its coefficient sum is at most
L = 1/sqrt(g*): the cone lies inside the linear simplex
{mu >= 0, sum(mu) <= L}, whose ambient volume is L^c sqrt(det(M^T M)) / c!
for c vertices.  Uniform points of it come from c + 1 standard
exponentials, normalised to sum 1, the last one dropped and the rest scaled
by L (Devroye, Non-Uniform Random Variate Generation, 1986, ch. 5).  When g* is not positive the cone touches the null cone and is
unbounded; that is an error.

Every sample hits.  For nu >= 0 with sum(nu) = 1, nu^T G nu is a convex
combination of the G_ij, so it is at most max G_ij, and a sample, whose
coefficient sum is at most L, has mu^T G mu <= L^2 max G_ij.  The frame
keeps top = L^2 (max G_ij + 1e-12 max|G_ij|), the allowance being
tolerance.FORM_ROUNDING, and when top <= 1 + tolerance.CONE every sample
the sampler could draw is a hit, so mc_volume counts them without drawing.
The allowance covers the rounding of the computed form, with unit roundoff
u and gamma_k = k u / (1 - k u) (Higham, ch. 3): each coefficient
e_j L / sum(e) takes c + 2 roundings, so the computed coefficients sum to
at most L (1 + gamma_(c+2)); each term G_ij mu_i mu_j of the form takes at
most 2c roundings (c in the product with G, in any order, with or without
fused multiply-adds, one in the product with mu_i and c - 1 in the sum), so
the computed form exceeds the exact form of the computed coefficients by at
most gamma_(2c) max|G_ij| sum(mu)^2.  Together the computed form is at most
L^2 (max G_ij + gamma_(4c+4) max|G_ij|), and top's own four roundings bring
the need to about (4c + 8) u, below 1e-12 for any c under 2000;
enumerating the 2^c faces for g* keeps c far smaller.  Where the first
characteristic is zero and the vertex representatives share the sign of
their first coordinate, normalize makes every first coordinate exactly 1,
so G is the all-ones matrix, g* = L = 1, top = 1 + 1e-12 and the region is
the cone itself.  Raw near-unit vertices, whose first coordinates may
differ by up to about CONE, hold the bound only where those coordinates
agree to within about CONE / 2; the others are sampled.

Rounding floor.  The estimate is unbiased for any region that holds the
cone, provided the scale is that region's exact volume, so the rounding
that matters is in the scale.  sqrt(det(M^T M)) is computed as |prod diag R|
from a Householder QR of M, which is exact for some M + dM with
||dM||_F <= gamma ||M||_F, gamma ~ r c u for r rows and unit roundoff u
(Higham, Accuracy and Stability of Numerical Algorithms, thm. 19.4).  To
first order that moves log sqrt(det(M^T M)) by at most
||M^+||_F ||dM||_F <= r c u kappa, with kappa = ||M||_F ||R^-1||_F.  The
power, the products and the quotient that form the scale add at most c + 3
roundings of u each.  The floor is scale * (r c kappa + c + 3) * u; it is
combined in quadrature with the binomial sampling error, so the reported
stderr is never 0, even at a hit rate of 1.

The sampling frame (G, L, the scale, the rounding floor and top) depends on
the simplex alone, so it is built once per simplex, on the first mc_volume
call, and kept with it; later calls only sample.

Layout.  Each chunk of _CHUNK = 2^14 draws is transposed once, so row j
holds coefficient j of every sample, each sample is one column, and every
step runs on contiguous rows that stay near cache size.  numpy reduces the
leading axis of a C-contiguous array row by row, so a sample's terms are
added in vertex order for any vertex count, and its bits depend neither on
its chunk nor on the chunk size.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import tolerance
from .entity import ProjPoint, Space
from .errors import DimensionMismatch, DomainError, SingularBasis

_CHUNK = 1 << 14
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class GeodesicSimplex:
    """Simplex spanned by unit points with pairwise real separations.

    The cone construction uses the vertex representatives exactly as given;
    flipping a representative's sign selects the opposite cone.
    """

    space: Space
    vertices: Tuple[ProjPoint, ...]

    def __init__(self, space: Space, vertices: Sequence[ProjPoint]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "vertices", tuple(vertices))
        self._validate()

    def _validate(self) -> None:
        n = self.space.n
        if not 2 <= len(self.vertices) <= n + 1:
            raise DimensionMismatch(
                "need between 2 and %d vertices, got %d" % (n + 1, len(self.vertices))
            )
        for v in self.vertices:
            if v.n != n:
                raise DimensionMismatch("vertex dimension %d does not match space" % v.n)
            q = self.space.dot_points(v, v)
            if abs(q - 1.0) > tolerance.CONE * max(1.0, abs(q)):
                raise DomainError("vertex is not a unit point (self dot %r)" % (q,))
        mat = self.matrix()
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals[-1] <= tolerance.NORM_FLOOR * max(1.0, svals[0]):
            raise SingularBasis("simplex vertices are numerically dependent")
        # Pairs i < j in row order, as a pairwise loop meets them.
        i, j = np.nonzero(~np.tri(len(self.vertices), dtype=bool))
        imaginary = self.space.cross_points(mat.T[i], mat.T[j]).imag != 0.0
        if imaginary.any():
            first = int(imaginary.argmax())
            raise DomainError("separation of vertices %d,%d is imaginary" % (i[first], j[first]))

    def matrix(self) -> np.ndarray:
        """Vertex coordinates as columns, shape (n+1, vertex count)."""
        return np.column_stack([v.coords for v in self.vertices])

    @functools.cached_property
    def _frame(self) -> Tuple[int, np.ndarray, float, float, float, float]:
        """(count, G, L, scale, rounding floor, top), stored on first use.

        top bounds the computed form of every sample mc_volume can draw (see
        "Every sample hits" in the module docstring).  An unbounded cone
        raises DomainError, which is not stored."""
        mat = self.matrix()
        rows, count = mat.shape
        gram = mat.T @ (self.space._Karr[:, None] * mat)
        gram.flags.writeable = False
        gstar = _min_gram_on_simplex(gram)
        if gstar <= tolerance.NORM_FLOOR:
            raise DomainError("cone is unbounded: the simplex reaches the null cone")
        reach = 1.0 / math.sqrt(gstar)
        R = np.linalg.qr(mat, mode="r")
        span_volume = abs(float(np.prod(np.diag(R))))
        scale = count * reach**count * span_volume / math.factorial(count)
        kappa = float(np.linalg.norm(mat) * np.linalg.norm(np.linalg.inv(R)))
        rounding = scale * (rows * count * kappa + count + 3) * _UNIT_ROUNDOFF
        peak = float(np.abs(gram).max())
        top = reach * reach * (float(gram.max()) + tolerance.FORM_ROUNDING * peak)
        return count, gram, reach, scale, rounding, top


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    hits: int
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "volume": self.value,
            "stderr": self.stderr,
            "hits": self.hits,
            "samples": self.samples,
        }


def cone_contains(space: Space, simplex: GeodesicSimplex, p) -> bool:
    """True when p = lambda*q for some q in the simplex and 0 <= lambda <= 1."""
    mat = simplex.matrix()
    vec = np.asarray(p, dtype=float)
    if vec.shape != (space.n + 1,):
        raise DimensionMismatch("ambient point needs %d coordinates" % (space.n + 1,))
    mu, residual, rank, _ = np.linalg.lstsq(mat, vec, rcond=None)
    if rank < mat.shape[1]:
        raise SingularBasis("simplex vertices are numerically dependent")
    gap = float(np.linalg.norm(mat @ mu - vec))
    if gap > tolerance.CONE * max(1.0, float(np.linalg.norm(vec))):
        return False
    if (mu < -tolerance.CONE).any():
        return False
    q = float(vec @ (space._Karr * vec))
    if q > tolerance.NORM_FLOOR:
        return q <= 1.0 + tolerance.CONE
    return float(mu.sum()) <= 1.0 + tolerance.CONE


def _min_gram_on_simplex(G: np.ndarray) -> float:
    """Exact minimum of mu^T G mu over the probability simplex.

    The minimizer lies in the relative interior of some face, where the
    restriction to the face's affine hull is stationary, so enumerating the
    stationary value of every face (singletons are their own faces) covers
    the true minimum.  A face whose reduced Hessian is rank-deficient is
    skipped: the form is constant on its stationary set, and if that set
    meets the face, a null direction (its weights sum to 0) leads from the
    meeting point to the face's boundary without leaving the set.  That
    boundary point is stationary on its sub-face too, so by induction down
    to the vertices a smaller face supplies the same value.
    """
    size = G.shape[0]
    best = min(float(G[i, i]) for i in range(size))
    for r in range(2, size + 1):
        for subset in itertools.combinations(range(size), r):
            value = _face_stationary_value(G[np.ix_(subset, subset)])
            if value is not None:
                best = min(best, value)
    return best


def _face_stationary_value(sub: np.ndarray) -> Optional[float]:
    """Stationary value of the form on a face's sum-one affine hull, or None.

    None when the reduced Hessian is rank-deficient (the sub-faces supply
    any stationary value the face has; see _min_gram_on_simplex) or when the
    unique stationary point has a weight below -tolerance.FACE_SLACK,
    outside the face.
    """
    r = sub.shape[0]
    Z = np.zeros((r, r - 1))
    Z[0, :] = 1.0
    Z[np.arange(1, r), np.arange(r - 1)] = -1.0
    e1 = np.zeros(r)
    e1[0] = 1.0
    H = Z.T @ sub @ Z
    t, _, rank, _ = np.linalg.lstsq(H, -Z.T @ (sub @ e1), rcond=None)
    if rank < r - 1:
        return None
    mu = e1 + Z @ t
    return float(mu @ sub @ mu) if (mu >= -tolerance.FACE_SLACK).all() else None


def _sample_hits(gram: np.ndarray, reach: float, samples: int, seed: int) -> int:
    """Hits among `samples` uniform draws from the region {mu >= 0, sum(mu) <= reach}."""
    count = gram.shape[0]
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        take = min(_CHUNK, samples - done)
        e = rng.standard_exponential((take, count + 1)).T.copy()
        mu = e[:count]
        mu *= reach / e.sum(axis=0)
        form = gram.T @ mu
        form *= mu
        # No coefficient-sum fallback (cone_contains keeps one): mu^T G mu >= g* sum(mu)^2
        # and g* > NORM_FLOOR, so mu^T G mu <= NORM_FLOOR gives sum(mu) <= 1e-6 reach < 1.
        hits += int(np.count_nonzero(form.sum(axis=0) <= 1.0 + tolerance.CONE))
        done += take
    return hits


def mc_volume(space: Space, simplex: GeodesicSimplex, samples: int, seed: int) -> VolumeEstimate:
    """Hit-or-miss estimate of the native volume of the simplex.

    Samples are drawn uniformly from the linear simplex {mu >= 0,
    sum(mu) <= L} in vertex coefficients, L = 1/sqrt(g*), which holds the
    whole cone (see the module docstring).  The hit rate is scaled by
    count * L^count * sqrt(det(M^T M)) / count!, the region's ambient volume
    times the vertex count.  Raises DomainError("cone is unbounded") when
    g* is not positive.

    stderr is the binomial sampling error combined (in quadrature) with a
    first-order bound on the rounding error of that scale, so it is never 0,
    not even at a hit rate of 1, where the region is the cone itself.  When
    the frame shows that every sample must hit (see the module docstring),
    no sample is drawn: hits = samples, and the seed is validated but
    unused.  The result is the one sampling would give, bit for bit.

    Deterministic for a given (samples, seed) pair: one pseudo-random stream
    consumed in fixed-size chunks, so the count of chunks never changes the
    draw sequence, and each sample is one column of a coefficient-major
    chunk whose terms are added in vertex order, so the chunk size changes
    neither the hits nor the estimate.  Raises DomainError when
    samples or seed is not an integer (bool counts as one), samples is below
    1000 or seed is negative, and DimensionMismatch when space is not the
    simplex's space.
    """
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise DomainError("samples and seed must be integers, got %r, %r" % (samples, seed)) from None
    if samples < 1000:
        raise DomainError("need at least 1000 samples, got %d" % (samples,))
    if seed < 0:
        raise DomainError("seed must be nonnegative, got %d" % (seed,))
    if space.sig != simplex.space.sig:
        raise DimensionMismatch("simplex belongs to a different space")
    _, gram, reach, scale, rounding, top = simplex._frame
    # CONE is read at call time, not stored in the frame
    hits = samples if top <= 1.0 + tolerance.CONE else _sample_hits(gram, reach, samples, seed)

    rate = hits / samples
    value = scale * rate
    stderr = math.hypot(scale * math.sqrt(rate * (1.0 - rate) / samples), rounding)
    return VolumeEstimate(value, stderr, hits, samples, seed)
