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
for c vertices.  When g* is not positive the cone touches the null cone and
is unbounded; that is an error.

Draw and hit test.  The share of the region whose coefficient sum is below
L s is s^c, so a uniform point of it is mu = L r^(1/c) nu, with r uniform on
[0, 1] and, independently, nu uniform on the face {nu >= 0, sum(nu) = 1}.
Each sample takes c uniforms: the spacings of the first c - 1, sorted, are
nu (Devroye, Non-Uniform Random Variate Generation, 1986, ch. 5), and the
last one, V, places r.  With w = nu^T (L^2 G) nu, mu^T G mu = r^(2/c) w, so
mu^T G mu <= 1 + CONE exactly when r^2 w^c <= (1 + CONE)^c, which needs no
root.

Radial shells.  r is stratified: sample j of a call lies in shell
k = j mod 16 and takes r = (k + V) / 16, so each of the 16 equal-volume
shells gets every 16th sample.  Each sample is still a 0/1 hit of the same
cone, but the estimate is scale * mean_k(h_k / n_k) over the shells' hits
h_k of n_k samples, which is unbiased, with variance
(scale / 16)^2 sum_k p_k (1 - p_k) / n_k.  Stratifying removes the spread
of the shells' hit rates from the error, so it is never larger than plain
hit-or-miss's (Rubinstein & Kroese, Simulation and the Monte Carlo Method,
ch. 5); inner shells hit more often than outer ones, and on the octants and
the hyperbolic triangle the variance per sample falls 2 to 4 times.  The
sampler tests (k + V)^2 w^c <= 256 (1 + CONE)^c: both sides are scaled by
2^8, which commutes with rounding, so the answer is the same bit for bit.

Every sample hits.  For nu >= 0 with sum(nu) = 1, nu^T G nu is a convex
combination of the G_ij, so it is at most max G_ij, and w is at most
L^2 max G_ij.  The frame keeps top = L^2 (max G_ij + 1e-12 max|G_ij|), the
allowance being tolerance.FORM_ROUNDING, and when top <= 1 + tolerance.CONE
every sample the sampler could draw is a hit, so mc_volume draws none.
The allowance covers the rounding, with unit roundoff u
and gamma_k = k u / (1 - k u) (Higham, ch. 3): a spacing takes at most one
rounding, so the computed nu sum to at most 1 + u; each entry of L^2 G
takes two; each term of w takes at most 2c more (c in the product with the
form, in any order, with or without fused multiply-adds, one in the product
with nu_i and c - 1 in the sum).  So the computed w is at most
L^2 (max G_ij + gamma_(2c+4) max|G_ij|), and top's own four roundings bring
the need to about (2c + 8) u, below 1e-12 for any c under 4000;
enumerating the 2^c faces for g* keeps c far smaller.  As
L^2 max G_ij >= L^2 g* = 1, top exceeds that bound by nearly 1e-12, so the
computed w falls short of 1 + CONE by nearly 1e-12, and w^c of
(1 + CONE)^c by a relative c 1e-12 / (1 + CONE) or so.  The test's own
roundings (c - 1 in w^c, one in the product with (k + V)^2, which is at
most 256 after rounding, and two in the bound) move it by about (c + 3) u,
far less.  Where the first characteristic is zero and the vertex
representatives share the sign of their first coordinate, normalize makes
every first coordinate exactly 1, so G is the all-ones matrix,
g* = L = 1, top = 1 + 1e-12 and the region is the cone itself.  Raw near-unit vertices, whose first coordinates may
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
combined in quadrature with the stratified sampling error, so the reported
stderr is never 0, even at a hit rate of 1.  There every shell's rate is 1,
their sum (math.fsum, correctly rounded) 16 and its sixteenth 1, and the
spread 0, so the value is the scale itself and the stderr the floor, which
is what mc_volume returns without drawing when every sample must hit.  At
other rates the mean's few roundings, relative u each, are far below the
sampling error.

The sampling frame (G, L, the scale, the rounding floor and top) depends on
the simplex alone, so it is built once per simplex, on the first mc_volume
call, and kept with it; later calls only sample.

Layout.  A call reads one stream, c uniforms per sample, sample by sample,
in chunks of _CHUNK = 2^14 samples, so a sample's uniforms depend neither
on its chunk nor on the chunk size, and its shell follows its index in the
call.  Each chunk is transposed once, so row j holds uniform j of every
sample, each sample is one column, and every step runs on contiguous rows.
A comparator network sorts the first c - 1 rows (min and max round
nothing), their differences are nu, and the form's terms are added row by
row in vertex order, so a sample's bits depend only on its own uniforms.
The shells are tallied exactly in integers: the chunk's hits, placed so
that lane j of each row of 16 is shell j and padded with misses, are read
as byte lanes and summed at most 255 rows at a time, so no lane carries.
Every chunk array is a view of one thread's buffers, kept across calls and
filled in place (_Work): allocating and freeing a call's chunk arrays (about
2 MB for chunks of 2^14 samples) let the allocator hand that memory back to
the system and fault it in again on later calls, and numpy's bincount of
the hits would make a float copy of each chunk (131 kB at 2^14).  A thread
keeps about (16c + 17) 2^14 bytes, 1.3 MB for four vertices.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import tolerance
from .entity import Space, _float_array, _require_finite
from .errors import DimensionMismatch, DomainError, SingularBasis

_CHUNK = 1 << 14
_SHELLS = 16
_LANE_MAX = 255  # rows a byte lane can sum without carrying
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2.0


@dataclass(frozen=True, eq=False)
class GeodesicSimplex:
    """Simplex spanned by unit points with pairwise real separations.

    The vertices are kept as one read-only float (count, n+1) array, a copy
    of the points given, a row per vertex; vertices that do not form such an
    array (a ragged list among them) raise DimensionMismatch.  The cone
    construction uses the vertex representatives exactly as given;
    flipping a representative's sign selects the opposite cone.
    """

    space: Space
    vertices: np.ndarray

    def __init__(self, space: Space, vertices: Sequence):
        rows = _float_array(vertices, "vertices", copy=True)
        rows.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "vertices", rows)
        self._validate()

    def _validate(self) -> None:
        n = self.space.n
        rows = self.vertices
        if rows.ndim != 2 or rows.shape[1] != n + 1 or not 2 <= len(rows) <= n + 1:
            raise DimensionMismatch(
                "vertices have shape %s, expected (count, %d) with 2 <= count <= %d"
                % (rows.shape, n + 1, n + 1)
            )
        q = self.space.dot_points(rows, rows)
        off = np.abs(q - 1.0) > tolerance.CONE * np.maximum(1.0, np.abs(q))
        if off.any():
            k = int(off.argmax())
            raise DomainError("vertex %d is not a unit point (self dot %r)" % (k, q.item(k)))
        mat = self.matrix()
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals[-1] <= tolerance.NORM_FLOOR * max(1.0, svals[0]):
            raise SingularBasis("simplex vertices are numerically dependent")
        # Pairs i < j in row order, as a pairwise loop meets them.
        i, j = np.nonzero(~np.tri(len(rows), dtype=bool))
        imaginary = self.space.cross_points(rows[i], rows[j]).imag != 0.0
        if imaginary.any():
            first = int(imaginary.argmax())
            raise DomainError("separation of vertices %d,%d is imaginary" % (i[first], j[first]))

    def matrix(self) -> np.ndarray:
        """Vertex coordinates as columns: a new C-contiguous (n+1, count) array."""
        return self.vertices.T.copy()

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
    """True when p = lambda*q for some q in the simplex and 0 <= lambda <= 1.

    Raises DimensionMismatch when space is not the simplex's space or p has
    the wrong coordinate count, and DomainError naming the first non-finite
    coordinate of p."""
    if space.sig != simplex.space.sig:
        raise DimensionMismatch("simplex belongs to a different space")
    vec = _float_array(p, "p")
    if vec.shape != (space.n + 1,):
        raise DimensionMismatch("ambient point needs %d coordinates" % (space.n + 1,))
    _require_finite(vec, "point coordinate")
    mat = simplex.matrix()
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

    When no entry is below the least diagonal entry, that entry is the
    minimum and no face is enumerated: mu^T G mu is a convex combination of
    the G_ij, so it is at least min G_ij, and a vertex attains it.
    """
    size = G.shape[0]
    best = min(float(G[i, i]) for i in range(size))
    if float(G.min()) >= best:
        return best
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


class _Work(threading.local):
    """One thread's sampling buffers, kept across calls and grown to the
    largest vertex count and chunk it has seen (see "Layout"): the uniforms
    and their transposed rows, a spare row, whole rows of 16 hits (with room
    for a chunk that starts mid-row) and the tally's block starts, and the
    shell numbers k as floats, so that k + V is added without a cast."""

    count = chunk = 0

    def fit(self, count: int, chunk: int) -> "_Work":
        if count > self.count or chunk > self.chunk:
            self.count, self.chunk = max(count, self.count), max(chunk, self.chunk)
            self.draws = np.empty(self.count * self.chunk)
            self.rows = np.empty(self.count * self.chunk)
            self.spare = np.empty(self.chunk)
            hit_rows = self.chunk // _SHELLS + 2
            self.hit = np.empty(hit_rows * _SHELLS, dtype=bool)
            self.blocks = np.arange(0, hit_rows, _LANE_MAX)
            self.shell = np.arange(self.chunk + _SHELLS, dtype=float) % _SHELLS
        return self


_work = _Work()


@functools.cache
def _sorting_network(size: int) -> Tuple[Tuple[int, int], ...]:
    """Comparators (i, j), i < j, that sort `size` rows elementwise: a bubble
    sort's size (size - 1) / 2, as few as any network needs up to 3 rows."""
    return tuple((j, j + 1) for top in range(size - 1, 0, -1) for j in range(top))


def _sample_hits(gram: np.ndarray, reach: float, samples: int, seed: int) -> List[int]:
    """Hits in each radial shell among `samples` uniform draws from the region
    {mu >= 0, sum(mu) <= reach}; sample j lies in shell j mod _SHELLS."""
    count = gram.shape[0]
    form = (reach * reach) * gram
    # (k + V)^2 w^c <= 256 (1 + CONE)^c is r^2 w^c <= (1 + CONE)^c scaled by 2^8
    bound = _SHELLS * _SHELLS * (1.0 + tolerance.CONE) ** count
    work = _work.fit(count, _CHUNK)
    network = _sorting_network(count - 1)
    rng = np.random.default_rng(seed)
    hits = np.zeros(_SHELLS, dtype=np.int64)
    done = 0
    while done < samples:
        take = min(_CHUNK, samples - done)
        draws = work.draws[: count * take].reshape(take, count)
        rng.random(out=draws)
        coef = work.rows[: count * take].reshape(count, take)
        np.copyto(coef, draws.T)
        # sort the first count - 1 rows; their spacings are nu, in draws' memory
        nu = work.draws[: count * take].reshape(count, take)
        ranked, spare = list(coef[:-1]), work.spare[:take]
        for i, j in network:
            np.minimum(ranked[i], ranked[j], out=spare)
            np.maximum(ranked[i], ranked[j], out=ranked[j])
            ranked[i], spare = spare, ranked[i]
        np.copyto(nu[0], ranked[0])
        for i in range(1, count - 1):
            np.subtract(ranked[i], ranked[i - 1], out=nu[i])
        np.subtract(1.0, ranked[-1], out=nu[-1])
        # the last row is V: shell radius r = (k + V) / 16, kept as (k + V)^2
        lift = work.spare[:take]
        offset = done % _SHELLS
        shell = work.shell[offset : offset + take]
        np.add(shell, coef[-1], out=lift)
        np.multiply(lift, lift, out=lift)
        np.matmul(form.T, nu, out=coef)
        w, power = np.multiply(coef[0], nu[0], out=coef[0]), coef[1]
        for i in range(1, count):
            np.add(w, np.multiply(coef[i], nu[i], out=coef[i]), out=w)
        np.multiply(w, w, out=power)
        for _ in range(count - 2):
            np.multiply(power, w, out=power)
        np.multiply(power, lift, out=power)
        # tally (see "Layout"): each row of 16 hits is two uint64 words of
        # byte lanes, and sums of at most 255 rows keep every lane below 256
        end = offset + take
        hit_rows = -(-end // _SHELLS)
        hit = work.hit[: hit_rows * _SHELLS]
        hit[:offset] = hit[end:] = False
        np.less_equal(power, bound, out=hit[offset:end])
        words = hit.view(np.uint64).reshape(hit_rows, 2)
        sums = np.add.reduceat(words, work.blocks[: -(-hit_rows // _LANE_MAX)], axis=0)
        hits += np.add.reduce(sums.view(np.uint8).reshape(-1, _SHELLS), axis=0, dtype=np.int64)
        done += take
    return hits.tolist()


def mc_volume(space: Space, simplex: GeodesicSimplex, samples: int, seed: int) -> VolumeEstimate:
    """Hit-or-miss estimate of the native volume of the simplex.

    Samples are drawn uniformly from the linear simplex {mu >= 0,
    sum(mu) <= L} in vertex coefficients, L = 1/sqrt(g*), which holds the
    whole cone, sample j in radial shell j mod 16 of 16 equal-volume shells
    (see the module docstring).  The mean of the shells' hit rates is scaled
    by count * L^count * sqrt(det(M^T M)) / count!, the region's ambient
    volume times the vertex count; hits is the total.  Raises
    DomainError("cone is unbounded") when g* is not positive.

    stderr is the stratified sampling error combined (in quadrature) with a
    first-order bound on the rounding error of that scale, so it is never 0,
    not even at a hit rate of 1, where the region is the cone itself.  When
    the frame shows that every sample must hit (see the module docstring),
    no sample is drawn: hits = samples, and the seed is validated but
    unused.  The result is the one sampling would give, bit for bit.

    Deterministic for a given (samples, seed) pair: one pseudo-random stream
    read sample by sample, each sample's shell set by its index in the call,
    and each sample one column of a chunk whose terms are added in vertex
    order, so neither the chunk size nor the thread changes the hits or the
    estimate.  Raises DomainError when
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
    if top <= 1.0 + tolerance.CONE:
        # every shell's rate is 1, so their mean is exactly 1 and the spread 0
        return VolumeEstimate(scale, rounding, samples, samples, seed)
    hits = _sample_hits(gram, reach, samples, seed)
    sizes = [samples // _SHELLS + (k < samples % _SHELLS) for k in range(_SHELLS)]
    rates = [h / n for h, n in zip(hits, sizes)]
    value = scale * (math.fsum(rates) / _SHELLS)
    spread = math.fsum(p * (1.0 - p) / n for p, n in zip(rates, sizes))
    stderr = math.hypot(scale / _SHELLS * math.sqrt(spread), rounding)
    return VolumeEstimate(value, stderr, sum(hits), samples, seed)
