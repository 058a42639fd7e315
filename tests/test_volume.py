"""Monte Carlo volumes of geodesic simplexes."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ckgeo.volume as volume_module

from ckgeo import (
    DimensionMismatch,
    DomainError,
    GeodesicSimplex,
    GeometryError,
    ProjPoint,
    Space,
    SingularBasis,
    apply_point,
    cone_contains,
    mc_volume,
    measure_triangle,
    random_transform,
    triangle_area,
    triangle_from_sas,
)

EE = Space("ee")
PE = Space("pe")
HE = Space("he")


def octant(sp=EE):
    return GeodesicSimplex(
        sp,
        [
            sp.normalize([1.0, 0.0, 0.0]),
            sp.normalize([0.0, 1.0, 0.0]),
            sp.normalize([0.0, 0.0, 1.0]),
        ],
    )


def euclid_triangle(p, q, r):
    return GeodesicSimplex(
        PE, [PE.normalize([1.0, *p]), PE.normalize([1.0, *q]), PE.normalize([1.0, *r])]
    )


# -- construction guards ---------------------------------------------------------


def test_simplex_rejects_nonunit_vertices():
    with pytest.raises(DomainError):
        GeodesicSimplex(EE, [ProjPoint([2.0, 0.0, 0.0]), ProjPoint([0.0, 1.0, 0.0])])


def test_simplex_rejects_dependent_vertices():
    with pytest.raises(SingularBasis):
        GeodesicSimplex(
            EE, [EE.normalize([1.0, 0.0, 0.0]), ProjPoint([-1.0, 0.0, 0.0])]
        )


def test_simplex_rejects_imaginary_separation():
    sp = Space((1, -1))
    t = 0.8
    with pytest.raises(DomainError):
        GeodesicSimplex(
            sp,
            [
                sp.normalize([1.0, 0.0, 0.0]),
                ProjPoint([math.cosh(t), 0.0, math.sinh(t)]),
            ],
        )


def test_simplex_vertex_count_bounds():
    one = [EE.normalize([1.0, 0.0, 0.0])]
    with pytest.raises(DimensionMismatch):
        GeodesicSimplex(EE, one)
    with pytest.raises(DimensionMismatch):
        GeodesicSimplex(EE, one * 5)


def test_minimum_sample_count():
    with pytest.raises(DomainError):
        mc_volume(EE, octant(), 999, 1)


def test_integer_like_arguments_are_accepted():
    want = mc_volume(EE, octant(), 5000, 1)
    for samples, seed in [(np.int64(5000), True), (5000, np.uint8(1))]:
        got = mc_volume(EE, octant(), samples, seed)
        assert (got.hits, got.value, got.stderr, got.samples, got.seed) == (
            want.hits, want.value, want.stderr, 5000, 1
        )


def test_space_must_match_the_simplex():
    # a wrong n, and a same-n signature, in which the octant's cone is unbounded
    with pytest.raises(DimensionMismatch, match="different space"):
        mc_volume(Space("eee"), octant(), 10_000, 1)
    with pytest.raises(DimensionMismatch, match="different space"):
        mc_volume(HE, octant(), 10_000, 1)


# -- membership --------------------------------------------------------------------


def test_cone_membership_basics():
    s = octant()
    assert cone_contains(EE, s, [1.0, 0.0, 0.0])
    centroid = np.ones(3) / 3.0
    assert cone_contains(EE, s, centroid)
    assert cone_contains(EE, s, 0.2 * centroid)
    assert not cone_contains(EE, s, [-1.0, 0.0, 0.0])
    assert not cone_contains(EE, s, np.ones(3))  # beyond the unit shell


def test_cone_membership_checks_span():
    flat = GeodesicSimplex(
        EE, [EE.normalize([1.0, 0.0, 0.0]), EE.normalize([0.0, 1.0, 0.0])]
    )
    assert cone_contains(EE, flat, [0.5, 0.5, 0.0])
    assert not cone_contains(EE, flat, [0.5, 0.5, 0.1])


# -- estimates against exact areas ----------------------------------------------


def test_octant_area():
    est = mc_volume(EE, octant(), 200_000, 7)
    assert est.samples == 200_000
    assert abs(est.value - math.pi / 2) <= 3.0 * est.stderr
    assert est.stderr < 0.01


def test_euclidean_triangle_area():
    est = mc_volume(PE, euclid_triangle((0, 0), (3, 0), (0, 4)), 400_000, 7)
    assert abs(est.value - 6.0) <= 3.0 * est.stderr


def test_estimates_are_deterministic():
    a = mc_volume(EE, octant(), 50_000, 3)
    b = mc_volume(EE, octant(), 50_000, 3)
    assert (a.value, a.stderr, a.hits) == (b.value, b.stderr, b.hits)
    c = mc_volume(EE, octant(), 50_000, 4)
    assert a.hits != c.hits


def test_transform_invariance_of_estimate():
    g = random_transform(EE, 15)
    verts = [
        EE.normalize([1.0, 0.0, 0.0]),
        EE.normalize([0.0, 1.0, 0.0]),
        EE.normalize([0.0, 0.0, 1.0]),
    ]
    moved = GeodesicSimplex(EE, [apply_point(g, v) for v in verts])
    est = mc_volume(EE, moved, 200_000, 9)
    assert abs(est.value - math.pi / 2) <= 3.0 * est.stderr


def test_full_hit_rate_reports_rounding_floor():
    # the Euclidean sampling region is the cone itself, so every sample hits;
    # the stderr is then the region volume's rounding bound, not 0
    est = mc_volume(PE, euclid_triangle((0, 0), (3, 0), (0, 4)), 10_000, 7)
    assert est.hits == est.samples
    assert abs(est.value - 6.0) <= est.stderr
    assert 0.0 < est.stderr < 1e-12


def test_euclidean_cevian_additivity():
    # split the 3-4 right triangle along a cevian; parts must sum to the whole
    whole = mc_volume(PE, euclid_triangle((0, 0), (3, 0), (0, 4)), 400_000, 21)
    left = mc_volume(PE, euclid_triangle((0, 0), (1.2, 2.4), (0, 4)), 400_000, 22)
    right = mc_volume(PE, euclid_triangle((0, 0), (3, 0), (1.2, 2.4)), 400_000, 23)
    total = left.value + right.value
    spread = math.hypot(whole.stderr, left.stderr, right.stderr)
    assert abs(total - whole.value) <= 3.0 * spread


def hyperbolic_angle_defect(b, alpha, c):
    # oracle: area of a hyperbolic triangle is its angle defect
    tm = measure_triangle(triangle_from_sas(HE, b, alpha, c))
    beta = math.pi - tm.beta_prime.value
    return math.pi - (tm.alpha.value + beta + tm.gamma.value)


def test_hyperbolic_triangle_matches_angle_defect():
    b, alpha, c = 1.0, 0.8, 1.2
    tri = triangle_from_sas(HE, b, alpha, c)
    s = GeodesicSimplex(HE, [tri.A, tri.B, tri.C])
    est = mc_volume(HE, s, 400_000, 5)
    want = hyperbolic_angle_defect(b, alpha, c)
    assert want > 0.1  # sanity: a substantial defect
    assert abs(est.value - want) <= 3.0 * est.stderr


@pytest.mark.parametrize("sig", [k1 + k2 for k1 in "eph" for k2 in "eph"])
def test_planar_estimates_match_the_exact_area(sig):
    # draws that cannot be measured, or have an imaginary measure, are skipped
    # until the quota is met: eh, ph and hh keep fewer than one in four
    sp = Space(sig)
    rng = random.Random("area " + sig)
    found = 0
    while found < 3:
        b, c, alpha = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.2)
        try:
            tri = triangle_from_sas(sp, b, alpha, c)
            tm = measure_triangle(tri)
        except GeometryError:
            continue
        if not tm.all_real():
            continue
        found += 1
        est = mc_volume(sp, GeodesicSimplex(sp, [tri.A, tri.B, tri.C]), 100_000, found)
        assert abs(est.value - triangle_area(sp, tm)) <= 4.0 * est.stderr


def test_unbounded_cone_is_rejected():
    # spherical-modulated signature whose second block is hyperbolic: two
    # points can subtend a cone that never leaves the unit shell
    sp = Space((1, 0))
    a = ProjPoint([1.0, 0.0, 0.3])
    b = ProjPoint([-1.0, 0.0, 0.4])
    s = GeodesicSimplex(sp, [a, b])
    with pytest.raises(DomainError):
        mc_volume(sp, s, 10_000, 1)


def mixed_sign_triangle():
    # in pe the form only sees the first coordinate, so opposite signs there
    # let mu^T G mu = (mu_0 - mu_1 + mu_2)^2 vanish along an unbounded ray
    return GeodesicSimplex(
        PE,
        [
            ProjPoint([1.0, 0.0, 0.0]),
            ProjPoint([-1.0, -3.0, 0.0]),
            ProjPoint([1.0, 0.0, 4.0]),
        ],
    )


def test_mixed_sign_representatives_make_an_unbounded_cone():
    s = mixed_sign_triangle()
    for seed in (1, 1, 2):
        with pytest.raises(DomainError, match="cone is unbounded"):
            mc_volume(PE, s, 10_000, seed)


@pytest.mark.parametrize("k1", [1, -1])
@pytest.mark.parametrize("k3, k4", list(itertools.product((-1, 0, 1), repeat=2)))
def test_bounded_simplexes_with_a_rank_two_gram_form(k1, k3, k4):
    # With k2 = 0 only the first two coordinates enter G, which then has rank
    # 2: each vertex is (cos t, sin t) or (cosh t, sinh t) followed by free
    # coordinates.  g* is cos^2 of half the widest angle for k1 = 1 (the chord
    # between the extreme points) and 1 for k1 = -1 (the vertices themselves).
    sp = Space((k1, 0, k3, k4))
    rng = np.random.default_rng([k1 + 1, k3 + 1, k4 + 1])
    for seed in range(4):
        t = rng.uniform(-0.4, 0.4, 5)
        first = np.column_stack([np.cos(t), np.sin(t)] if k1 == 1 else [np.cosh(t), np.sinh(t)])
        simplex = GeodesicSimplex(sp, [ProjPoint(v) for v in np.hstack([first, rng.normal(size=(5, 3))])])
        est = mc_volume(sp, simplex, 1_000, seed)
        assert est.samples == 1_000 and est.value > 0.0
        want = math.cos((t.max() - t.min()) / 2.0) ** 2 if k1 == 1 else 1.0
        assert simplex._frame[2] ** -2 == pytest.approx(want, rel=1e-12, abs=0.0)


def _barycentric_grid(size, m):
    """Every point of the probability simplex in R^size with weights in (1/m)Z."""
    # stars and bars: m stars and size - 1 bars in m + size - 1 slots
    bars = np.array(list(itertools.combinations(range(m + size - 1), size - 1)), dtype=int)
    ends = np.ones((len(bars), 1), dtype=int)
    return (np.diff(np.hstack([-ends, bars, (m + size - 1) * ends]), axis=1) - 1) / m


def test_min_gram_is_at_most_the_grid_minimum():
    # Integer Gram forms M^T K M of up to 4 columns in every signature with
    # n <= 3 (rank-deficient whenever K has a zero or M has more columns than
    # rows), and random symmetric matrices; no face may be skipped that holds
    # the minimum.
    rng = np.random.default_rng(8)
    forms = []
    for n in (1, 2, 3):
        for sig in itertools.product((-1, 0, 1), repeat=n):
            K = Space(sig)._Karr
            for size in (2, 3, 4):
                for _ in range(2):
                    M = rng.integers(-2, 3, size=(n + 1, size)).astype(float)
                    forms.append(M.T @ (K[:, None] * M))
    for size in (1, 2, 3, 4):
        for _ in range(10):
            A = rng.normal(size=(size, size))
            forms.append(A + A.T)
    grids = {size: _barycentric_grid(size, 24) for size in (1, 2, 3, 4)}
    for G in forms:
        mu = grids[G.shape[0]]
        grid_min = float(np.einsum("ij,jk,ik->i", mu, G, mu).min())
        slack = 1e-12 * max(1.0, float(np.abs(G).max()))
        assert volume_module._min_gram_on_simplex(G) <= grid_min + slack, G


def count_min_gram_calls(monkeypatch):
    calls = []
    inner = volume_module._min_gram_on_simplex

    def counted(G):
        calls.append(G)
        return inner(G)

    monkeypatch.setattr(volume_module, "_min_gram_on_simplex", counted)
    return calls


@pytest.mark.parametrize(
    "args, kwargs, error, message",
    [
        ((PE, 999, 1), {}, DomainError, "at least 1000 samples"),
        ((PE, 5000.0, 1), {}, DomainError, "samples and seed must be integers, got 5000.0, 1"),
        ((PE, "5000", 1), {}, DomainError, "samples and seed must be integers, got '5000', 1"),
        ((PE, 5000, 1.0), {}, DomainError, "samples and seed must be integers, got 5000, 1.0"),
        ((PE, 5000, None), {}, DomainError, "samples and seed must be integers, got 5000, None"),
        ((PE, 10_000, -1), {}, DomainError, "seed must be nonnegative"),
        ((HE, 10_000, 1), {}, DimensionMismatch, "different space"),
    ],
)
def test_arguments_are_checked_before_the_frame(monkeypatch, args, kwargs, error, message):
    # the simplex's cone is unbounded, so building its frame would raise
    calls = count_min_gram_calls(monkeypatch)
    space, samples, seed = args
    with pytest.raises(error, match=message):
        mc_volume(space, mixed_sign_triangle(), samples, seed, **kwargs)
    assert calls == []


def test_frame_is_built_once_per_simplex(monkeypatch):
    calls = count_min_gram_calls(monkeypatch)
    first, second = octant(), octant()
    for seed in (1, 2, 1):
        mc_volume(EE, first, 5_000, seed)
    assert len(calls) == 1
    mc_volume(EE, second, 5_000, 1)
    assert len(calls) == 2
    count, gram, reach, scale, rounding, top = first._frame
    assert count == 3 and not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 2.0


def test_hits_do_not_depend_on_chunk_size(monkeypatch):
    whole = mc_volume(EE, octant(), 10_000, 5)
    monkeypatch.setattr(volume_module, "_CHUNK", 777)
    chunked = mc_volume(EE, octant(), 10_000, 5)
    assert (chunked.hits, chunked.value) == (whole.hits, whole.value)


def _reference_mc_volume(space, simplex, samples, seed, tol=1e-9):
    """mc_volume with numpy's row reductions and the coefficient-sum fallback
    for rows whose squared norm is not above 1e-12."""
    mat = simplex.matrix()
    rows, count = mat.shape
    gram = mat.T @ (space._Karr[:, None] * mat)
    reach = 1.0 / math.sqrt(volume_module._min_gram_on_simplex(gram))
    R = np.linalg.qr(mat, mode="r")
    scale = count * reach**count * abs(float(np.prod(np.diag(R)))) / math.factorial(count)
    kappa = float(np.linalg.norm(mat) * np.linalg.norm(np.linalg.inv(R)))
    rounding = scale * (rows * count * kappa + count + 3) * np.finfo(float).eps / 2.0
    rng = np.random.default_rng(seed)
    hits = done = 0
    while done < samples:
        take = min(volume_module._CHUNK, samples - done)
        e = rng.standard_exponential((take, count + 1))
        mu = e[:, :count]
        mu *= (reach / e.sum(axis=1))[:, None]
        qvals = ((mu @ gram) * mu).sum(axis=1)
        inside = np.where(qvals > 1e-12, qvals <= 1.0 + tol, mu.sum(axis=1) <= 1.0 + tol)
        hits += int(np.count_nonzero(inside))
        done += take
    rate = hits / samples
    stderr = math.hypot(scale * math.sqrt(rate * (1.0 - rate) / samples), rounding)
    return hits, scale * rate, stderr


@pytest.mark.parametrize("k", range(2, 9))
def test_row_sums_match_numpy_on_narrow_rows(k):
    # mc_volume sums a sample's k terms as axis 0 of the transposed chunk;
    # numpy adds those rows in order, so that is the left-to-right row sum for
    # every k, and for k < 8 also numpy's own row sum (its pairwise sum
    # reorders from 8 columns on), which _reference_mc_volume relies on.
    rng = np.random.default_rng(k)
    shape = (volume_module._CHUNK, 8)
    wide = rng.standard_exponential(shape) * rng.choice([-1e8, 1e-8, 1.0], shape)
    for a in (wide[:, :k], wide[:, :k].copy()):
        left_to_right = a[:, 0].copy()
        for j in range(1, k):
            left_to_right += a[:, j]
        got = a.T.copy().sum(axis=0)
        assert np.array_equal(got, left_to_right)
        if k < 8:
            assert np.array_equal(got, a.sum(axis=1))


def _unit_simplex(sig, raws):
    sp = Space(sig)
    return sp, GeodesicSimplex(sp, [sp.normalize(r) for r in raws])


def _boost(t, *rest):
    return [math.cosh(t), math.sinh(t), *rest]


REFERENCE_SIMPLEXES = {
    "ee segment": lambda: _unit_simplex("ee", [[1, 0, 0], [0.6, 0.8, 0.1]]),
    "ee octant": lambda: (EE, octant()),
    "pe triangle": lambda: (PE, euclid_triangle((0, 0), (3, 0), (0, 4))),
    "he triangle": lambda: _unit_simplex("he", [[1, 0, 0], [1, 0.5, 0.1], [1, -0.2, 0.6]]),
    "hpe tetrahedron": lambda: _unit_simplex(
        "hpe", [_boost(0, 0, 0), _boost(0.4, 1, 0), _boost(-0.3, 0, 2), _boost(0.2, -1, 1)]
    ),
    "eee tetrahedron": lambda: _unit_simplex(
        "eee", [[1, 0, 0, 0], [0.5, 1, 0, 0], [0.5, 0, 1, 0], [0.4, 0.3, 0.2, 1]]
    ),
    "eeee simplex": lambda: _unit_simplex("eeee", np.eye(5) + 0.3),
    "eeeee simplex": lambda: _unit_simplex("eeeee", np.eye(6) + 0.3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SIMPLEXES))
@pytest.mark.parametrize("chunk", [None, 777])
def test_estimates_match_the_reference_loop(monkeypatch, name, chunk):
    if chunk is not None:
        monkeypatch.setattr(volume_module, "_CHUNK", chunk)
    sp, simplex = REFERENCE_SIMPLEXES[name]()
    # the first call builds the simplex's frame and the later ones reuse it
    for seed, samples in [(1, 2_345), (2, 5_001), (3, 140_001), (2, 5_001), (4, 3_003)]:
        est = mc_volume(sp, simplex, samples, seed)
        assert (est.hits, est.value, est.stderr) == _reference_mc_volume(sp, simplex, samples, seed)


@pytest.mark.parametrize("name", ["ee octant", "eeee simplex", "eeeee simplex"])
def test_hit_test_sees_the_reference_forms_bit_for_bit(monkeypatch, name):
    # A last-bit change in a sample's form rarely moves a hit, so the
    # reference-loop test above cannot see one.  A hit count at a threshold
    # equal to a form value of the row layout, or one ulp below it, can:
    # 1 + (t - 1) is exactly t for t in [0.5, 2].
    sp, simplex = REFERENCE_SIMPLEXES[name]()
    count, gram, reach = simplex._frame[:3]
    e = np.random.default_rng(1).standard_exponential((3_000, count + 1))
    mu = e[:, :count] * (reach / e.sum(axis=1))[:, None]
    q = ((mu @ gram) * mu).sum(axis=1)
    near = np.sort(q[(q >= 0.5) & (q <= 2.0)])
    for t in near[:: max(1, len(near) // 60)]:
        for edge in (t, np.nextafter(t, 0.0)):
            monkeypatch.setattr(volume_module.tolerance, "CONE", edge - 1.0)
            assert mc_volume(sp, simplex, 3_000, 1).hits == np.count_nonzero(q <= edge)


def _flat_signatures(n):
    """The 3^(n-1) signatures of dimension n whose first characteristic is 0."""
    return [(0, *rest) for rest in itertools.product((-1, 0, 1), repeat=n - 1)]


def _flat_simplex(sig, count):
    """`count` seeded vertices in a k1 = 0 signature, first coordinates of one
    sign.  Each raw vector is scaled by a random positive factor, so normalize
    divides; the second coordinates are about 1 apart and the others within
    0.1 of 0, so every separation radicand is at least 0.36 - 4 * 0.04 > 0."""
    sp = Space(sig)
    rng = np.random.default_rng([k + 1 for k in sig] + [count])
    raw = np.hstack(
        [
            np.ones((count, 1)),
            np.arange(count)[:, None] + rng.uniform(-0.2, 0.2, (count, 1)),
            rng.uniform(-0.1, 0.1, (count, sp.n - 1)),
        ]
    )
    raw *= rng.uniform(0.5, 2.0, (count, 1))
    return sp, GeodesicSimplex(sp, [sp.normalize(r) for r in raw])


def _certified(simplex):
    return simplex._frame[5] <= 1.0 + volume_module.tolerance.CONE


def _exact_det(mat):
    """Determinant of a float matrix in rationals, by Gaussian elimination."""
    rows = [[Fraction(float(x)) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flat_simplexes_match_the_exact_determinant(n):
    # For k1 = 0 and first coordinates of one sign, G is all ones and the
    # native volume of a full simplex is |det V| / n!.  The determinant is
    # exact (rationals), so the oracle adds no rounding of its own and the
    # estimate must lie within its stderr, here the rounding floor.
    for sig in _flat_signatures(n):
        sp, simplex = _flat_simplex(sig, n + 1)
        assert _certified(simplex)
        est = mc_volume(sp, simplex, 1_000_000, 7)
        assert est.hits == est.samples == 1_000_000
        exact = abs(_exact_det(simplex.matrix())) / math.factorial(n)
        assert abs(Fraction(est.value) - exact) <= Fraction(est.stderr), sig


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("chunk", [None, 777])
def test_certified_estimates_match_the_reference_loop(monkeypatch, n, chunk):
    if chunk is not None:
        monkeypatch.setattr(volume_module, "_CHUNK", chunk)
    for sig in _flat_signatures(n):
        for count in range(2, n + 2):
            sp, simplex = _flat_simplex(sig, count)
            assert _certified(simplex)
            est = mc_volume(sp, simplex, 2_345, 1)
            assert (est.hits, est.value, est.stderr) == _reference_mc_volume(sp, simplex, 2_345, 1)


def record_generators(monkeypatch):
    seeds = []
    inner = np.random.default_rng

    def recorded(seed):
        seeds.append(seed)
        return inner(seed)

    monkeypatch.setattr(volume_module.np.random, "default_rng", recorded)
    return seeds


def test_a_certified_call_draws_nothing(monkeypatch):
    sp, simplex = REFERENCE_SIMPLEXES["pe triangle"]()
    sampled = REFERENCE_SIMPLEXES["ee octant"]()
    seeds = record_generators(monkeypatch)
    est = mc_volume(sp, simplex, 1_000_000, 3)
    assert seeds == [] and (est.hits, est.samples, est.seed) == (1_000_000, 1_000_000, 3)
    mc_volume(*sampled, 1_000, 3)
    assert seeds == [3]


def test_a_cone_below_the_bound_turns_the_certificate_off(monkeypatch):
    # top = 1 + 1e-12 for the pe triangle: any CONE below 1e-12 samples again
    sp, simplex = REFERENCE_SIMPLEXES["pe triangle"]()
    assert simplex._frame[5] == 1.0 + 1e-12
    seeds = record_generators(monkeypatch)
    for cone in (1e-13, 0.0, -0.5):
        monkeypatch.setattr(volume_module.tolerance, "CONE", cone)
        want = _reference_mc_volume(sp, simplex, 5_001, 2, tol=cone)
        seeds.clear()
        est = mc_volume(sp, simplex, 5_001, 2)
        assert seeds == [2] and (est.hits, est.value, est.stderr) == want


def test_near_unit_vertices_are_sampled():
    # first coordinates 1 +- 4e-10: unit within CONE, but L^2 max G_ij is
    # about 1 + 1.6e-9, so no certificate; the region now overhangs the cone
    # and some samples can miss
    sp = PE
    simplex = GeodesicSimplex(
        sp, [ProjPoint([1.0 + 4e-10, 0.0, 0.0]), ProjPoint([1.0 - 4e-10, 3.0, 0.0]), ProjPoint([1.0, 0.0, 4.0])]
    )
    assert not _certified(simplex)
    for seed, samples in [(1, 2_345), (3, 140_001)]:
        est = mc_volume(sp, simplex, samples, seed)
        assert (est.hits, est.value, est.stderr) == _reference_mc_volume(sp, simplex, samples, seed)


def test_only_the_flat_reference_simplex_is_certified():
    certified = {name for name, build in REFERENCE_SIMPLEXES.items() if _certified(build()[1])}
    assert certified == {"pe triangle"}


def test_peak_memory_is_bounded_by_the_chunk():
    # 10^6 samples of a six-vertex simplex: 62 chunks of 2^14 samples, whose
    # arrays are freed between chunks, so the peak is about two chunks' worth
    # (3.5 MB); the row layout with 2^17-sample chunks peaked at 21 MB
    sp, simplex = REFERENCE_SIMPLEXES["eeeee simplex"]()
    mc_volume(sp, simplex, 1_000, 1)  # builds the frame
    tracemalloc.start()
    try:
        mc_volume(sp, simplex, 1_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_estimate_dict_shape():
    est = mc_volume(EE, octant(), 10_000, 2)
    d = est.to_dict()
    assert set(d) == {"volume", "stderr", "hits", "samples"}
    assert d["hits"] <= d["samples"]
