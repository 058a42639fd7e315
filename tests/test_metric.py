"""Measures, triangles, the law registry, and the SAS solver."""

import itertools
import math
import random

import numpy as np
import pytest

from ckgeo import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    GeometryError,
    MPlane,
    NoSolution,
    Space,
    Measure,
    Measures,
    Triangle,
    TriangleMeasurements,
    angle,
    distance,
    identified_distance,
    is_orthogonal,
    is_parallel,
    law_residuals,
    measure_triangle,
    metric,
    random_transform,
    right_triangle_residuals,
    solve_sas,
    triangle_area,
    triangle_from_sas,
)

EE = Space("ee")
PE = Space("pe")
HE = Space("he")
PP = Space("pp")


# -- distances ---------------------------------------------------------------


def test_distance_on_sphere():
    x = EE.normalize([1.0, 0.0, 0.0])
    y = EE.normalize([0.0, 1.0, 0.0])
    d = distance(EE, x, y)
    assert d.value == pytest.approx(math.pi / 2)
    assert d.level == 1 and d.kind == "real"


def test_distance_euclidean_345():
    x = PE.normalize([1.0, 0.0, 0.0])
    y = PE.normalize([1.0, 3.0, 4.0])
    assert distance(PE, x, y).value == pytest.approx(5.0, rel=1e-12)


def test_distance_hyperbolic():
    t = 0.7
    x = HE.normalize([1.0, 0.0, 0.0])
    y = HE.normalize([math.cosh(t), math.sinh(t), 0.0])
    assert distance(HE, x, y).value == pytest.approx(t, rel=1e-12)


def test_distance_galilean_first_coordinate_gap():
    x = PP.normalize([1.0, 1.0, 5.0])
    y = PP.normalize([1.0, 4.0, -2.0])
    assert distance(PP, x, y).value == pytest.approx(3.0, rel=1e-12)


def test_distance_self_is_zero():
    p = EE.normalize([2.0, 1.0, 2.0])
    assert distance(EE, p, p).value == 0.0


def test_self_measures_are_nonnegative_where_k_is_minus_one():
    # A computed c just below 1 with s snapped to 0 gave log1p(c - 1) < 0, down
    # to -2.2e-11 in hee, or -0.0: signbit is set for both.  Recipe: seeded
    # self-pairs in every signature with k1 = -1 and n <= 3, and self-angles of
    # the first m + 1 columns of random_transform words where k_{m+1} = -1.
    def nonnegative(values):
        return not np.signbit(values).any()

    rng = random.Random(2)
    for n in (1, 2, 3):
        for sig in itertools.product((-1, 0, 1), repeat=n):
            if sig[0] != -1:
                continue
            sp = Space(sig)
            points = []
            for _ in range(300):
                try:
                    points.append(sp.normalize([1.0] + [rng.uniform(-0.9, 0.9) for _ in range(n)]))
                except GeometryError:
                    continue
            assert len(points) >= 150
            X = np.array(points)
            assert nonnegative(distance(sp, X, X).values), sig
    for n in (2, 3, 4):
        for sig in itertools.product((-1, 0, 1), repeat=n):
            sp = Space(sig)
            for m in range(1, n):
                if sig[m] != -1:
                    continue
                X = np.array([random_transform(sp, seed).matrix[:, : m + 1] for seed in range(20)])
                X = MPlane(sp, X, validate=False)
                assert nonnegative(angle(sp, X, X).values), (sig, m)


def test_distance_imaginary_kind_uses_dual_characteristic():
    sp = Space((1, -1))
    t = 0.9
    x = sp.normalize([1.0, 0.0, 0.0])
    y = np.array([math.cosh(t), 0.0, math.sinh(t)])
    d = distance(sp, x, y)
    assert d.kind == "imaginary"
    assert d.value == pytest.approx(t, rel=1e-12)


# The nine planar signatures and two higher ones with imaginary separations.
STACK_SIGS = ["".join(p) for p in itertools.product("hpe", repeat=2)] + ["ehe", "hehe"]


def _bits(m):
    return type(m.value), m.value.hex(), m.level, m.kind


def _check_stack(got, alone):
    """got is read-only Measures whose rows have the bits and kinds of the rows measured alone."""
    assert isinstance(got, Measures)
    assert got.values.dtype == float and got.imaginary.dtype == bool
    assert not got.values.flags.writeable and not got.imaginary.flags.writeable
    assert len(got) == len(alone)
    assert [_bits(m) for m in got] == [_bits(got[i]) for i in range(len(got))] == [_bits(m) for m in alone]


def test_distance_on_stacks_lists_row_measures():
    sp = Space((1, -1))
    t = 0.9
    X = sp.normalize(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.3, 0.1]]))
    Y = sp.normalize(np.array([[0.0, 1.0, 0.0], [math.cosh(t), 0.0, math.sinh(t)], [2.0, 0.3, 0.1]]))
    got = distance(sp, X, Y)
    assert [m.kind for m in got] == ["real", "imaginary", "real"]
    assert all(type(m.value) is float for m in got)
    assert got[1].value == pytest.approx(t, rel=1e-12)
    alone = [distance(sp, np.array(x), np.array(y)) for x, y in zip(X, Y)]
    assert list(got) == alone
    _check_stack(got, alone)

    rng = np.random.default_rng(29)
    for sig in STACK_SIGS:
        sp = Space(sig)
        raw = rng.uniform(-1.0, 1.0, (2, 24, sp.n + 1))
        raw[:, :, 0] = 2.0  # a positive self-product in every signature
        raw[1, ::3] = raw[0, ::3] + 1e-6 * raw[1, ::3]  # near-coincident rows
        x, y = sp.normalize(raw[0]), sp.normalize(raw[1])
        rows, alone = [], []
        for i in range(len(x)):
            try:
                alone.append(distance(sp, x[i], y[i]))
            except GeometryError:
                continue
            rows.append(i)
        assert len(rows) >= 12
        _check_stack(distance(sp, x[rows], y[rows]), alone)


def test_angle_on_plane_stacks_matches_planes():
    # lines through the base point, moved by seeded words of rotations
    for sig in STACK_SIGS:
        sp = Space(sig)
        base = np.eye(sp.n + 1)[:, :2]
        X = np.array([random_transform(sp, seed).matrix @ base for seed in range(8)])
        Y = np.array([random_transform(sp, seed + 100).matrix @ base for seed in range(8)])
        rows, measures = [], []
        for i in range(8):
            try:
                measures.append(angle(sp, MPlane(sp, X[i], validate=False), MPlane(sp, Y[i], validate=False)))
            except GeometryError:
                continue
            rows.append(i)
        assert len(rows) >= 4
        got = angle(sp, MPlane(sp, X[rows], validate=False), MPlane(sp, Y[rows], validate=False))
        assert list(got) == measures
        _check_stack(got, measures)
    with pytest.raises(DimensionMismatch):
        MPlane(sp, X)  # stacks are taken as given, never validated


def _error(fn, *args):
    with pytest.raises(GeometryError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_stack_with_unmeasurable_rows_raises_the_first_rows_error():
    # Points and lines on opposite hyperbolic branches cannot be measured:
    # the stack raises the error of its first such row, as that row alone.
    def branch(c, t):
        return [c * math.cosh(t), math.sinh(t)]

    sp = Space("he")
    x = np.array([[1.0, 0.0, 0.0]] * 3)
    y = np.array([branch(1.0, 0.2) + [0.0], branch(-1.0, 0.7) + [0.0], branch(-1.0, 0.5) + [0.0]])
    first = _error(distance, sp, np.array(x[1]), np.array(y[1]))
    assert first[0] is DomainError
    assert _error(distance, sp, x, y) == first != _error(distance, sp, np.array(x[2]), np.array(y[2]))

    sp = Space("eh")  # lines through the base point, rotated in the hyperbolic (1, 2) block
    X = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]] * 3)
    Y = np.array([[[1.0, 0.0], [0.0, c], [0.0, s]] for c, s in y[:, :2]])
    rows = [(MPlane(sp, X[i], validate=False), MPlane(sp, Y[i], validate=False)) for i in range(3)]
    first = _error(angle, sp, *rows[1])
    assert first[0] is DomainError
    got = _error(angle, sp, MPlane(sp, X, validate=False), MPlane(sp, Y, validate=False))
    assert got == first != _error(angle, sp, *rows[2])


def test_identified_distance_takes_shorter_arc():
    x = EE.normalize([1.0, 0.0, 0.0])
    y = np.array([-0.6, 0.8, 0.0])
    assert distance(EE, x, y).value == pytest.approx(math.acos(-0.6))
    assert identified_distance(EE, x, y) == pytest.approx(math.acos(0.6))


def test_identified_distance_folds_stacks_row_by_row():
    rng = np.random.default_rng(23)
    for sig in ("ee", "ep", "eh", "eee", "ehp", "ehe"):
        sp = Space(sig)
        raw = rng.uniform(-1.0, 1.0, (2, 40, sp.n + 1))
        raw[:, :, 0] = 2.0  # a positive self-product in every signature
        x, y = sp.normalize(raw[0]), sp.normalize(raw[1])
        y = y * rng.choice((-1.0, 1.0), (40, 1))  # both sides of pi/2
        folded = identified_distance(sp, x, y)
        assert isinstance(folded, np.ndarray) and folded.dtype == float and not folded.flags.writeable
        alone = [identified_distance(sp, a, b) for a, b in zip(x, y)]
        assert all(type(v) is float for v in alone)
        assert folded.tolist() == alone
        assert [v.hex() for v in folded.tolist()] == [v.hex() for v in alone]
        assert any(m.value > math.pi / 2 for m in distance(sp, x, y))


def test_identified_distance_keeps_imaginary_separations():
    # measured from |dot|, an imaginary separation is the same for x and -x
    sp = Space("eh")
    x = sp.normalize([1.0, 0.0, 0.0])
    for t in (0.3, 2.0, 4.0):
        y = sp.normalize([math.cosh(t), 0.0, math.sinh(t)])
        d = distance(sp, x, y)
        assert d.kind == "imaginary" and d.value == pytest.approx(t)
        assert identified_distance(sp, x, y) == identified_distance(sp, x, -y) == d.value


def test_identified_distance_needs_elliptic_start():
    x = PE.normalize([1.0, 0.0, 0.0])
    y = PE.normalize([1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        identified_distance(PE, x, y)


# -- angles and line relations -------------------------------------------------


def line(sp, x, y):
    return sp.line_through(sp.normalize(x), sp.normalize(y))


def test_angle_between_coordinate_lines():
    a = angle(EE, line(EE, [1, 0, 0], [0, 1, 0]), line(EE, [1, 0, 0], [0, 0, 1]))
    assert a.value == pytest.approx(math.pi / 2)
    assert a.level == 2 and a.kind == "real"


def test_angle_of_line_with_itself_is_zero():
    ln = line(EE, [1, 0, 0], [2, 1, 1])
    assert angle(EE, ln, ln).value == pytest.approx(0.0, abs=1e-12)


def test_angle_euclidean_sixty_degrees():
    base = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    turned = line(PE, [1.0, 0.0, 0.0], [1.0, 0.5, 0.5 * math.sqrt(3.0)])
    assert angle(PE, base, turned).value == pytest.approx(math.pi / 3, rel=1e-12)


def test_parallel_lines_in_euclidean_plane():
    lo = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    hi = line(PE, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert is_parallel(PE, lo, hi)
    assert not is_parallel(PE, lo, lo)  # same span does not count
    slanted = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert not is_parallel(PE, lo, slanted)


def test_parallel_and_orthogonal_answer_stacks_row_by_row():
    lo = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    hi = line(PE, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    up = line(PE, [1.0, 0.5, 0.0], [1.0, 0.5, 1.0])
    slanted = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    pairs = [(lo, hi), (lo, lo), (lo, slanted), (lo, up), (hi, up), (slanted, slanted)]
    X = MPlane(PE, np.stack([x.cols for x, _ in pairs]), validate=False)
    Y = MPlane(PE, np.stack([y.cols for _, y in pairs]), validate=False)
    for test in (is_parallel, is_orthogonal):
        rows = [test(PE, x, y) for x, y in pairs]
        assert all(type(r) is bool for r in rows)
        got = test(PE, X, Y)
        assert got.dtype == bool and got.tolist() == rows
    assert is_parallel(PE, X, Y).tolist() == [True, False, False, False, False, False]


def test_orthogonal_lines_in_euclidean_plane():
    lo = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    up = line(PE, [1.0, 0.5, 0.0], [1.0, 0.5, 1.0])
    assert is_orthogonal(PE, lo, up)
    slanted = line(PE, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert not is_orthogonal(PE, lo, slanted)


# -- triangle construction ------------------------------------------------------


def test_triangle_rejects_coincident_vertices():
    p = EE.normalize([1.0, 0.0, 0.0])
    q = EE.normalize([0.0, 1.0, 0.0])
    with pytest.raises(DegenerateTriangle):
        Triangle(EE, p, q, p)


def test_triangle_needs_planar_space():
    sp = Space("eee")
    p = sp.normalize([1.0, 0, 0, 0])
    q = sp.normalize([0, 1.0, 0, 0])
    r = sp.normalize([0, 0, 1.0, 0])
    with pytest.raises(DimensionMismatch):
        Triangle(sp, p, q, r)


@pytest.mark.parametrize(
    "sig, points, want",
    [
        # the AB minor squares to inf
        ("ee", ([1.0, 0.0, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]), "side AB has cross radicand inf"),
        # inf * 0 in the AC minors
        ("ee", ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.inf, 0.0, 0.0]), "side AC has cross radicand nan"),
        # the BC minor squares to inf with coefficient -1: -inf, which the root snaps to 0.0
        ("he", ([1e-200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200]), "side BC has cross radicand -inf"),
    ],
)
def test_triangle_refuses_a_non_finite_side_radicand(sig, points, want):
    with pytest.raises(DomainError, match=want):
        Triangle(Space(sig), *(np.array(p) for p in points))


def test_triangle_keeps_its_vertices_as_read_only_rows():
    given = [np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], (0.0, 0.0, 1.0)]
    tri = Triangle(EE, *given)
    assert all(not v.flags.writeable for v in (tri.A, tri.B, tri.C))
    given[0][1] = 5.0
    assert np.array_equal(np.array([tri.A, tri.B, tri.C]), np.eye(3))
    # equality and hashing are by identity, as for any object
    assert tri == tri and tri != Triangle(EE, tri.A, tri.B, tri.C) and hash(tri) == object.__hash__(tri)
    with pytest.raises(DimensionMismatch):
        Triangle(EE, [[1.0, 0.0, 0.0]], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def _sweep_values(rng, top):
    return [0.0, 0.5, 3.0, 40.0, 300.0, 355.0, top] + [rng.uniform(0.0, top) for _ in range(3)]


@pytest.mark.parametrize("sig", [(k1, k2) for k1 in (1, 0, -1) for k2 in (1, 0, -1)])
def test_finite_sas_inputs_give_finite_measures_or_refuse(sig):
    # Products of vertex coordinates far below the 1e150 limit overflow
    # (e.g. hh, b = 300, alpha = 0.3, c = 0.5); a RuntimeWarning fails the test.
    sp = Space(sig)
    rng = random.Random(20 + 3 * sig[0] + sig[1])
    sides, angles = _sweep_values(rng, 709.0), _sweep_values(rng, 700.0)
    measured = 0
    for b in sides:
        for alpha in angles:
            for c in sides:
                for solve in (False, True):
                    try:
                        if solve:
                            tm = solve_sas(sp, b, alpha, c)
                        else:
                            tm = measure_triangle(triangle_from_sas(sp, b, alpha, c))
                    except GeometryError:
                        continue
                    measured += 1
                    values = [tm.a, tm.b, tm.c, tm.alpha, tm.beta_prime, tm.gamma]
                    assert all(math.isfinite(m.value) for m in values), (b, alpha, c, solve, values)
    assert measured > 10


def test_sas_measured_values_return_the_inputs():
    tm = measure_triangle(triangle_from_sas(EE, 0.8, 0.9, 0.5))
    assert tm.b.value == pytest.approx(0.8, abs=1e-12)
    assert tm.c.value == pytest.approx(0.5, abs=1e-12)
    assert tm.alpha.value == pytest.approx(0.9, abs=1e-12)
    assert tm.all_real()


def _bits(m):
    return m.value.hex(), m.level, m.kind


TM_FIELDS = ("a", "b", "c", "alpha", "beta_prime", "gamma")


def test_measured_sas_triangles_are_distances_and_angles_on_the_public_route():
    # 40 SAS draws per planar signature; every built triangle that measures
    # gives the bits distance (sides) and angle (lines at each vertex) give.
    measured = 0
    for sig in itertools.product((1, 0, -1), repeat=2):
        sp = Space(sig)
        rng = random.Random(600 + 10 * sig[0] + sig[1])

        def line(vertex, direction):
            return MPlane(sp, np.column_stack([vertex, direction]), validate=False)

        for _ in range(40):
            b, alpha, c = (rng.uniform(0.05, 3.0) for _ in range(3))
            try:
                tri = triangle_from_sas(sp, b, alpha, c)
                tm = measure_triangle(tri)
            except GeometryError:
                continue
            measured += 1
            A, B, C = tri.A, tri.B, tri.C
            want = [
                distance(sp, B, C),
                distance(sp, A, C),
                distance(sp, A, B),
                angle(sp, line(A, sp.direction(A, B)), line(A, sp.direction(A, C))),
                # exterior at B: the AB geodesic continued past B
                angle(sp, line(B, -sp.direction(B, A)), line(B, sp.direction(B, C))),
                angle(sp, line(C, sp.direction(C, A)), line(C, sp.direction(C, B))),
            ]
            got = [tm.a, tm.b, tm.c, tm.alpha, tm.beta_prime, tm.gamma]
            assert all(type(m) is Measure for m in got)
            assert [_bits(m) for m in got] == [_bits(m) for m in want], (sig, b, alpha, c)
    assert measured == 191


def test_measure_triangle_builds_its_rows_without_a_stack_result(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Measures built")

    sp = Space("he")
    tri = triangle_from_sas(sp, 0.7, 1.1, 0.9)
    want = measure_triangle(tri)
    monkeypatch.setattr(metric, "Measures", refuse)
    got = measure_triangle(tri)
    assert [_bits(getattr(got, f)) for f in TM_FIELDS] == [_bits(getattr(want, f)) for f in TM_FIELDS]
    # Single pairs (a right triangle is measured pair by pair) never build one
    # either; a stack does, so the patch is in force.
    assert right_triangle_residuals(Space("ee"), 0.6, 0.8).alpha > 0.0
    with pytest.raises(AssertionError, match="Measures built"):
        distance(sp, np.array([tri.A, tri.B]), np.array([tri.B, tri.C]))


def test_octant_triangle():
    tm = measure_triangle(triangle_from_sas(EE, math.pi / 2, math.pi / 2, math.pi / 2))
    for m in (tm.a, tm.b, tm.c, tm.alpha, tm.beta_prime, tm.gamma):
        assert m.value == pytest.approx(math.pi / 2, abs=1e-12)


def test_euclidean_345_triangle():
    tm = measure_triangle(triangle_from_sas(PE, 4.0, math.pi / 2, 3.0))
    assert tm.a.value == pytest.approx(5.0, rel=1e-12)
    assert tm.beta_prime.value == pytest.approx(math.acos(-0.6), rel=1e-12)
    assert tm.gamma.value == pytest.approx(math.acos(0.8), rel=1e-12)


def test_triangle_area_closed_forms():
    octant = measure_triangle(triangle_from_sas(EE, math.pi / 2, math.pi / 2, math.pi / 2))
    assert triangle_area(EE, octant) == pytest.approx(math.pi / 2, rel=1e-12)
    right = measure_triangle(triangle_from_sas(PE, 4.0, math.pi / 2, 3.0))
    assert triangle_area(PE, right) == pytest.approx(6.0, rel=1e-12)
    # hyperbolic: the angle defect pi - (alpha + beta + gamma), beta = pi - beta'
    tm = measure_triangle(triangle_from_sas(HE, 1.0, 0.8, 1.2))
    beta = math.pi - tm.beta_prime.value
    defect = math.pi - (tm.alpha.value + beta + tm.gamma.value)
    assert triangle_area(HE, tm) == pytest.approx(defect, rel=1e-12)


def test_triangle_area_needs_real_measures_in_a_plane():
    real = Measure(0.5, 1)
    tm = TriangleMeasurements(real, real, real, real, Measure(0.5, 2, "imaginary"), real)
    with pytest.raises(DomainError, match="all measures real"):
        triangle_area(EE, tm)
    with pytest.raises(DimensionMismatch):
        triangle_area(Space("eee"), TriangleMeasurements(*[real] * 6))


# -- law registry -----------------------------------------------------------------


def test_octant_laws_are_tiny():
    sp = EE
    tm = measure_triangle(triangle_from_sas(sp, math.pi / 2, math.pi / 2, math.pi / 2))
    rep = law_residuals(sp, tm)
    assert set(rep.residuals) == {"eq%d" % i for i in range(13, 26)}
    assert max(rep.residuals.values()) <= 1e-9


def test_euclidean_345_laws_are_tiny():
    tm = measure_triangle(triangle_from_sas(PE, 4.0, math.pi / 2, 3.0))
    rep = law_residuals(PE, tm)
    assert max(rep.residuals.values()) <= 1e-9


def test_variant_discrimination_elliptic():
    tm = measure_triangle(triangle_from_sas(EE, 0.8, 0.9, 0.5))
    rep = law_residuals(EE, tm)
    assert rep.variants["eq19"] == "corrected"
    assert rep.variant_values["eq19"]["as-printed"] > 1e-4
    assert rep.variant_values["eq19"]["corrected"] <= 1e-12
    assert rep.residuals["eq19"] <= 1e-12


def test_variant_discrimination_mixed_signature():
    sp = Space((1, -1))
    tm = measure_triangle(triangle_from_sas(sp, 0.5, 0.4, 0.3))
    rep = law_residuals(sp, tm)
    for key in ("eq19", "eq20", "eq21", "eq22"):
        assert rep.variants[key] == "corrected", key
        assert rep.variant_values[key]["as-printed"] > 1e-5, key
        assert rep.variant_values[key]["corrected"] <= 1e-12, key
    for key in ("eq23", "eq24", "eq25"):
        assert rep.variants[key] == "as-printed", key
        assert rep.variant_values[key]["corrected"] > 1e-5, key
        assert rep.variant_values[key]["as-printed"] <= 1e-12, key
    assert max(rep.residuals.values()) <= 1e-9


def test_relative_difference_is_the_max_form():
    # _rel scales by max(1, |lhs|, |rhs|) compared out: same bits, NaN skipped as max skips it.
    special = [0.0, -0.0, 0.5, -1.0, 1.0, 3.0, -7.5e300, 1e-300, math.inf, -math.inf, math.nan]
    for lhs, rhs in itertools.product(special, repeat=2):
        with np.errstate(invalid="ignore"):
            want = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        got = metric._rel(lhs, rhs)
        assert repr(got) == repr(want), (lhs, rhs)


def test_law_report_dict_shape():
    tm = measure_triangle(triangle_from_sas(EE, 0.8, 0.9, 0.5))
    d = law_residuals(EE, tm).to_dict()
    assert set(d) == {"residuals", "variants", "variant_values"}
    assert set(d["variant_values"]["eq19"]) == {"as-printed", "corrected"}


# -- SAS solver ----------------------------------------------------------------


@pytest.mark.parametrize(
    "sig,b,alpha,c",
    [
        ((1, 1), 0.8, 0.9, 0.5),
        ((-1, 1), 0.9, 1.1, 0.6),
        ((0, 1), 4.0, math.pi / 2, 3.0),
        ((1, -1), 0.5, 0.4, 0.3),
    ],
)
def test_solver_agrees_with_measured_triangle(sig, b, alpha, c):
    sp = Space(sig)
    solved = solve_sas(sp, b, alpha, c)
    measured = measure_triangle(triangle_from_sas(sp, b, alpha, c))
    assert solved.a.value == pytest.approx(measured.a.value, rel=1e-9, abs=1e-9)
    assert solved.beta_prime.value == pytest.approx(
        measured.beta_prime.value, rel=1e-9, abs=1e-9
    )
    assert solved.gamma.value == pytest.approx(measured.gamma.value, rel=1e-9, abs=1e-9)


def test_solver_galilean_cases():
    tm = solve_sas(PP, 2.0, 0.3, 1.0)
    assert tm.a.value == pytest.approx(1.0, rel=1e-12)
    assert tm.beta_prime.value == pytest.approx(0.6, rel=1e-12)
    assert tm.gamma.value == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(NoSolution):
        solve_sas(PP, 1.0, 0.3, 2.0)


def test_solver_rejects_impossible_spherical_side():
    # cosine relation pushed outside [-1, 1] is impossible on the sphere
    with pytest.raises(NoSolution):
        solve_sas(Space((1, -1)), 1.4, 2.0, 1.4)


def test_solver_needs_planar_space():
    with pytest.raises(DimensionMismatch):
        solve_sas(Space("eee"), 1.0, 1.0, 1.0)


# -- right triangles ------------------------------------------------------------


def test_right_triangle_needs_unit_second_characteristic():
    for sig in ((0, 0), (1, 0), (-1, 0), (1, -1), (0, -1), (-1, -1)):
        with pytest.raises(DomainError):
            right_triangle_residuals(Space(sig), 0.4, 0.5)


def test_right_triangle_euclidean_345():
    rep = right_triangle_residuals(PE, 3.0, 4.0)
    assert rep.c == pytest.approx(5.0, abs=1e-12)
    assert rep.a == pytest.approx(3.0, abs=1e-12)
    assert rep.b == pytest.approx(4.0, abs=1e-12)
    assert rep.alpha == pytest.approx(math.atan2(3.0, 4.0), abs=1e-12)
    assert rep.beta == pytest.approx(math.atan2(4.0, 3.0), abs=1e-12)
    assert set(rep.residuals) == {"eq%d" % i for i in range(26, 36)}
    assert max(rep.residuals.values()) <= 1e-12


def test_right_triangle_spherical_hypotenuse():
    rep = right_triangle_residuals(EE, math.pi / 4, math.pi / 4)
    assert rep.c == pytest.approx(math.acos(0.5), rel=1e-12)
    assert max(rep.residuals.values()) <= 1e-11


def test_right_triangle_hyperbolic():
    rep = right_triangle_residuals(HE, 0.6, 0.8)
    assert rep.c == pytest.approx(math.acosh(math.cosh(0.6) * math.cosh(0.8)), rel=1e-12)
    assert max(rep.residuals.values()) <= 1e-11


def test_measure_to_dict():
    d = distance(EE, EE.normalize([1, 0, 0]), EE.normalize([0, 1, 0])).to_dict()
    assert d == {"phi": pytest.approx(math.pi / 2), "level": 1, "kind": "real"}


def test_law_residuals_overflow_is_a_geometry_error():
    # beta' comes out near 6930, and eq21's as-printed form needs sinh of it
    sp = Space("hp")
    tm = measure_triangle(triangle_from_sas(sp, 2.106737733072028, 2.31622094515917, 2.1053842523569517))
    with pytest.raises(GeometryError):
        law_residuals(sp, tm)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperplane_angles_are_distances_of_their_minors_in_the_reversed_signature(n):
    # Polarity: an angle between two (n-1)-planes is the distance between
    # their minor vectors, read as points of the reversed signature, to the
    # bit, or the same refusal.
    def outcome(measure):
        try:
            m = measure()
        except GeometryError as exc:
            return type(exc).__name__, str(exc)
        return m.value.hex(), m.kind

    for sig in itertools.product((-1, 0, 1), repeat=n):
        sp, polar = Space(sig), Space(sig[::-1])
        for seed in range(0, 12, 2):
            X = MPlane(sp, random_transform(sp, seed).matrix[:, :n])
            Y = MPlane(sp, random_transform(sp, seed + 1).matrix[:, :n])
            got = outcome(lambda: angle(sp, X, Y))
            assert got == outcome(lambda: distance(polar, X.minor_vector(), Y.minor_vector())), (sig, seed)
