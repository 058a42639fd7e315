"""Points, flats, their products, and normalization."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckgeo.entity import _det, _root
from ckgeo import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    GeodesicSimplex,
    GOrthoTransform,
    Imaginary,
    MPlane,
    NegativeNorm,
    OnAbsolute,
    Space,
    Triangle,
    apply_point,
    cone_contains,
    cumulative_products,
    distance,
    identity,
    plane_tables,
    validate,
)

CHARS = (-1, 0, 1)


def all_sigs(n):
    return list(itertools.product(CHARS, repeat=n))


# -- oracles -----------------------------------------------------------------


def oracle_dot(sig, x, y):
    K = cumulative_products(sig)
    return sum(K[i] * x[i] * y[i] for i in range(len(x)))


def oracle_point_cross_radicand(sig, x, y):
    # direct double loop over index pairs with symbolically cancelled weights
    total = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            minor = x[i] * y[j] - x[j] * y[i]
            total += _pair_weight(sig, i, j) * minor * minor
    return total


def _pair_weight(sig, i, j):
    # exponent bookkeeping for K_i K_j with one factor of the first
    # characteristic divided out; never divides by a numeric zero
    exps = [0] * len(sig)
    for l in range(i):
        exps[l] += 1
    for l in range(j):
        exps[l] += 1
    exps[0] -= 1
    value = 1
    for k, e in zip(sig, exps):
        if e > 0:
            value *= k ** e
    return value


# -- space basics ---------------------------------------------------------------


def test_space_accepts_strings_and_tuples():
    assert Space("pe").sig == (0, 1)
    assert Space((1, 1)).sig == (1, 1)
    assert Space("hh").K == (1, -1, 1)


def test_space_arrays_are_built_once_per_signature():
    a, b = Space("hpe"), Space((-1, 0, 1))
    assert a._Karr is b._Karr and a._norm_weights is b._norm_weights
    assert a._Karr.tolist() == list(a.K) == [1, -1, 0, 0]
    assert a._norm_weights.tolist() == [[1, 1], [-1, 1], [0, 0], [0, 0]]
    assert not a._Karr.flags.writeable and not a._norm_weights.flags.writeable


def test_space_dimension():
    assert Space("e").n == 1
    assert Space("eee").n == 3


def test_dot_points_matches_weighted_sum():
    sp = Space("he")
    x, y = [1.5, 0.3, -0.2], [0.9, 0.1, 0.4]
    assert sp.dot_points(x, y) == pytest.approx(oracle_dot((-1, 1), x, y), rel=1e-15)


@settings(max_examples=60)
@given(
    st.sampled_from(all_sigs(2) + all_sigs(3)),
    st.data(),
)
def test_point_cross_radicand_matches_oracle(sig, data):
    n = len(sig)
    coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    x = data.draw(st.lists(coords, min_size=n + 1, max_size=n + 1))
    y = data.draw(st.lists(coords, min_size=n + 1, max_size=n + 1))
    sp = Space(sig)
    got = sp.point_cross_radicand(x, y)
    want = oracle_point_cross_radicand(sig, x, y)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(st.sampled_from(all_sigs(2) + all_sigs(3)), st.data())
def test_defining_identity_for_raw_points(sig, data):
    n = len(sig)
    coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    x = data.draw(st.lists(coords, min_size=n + 1, max_size=n + 1))
    y = data.draw(st.lists(coords, min_size=n + 1, max_size=n + 1))
    sp = Space(sig)
    lhs = sp.dot_points(x, y) ** 2 + sig[0] * sp.point_cross_radicand(x, y)
    rhs = sp.dot_points(x, x) * sp.dot_points(y, y)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


# -- normalization ----------------------------------------------------------------


def _root_reference(rad, term_scale):
    """The snapped root as an earlier three-where formula computed it."""
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j
        real = rad >= -1e-12 * np.maximum(1.0, term_scale)
        mag = np.sqrt(np.abs(np.where(real & (rad < 0.0), 0.0, rad)))
        return np.where(real, mag, 1j * mag)


def _same_bits(x, y):
    return all(
        (math.isnan(u) and math.isnan(v)) or np.float64(u).tobytes() == np.float64(v).tobytes()
        for u, v in ((x.real, y.real), (x.imag, y.imag))
    )


def test_root_matches_the_reference_formula():
    tiny, edge = 5e-324, 2.2250738585072014e-308
    rads = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, edge, -edge]
    rads += [1.0, -1.0, 2.0, -3.0, 1e300, -1e300]
    rads += [float(v) * 10.0**e for e in range(-320, 309, 11) for v in (1.7, -0.6)]
    scales = [0.0, tiny, 1.0, 3.0, 1e5, 1e20, 1e300, math.inf]
    for scale in scales:  # both sides of the snap window's edge
        cut = -1e-12 * max(1.0, scale)
        rads += [cut, np.nextafter(cut, 0.0), np.nextafter(cut, -math.inf)]
    # A kernel's term scale bounds |radicand| and is NaN only with it.
    pairs = [(r, s) for r in rads for s in scales + [math.nan] if math.isnan(r) or s >= abs(r)]
    assert len(pairs) > 500
    rad, scale = np.array(pairs).T
    got, want = _root(rad, scale), _root_reference(rad, scale)
    for i, (r, s) in enumerate(pairs):
        assert _same_bits(got[i], want[i]), (r, s, got[i], want[i])
        assert _same_bits(_root(np.float64(r), np.float64(s)), got[i])


def test_normalize_scales_to_unit():
    sp = Space("ee")
    p = sp.normalize([2.0, 0.0, 0.0])
    assert list(p) == [1.0, 0.0, 0.0]


def test_normalize_canonical_sign():
    sp = Space("ee")
    a = sp.normalize([0.0, -0.7, 0.2])
    b = sp.normalize([0.0, 0.7, -0.2])
    assert np.allclose(a, b)
    assert a[1] > 0


def test_normalize_on_absolute():
    sp = Space("pe")
    with pytest.raises(OnAbsolute):
        sp.normalize([0.0, 3.0, 4.0])


def test_normalize_negative_norm_keeps_value():
    sp = Space("he")
    with pytest.raises(NegativeNorm) as err:
        sp.normalize([0.5, 2.0, 0.0])
    assert err.value.value == pytest.approx(0.25 - 4.0)


def test_normalize_euclidean_sheet():
    sp = Space("pe")
    p = sp.normalize([-2.0, 4.0, 6.0])
    assert list(p) == [1.0, -2.0, -3.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite(bad):
    sp = Space("he")
    with pytest.raises(DomainError, match="coordinate 1 is"):
        sp.normalize([1.0, bad, 0.0])
    with pytest.raises(DomainError, match="coordinate 0 is"):
        sp.normalize(np.array([[1.0, 0.1, 0.0], [bad, 0.0, 0.0]]))


def test_normalize_stack_matches_points():
    rng = np.random.default_rng(11)
    for sig in all_sigs(2) + [(-1, 1, 0, 1)]:
        sp = Space(sig)
        raw = rng.uniform(-2.0, 2.0, (40, sp.n + 1))
        keep = []
        for row in raw:
            try:
                keep.append((row, sp.normalize(row)))
            except (NegativeNorm, OnAbsolute):
                pass
        stack = sp.normalize(np.array([row for row, _ in keep]))
        assert not stack.flags.writeable
        assert not keep[0][1].flags.writeable
        assert np.array_equal(stack, np.array([unit for _, unit in keep]))
        grid = sp.normalize(np.array([row for row, _ in keep[:4]]).reshape(2, 2, sp.n + 1))
        assert np.array_equal(grid.reshape(4, sp.n + 1), stack[:4])


def test_normalize_divides_huge_rows_by_their_peak():
    assert list(Space("he").normalize([1e200, 0.0, 0.0])) == [1.0, 0.0, 0.0]
    assert list(Space("ee").normalize([0.0, -3e200, 4e200])) == [0.0, 0.6, -0.8]
    with pytest.raises(OnAbsolute):
        Space("he").normalize([1e200, 1e200, 0.0])


def test_normalize_keeps_ordinary_rows_beside_huge_ones():
    rng = np.random.default_rng(5)
    for sig in all_sigs(2):
        sp = Space(sig)
        rows = rng.uniform(-2.0, 2.0, (30, 3))
        rows[0, 0] = 3.0  # every signature measures this row
        rows[::7] *= 1e180
        alone = []
        for row in rows:
            try:
                alone.append(sp.normalize(row))
            except (OnAbsolute, NegativeNorm):
                alone.append(None)
        keep = [i for i, unit in enumerate(alone) if unit is not None]
        stack = sp.normalize(rows[keep])
        for got, i in zip(stack, keep):
            assert got.tobytes() == alone[i].tobytes()


def test_normalize_stack_reports_first_bad_row():
    sp = Space("he")
    good, absolute, negative = [1.0, 0.2, 0.1], [1.0, 1.0, 0.0], [0.5, 2.0, 0.0]
    with pytest.raises(OnAbsolute):
        sp.normalize(np.array([good, absolute, negative, [math.nan, 0.0, 0.0]]))
    with pytest.raises(NegativeNorm) as err:
        sp.normalize(np.array([good, negative, absolute]))
    assert err.value.value == pytest.approx(0.25 - 4.0)
    assert sp.normalize(np.empty((0, 3))).shape == (0, 3)


# -- cross product classification ----------------------------------------------


def test_cross_points_real():
    sp = Space("ee")
    s = sp.cross_points(sp.normalize([1, 0, 0]), sp.normalize([0, 1, 0]))
    assert s == pytest.approx(1.0)


def test_cross_points_zero_for_same_point():
    sp = Space("ee")
    p = sp.normalize([3.0, 4.0, 12.0])
    assert sp.cross_points(p, p) == 0.0


def test_cross_points_imaginary():
    # unit shell of (1,-1) carries pairs with negative squared separation
    sp = Space((1, -1))
    t = 0.9
    x = sp.normalize([1.0, 0.0, 0.0])
    y = sp.normalize([math.cosh(t), 0.0, math.sinh(t)])
    s = sp.cross_points(x, y)
    assert isinstance(s, Imaginary)
    assert s.magnitude == pytest.approx(math.sinh(t), rel=1e-12)


def test_point_products_on_stacks_match_pairs():
    # A pair gives the same bits alone as inside a stack, in every signature.
    rng = np.random.default_rng(3)
    for sig in all_sigs(2) + all_sigs(3) + [(1, -1, 0, 1)]:
        sp = Space(sig)
        X = rng.uniform(-2.0, 2.0, (25, sp.n + 1))
        Y = rng.uniform(-2.0, 2.0, (25, sp.n + 1))
        Y[:5] = X[:5] + 1e-9 * Y[:5]  # near-coincident rows exercise the snap window
        dots, rads, cross = sp.dot_points(X, Y), sp.point_cross_radicand(X, Y), sp.cross_points(X, Y)
        assert cross.dtype.kind == "c"
        for i in range(len(X)):
            assert dots[i] == sp.dot_points(X[i], Y[i])
            assert rads[i] == sp.point_cross_radicand(X[i], Y[i])
            one = sp.cross_points(X[i], Y[i])
            if isinstance(one, Imaginary):
                assert cross[i] == 1j * one.magnitude
            else:
                assert cross[i] == one


def test_stacks_that_do_not_broadcast_raise_dimension_mismatch():
    sp = Space("he")
    two = sp.normalize([[1.0, 0.0, 0.0], [2.0, 0.5, 0.0]])
    three = sp.normalize([[1.0, 0.0, 0.0], [2.0, 0.5, 0.0], [3.0, 1.0, 0.5]])
    lines = MPlane(sp, np.stack([np.eye(3)[:, :2]] * 2), validate=False)
    more = MPlane(sp, np.stack([np.eye(3)[:, :2]] * 3), validate=False)
    calls = [
        lambda: distance(sp, two, three),
        lambda: sp.dot_points(two, three),
        lambda: sp.cross_points(two, three),
        lambda: sp.point_cross_radicand(two, three),
        lambda: sp.dot_planes(lines, more),
        lambda: sp.cross_planes(lines, more),
        lambda: sp.plane_cross_radicand(lines, more),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch, match=re.escape("shapes (2, 3) and (3, 3) do not broadcast")):
            call()
    # a point against a stack, and a stack of stacks against a stack, still broadcast
    assert len(distance(sp, two[0], three)) == 3
    assert sp.dot_points(two[:, None, :], three).shape == (2, 3)


# -- planes ------------------------------------------------------------------------


def line(sp, x, y):
    return sp.line_through(sp.normalize(x), sp.normalize(y))


def test_line_through_self_dot_is_one():
    for sig in ((1, 1), (0, 1), (0, 0), (-1, 1), (1, -1), (-1, 0)):
        sp = Space(sig)
        if sig[0] == 1:
            a, b = [1.0, 0.0, 0.0], [2.0, 1.0, 0.5]
        elif sig[0] == 0:
            a, b = [1.0, 0.2, -0.3], [1.0, 1.1, 0.8]
        else:
            a, b = [1.2, 0.3, 0.1], [1.5, 0.9, 0.2]
        try:
            ln = line(sp, a, b)
        except (NegativeNorm, OnAbsolute):
            continue
        assert sp.dot_planes(ln, ln) == pytest.approx(1.0, abs=1e-9)


def test_plane_column_validation():
    sp = Space("ee")
    with pytest.raises(Exception):
        MPlane(sp, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plane_rejects_non_finite(bad):
    sp = Space("ee")
    cols = np.eye(3)[:, :2]
    cols[2, 1] = bad
    with pytest.raises(DomainError, match=r"plane entry \(2, 1\) is"):
        MPlane(sp, cols)
    with pytest.raises(DomainError, match=r"plane entry \(2, 1\) is"):
        MPlane(sp, cols, validate=False)
    stack = np.array([np.eye(3)[:, :2], cols, cols.T[::-1].T])
    with pytest.raises(DomainError, match=r"plane entry \(1, 2, 1\) is"):
        MPlane(sp, stack, validate=False)


@pytest.mark.parametrize(
    "sig, cols, limit",
    [
        # m = 1: degree-4 checks and squared 2x2 minors; the limit is 1e150 ** (1/2)
        ("ee", [[1, 0, 0], [0, 1e200, 0]], 1e75),
        ("ee", [[1, 0, 0], [0, 1e100, 0]], 1e75),
        ("he", [[1, 0, 0], [0, 0, -2e75]], 1e75),
        # m = 2: squared 3x3 minors; the limit is 1e150 ** (1/3)
        ("eee", [[1e60, 0, 0, 0], [0, 1e60, 0, 0], [0, 0, 1e60, 0]], 1e50),
    ],
)
def test_validated_plane_refuses_entries_whose_products_overflow(sig, cols, limit):
    sp = Space(sig)
    with np.errstate(all="raise"):
        with pytest.raises(DomainError, match=re.escape("above %r in magnitude" % limit)):
            MPlane(sp, np.array(cols, dtype=float).T)
    # unvalidated planes form no products on construction
    MPlane(sp, np.array(cols, dtype=float).T, validate=False)


def test_validated_plane_keeps_entries_below_the_limit():
    # a Euclidean line through (1, x, 0) along axis 1: valid at every x
    sp = Space("pe")
    line = MPlane(sp, np.array([[1.0, 1e70, 0.0], [0.0, 1.0, 0.0]]).T)
    assert sp.dot_planes(line, line) == 1.0
    with pytest.raises(DomainError, match=re.escape("plane entry (1, 0) is 1e+80")):
        MPlane(sp, np.array([[1.0, 1e80, 0.0], [0.0, 1.0, 0.0]]).T)


def test_plane_dimension_bounds():
    sp = Space("ee")
    with pytest.raises(DimensionMismatch):
        MPlane(sp, np.eye(3))  # m = n is not a proper flat
    with pytest.raises(DimensionMismatch):
        MPlane(sp, np.ones((3, 1)))


def test_minor_vector_lexicographic():
    sp = Space("ee")
    cols = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    pl = MPlane(sp, cols)
    # minors ordered (01), (02), (12)
    assert list(pl.minor_vector()) == [1.0, 0.0, 0.0]


def test_three_by_three_minors_are_the_written_out_cofactor_expansion():
    # Row 0 against its cofactors, in this order, bit for bit: signed zeros,
    # huge, tiny and non-finite entries included, alone and in stacks.
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e200, -1e-200, math.inf, math.nan, 1.0, -3.5])
    sub = rng.uniform(-2.0, 2.0, (5, 7, 3, 3))
    pick = rng.random(sub.shape) < 0.3
    sub[pick] = rng.choice(special, size=int(pick.sum()))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = (
            sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
            - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
            + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
        )
        assert _det(sub).tobytes() == want.tobytes()
        assert _det(sub[2, 3]).tobytes() == want[2, 3].tobytes()
        assert _det(np.asfortranarray(sub[1])).tobytes() == want[1].tobytes()


def test_angle_products_between_coordinate_lines():
    sp = Space("ee")
    x_axis = line(sp, [1, 0, 0], [0, 1, 0])
    y_axis = line(sp, [1, 0, 0], [0, 0, 1])
    assert sp.dot_planes(x_axis, y_axis) == pytest.approx(0.0, abs=1e-15)
    assert sp.cross_planes(x_axis, y_axis) == pytest.approx(1.0, rel=1e-12)


def test_defining_identity_for_raw_planes():
    rng = np.random.default_rng(5)
    for sig in all_sigs(2) + all_sigs(3):
        sp = Space(sig)
        n = sp.n
        for m in range(1, n):
            km = sig[m]
            for _ in range(20):
                X = MPlane(sp, rng.uniform(-1, 1, (n + 1, m + 1)), validate=False)
                Y = MPlane(sp, rng.uniform(-1, 1, (n + 1, m + 1)), validate=False)
                lhs = sp.dot_planes(X, Y) ** 2 + km * sp.plane_cross_radicand(X, Y)
                rhs = sp.dot_planes(X, X) * sp.dot_planes(Y, Y)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_plane_products_match_table_loops():
    # reference: walk the coefficient tables pair by pair
    rng = np.random.default_rng(8)
    for sig in all_sigs(3) + [(1, 0, -1, 1)]:
        sp = Space(sig)
        for m in range(1, sp.n):
            tuples, dot, cross = plane_tables(sig, m)
            pos = {t: p for p, t in enumerate(tuples)}
            X = MPlane(sp, rng.uniform(-1, 1, (sp.n + 1, m + 1)), validate=False)
            Y = MPlane(sp, rng.uniform(-1, 1, (sp.n + 1, m + 1)), validate=False)
            mx, my = X.minor_vector(), Y.minor_vector()
            want_dot = sum(dot[t] * mx[pos[t]] * my[pos[t]] for t in tuples)
            terms = [
                (coeff, (mx[pos[a]] * my[pos[b]] - mx[pos[b]] * my[pos[a]]) ** 2)
                for (a, b), coeff in cross.items()
                if coeff != 0
            ]
            assert sp.dot_planes(X, Y) == pytest.approx(want_dot, rel=1e-12, abs=1e-12)
            assert sp.plane_cross_radicand(X, Y) == pytest.approx(
                sum(c * sq for c, sq in terms), rel=1e-12, abs=1e-12
            )


def test_direction_unit_and_degenerate():
    sp = Space("pe")
    x = sp.normalize([1.0, 0.0, 0.0])
    y = sp.normalize([1.0, 3.0, 4.0])
    u = sp.direction(x, y)
    assert np.allclose(u, [0.0, 0.6, 0.8])
    with pytest.raises(DegenerateTriangle):
        sp.direction(x, x)


def test_pair_checks_reject_mismatched_planes():
    sp2, sp3 = Space("ee"), Space("eee")
    a = line(sp2, [1, 0, 0], [0, 1, 0])
    b = MPlane(sp3, np.eye(4)[:, :2])
    with pytest.raises(DimensionMismatch):
        sp2.dot_planes(a, b)


# -- argument intake ------------------------------------------------------------


def _intake_entries():
    """Each entry's argument name and a call that passes it the bad value."""
    ee = Space("ee")
    eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    simplex = GeodesicSimplex(ee, eye)
    return {
        "normalize": ("raw", lambda bad: ee.normalize(bad)),
        "dot_points": ("x", lambda bad: ee.dot_points(bad, eye[0])),
        "Triangle": ("vertex A", lambda bad: Triangle(ee, bad, eye[1], eye[2])),
        "GeodesicSimplex": ("vertices", lambda bad: GeodesicSimplex(ee, bad)),
        "apply_point": ("point", lambda bad: apply_point(identity(ee), bad)),
        "cone_contains": ("p", lambda bad: cone_contains(ee, simplex, bad)),
        "MPlane": ("plane columns", lambda bad: MPlane(ee, bad)),
        "validate": ("matrix", lambda bad: validate(ee, bad)),
        "GOrthoTransform": ("matrix", lambda bad: GOrthoTransform(ee, bad)),
    }


@pytest.mark.parametrize("entry", list(_intake_entries()))
@pytest.mark.parametrize(
    "bad",
    [[[1.0, 0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, "x", 0.0]], [1.0, {}, 0.0]],
    ids=["ragged", "string", "dict"],
)
def test_array_arguments_numpy_cannot_read_raise_dimension_mismatch(entry, bad):
    name, call = _intake_entries()[entry]
    with pytest.raises(DimensionMismatch, match="^%s is not an array of numbers" % name):
        call(bad)
