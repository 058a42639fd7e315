"""Points, flats, their products, and normalization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckgeo import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    Imaginary,
    MPlane,
    NegativeNorm,
    OnAbsolute,
    Space,
    cumulative_products,
    plane_tables,
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


def test_normalize_scales_to_unit():
    sp = Space("ee")
    p = sp.normalize([2.0, 0.0, 0.0])
    assert list(p.coords) == [1.0, 0.0, 0.0]


def test_normalize_canonical_sign():
    sp = Space("ee")
    a = sp.normalize([0.0, -0.7, 0.2])
    b = sp.normalize([0.0, 0.7, -0.2])
    assert np.allclose(a.coords, b.coords)
    assert a.coords[1] > 0


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
    assert list(p.coords) == [1.0, -2.0, -3.0]


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
                keep.append((row, sp.normalize(row).coords))
            except (NegativeNorm, OnAbsolute):
                pass
        stack = sp.normalize(np.array([row for row, _ in keep]))
        assert not stack.flags.writeable
        assert np.array_equal(stack, np.array([unit for _, unit in keep]))
        grid = sp.normalize(np.array([row for row, _ in keep[:4]]).reshape(2, 2, sp.n + 1))
        assert np.array_equal(grid.reshape(4, sp.n + 1), stack[:4])


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
