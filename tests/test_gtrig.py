"""Generalized trigonometric kernels and the (C, S) pair inversion."""

import math

import pytest
from hypothesis import given, strategies as st

from ckgeo import DomainError, InconsistentPair, gcos, gmeasure_from_cs, gsin, gtan

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_gcos_values():
    assert gcos(1, math.pi) == pytest.approx(-1.0, abs=1e-15)
    assert gcos(0, 5.0) == 1.0
    assert gcos(-1, 1.0) == pytest.approx(1.5430806348152437, abs=1e-12)


def test_gsin_values():
    assert gsin(1, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert gsin(0, 2.5) == 2.5
    assert gsin(-1, 1.0) == pytest.approx(1.1752011936438014, abs=1e-12)


def test_gtan_values():
    assert gtan(1, math.pi / 4) == pytest.approx(1.0, abs=1e-12)
    assert gtan(0, 7.0) == 7.0
    assert gtan(-1, 1.0) == pytest.approx(0.7615941559557649, abs=1e-12)


def test_rejects_bad_characteristic():
    # Every kernel tests k == 1 and k == 0 first; any other non-member raises the same error.
    for k in (2, -2, 0.5, math.nan, None, "1"):
        for kernel, args in ((gcos, (1.0,)), (gsin, (1.0,)), (gtan, (1.0,)), (gmeasure_from_cs, (1.0, 0.0))):
            with pytest.raises(ValueError, match=r"^characteristic must be one of -1, 0, 1$"):
                kernel(k, *args)


@pytest.mark.parametrize("k, same", [(1.0, 1), (True, 1), (0.0, 0), (False, 0), (-1.0, -1)])
def test_characteristics_equal_to_an_integer_are_that_integer(k, same):
    for x in (0.0, 0.7, -2.5):
        assert repr(gcos(k, x)) == repr(gcos(same, x)) and repr(gsin(k, x)) == repr(gsin(same, x))


@given(st.sampled_from((-1, 0, 1)), finite)
def test_squared_pair_identity(k, x):
    c, s = gcos(k, x), gsin(k, x)
    scale = max(1.0, c * c, abs(k) * s * s)
    assert abs(c * c + k * s * s - 1.0) <= 1e-9 * scale


@given(st.sampled_from((-1, 0, 1)), finite)
def test_gtan_is_ratio(k, x):
    c = gcos(k, x)
    if c == 0.0:
        return
    assert gtan(k, x) == pytest.approx(gsin(k, x) / c, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=math.pi))
def test_measure_roundtrip_circular(x):
    assert gmeasure_from_cs(1, math.cos(x), math.sin(x)) == pytest.approx(x, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=10.0))
def test_measure_roundtrip_parabolic(x):
    assert gmeasure_from_cs(0, 1.0, x) == x


@given(st.floats(min_value=0.0, max_value=8.0))
def test_measure_roundtrip_hyperbolic(x):
    got = gmeasure_from_cs(-1, math.cosh(x), math.sinh(x))
    assert got == pytest.approx(x, rel=1e-12, abs=1e-9)


def test_measure_range_circular():
    # the circular inverse lands in [0, pi], covering obtuse separations
    assert gmeasure_from_cs(1, -1.0, 0.0) == pytest.approx(math.pi, abs=1e-12)
    assert gmeasure_from_cs(1, -0.6, 0.8) == pytest.approx(math.atan2(0.8, -0.6), abs=1e-12)


def test_measure_rejects_negative_sine():
    with pytest.raises(InconsistentPair):
        gmeasure_from_cs(1, 0.0, -0.5)


def test_measure_snaps_tiny_negative_sine():
    assert gmeasure_from_cs(1, 1.0, -1e-12) == 0.0


def test_measure_rejects_inconsistent_pair():
    with pytest.raises(InconsistentPair):
        gmeasure_from_cs(1, 0.9, 0.9)
    with pytest.raises(InconsistentPair):
        gmeasure_from_cs(-1, 2.0, 0.1)


def test_measure_parabolic_requires_unit_cosine():
    # vital for detecting mislabeled configurations in flat-angle spaces
    with pytest.raises(InconsistentPair):
        gmeasure_from_cs(0, -1.0, 0.5)


@pytest.mark.parametrize("k", [1, 0, -1])
@pytest.mark.parametrize(
    "c, s",
    [(math.inf, 0.0), (1.0, math.inf), (math.nan, 0.0), (1.0, math.nan), (math.inf, math.inf), (1.0, -math.inf)],
)
def test_measure_refuses_a_non_finite_pair(k, c, s):
    # c * c + k * s * s - 1 is inf or nan here, and neither fails the consistency test
    with pytest.raises(DomainError, match="is not finite"):
        gmeasure_from_cs(k, c, s)


def test_measure_hyperbolic_domain():
    with pytest.raises(DomainError):
        gmeasure_from_cs(-1, -2.0, math.sqrt(3.0))


def test_measure_hyperbolic_accurate_near_zero():
    x = 1e-8
    got = gmeasure_from_cs(-1, math.cosh(x), math.sinh(x))
    assert got == pytest.approx(x, rel=1e-6)


def test_hyperbolic_overflow_is_a_domain_error():
    for fn in (gcos, gsin, gtan):
        with pytest.raises(DomainError):
            fn(-1, 1000.0)
    assert gcos(1, 1000.0) == math.cos(1000.0)

