"""Signature parsing, cumulative weights, and exact coefficient algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ckgeo import (
    Monomial,
    NonDivisible,
    check_signature,
    cumulative_products,
    format_signature,
    parse_signature,
    plane_cross_coeff,
    plane_dot_coeff,
    plane_tables,
    point_cross_coeff,
    point_cross_table,
)
from ckgeo.kernel import product_arrays

CHARS = (-1, 0, 1)


def all_sigs(n):
    return list(itertools.product(CHARS, repeat=n))


# -- oracles -----------------------------------------------------------------
# Independent re-derivation of the coefficient exponent vectors, written
# against the defining products rather than the Monomial class: numerator
# exponent counts minus denominator counts, then a limit-style evaluation
# (zero characteristic: positive exponent kills the term, zero exponent
# contributes 1, negative exponent is an illegal division).


def oracle_cumulative_exps(i, n):
    # cumulative weight of position i uses characteristics 1..i
    return [1 if l < i else 0 for l in range(n)]


def oracle_eval(sign, exps, sig):
    value = 1 if sign > 0 else -1
    for k, e in zip(sig, exps):
        if k == 0:
            if e < 0:
                return None  # illegal division
            if e > 0:
                value = 0
        elif e % 2 and k < 0:
            value = -value
    return 0 if value == 0 else value


def oracle_point_cross_exps(i, j, n):
    exps = [a + b for a, b in zip(oracle_cumulative_exps(i, n), oracle_cumulative_exps(j, n))]
    exps[0] -= 1
    return exps


def oracle_plane_dot_exps(idx, n):
    exps = [0] * n
    for p, ip in enumerate(idx):
        for l in range(n):
            exps[l] += oracle_cumulative_exps(ip, n)[l] - oracle_cumulative_exps(p, n)[l]
    return exps


def oracle_plane_cross_exps(idx_i, idx_j, n):
    exps = [0] * n
    for p, (ip, jp) in enumerate(zip(idx_i, idx_j)):
        for l in range(n):
            exps[l] += (
                oracle_cumulative_exps(ip, n)[l]
                + oracle_cumulative_exps(jp, n)[l]
                - 2 * oracle_cumulative_exps(p, n)[l]
            )
    exps[len(idx_i) - 1] -= 1
    return exps


# -- signatures ---------------------------------------------------------------


def test_parse_numeric_and_letters():
    assert parse_signature("1,0,-1") == (1, 0, -1)
    assert parse_signature("pe") == (0, 1)
    assert parse_signature("hh") == (-1, -1)
    assert parse_signature("e") == (1,)


def test_parse_rejects_garbage():
    for bad in ("", "2,1", "ex", "1;0", ",0", "q"):
        with pytest.raises(ValueError):
            parse_signature(bad)


def test_parse_tolerates_trailing_comma():
    assert parse_signature("0,") == (0,)


def test_format_roundtrip():
    for n in (1, 2, 3):
        for sig in all_sigs(n):
            assert parse_signature(format_signature(sig)) == sig


def test_check_signature_rejects_out_of_range():
    with pytest.raises(ValueError):
        check_signature((2, 1))
    with pytest.raises(ValueError):
        check_signature(())


def test_cumulative_products_examples():
    assert cumulative_products((0, 1)) == (1, 0, 0)
    assert cumulative_products((1, 1)) == (1, 1, 1)
    assert cumulative_products((-1, 1)) == (1, -1, -1)


@given(st.lists(st.sampled_from(CHARS), min_size=1, max_size=6))
def test_cumulative_products_are_prefix_products(sig):
    K = cumulative_products(sig)
    assert K[0] == 1
    acc = 1
    for i, k in enumerate(sig, 1):
        acc *= k
        assert K[i] == acc


# -- monomial algebra ---------------------------------------------------------


def test_monomial_eval_examples():
    assert Monomial(1, (1, 0)).eval((0, 1)) == 0
    assert Monomial(1, (0, 0)).eval((0, 0)) == 1
    assert Monomial(1, (2, 1)).eval((-1, 1)) == 1


def test_monomial_eval_illegal_division():
    with pytest.raises(NonDivisible):
        Monomial(1, (-1, 1)).eval((0, 1))
    # a vanishing factor elsewhere does not excuse the division
    with pytest.raises(NonDivisible):
        Monomial(1, (1, -1)).eval((0, 0))


def test_monomial_eval_negative_exponent_legal_when_nonzero():
    assert Monomial(1, (-1, 1)).eval((-1, 1)) == -1
    assert Monomial(1, (-2, 0)).eval((-1, 1)) == 1


@given(
    st.lists(st.sampled_from(CHARS), min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
)
def test_monomial_eval_multiplicative(sig, e1, e2, s1, s2):
    n = len(sig)
    a = Monomial(s1, tuple((e1 * n)[:n]))
    b = Monomial(s2, tuple((e2 * n)[:n]))
    try:
        va, vb = a.eval(sig), b.eval(sig)
    except NonDivisible:
        return
    ab = Monomial(s1 * s2, tuple(x + y for x, y in zip(a.exps, b.exps)))
    try:
        vab = ab.eval(sig)
    except NonDivisible:
        # only possible when a zero characteristic cancels a legal pair
        assert any(k == 0 for k in sig)
        return
    assert vab == va * vb


# -- point cross coefficients --------------------------------------------------


def test_point_cross_coeff_matches_oracle_symbolically():
    for n in (1, 2, 3, 4):
        for i, j in itertools.combinations(range(n + 1), 2):
            mono = point_cross_coeff(i, j, n)
            assert list(mono.exps) == oracle_point_cross_exps(i, j, n)
            assert mono.sign == 1


def test_point_cross_coeff_planar_values():
    # n=2: minor (0,1) gets 1, (0,2) gets k_2, (1,2) gets k_1 k_2
    assert point_cross_coeff(0, 1, 2).exps == (0, 0)
    assert point_cross_coeff(0, 2, 2).exps == (0, 1)
    assert point_cross_coeff(1, 2, 2).exps == (1, 1)


def test_point_cross_table_never_raises():
    for n in (1, 2, 3):
        for sig in all_sigs(n):
            table = point_cross_table(sig)
            for (i, j), value in table.items():
                assert i < j
                assert value == oracle_eval(1, oracle_point_cross_exps(i, j, n), sig)


# -- plane coefficients ---------------------------------------------------------


def test_plane_dot_coeff_matches_oracle_symbolically():
    for n in (2, 3, 4):
        for m in range(1, n):
            for idx in itertools.combinations(range(n + 1), m + 1):
                mono = plane_dot_coeff(idx, n)
                assert list(mono.exps) == oracle_plane_dot_exps(idx, n)
                assert mono.sign == 1


def test_plane_dot_coeff_planar_values():
    # the leading tuple position carries its own cumulative weight, so the
    # line coefficients in n=2 are 1, k_2, k_1 k_2
    assert plane_dot_coeff((0, 1), 2).exps == (0, 0)
    assert plane_dot_coeff((0, 2), 2).exps == (0, 1)
    assert plane_dot_coeff((1, 2), 2).exps == (1, 1)


def test_plane_cross_coeff_matches_oracle_symbolically():
    for n in (2, 3):
        for m in range(1, n):
            tuples = list(itertools.combinations(range(n + 1), m + 1))
            for ti, tj in itertools.combinations(tuples, 2):
                mono = plane_cross_coeff(ti, tj, n)
                assert list(mono.exps) == oracle_plane_cross_exps(ti, tj, n)


def test_plane_cross_coeff_planar_values():
    assert plane_cross_coeff((0, 1), (0, 2), 2).exps == (0, 0)
    assert plane_cross_coeff((0, 1), (1, 2), 2).exps == (1, 0)
    assert plane_cross_coeff((0, 2), (1, 2), 2).exps == (1, 1)


def test_single_index_tuples_reduce_to_point_coefficients():
    # brute force over all index pairs, n <= 4
    for n in (1, 2, 3, 4):
        for i, j in itertools.combinations(range(n + 1), 2):
            assert plane_cross_coeff((i,), (j,), n) == point_cross_coeff(i, j, n)
        for i in range(n + 1):
            assert plane_dot_coeff((i,), n) == Monomial.cumulative(i, n)


def test_plane_tables_consistency():
    for sig in all_sigs(2):
        tuples, dots, crosses = plane_tables(sig, 1)
        assert tuples == tuple(itertools.combinations(range(3), 2))
        for idx in tuples:
            assert dots[idx] == plane_dot_coeff(idx, 2).eval(sig)
        for (ti, tj), value in crosses.items():
            assert ti < tj
            assert value == plane_cross_coeff(ti, tj, 2).eval(sig)


def test_coefficient_tables_keep_their_cache():
    # the benchmark tracer reads cache_info() of both tables to count misses
    plane_tables.cache_clear()
    point_cross_table.cache_clear()
    assert point_cross_table((1, 0, -1)) is point_cross_table((1, 0, -1))
    assert point_cross_table.cache_info().misses == 1
    assert plane_tables.cache_info().misses == 1  # the point table is built from the m = 0 one
    assert plane_tables((1, 0, -1), 0) is plane_tables((1, 0, -1), 0)
    assert plane_tables.cache_info().misses == 1


def test_coefficient_tables_cover_all_signatures_without_illegal_division():
    for n in (1, 2, 3):
        for sig in all_sigs(n):
            point_cross_table(sig)
            for m in range(1, n):
                plane_tables(sig, m)


def test_hyperplane_products_are_the_reversed_signatures_point_products():
    # Polarity: the n minors of an (n-1)-plane pair up as the coordinates of a
    # point in the reversed signature, with the same weights and cross terms.
    # Only `rows` differs: it holds index tuples of length n against 1.
    for n in range(2, 7):
        for sig in all_sigs(n):
            hyper, point = product_arrays(sig, n - 1), product_arrays(sig[::-1], 0)
            for field in ("weights", "ab", "ba", "signs"):
                got, want = getattr(hyper, field), getattr(point, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), (sig, field)
