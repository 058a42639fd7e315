"""Generalized orthogonal transforms: generators, words, validation."""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ckgeo import (
    DimensionMismatch,
    DomainError,
    MPlane,
    Space,
    apply_plane,
    apply_point,
    block_kind,
    compose,
    from_word,
    givens,
    identity,
    inverse,
    random_transform,
    reflect,
    transform,
    validate,
)

PLANAR_SIGS = list(itertools.product((-1, 0, 1), repeat=2))


def test_block_kind_values():
    ee, he, pe = Space("ee"), Space("he"), Space("pe")
    assert block_kind(ee, 0, 1) == 1
    assert block_kind(ee, 0, 2) == 1
    assert block_kind(he, 0, 1) == -1
    assert block_kind(he, 0, 2) == -1
    assert block_kind(he, 1, 2) == 1
    assert block_kind(pe, 0, 1) == 0
    assert block_kind(pe, 0, 2) == 0
    assert block_kind(pe, 1, 2) == 1
    with pytest.raises(ValueError):
        block_kind(ee, 1, 1)
    with pytest.raises(ValueError):
        block_kind(ee, 2, 1)


def test_givens_quarter_turn_moves_basis_vector():
    sp = Space("ee")
    g = givens(sp, 0, 1, math.pi / 2)
    p = apply_point(g, [1.0, 0.0, 0.0])
    assert np.allclose(p, [0.0, 1.0, 0.0], atol=1e-12)
    assert not p.flags.writeable


def test_givens_boost_block():
    sp = Space("he")
    t = 0.7
    g = givens(sp, 0, 1, t)
    # kind -1 block: [[cosh, sinh], [sinh, cosh]]
    assert g.matrix[0, 0] == pytest.approx(math.cosh(t))
    assert g.matrix[1, 0] == pytest.approx(math.sinh(t))
    assert g.matrix[0, 1] == pytest.approx(math.sinh(t))


def test_givens_shear_block():
    sp = Space("pe")
    g = givens(sp, 0, 1, 2.5)
    assert g.matrix[0, 0] == 1.0
    assert g.matrix[1, 0] == 2.5
    assert g.matrix[0, 1] == 0.0
    assert g.matrix[1, 1] == 1.0


def test_identity_and_reflect():
    sp = Space("ee")
    assert np.array_equal(identity(sp).matrix, np.eye(3))
    r = reflect(sp, 2)
    assert np.array_equal(r.matrix, np.diag([1.0, 1.0, -1.0]))
    assert validate(sp, r.matrix).ok


def test_compose_applies_right_factor_first():
    sp = Space("ee")
    a = givens(sp, 0, 1, 0.4)
    b = givens(sp, 1, 2, 1.1)
    ab = compose(a, b)
    assert np.allclose(ab.matrix, a.matrix @ b.matrix)
    assert ab.word == a.word + b.word


def test_inverse_roundtrip_all_planar_sigs():
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        g = random_transform(sp, 11)
        eye = compose(g, inverse(g)).matrix
        assert np.allclose(eye, np.eye(3), atol=1e-9), sig


def test_from_word_reproduces_random_transform():
    sp = Space("hp")
    g = random_transform(sp, 23)
    h = from_word(sp, g.word)
    assert np.array_equal(g.matrix, h.matrix)


@pytest.mark.parametrize(
    "gen", [("rotate", 1), ("givens", 0, 1), ("reflect", 1, 2), ("givens", 0, 1, 0.5, 1)]
)
def test_from_word_refuses_an_unknown_generator(gen):
    with pytest.raises(ValueError, match="generator"):
        from_word(Space("ee"), [("givens", 0, 1, 0.5), gen])


def test_random_transform_is_deterministic():
    sp = Space("ep")
    a = random_transform(sp, 7)
    b = random_transform(sp, 7)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.word == b.word
    c = random_transform(sp, 8)
    assert not np.array_equal(a.matrix, c.matrix)


def test_transforms_preserve_point_products():
    rng = np.random.default_rng(17)
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        g = random_transform(sp, 41)
        for _ in range(10):
            x = rng.uniform(-1, 1, 3)
            y = rng.uniform(-1, 1, 3)
            gx, gy = apply_point(g, x), apply_point(g, y)
            assert sp.dot_points(gx, gy) == pytest.approx(
                sp.dot_points(x, y), rel=1e-9, abs=1e-9
            )
            assert sp.point_cross_radicand(gx, gy) == pytest.approx(
                sp.point_cross_radicand(x, y), rel=1e-9, abs=1e-9
            )


def test_transforms_preserve_plane_products():
    sp = Space("he")
    g = random_transform(sp, 5)
    x = sp.normalize([1.3, 0.2, 0.4])
    y = sp.normalize([1.1, -0.3, 0.1])
    z = sp.normalize([1.5, 0.8, -0.6])
    ln1 = sp.line_through(x, y)
    ln2 = sp.line_through(x, z)
    g1, g2 = apply_plane(g, ln1), apply_plane(g, ln2)
    assert sp.dot_planes(g1, g2) == pytest.approx(sp.dot_planes(ln1, ln2), rel=1e-9)
    assert sp.plane_cross_radicand(g1, g2) == pytest.approx(
        sp.plane_cross_radicand(ln1, ln2), rel=1e-9, abs=1e-12
    )


def test_validate_direct_mode():
    sp = Space("ee")
    rep = validate(sp, givens(sp, 0, 2, 0.9).matrix)
    assert rep.ok and rep.mode == "direct"
    assert rep.worst_residual <= 1e-12
    bad = np.eye(3)
    bad[0, 1] = 0.3
    rep = validate(sp, bad)
    assert not rep.ok
    assert rep.worst_residual > 1e-3


def test_validate_sampled_mode_for_degenerate_signature():
    sp = Space("pp")
    rep = validate(sp, random_transform(sp, 19).matrix)
    assert rep.ok and rep.mode == "sampled"
    names = set(rep.to_dict()["checks"])
    assert {"column_products", "sampled_dot", "sampled_cross"} <= names
    # a matrix obeying the weak column relations but breaking the cross form
    cheat = np.diag([1.0, 2.0, 1.0])
    rep = validate(sp, cheat)
    assert not rep.ok


def test_validate_sampled_checks_the_seeded_pairs():
    # The sampled figures are those of the 32 seeded pairs drawn x, then y.
    sp = Space("epep")
    mat = random_transform(sp, 5).matrix.copy()
    mat[1, 3] += 1e-3
    rng = random.Random(1729)
    worst_dot = worst_cross = 0.0
    ref = max(1.0, float(np.abs(mat).max()) ** 4)
    for _ in range(32):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(5)])
        y = np.array([rng.uniform(-1.0, 1.0) for _ in range(5)])
        gx, gy = mat @ x, mat @ y
        worst_dot = max(worst_dot, abs(sp.dot_points(gx, gy) - sp.dot_points(x, y)) / ref)
        worst_cross = max(
            worst_cross,
            abs(sp.point_cross_radicand(gx, gy) - sp.point_cross_radicand(x, y)) / ref,
        )
    checks = dict(validate(sp, mat).checks)
    assert checks["sampled_dot"] == pytest.approx(worst_dot, rel=1e-9)
    assert checks["sampled_cross"] == pytest.approx(worst_cross, rel=1e-9)
    assert worst_cross > 1e-6


def _pairwise_column_checks(sp, mat, m, tol):
    """Reference loops over column pairs: validate's worst column residual
    and the first column failure MPlane reports for the first m+1 columns."""
    scale = max(1.0, float(np.abs(mat).max()) ** 2)
    worst, failure = 0.0, None
    for i in range(sp.n + 1):
        for j in range(i, sp.n + 1):
            want = sp.K[i] if i == j else 0.0
            got = sp.dot_points(mat[:, i], mat[:, j])
            if sp.K[i] != 0:
                worst = max(worst, abs(got / sp.K[i] - (1.0 if i == j else 0.0)))
            else:
                worst = max(worst, abs(got - want) / scale)
            mag = float(np.abs(mat[:, i]).max() * np.abs(mat[:, j]).max())
            if failure is None and j <= m and abs(got - want) > tol * max(1.0, mag * mag):
                failure = "columns %d,%d have product %r, expected %r" % (i, j, got, want)
    return worst, failure


def test_column_checks_match_pairwise_loops():
    rng = random.Random(7)
    failures = set()
    for sig in ("eeee", "ehep", "hhhh", "epep", "pehe", "ppee"):
        sp = Space(sig)
        for seed in range(6):
            mat = random_transform(sp, seed).matrix.copy()
            m = seed % 3 + 1
            if seed % 2 and m > 1:
                # column j picks up column k < j: the first failure is (k, j), not row 0
                k = rng.randrange(1, m)
                mat[:, m] += rng.choice((1e-3, 1e-6)) * mat[:, k]
            else:
                for _ in range(seed % 3 + 1):
                    mat[rng.randrange(5), rng.randrange(5)] += rng.choice((1e-3, 1e-6, 1e-10))
            worst, failure = _pairwise_column_checks(sp, mat, m, 1e-8)
            assert dict(validate(sp, mat).checks)["column_products"] == worst
            try:
                MPlane(sp, mat[:, : m + 1])
                got = None
            except DimensionMismatch as exc:
                got = str(exc)
            if failure is None:
                assert got is None or got.startswith("plane self-product")
            else:
                assert got == failure
                failures.add(failure.split(" have")[0])
    assert len(failures) >= 3 and any(not f.startswith("columns 0,") for f in failures)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sig", ["ee", "pe"])
def test_validate_rejects_non_finite(sig, bad):
    # ee validates directly, pe by sampling; both name the first entry in row order
    sp = Space(sig)
    mat = np.eye(3)
    mat[1, 2] = bad
    mat[2, 0] = bad
    want = r"^matrix entry \(1, 2\) is %r, not a finite number$" % bad
    with pytest.raises(DomainError, match=want):
        validate(sp, mat)


@pytest.mark.parametrize("sig", ["ee", "pe"])
def test_validate_rejects_huge_entries(sig):
    # ee validates directly, pe by sampling; the first entry above 1e150 in row order
    sp = Space(sig)
    mat = np.eye(3)
    mat[0, 2] = 1e150
    mat[1, 1] = -1e200
    mat[2, 0] = 1e300
    with pytest.raises(DomainError, match=r"^matrix entry \(1, 1\) is -1e\+200, above 1e\+150 in magnitude$"):
        validate(sp, mat)
    mat[2, 2] = math.nan  # a non-finite entry is named first
    with pytest.raises(DomainError, match=r"^matrix entry \(2, 2\) is nan, not a finite number$"):
        validate(sp, mat)


def test_sampled_validation_draws_once_per_dimension(monkeypatch):
    # pepe and eeep are both n = 4: the second signature reuses the first's draws
    sp, other = Space("pepe"), Space("eeep")
    g, h = random_transform(sp, 3).matrix, random_transform(other, 4).matrix
    first = validate(sp, g)
    draws = []
    monkeypatch.setattr(random.Random, "uniform", lambda *args: draws.append(args))
    assert validate(sp, g) == first
    assert validate(other, h).mode == "sampled"
    assert draws == []


VALIDATE_GOLDEN = json.loads((Path(__file__).parent / "data" / "validate_golden.json").read_text())


@pytest.mark.parametrize("sig", sorted(VALIDATE_GOLDEN["reports"]))
def test_validate_reports_are_the_golden_bits(sig):
    """validate gives the reports recorded in tests/data/validate_golden.json.

    The fixture was written before sampled validation cached the seeded
    pairs' own products.  For each of the 117 signatures with n = 2..4 it
    holds four reports, in this order: random_transform(space, seed).matrix
    for seed 0, the same matrix with M[0, 0] += 1e-4, and the two for seed 1.
    A report is [ok, mode, worst_residual, *checks], each float as float.hex
    and the checks in the order its "checks" entry names for the mode.
    """
    sp = Space(sig)
    got = []
    for seed in (0, 1):
        mat = random_transform(sp, seed).matrix.copy()
        for perturb in (False, True):
            m = mat.copy()
            if perturb:
                m[0, 0] += 1e-4
            rep = validate(sp, m)
            assert [name for name, _ in rep.checks] == VALIDATE_GOLDEN["checks"][rep.mode]
            got.append([rep.ok, rep.mode, rep.worst_residual.hex()] + [v.hex() for _, v in rep.checks])
    assert got == VALIDATE_GOLDEN["reports"][sig]


@pytest.mark.parametrize("sig", ["pe", "ehp", "pepe", "eeep"])
def test_sampled_products_are_cached_read_only_and_fresh(sig, monkeypatch):
    # One read-only set per signature, with the bits of the products formed afresh.
    sp = Space(sig)
    x, y, dots, radicands = cached = transform._sample_products(sp.sig)
    assert transform._sample_products(sp.sig) is cached
    assert all(not arr.flags.writeable for arr in cached)
    with pytest.raises(ValueError):
        dots[0] = 0.0
    assert x.shape == y.shape == (32, sp.n + 1)
    fresh_x, fresh_y = np.array(x), np.array(y)
    for got, want in ((dots, sp.dot_points(fresh_x, fresh_y)), (radicands, sp.point_cross_radicand(fresh_x, fresh_y))):
        assert got.tobytes() == np.asarray(want).tobytes()
    # A sampled call forms the column products and the images' two products, nothing more.
    passes = []
    for name in ("dot_points", "point_cross_radicand"):
        method = getattr(Space, name)
        monkeypatch.setattr(Space, name, lambda self, a, b, _m=method, _n=name: passes.append(_n) or _m(self, a, b))
    assert validate(sp, random_transform(sp, 2).matrix).mode == "sampled"
    assert passes == ["dot_points", "dot_points", "point_cross_radicand"]
    assert transform._sample_products(sp.sig) is cached


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sig", ["ee", "pe", "he"])
def test_non_finite_parameters_and_points_are_rejected(sig, bad):
    sp = Space(sig)
    with pytest.raises(DomainError, match=r"^givens parameter is %r, not a finite number$" % bad):
        givens(sp, 0, 1, bad)
    with pytest.raises(DomainError, match=r"^point coordinate \(1,\) is %r, not a finite number$" % bad):
        apply_point(givens(sp, 0, 1, 0.5), [1.0, bad, 0.0])


def test_validate_shape_error():
    with pytest.raises(DimensionMismatch):
        validate(Space("ee"), np.eye(4))


def test_apply_point_shape_error():
    sp = Space("ee")
    with pytest.raises(DimensionMismatch):
        apply_point(identity(sp), [1.0, 0.0])


def test_to_dict_roundtrip():
    sp = Space("he")
    g = random_transform(sp, 3)
    d = g.to_dict()
    assert d["n"] == 2
    mat = np.array(d["matrix"]).reshape(3, 3)
    assert np.array_equal(mat, g.matrix)
    h = from_word(sp, [tuple(w) for w in d["word"]])
    assert np.array_equal(h.matrix, g.matrix)
