"""Generalized orthogonal transforms: generators, words, validation."""

import itertools
import math
import random

import numpy as np
import pytest

from ckgeo import (
    DimensionMismatch,
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
    assert np.allclose(p.coords, [0.0, 1.0, 0.0], atol=1e-12)


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
            assert sp.dot_points(gx.coords, gy.coords) == pytest.approx(
                sp.dot_points(x, y), rel=1e-9, abs=1e-9
            )
            assert sp.point_cross_radicand(gx.coords, gy.coords) == pytest.approx(
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
