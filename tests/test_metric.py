"""Measures, triangles, the law registry, and the SAS solver."""

import math

import numpy as np
import pytest

from ckgeo import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    GeometryError,
    MPlane,
    NoSolution,
    ProjPoint,
    Space,
    Triangle,
    angle,
    distance,
    identified_distance,
    is_orthogonal,
    is_parallel,
    law_residuals,
    measure_triangle,
    random_transform,
    right_triangle_residuals,
    solve_sas,
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


def test_distance_imaginary_kind_uses_dual_characteristic():
    sp = Space((1, -1))
    t = 0.9
    x = sp.normalize([1.0, 0.0, 0.0])
    y = ProjPoint([math.cosh(t), 0.0, math.sinh(t)])
    d = distance(sp, x, y)
    assert d.kind == "imaginary"
    assert d.value == pytest.approx(t, rel=1e-12)


def test_distance_on_stacks_lists_row_measures():
    sp = Space((1, -1))
    t = 0.9
    X = sp.normalize(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.3, 0.1]]))
    Y = sp.normalize(np.array([[0.0, 1.0, 0.0], [math.cosh(t), 0.0, math.sinh(t)], [2.0, 0.3, 0.1]]))
    got = distance(sp, X, Y)
    assert [m.kind for m in got] == ["real", "imaginary", "real"]
    assert all(type(m.value) is float for m in got)
    assert got[1].value == pytest.approx(t, rel=1e-12)
    assert got == [distance(sp, ProjPoint(x), ProjPoint(y)) for x, y in zip(X, Y)]


def test_angle_on_plane_stacks_matches_planes():
    # lines through the base point, moved by seeded words of rotations
    sp = Space("ehe")
    base = np.eye(4)[:, :2]
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
    assert got == measures
    with pytest.raises(DimensionMismatch):
        MPlane(sp, X)  # stacks are taken as given, never validated


def test_identified_distance_takes_shorter_arc():
    x = EE.normalize([1.0, 0.0, 0.0])
    y = ProjPoint([-0.6, 0.8, 0.0])
    assert distance(EE, x, y).value == pytest.approx(math.acos(-0.6))
    assert identified_distance(EE, x, y) == pytest.approx(math.acos(0.6))


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


def test_sas_measured_values_return_the_inputs():
    tm = measure_triangle(triangle_from_sas(EE, 0.8, 0.9, 0.5))
    assert tm.b.value == pytest.approx(0.8, abs=1e-12)
    assert tm.c.value == pytest.approx(0.5, abs=1e-12)
    assert tm.alpha.value == pytest.approx(0.9, abs=1e-12)
    assert tm.all_real()


def test_octant_triangle():
    tm = measure_triangle(triangle_from_sas(EE, math.pi / 2, math.pi / 2, math.pi / 2))
    for m in (tm.a, tm.b, tm.c, tm.alpha, tm.beta_prime, tm.gamma):
        assert m.value == pytest.approx(math.pi / 2, abs=1e-12)


def test_euclidean_345_triangle():
    tm = measure_triangle(triangle_from_sas(PE, 4.0, math.pi / 2, 3.0))
    assert tm.a.value == pytest.approx(5.0, rel=1e-12)
    assert tm.beta_prime.value == pytest.approx(math.acos(-0.6), rel=1e-12)
    assert tm.gamma.value == pytest.approx(math.acos(0.8), rel=1e-12)


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
