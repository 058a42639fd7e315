"""Triangles, their measurements and the law registry against reference copies.

The references below are the straightforward forms: vertices from generator
matrices, sides and rays from two product passes, angles between ray lines
built as MPlanes, and every relation calling the kernels for itself.  The
library computes each value once; it must give the same bits, the same
refusals and the same first error.
"""

import itertools
import math
import random
import re
from typing import Dict

import numpy as np
import pytest

from ckgeo import (
    DegenerateTriangle,
    DomainError,
    GeometryError,
    Imaginary,
    Measure,
    MPlane,
    Space,
    Triangle,
    TriangleMeasurements,
    angle,
    apply_point,
    compose,
    distance,
    gcos,
    givens,
    gsin,
    gtan,
    law_residuals,
    measure_triangle,
    metric,
    right_triangle_residuals,
    tolerance,
    triangle_from_sas,
)
from ckgeo.entity import _require_finite
from ckgeo.metric import LawReport, RightTriangleReport, _rel

PLANAR_SIGS = [(k1, k2) for k1 in (1, 0, -1) for k2 in (1, 0, -1)]


def reference_triangle_from_sas(space, b, alpha, c):
    """The coordinates of B and C (rows 0 and 1) as givens, compose and
    apply_point build them."""
    A = np.array([1.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        B = apply_point(givens(space, 0, 1, c), A)
        C = apply_point(compose(givens(space, 1, 2, alpha), givens(space, 0, 1, b)), A)
    coords = np.array([B, C])
    _require_finite(coords, "vertex coordinate", tolerance.ENTRY_LIMIT)
    return coords


def reference_angles_between_rays(sp, vertices, u, v):
    X = MPlane(sp, np.stack([vertices, u], axis=-1), validate=False)
    Y = MPlane(sp, np.stack([vertices, v], axis=-1), validate=False)
    return angle(sp, X, Y)


def reference_measure_triangle(tri):
    sp = tri.space
    A, B, C = tri.A, tri.B, tri.C
    a, b, c = distance(sp, np.array([B, A, A]), np.array([C, C, B]))
    to_B, to_C, to_A_at_B, toward_C, to_A, to_B2 = sp.direction(
        np.array([A, A, B, B, C, C]), np.array([B, C, A, C, A, B])
    )
    alpha, beta_prime, gamma = reference_angles_between_rays(
        sp, np.array([A, B, C]), np.array([to_B, -to_A_at_B, to_A]), np.array([to_C, toward_C, to_B2])
    )
    return TriangleMeasurements(a, b, c, alpha, beta_prime, gamma)


def reference_right_triangle_residuals(space, a, b):
    k1 = space.sig[0]
    V_C = np.array([1.0, 0.0, 0.0])
    V_A = apply_point(givens(space, 0, 1, b), V_C)
    V_B = apply_point(givens(space, 0, 2, a), V_C)
    with np.errstate(over="ignore", invalid="ignore"):
        c = distance(space, V_A, V_B).value
        vertices = np.array([V_A, V_B])
        u = space.direction(vertices, np.array([V_C, V_C]))
        v = space.direction(vertices, np.array([V_B, V_A]))
        alpha, beta = reference_angles_between_rays(space, vertices, u, v)
    if alpha.kind != "real" or beta.kind != "real":
        raise DomainError("right triangle angles came back imaginary")
    al, be = alpha.value, beta.value
    C1, S1, T1 = (lambda x: gcos(k1, x)), (lambda x: gsin(k1, x)), (lambda x: gtan(k1, x))
    r = {
        "eq26": _rel(T1(c) ** 2, T1(a) ** 2 + T1(b) ** 2 + k1 * T1(a) ** 2 * T1(b) ** 2),
        "eq27": _rel(T1(b), T1(c) * math.cos(al)),
        "eq28": _rel(T1(a), T1(c) * math.cos(be)),
        "eq29": _rel(S1(a), S1(c) * math.sin(al)),
        "eq30": _rel(S1(b), S1(c) * math.sin(be)),
        "eq31": _rel(T1(a), S1(b) * math.tan(al)),
        "eq32": _rel(T1(b), S1(a) * math.tan(be)),
        "eq33": _rel(math.cos(al), C1(a) * math.sin(be)),
        "eq34": _rel(math.cos(be), C1(b) * math.sin(al)),
        "eq35": _rel(C1(c), (math.cos(al) / math.sin(al)) * (math.cos(be) / math.sin(be))),
    }
    return RightTriangleReport(distance(space, V_C, V_B).value, distance(space, V_C, V_A).value, c, al, be, r)


def reference_law_residuals(space, tm, guarded=True):
    """Every relation calling the kernels for itself.  Guarded, a quartic
    term whose coefficient k1*k2 is 0 is not formed, and once every relation
    is evaluated (so after any kernel error) the first reading that is not
    finite raises DomainError, as the registry does.  Unguarded, the plain
    formula, whose finite readings the registry keeps bit for bit."""
    k1, k2 = space.sig
    not_finite = []

    def finite(key, reading, value):
        if guarded and not math.isfinite(value):
            not_finite.append("%s %s is %r, not a finite number" % (key, reading, value))

    a, b, c = tm.a.value, tm.b.value, tm.c.value
    al, bp, ga = tm.alpha.value, tm.beta_prime.value, tm.gamma.value

    C1, S1 = (lambda v: gcos(k1, v)), (lambda v: gsin(k1, v))
    C2, S2 = (lambda v: gcos(k2, v)), (lambda v: gsin(k2, v))
    T1, T2 = (lambda v: gtan(k1, v)), (lambda v: gtan(k2, v))

    residuals: Dict[str, float] = {}
    variant_values: Dict[str, Dict[str, float]] = {}
    variants: Dict[str, str] = {}

    residuals["eq13"] = max(
        _rel(S1(a) * S2(bp), S1(b) * S2(al)),
        _rel(S1(a) * S2(ga), S1(c) * S2(al)),
        _rel(S1(b) * S2(ga), S1(c) * S2(bp)),
    )
    residuals["eq14"] = _rel(C1(a), C1(b) * C1(c) + k1 * S1(b) * S1(c) * C2(al))
    residuals["eq15"] = _rel(C1(b), C1(a) * C1(c) - k1 * S1(a) * S1(c) * C2(bp))
    residuals["eq16"] = _rel(C1(c), C1(a) * C1(b) + k1 * S1(a) * S1(b) * C2(ga))
    residuals["eq17"] = _rel(C2(al), C2(bp) * C2(ga) + k2 * S2(bp) * S2(ga) * C1(a))
    residuals["eq18"] = _rel(C2(bp), C2(al) * C2(ga) - k2 * S2(al) * S2(ga) * C1(b))
    for key, value in residuals.items():
        finite(key, "residual", value)

    def record(key, printed, corrected):
        finite(key, "as-printed", printed)
        finite(key, "corrected", corrected)
        variant_values[key] = {"as-printed": printed, "corrected": corrected}
        if math.isclose(printed, corrected, rel_tol=1e-12, abs_tol=1e-15):
            variants[key] = "tie"
        else:
            variants[key] = "as-printed" if printed < corrected else "corrected"
        residuals[key] = min(printed, corrected)

    record(
        "eq19",
        _rel(C2(ga), C2(al) * C2(bp) + k2 * S2(al) * S2(bp) * C1(a)),
        _rel(C2(ga), C2(al) * C2(bp) + k2 * S2(al) * S2(bp) * C1(c)),
    )

    def tangent_law(klevel, lhs, t1, t2, cos_other, sin_printed, sin_corrected, sign):
        def resid(sq):
            quartic = k1 * k2 * t1 * t1 * t2 * t2 * sq if k1 * k2 or not guarded else -0.0
            num = t1 * t1 + t2 * t2 + sign * 2.0 * t1 * t2 * cos_other + quartic
            den = 1.0 - sign * klevel * t1 * t2 * cos_other
            u = lhs * lhs
            best = math.inf
            if den != 0.0:
                best = _rel(u, num / (den * den))
            if u != 0.0 and num != 0.0:
                best = min(best, _rel(1.0 / u, den * den / num))
            return best

        return resid(sin_printed * sin_printed), resid(sin_corrected * sin_corrected)

    record("eq20", *tangent_law(k1, T1(a), T1(b), T1(c), C2(al), S1(al), S2(al), -1.0))
    record("eq21", *tangent_law(k1, T1(b), T1(a), T1(c), C2(bp), S1(bp), S2(bp), +1.0))
    record("eq22", *tangent_law(k1, T1(c), T1(a), T1(b), C2(ga), S1(ga), S2(ga), -1.0))
    record("eq23", *tangent_law(k2, T2(al), T2(bp), T2(ga), C1(a), S1(a), S2(a), -1.0))
    record("eq24", *tangent_law(k2, T2(bp), T2(al), T2(ga), C1(b), S1(b), S2(b), +1.0))
    record("eq25", *tangent_law(k2, T2(ga), T2(al), T2(bp), C1(c), S1(c), S2(c), -1.0))
    if not_finite:
        raise DomainError(not_finite[0])
    return LawReport(residuals, variant_values, variants)


def _hex(value):
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    if isinstance(value, Measure):
        return (_hex(value.value), value.level, value.kind)
    if isinstance(value, TriangleMeasurements):
        return [_hex(getattr(value, f)) for f in ("a", "b", "c", "alpha", "beta_prime", "gamma")]
    if isinstance(value, RightTriangleReport):
        return [_hex(v) for v in (value.a, value.b, value.c, value.alpha, value.beta)] + [
            (k, _hex(v)) for k, v in sorted(value.residuals.items())
        ]
    if isinstance(value, np.ndarray):
        return [_hex(float(v)) for v in value.ravel()]
    if isinstance(value, LawReport):
        return (
            {k: _hex(v) for k, v in value.residuals.items()},
            {k: {n: _hex(x) for n, x in v.items()} for k, v in value.variant_values.items()},
            value.variants,
        )
    raise TypeError(type(value))


def _outcome(fn, *args):
    """The hex-rendered result of fn(*args), or the class and message it raised."""
    try:
        return "ok", _hex(fn(*args))
    except (GeometryError, ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _sas_triangles():
    """Law-suite style SAS triangles in every planar signature, with large
    measures mixed in, under the three labelings."""
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        rng = random.Random(600 + 10 * sig[0] + sig[1])
        for trial in range(40):
            b, alpha, c = (rng.uniform(0.05, 3.0) for _ in range(3))
            if trial % 5 == 0:
                b, c = 40.0 * b, 30.0 * c
            if trial % 7 == 0:
                alpha *= 50.0
            try:
                tri = triangle_from_sas(sp, b, alpha, c)
            except GeometryError:
                continue
            for A, B, C in ((tri.A, tri.B, tri.C), (tri.B, tri.A, tri.C), (tri.A, tri.C, tri.B)):
                yield sp, A, B, C


def test_measurements_and_laws_match_the_references():
    measured = laws = 0
    for sp, A, B, C in _sas_triangles():
        try:
            tri = Triangle(sp, A, B, C)
        except GeometryError:
            continue
        got = _outcome(measure_triangle, tri)
        assert got == _outcome(reference_measure_triangle, tri)
        if got[0] != "ok":
            continue
        measured += 1
        tm = measure_triangle(tri)
        if tm.all_real():
            laws += 1
            assert _outcome(law_residuals, sp, tm) == _outcome(reference_law_residuals, sp, tm)
    assert measured > 400 and laws > 200


def test_overflowing_triangles_match_the_references():
    # Unnormalized vertices up to 1e200: rays that overflow raise the plane
    # entry error the MPlane route raises, products that overflow the error of
    # their pair, both without a numpy warning.
    rng = random.Random(9)
    outcomes = set()
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        for _ in range(150):
            pts = [
                [rng.choice([1.0, 0.0, 2.0]), rng.uniform(-2, 2) * 10.0 ** rng.uniform(0, 200), rng.uniform(-2, 2)]
                for _ in range(3)
            ]
            try:
                tri = Triangle(sp, *(np.array(p) for p in pts))
            except GeometryError:
                continue
            got = _outcome(measure_triangle, tri)
            with np.errstate(over="ignore", invalid="ignore"):
                assert got == _outcome(reference_measure_triangle, tri)
            outcomes.add(got[1].split(" (")[0] if got[0] == "DomainError" else got[0])
    assert {"ok", "plane entry", "pair"} <= outcomes


def test_triangle_refuses_exactly_the_unusable_sides():
    rng = random.Random(3)
    refused = 0
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        for trial in range(60):
            pts = [
                np.array([rng.choice([1.0, 0.0]), rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-2, 2)])])
                for _ in range(3)
            ]
            if trial % 4 == 0:
                pts[1] = pts[0].copy()
            if trial % 6 == 0:
                pts[2] = -pts[0]
            A, B, C = (np.array(p) for p in pts)
            s = sp.cross_points(np.array([pts[0], pts[0], pts[1]]), np.array([pts[1], pts[2], pts[2]]))
            usable = (s.imag == 0.0) & (s.real != 0.0)
            if usable.all():
                Triangle(sp, A, B, C)
                continue
            refused += 1
            first = int(usable.argmin())
            value = s[first]
            shown = float(value.real) if value.imag == 0.0 else Imaginary(float(value.imag))
            want = "side %s has cross product %r (needs real and nonzero)" % (("AB", "AC", "BC")[first], shown)
            with pytest.raises(DegenerateTriangle) as err:
                Triangle(sp, A, B, C)
            assert str(err.value) == want
    assert refused > 100


def test_law_overflow_raises_the_first_error_in_relation_order():
    # Measures beyond sinh/cosh's float range, in every slot: the error named
    # is the one the relations, evaluated in turn, meet first.
    rng = random.Random(11)
    values = (0.4, 1.7, 705.0, 711.0, 712.0, 760.0, 1e6, 2e6)
    errors = set()
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        for _ in range(60):
            measures = [rng.choice(values) for _ in range(6)]
            tm = TriangleMeasurements(*(Measure(v, 1 + (i >= 3)) for i, v in enumerate(measures)))
            got = _outcome(law_residuals, sp, tm)
            assert got == _outcome(reference_law_residuals, sp, tm)
            if got[0] != "ok":
                errors.add(got[1])
    assert len(errors) >= 4


def _law_grid():
    """Measured all-real SAS triangles with sides up to 700 in the nine planar
    signatures; sinh^2 of a side beyond about 355 overflows."""
    sides = (0.5, 3.0, 50.0, 350.0, 500.0, 700.0)
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        for b, c, alpha in itertools.product(sides, sides, (0.1, 1.0, 3.0)):
            try:
                tm = measure_triangle(triangle_from_sas(sp, b, alpha, c))
            except GeometryError:
                continue
            if tm.all_real():
                yield sp, tm


def _law_suite_measurements():
    for sp, A, B, C in _sas_triangles():
        try:
            tm = measure_triangle(Triangle(sp, A, B, C))
        except GeometryError:
            continue
        if tm.all_real():
            yield sp, tm


def _readings(report):
    """{(relation, reading): hex value} of a hex-rendered LawReport."""
    residuals, values, _ = report
    readings = {(k, "residual"): v for k, v in residuals.items() if k not in values}
    readings.update({(k, name): v for k, pair in values.items() for name, v in pair.items()})
    return readings


def test_law_readings_keep_their_bits_where_the_plain_formula_is_finite():
    # Where every reading of the plain formula is finite, the registry gives
    # the same bits.  Elsewhere it refuses the first non-finite relation; only
    # where k1*k2 = 0, whose quartic term the plain formula forms as 0 * inf,
    # may it instead give finite readings, keeping the plain formula's finite ones.
    plain_nan = recovered = 0
    for sp, tm in itertools.chain(_law_suite_measurements(), _law_grid()):
        plain = _outcome(reference_law_residuals, sp, tm, False)
        got = _outcome(law_residuals, sp, tm)
        if plain[0] != "ok":
            assert got == plain
            continue
        readings = _readings(plain[1])
        bad = [(k, name, v) for (k, name), v in readings.items() if v in ("nan", "inf", "-inf")]
        if not bad:
            assert got == plain
            continue
        plain_nan += 1
        if sp.sig[0] * sp.sig[1] != 0 or got[0] != "ok":
            assert got == ("DomainError", "%s %s is %s, not a finite number" % bad[0])
            continue
        recovered += 1
        bad_keys = {k for k, _, _ in bad}
        got_readings = _readings(got[1])
        for key, name in readings:
            if key not in bad_keys:
                assert got_readings[key, name] == readings[key, name]
                assert got[1][2].get(key) == plain[1][2].get(key)
    # 20 grid triangles in ph, with a side near 500 or more
    assert plain_nan >= 15 and recovered == plain_nan


def test_law_residuals_evaluates_each_kernel_value_once(monkeypatch):
    calls = []
    for name in ("gcos", "gsin", "gtan"):
        kernel = getattr(metric, name, None)
        if kernel is not None:
            monkeypatch.setattr(metric, name, lambda k, x, f=kernel, n=name: calls.append(n) or f(k, x))
    sp = Space("he")
    tm = measure_triangle(triangle_from_sas(sp, 0.7, 1.1, 0.9))
    law_residuals(sp, tm)
    assert 0 < len(calls) <= 24


def test_measure_triangle_makes_one_point_product_pass(monkeypatch):
    # The one pass is Triangle's cross_points call; measure_triangle reuses its products.
    calls = []
    for name in ("_point_products", "cross_points"):
        method = getattr(Space, name)
        monkeypatch.setattr(Space, name, lambda self, x, y, f=method, n=name: calls.append(n) or f(self, x, y))
    sp = Space("ee")
    tri = triangle_from_sas(sp, 0.7, 1.1, 0.9)
    assert calls == ["cross_points", "_point_products"]
    calls.clear()
    relabeled = Triangle(sp, tri.B, tri.A, tri.C)
    assert calls == ["cross_points", "_point_products"]
    calls.clear()
    measure_triangle(tri)
    measure_triangle(relabeled)
    assert calls == []


def _vertex_outcome(fn, *args):
    """_outcome, with a refused vertex coordinate pinned by class and index only:
    the matrix products read nan where the kernels' products read +-inf."""
    got = _outcome(fn, *args)
    entry = re.match(r"vertex coordinate (\(\d, \d\)) is ", got[1]) if got[0] == "DomainError" else None
    return (got[0], entry.group(1)) if entry else got


def _sas_draws(rng, count):
    """Law-suite draws, then values spread over the float range, with signed zeros."""
    for trial in range(count):
        b, alpha, c = (rng.uniform(0.05, 3.0) for _ in range(3))
        if trial % 5 == 0:
            b, c = 40.0 * b, 30.0 * c
        if trial % 7 == 0:
            alpha *= 50.0
        yield b, alpha, c
    special = (0.0, -0.0, 1.3, -2.2, 709.0, 710.0, 1e150, 1e154, 1e308, -1e308)
    for _ in range(count):
        yield tuple(
            rng.choice(special) if rng.random() < 0.3 else rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 308.0)
            for _ in range(3)
        )
    for b in (0.0, -0.0, 0.9):
        for alpha in (0.0, -0.0, 0.4):
            for c in (0.0, -0.0, 1.1):
                yield b, alpha, c


def test_triangle_from_sas_matches_the_matrix_construction(monkeypatch):
    # Triangle's own refusals are not under test: take the vertices it is given.
    monkeypatch.setattr(metric, "Triangle", lambda space, *vertices: np.array(vertices))
    built = refused = 0
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        rng = random.Random(700 + 10 * sig[0] + sig[1])
        for b, alpha, c in _sas_draws(rng, 150):
            got = _vertex_outcome(triangle_from_sas, sp, b, alpha, c)
            if got[0] != "ok":
                assert got == _vertex_outcome(reference_triangle_from_sas, sp, b, alpha, c)
                refused += 1
                continue
            assert got[1][:3] == ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"]
            assert ("ok", got[1][3:]) == _vertex_outcome(reference_triangle_from_sas, sp, b, alpha, c)
            built += 1
    assert built > 1000 and refused > 400


def test_right_triangle_residuals_match_the_plane_route():
    measured = 0
    for sig in [(k1, 1) for k1 in (1, 0, -1)]:
        sp = Space(sig)
        rng = random.Random(800 + sig[0])
        for trial in range(120):
            hi = (3.0, 60.0, 720.0)[trial % 3]
            a, b = rng.uniform(0.05, hi), rng.uniform(0.05, hi)
            got = _outcome(right_triangle_residuals, sp, a, b)
            assert got == _outcome(reference_right_triangle_residuals, sp, a, b)
            measured += got[0] == "ok"
    assert measured > 150
