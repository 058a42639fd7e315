"""Acceptance suite: eight stop-ship criteria, one printed line each.

Every test computes its clauses first, records a single ACCEPTANCE line
(echoed in the terminal summary by conftest), then asserts the clauses with
pinned tolerances.  Criterion 6 carries one clause that is provably out of
reach for the mandated estimator family; it is asserted anyway, so the test
fails honestly rather than papering over the bound (details in the line and
in the package README).
"""

import itertools
import math
import random
import time

import numpy as np

from ckgeo import (
    DISPUTED_LAWS,
    DegenerateTriangle,
    DomainError,
    GeodesicSimplex,
    InconsistentPair,
    LAW_KEYS,
    MPlane,
    Space,
    Triangle,
    distance,
    gtan,
    law_residuals,
    mc_volume,
    measure_triangle,
    plane_tables,
    point_cross_table,
    random_transform,
    right_triangle_residuals,
    triangle_from_sas,
)
from ckgeo.cli import main

PLANAR_SIGS = tuple(itertools.product((-1, 0, 1), repeat=2))


def _rel_gap(before: float, after: float) -> float:
    return abs(after - before) / max(1.0, abs(before), abs(after))


# -- criterion 1 -----------------------------------------------------------------


def _unit3(rng: random.Random) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def test_criterion_1_classical_space_oracles(acceptance):
    t0 = time.perf_counter()
    worst = {}

    sp = Space((1, 1))
    rng = random.Random(101)
    gap = 0.0
    for _ in range(1000):
        u, v = _unit3(rng), _unit3(rng)
        want = math.acos(max(-1.0, min(1.0, float(u @ v))))
        got = distance(sp, np.array(u), np.array(v)).value
        gap = max(gap, abs(got - want))
    worst["sph"] = gap

    sp = Space((-1, 1))
    rng = random.Random(102)
    gap = 0.0
    for _ in range(1000):
        pts = []
        for _ in range(2):
            x1, x2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            pts.append((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2))
        x, y = pts
        minkowski = x[0] * y[0] - x[1] * y[1] - x[2] * y[2]
        want = math.acosh(max(1.0, minkowski))
        got = distance(sp, np.array(x), np.array(y)).value
        gap = max(gap, abs(got - want))
    worst["hyp"] = gap

    sp = Space((0, 1))
    rng = random.Random(103)
    gap = 0.0
    for _ in range(1000):
        x = (1.0, rng.uniform(-10, 10), rng.uniform(-10, 10))
        y = (1.0, rng.uniform(-10, 10), rng.uniform(-10, 10))
        want = math.hypot(y[1] - x[1], y[2] - x[2])
        got = distance(sp, np.array(x), np.array(y)).value
        gap = max(gap, abs(got - want))
    worst["euc"] = gap

    sp = Space((0, 0))
    rng = random.Random(104)
    gap = 0.0
    for _ in range(1000):
        x = (1.0, rng.uniform(-10, 10), rng.uniform(-10, 10))
        y = (1.0, rng.uniform(-10, 10), rng.uniform(-10, 10))
        want = abs(y[1] - x[1])
        got = distance(sp, np.array(x), np.array(y)).value
        gap = max(gap, abs(got - want))
    worst["gal"] = gap

    elapsed = time.perf_counter() - t0
    ok = (
        worst["sph"] <= 1e-9
        and worst["hyp"] <= 1e-9
        and worst["euc"] <= 1e-9
        and worst["gal"] <= 1e-12
        and elapsed < 10.0
    )
    acceptance(
        "ACCEPTANCE 1 (classical-space oracles): %s - gaps sph %.1e hyp %.1e "
        "euc %.1e gal %.1e in %.1fs"
        % ("PASS" if ok else "FAIL", worst["sph"], worst["hyp"], worst["euc"], worst["gal"], elapsed)
    )
    assert worst["sph"] <= 1e-9
    assert worst["hyp"] <= 1e-9
    assert worst["euc"] <= 1e-9
    assert worst["gal"] <= 1e-12
    assert elapsed < 10.0


# -- criterion 2 -----------------------------------------------------------------


def test_criterion_2_defining_identities(acceptance):
    t0 = time.perf_counter()
    sigs = list(itertools.product((-1, 0, 1), repeat=2))
    sigs += list(itertools.product((-1, 0, 1), repeat=3))
    worst_points = 0.0
    worst_planes = 0.0
    for idx, sig in enumerate(sigs):
        sp = Space(sig)
        n = sp.n
        rng = np.random.default_rng(200 + idx)
        k1 = sig[0]
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, n + 1)
            y = rng.uniform(-1.0, 1.0, n + 1)
            lhs = sp.dot_points(x, y) ** 2 + k1 * sp.point_cross_radicand(x, y)
            rhs = sp.dot_points(x, x) * sp.dot_points(y, y)
            worst_points = max(worst_points, abs(lhs - rhs))
        for m in range(1, n):
            km = sig[m]
            for _ in range(200):
                X = MPlane(sp, rng.uniform(-1.0, 1.0, (n + 1, m + 1)), validate=False)
                Y = MPlane(sp, rng.uniform(-1.0, 1.0, (n + 1, m + 1)), validate=False)
                lhs = sp.dot_planes(X, Y) ** 2 + km * sp.plane_cross_radicand(X, Y)
                rhs = sp.dot_planes(X, X) * sp.dot_planes(Y, Y)
                worst_planes = max(worst_planes, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst_points <= 1e-9 and worst_planes <= 1e-9 and elapsed < 30.0
    acceptance(
        "ACCEPTANCE 2 (defining identities): %s - worst points %.1e planes %.1e in %.1fs"
        % ("PASS" if ok else "FAIL", worst_points, worst_planes, elapsed)
    )
    assert worst_points <= 1e-9
    assert worst_planes <= 1e-9
    assert elapsed < 30.0


# -- criterion 3 -----------------------------------------------------------------


def test_criterion_3_invariance_under_transforms(acceptance):
    worst = 0.0
    for idx, sig in enumerate(PLANAR_SIGS):
        sp = Space(sig)
        rng = np.random.default_rng(300 + idx)
        point_pairs = [
            (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(5)
        ]
        line_pairs = [
            (
                MPlane(sp, rng.uniform(-1, 1, (3, 2)), validate=False),
                MPlane(sp, rng.uniform(-1, 1, (3, 2)), validate=False),
            )
            for _ in range(5)
        ]
        for t in range(50):
            g = random_transform(sp, 1000 * idx + t)
            for x, y in point_pairs:
                gx, gy = g.matrix @ x, g.matrix @ y
                worst = max(
                    worst, _rel_gap(sp.dot_points(x, y), sp.dot_points(gx, gy))
                )
                worst = max(
                    worst,
                    _rel_gap(
                        sp.point_cross_radicand(x, y),
                        sp.point_cross_radicand(gx, gy),
                    ),
                )
            for X, Y in line_pairs:
                gX = MPlane(sp, g.matrix @ X.cols, validate=False)
                gY = MPlane(sp, g.matrix @ Y.cols, validate=False)
                worst = max(
                    worst, _rel_gap(sp.dot_planes(X, Y), sp.dot_planes(gX, gY))
                )
                worst = max(
                    worst,
                    _rel_gap(
                        sp.plane_cross_radicand(X, Y),
                        sp.plane_cross_radicand(gX, gY),
                    ),
                )
    ok = worst <= 1e-8
    acceptance(
        "ACCEPTANCE 3 (transform invariance): %s - worst relative drift %.1e"
        % ("PASS" if ok else "FAIL", worst)
    )
    assert worst <= 1e-8


# -- criterion 4 -----------------------------------------------------------------


def _draw_measure(rng: random.Random, k: int) -> float:
    if k == 1:
        return rng.uniform(0.15, math.pi - 0.25)
    if k == 0:
        return rng.uniform(0.15, 3.0)
    return rng.uniform(0.15, 2.2)


def _tame(sig, tm) -> bool:
    # keep residual comparisons conditioned: no imaginary measures, no
    # tangent blowups near the poles
    pairs = (
        (tm.a, sig[0]),
        (tm.b, sig[0]),
        (tm.c, sig[0]),
        (tm.alpha, sig[1]),
        (tm.beta_prime, sig[1]),
        (tm.gamma, sig[1]),
    )
    for m, k in pairs:
        if m.kind != "real" or abs(gtan(k, m.value)) > 25.0:
            return False
    return True


def _measure_with_relabel(sp, tri):
    # the laws are symmetric in the A and C roles, so when a labeling makes
    # the exterior-angle rays unmeasurable, try the two harmless relabelings
    orders = (
        (tri.A, tri.B, tri.C),
        (tri.B, tri.A, tri.C),
        (tri.A, tri.C, tri.B),
    )
    for A, B, C in orders:
        try:
            tm = measure_triangle(Triangle(sp, A, B, C))
        except (InconsistentPair, DomainError, DegenerateTriangle):
            continue
        if _tame(sp.sig, tm):
            return tm
    return None


def test_criterion_4_law_suite(acceptance):
    printed = {law: 0.0 for law in DISPUTED_LAWS}
    corrected = {law: 0.0 for law in DISPUTED_LAWS}
    plain = {law: 0.0 for law in LAW_KEYS if law not in DISPUTED_LAWS}
    trials_used = {}
    for sig in PLANAR_SIGS:
        sp = Space(sig)
        rng = random.Random(1000 + 10 * sig[0] + sig[1])
        evaluated = 0
        trials = 0
        while evaluated < 100:
            trials += 1
            assert trials <= 3000, "triangle sampling stalled in %s" % (sig,)
            b = _draw_measure(rng, sig[0])
            alpha = _draw_measure(rng, sig[1])
            c = _draw_measure(rng, sig[0])
            try:
                tri = triangle_from_sas(sp, b, alpha, c)
            except DegenerateTriangle:
                continue
            tm = _measure_with_relabel(sp, tri)
            if tm is None:
                continue
            rep = law_residuals(sp, tm)
            for law in LAW_KEYS:
                if law in DISPUTED_LAWS:
                    values = rep.variant_values[law]
                    printed[law] = max(printed[law], values["as-printed"])
                    corrected[law] = max(corrected[law], values["corrected"])
                else:
                    plain[law] = max(plain[law], rep.residuals[law])
            evaluated += 1
        trials_used[sig] = trials

    survivors = {}
    for law in DISPUTED_LAWS:
        names = set()
        if printed[law] <= 1e-8:
            names.add("as-printed")
        if corrected[law] <= 1e-8:
            names.add("corrected")
        survivors[law] = names

    worst_plain = max(plain.values())
    expected = {law: {"corrected"} for law in ("eq19", "eq20", "eq21", "eq22")}
    expected.update({law: {"as-printed"} for law in ("eq23", "eq24", "eq25")})
    ok = worst_plain <= 1e-8 and survivors == expected
    acceptance(
        "ACCEPTANCE 4 (law suite): %s - survivors eq19-eq22 corrected, "
        "eq23-eq25 as-printed; undisputed worst %.1e; max trials %d"
        % ("PASS" if ok else "FAIL", worst_plain, max(trials_used.values()))
    )
    assert worst_plain <= 1e-8
    for law in DISPUTED_LAWS:
        assert survivors[law], "no variant of %s survived" % law
    assert survivors == expected, survivors


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_5_right_triangle_identities(acceptance):
    leg_ranges = {1: (0.15, 1.1), 0: (0.2, 5.0), -1: (0.15, 2.0)}
    worst = 0.0
    for k1 in (-1, 0, 1):
        sp = Space((k1, 1))
        rng = random.Random(2000 + k1)
        lo, hi = leg_ranges[k1]
        for _ in range(100):
            rep = right_triangle_residuals(sp, rng.uniform(lo, hi), rng.uniform(lo, hi))
            worst = max(worst, max(rep.residuals.values()))
    euclid = right_triangle_residuals(Space((0, 1)), 3.0, 4.0)
    gap345 = max(
        abs(euclid.c - 5.0), abs(euclid.a - 3.0), abs(euclid.b - 4.0)
    )
    worst_345 = max(euclid.residuals.values())
    ok = worst <= 1e-8 and gap345 <= 1e-12 and worst_345 <= 1e-12
    acceptance(
        "ACCEPTANCE 5 (right triangles): %s - worst residual %.1e; 3-4-5 gap %.1e"
        % ("PASS" if ok else "FAIL", worst, gap345)
    )
    assert worst <= 1e-8
    assert gap345 <= 1e-12
    assert worst_345 <= 1e-12


# -- criterion 6 -----------------------------------------------------------------


def test_criterion_6_volume_oracles(acceptance):
    ee = Space("ee")
    octant = GeodesicSimplex(
        ee,
        [
            ee.normalize([1.0, 0.0, 0.0]),
            ee.normalize([0.0, 1.0, 0.0]),
            ee.normalize([0.0, 0.0, 1.0]),
        ],
    )
    t0 = time.perf_counter()
    oct_est = mc_volume(ee, octant, 1_000_000, 42)
    oct_time = time.perf_counter() - t0

    pe = Space("pe")
    tri = GeodesicSimplex(
        pe,
        [
            pe.normalize([1.0, 0.0, 0.0]),
            pe.normalize([1.0, 3.0, 0.0]),
            pe.normalize([1.0, 0.0, 4.0]),
        ],
    )
    t0 = time.perf_counter()
    tri_est = mc_volume(pe, tri, 1_000_000, 42)
    tri_time = time.perf_counter() - t0
    # supplementary evidence that the estimator reaches the error bound with
    # more samples; the criterion's own count is asserted below regardless
    tri_more = mc_volume(pe, tri, 2_000_000, 42)

    oct_acc = abs(oct_est.value - math.pi / 2) <= 3.0 * oct_est.stderr
    oct_err = oct_est.stderr <= 0.01
    tri_acc = abs(tri_est.value - 6.0) <= 3.0 * tri_est.stderr
    tri_err = tri_est.stderr <= 0.01
    more_ok = abs(tri_more.value - 6.0) <= 3.0 * tri_more.stderr and tri_more.stderr <= 0.01
    times_ok = oct_time < 20.0 and tri_time < 20.0
    ok = oct_acc and oct_err and tri_acc and tri_err and more_ok and times_ok
    acceptance(
        "ACCEPTANCE 6 (volume oracles): %s - octant %.4f+-%.4f (%.1fs), "
        "triangle %.4f+-%.4f (%.1fs) at 1e6, sampling the cone's bounding "
        "simplex; at 2e6 triangle %.4f+-%.4f"
        % (
            "PASS" if ok else "FAIL",
            oct_est.value,
            oct_est.stderr,
            oct_time,
            tri_est.value,
            tri_est.stderr,
            tri_time,
            tri_more.value,
            tri_more.stderr,
        )
    )
    assert oct_acc and oct_err, (oct_est.value, oct_est.stderr)
    assert tri_acc, (tri_est.value, tri_est.stderr)
    assert more_ok, (tri_more.value, tri_more.stderr)
    assert times_ok, (oct_time, tri_time)
    # The bound holds because the sampling region is the linear simplex
    # {mu >= 0, sum(mu) <= 1/sqrt(g*)} around the cone, not a box: for this
    # Euclidean triangle it is the cone itself, so every sample hits.
    assert tri_err, "triangle stderr %.5f > 0.01 at 1e6 samples" % tri_est.stderr


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_7_coefficient_soundness(acceptance):
    t0 = time.perf_counter()
    evaluated = 0
    for n in range(1, 5):
        for sig in itertools.product((-1, 0, 1), repeat=n):
            evaluated += len(point_cross_table(sig))
            for m in range(0, n):
                _, dot_table, cross_table = plane_tables(sig, m)
                evaluated += len(dot_table) + len(cross_table)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    acceptance(
        "ACCEPTANCE 7 (coefficient soundness): %s - %d coefficients across "
        "n<=4 evaluated without NonDivisible in %.1fs"
        % ("PASS" if ok else "FAIL", evaluated, elapsed)
    )
    assert evaluated > 0
    assert elapsed < 10.0


# -- criterion 8 -----------------------------------------------------------------


def test_criterion_8_cli_determinism(acceptance, capsys):
    cases = (
        ["dist", "--space", "pe", "--p", "1,0,0", "--q", "1,3,4"],
        ["triangle", "--space", "he", "--b", "0.9", "--alpha", "1.1", "--c", "0.6", "--laws"],
        [
            "volume",
            "--space",
            "ee",
            "--vertices",
            "[[1,0,0],[0,1,0],[0,0,1]]",
            "--samples",
            "2000",
            "--seed",
            "5",
        ],
        ["transform", "--space", "hp", "--random", "7"],
    )
    identical = True
    for argv in cases:
        code_first = main(list(argv))
        out_first = capsys.readouterr().out
        code_second = main(list(argv))
        out_second = capsys.readouterr().out
        case_ok = code_first == 0 and code_second == 0 and out_first == out_second
        identical = identical and case_ok and bool(out_first)
        assert case_ok, argv
    acceptance(
        "ACCEPTANCE 8 (CLI determinism): %s - %d commands byte-identical on repeat"
        % ("PASS" if identical else "FAIL", len(cases))
    )
    assert identical
