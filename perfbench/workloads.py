"""The calls each workload makes into ckgeo, and the check of each result.

An op has a `run` (the timed call into the workload's entry point) and a
`check` that compares what `run` returned with the reference values the
parent process attached to the input.  Every call goes through the package
namespace at call time, so the tracer's wrappers are seen once installed.

A check returns (checked, failed, refusals, note): the number of results it
judged, how many of them were wrong, the GeometryError refusals that the
reference allows (by "call:Class"), and a description of the first failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

# Distances against the 30-digit reference: relative 1e-9, plus an absolute
# 1e-12 for near-coincident pairs, whose minors carry absolute rounding of a
# few 1e-15 at the coordinate sizes gen.py allows.
PHI_TOL = 1e-9
PHI_ABS = 1e-12
# Law residuals, as in the law-suite acceptance criterion.
LAW_TOL = 1e-8
# Sides and angles that must reproduce their construction.
MEASURE_TOL = 1e-9
# The law-suite criterion evaluates laws only where every |tangent| <= 25.
TAME_TAN = 25.0
# An estimate, or a case's pooled mean, beyond this many standard errors
# fails.  At about 10 000 estimates a run, 4 would fire by chance in about
# half the runs and 5 in 0.6%; 6 keeps the chance false alarm near 2e-5 per
# run.  The pooled check, on about 2500 estimates a case, still flags a bias
# of an eighth of one estimate's stderr.
VOLUME_Z = 6.0


class Op:
    """`results` counts the results its check judges; `case` names the
    volume case."""

    __slots__ = ("run", "check", "results", "case")

    def __init__(self, run, check, results=1, case=None):
        self.run = run
        self.check = check
        self.results = results
        self.case = case


# -- pairs -----------------------------------------------------------------------


def _parse_output(text: str, fmt: str):
    if fmt == "json":
        return [(row["phi"], row["level"], row["kind"]) for row in json.loads(text)]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["phi", "level", "kind"]:
        raise ValueError("unexpected CSV header %r" % (rows[0],))
    return [(float(phi), int(level), kind) for phi, level, kind in rows[1:]]


def check_pairs(output, refs, fmt: str):
    """Judge one bulk-distance call: exit code, then every (phi, kind)."""
    code, text = output
    if code != 0:
        return len(refs), len(refs), (), "exit code %d" % code
    try:
        got = _parse_output(text, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return len(refs), len(refs), (), "unparsable %s output: %s" % (fmt, exc)
    if len(got) != len(refs):
        return len(refs), len(refs), (), "%d results for %d pairs" % (len(got), len(refs))
    failed, note = 0, None
    for idx, ((phi, level, kind), (want_kind, want_phi)) in enumerate(zip(got, refs)):
        if kind != want_kind or level != 1 or not abs(phi - want_phi) <= PHI_ABS + PHI_TOL * want_phi:
            failed += 1
            if note is None:
                note = "pair %d: got %r %s, want %r %s" % (idx, phi, kind, want_phi, want_kind)
    return len(refs), failed, (), note


def pairs_ops(ck, spec, workdir):
    ops = []
    for idx, f in enumerate(spec["files"]):
        path = os.path.join(workdir, "pairs-%02d.csv" % idx)
        argv = ["dist", "--space", f["space"], "--pairs", path, "--output", f["output"]]
        refs = [tuple(r) for r in f["refs"]]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ck.cli.main(argv)
            return code, buf.getvalue()

        def check(output, refs=refs, fmt=f["output"]):
            return check_pairs(output, refs, fmt)

        ops.append(Op(run, check, results=len(refs)))
    return ops


# -- flats -------------------------------------------------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _tame(ck, sig, tm) -> bool:
    """The law-suite criterion's filter: all measures real, no tangent
    beyond TAME_TAN (no blow-ups near the poles)."""
    measures = ((tm.a, sig[0]), (tm.b, sig[0]), (tm.c, sig[0]),
                (tm.alpha, sig[1]), (tm.beta_prime, sig[1]), (tm.gamma, sig[1]))
    return all(m.kind == "real" and abs(ck.gtan(k, m.value)) <= TAME_TAN for m, k in measures)


def _sas_run(ck, space, op):
    """Build, measure, evaluate the laws and solve; refusals are returned,
    not raised.

    The laws are evaluated as the law-suite criterion does: on the first of
    three labelings (the given one, then B-A-C and A-C-B) that measures and
    is tame.  The given labeling's measurement is kept for the solve check.
    """
    out = {"error": None, "tm": None, "laws": None, "sol": None, "sol_error": None}
    b, alpha, c = op["b"], op["alpha"], op["c"]
    try:
        tri = ck.triangle_from_sas(space, b, alpha, c)
    except ck.GeometryError as exc:
        out["error"] = "triangle_from_sas:" + type(exc).__name__
        return out
    labelings = ((tri.B, tri.A, tri.C), (tri.A, tri.C, tri.B))
    for idx in range(3):
        try:
            tm = ck.measure_triangle(tri if idx == 0 else ck.Triangle(space, *labelings[idx - 1]))
        except ck.GeometryError as exc:
            if idx == 0:
                out["error"] = "measure_triangle:" + type(exc).__name__
            continue
        if idx == 0:
            if tm.all_real():
                out["tm"] = tm
            else:
                out["error"] = "measure_triangle:imaginary"
        if _tame(ck, space.sig, tm):
            out["laws"] = ck.law_residuals(space, tm)
            break
    try:
        out["sol"] = ck.solve_sas(space, b, alpha, c)
    except ck.GeometryError as exc:
        out["sol_error"] = "solve_sas:" + type(exc).__name__
    return out


def check_sas(out, op, disputed):
    """Refusals must match the reference and each other; results must hold.

    The reference says whether side BC exists and, if so, whether the given
    labeling measures real, measures an imaginary angle or raises (and
    which GeometryError).  `solve_sas` must refuse exactly when that
    labeling does not measure real.
    """
    ref = op["ref"]
    refusals = []
    if out["error"] is not None:
        refusals.append(out["error"])
    if out["sol_error"] is not None:
        refusals.append(out["sol_error"])
    if out["error"] == "triangle_from_sas:DegenerateTriangle":
        if ref["bc"] == "real":
            return 1, 1, (), "refused a triangle whose side a is real (%r)" % (ref["a"],)
        return 1, 0, tuple(refusals), None
    if out["error"] is not None and out["error"].startswith("triangle_from_sas"):
        return 1, 1, (), "construction raised %s" % out["error"]
    if ref["bc"] == "not-real":
        return 1, 1, (), "built a triangle whose side a is not real"
    tm, sol = out["tm"], out["sol"]
    measured = "real" if tm is not None else out["error"].split(":", 1)[1]
    if ref["measure"] not in (None, "borderline", measured):
        return 1, 1, (), "measure_triangle gave %s, the reference %s" % (measured, ref["measure"])
    if (tm is None) != (sol is None):
        return 1, 1, (), "measure (%s) and solve (%s) disagree on refusal" % (out["error"], out["sol_error"])
    if out["sol_error"] is not None and out["sol_error"] != "solve_sas:NoSolution":
        return 1, 1, (), "unexpected refusal %s" % out["sol_error"]
    laws = out["laws"]
    if laws is not None:
        worst = max(v for k, v in laws.residuals.items() if k not in disputed)
        if not worst <= LAW_TOL:
            return 1, 1, (), "undisputed law residual %.3g" % worst
    if tm is None:
        return 1, 0, tuple(refusals), None
    built = ((tm.b.value, op["b"]), (tm.c.value, op["c"]), (tm.alpha.value, op["alpha"]), (tm.a.value, ref["a"]))
    if not all(_close(got, want, MEASURE_TOL) for got, want in built):
        return 1, 1, (), "measured b, c, alpha, a %r differ from construction" % (built,)
    pairs = ((tm.a, sol.a), (tm.beta_prime, sol.beta_prime), (tm.gamma, sol.gamma))
    if not all(_close(m.value, s.value, LAW_TOL) for m, s in pairs):
        return 1, 1, (), "solve_sas %r disagrees with measure_triangle %r" % (
            [s.value for _, s in pairs],
            [m.value for m, _ in pairs],
        )
    return 1, 0, (), None


def check_angle(measure, op):
    ok = (
        measure.kind == op["kind"]
        and measure.level == op["level"]
        and _close(measure.value, op["theta"], MEASURE_TOL)
    )
    if ok:
        return 1, 0, (), None
    return 1, 1, (), "angle %r (%s, level %d), built as %r (%s, level %d)" % (
        measure.value, measure.kind, measure.level, op["theta"], op["kind"], op["level"])


def check_validate(report, op):
    if report.ok == op["ok"] and report.mode == op["mode"]:
        return 1, 0, (), None
    return 1, 1, (), "validate gave ok=%s mode=%s, built ok=%s mode=%s" % (
        report.ok, report.mode, op["ok"], op["mode"])


def flats_ops(ck, spec, workdir):
    spaces = {}
    disputed = frozenset(ck.DISPUTED_LAWS)
    ops = []
    for cycle in spec["cycles"]:
        for op in cycle:
            space = spaces.setdefault(op["space"], ck.Space(op["space"]))
            kind = op["op"]
            if kind == "sas":

                def run(space=space, op=op):
                    return _sas_run(ck, space, op)

                def check(out, op=op):
                    return check_sas(out, op, disputed)

            elif kind == "angle":
                x = np.array(op["x"], dtype=float).T
                y = np.array(op["y"], dtype=float).T

                def run(space=space, x=x, y=y):
                    return ck.angle(space, ck.MPlane(space, x), ck.MPlane(space, y))

                def check(measure, op=op):
                    return check_angle(measure, op)

            else:
                mat = np.array(op["matrix"], dtype=float)

                def run(space=space, mat=mat):
                    return ck.validate(space, mat)

                def check(report, op=op):
                    return check_validate(report, op)

            ops.append(Op(run, check))
    return ops


# -- volume --------------------------------------------------------------------------


def check_estimate(est, exact: float, samples: int):
    z = (est.value - exact) / est.stderr if est.stderr > 0 else math.inf
    if est.samples == samples and abs(z) <= VOLUME_Z:
        return 1, 0, (), None
    return 1, 1, (), "estimate %r +- %r is %.2f stderr from %r" % (est.value, est.stderr, z, exact)


def volume_ops(ck, spec, workdir):
    """Call i: case order[i % 4] at sizes[i % 5] samples, seed mc_seeds[i]."""
    cases = {}
    for case in spec["cases"]:
        space = ck.Space(case["space"])
        simplex = ck.GeodesicSimplex(space, [space.normalize(v) for v in case["vertices"]])
        cases[case["case"]] = (space, simplex, case["exact"])
    order, sizes, seeds = spec["order"], spec["sizes"], spec["mc_seeds"]
    ops = []
    for idx, seed in enumerate(seeds):
        name = order[idx % len(order)]
        samples = sizes[idx % len(sizes)]
        space, simplex, exact = cases[name]

        def run(space=space, simplex=simplex, samples=samples, seed=seed):
            return ck.mc_volume(space, simplex, samples, seed)

        def check(est, exact=exact, samples=samples):
            return check_estimate(est, exact, samples)

        ops.append(Op(run, check, case=name))
    return ops


def pooled_volume_check(estimates):
    """Every case's pooled mean must also lie within VOLUME_Z pooled stderr.

    `estimates` maps case -> (exact, [(value, stderr), ...]).
    """
    notes = []
    for case, (exact, values) in estimates.items():
        if not values:
            continue
        mean = sum(v for v, _ in values) / len(values)
        stderr = math.sqrt(sum(s * s for _, s in values)) / len(values)
        if abs(mean - exact) > VOLUME_Z * stderr:
            notes.append("%s: pooled %r +- %r vs %r" % (case, mean, stderr, exact))
    return notes


OPS = {"pairs": pairs_ops, "flats": flats_ops, "volume": volume_ops}


def slot_items(spec) -> list:
    """Items done by each distinct call of the workload's pool.

    Call i repeats distinct call i % len(result): a pairs file, a flats op,
    or a volume (case, size) combination (the seed changes, the work not).
    """
    if spec["workload"] == "pairs":
        return [len(f["rows"]) for f in spec["files"]]
    if spec["workload"] == "flats":
        return [1] * sum(len(cycle) for cycle in spec["cycles"])
    sizes = spec["sizes"]
    return [sizes[i % len(sizes)] for i in range(math.lcm(len(spec["order"]), len(sizes)))]


def best_per_slot(latencies, period: int) -> list:
    """Best time of each distinct call over its repetitions (call i is
    distinct call i % period)."""
    best = [math.inf] * period
    for i, wall in enumerate(latencies):
        best[i % period] = min(best[i % period], wall)
    return best
