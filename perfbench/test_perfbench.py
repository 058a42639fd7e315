"""Self-tests of the benchmark (not of ckgeo's behaviour).

    python3 -m pytest perfbench

They check that inputs depend on the seed alone, that the generator never
imports ckgeo, that the checks flag perturbed results and pass real ones,
that the tracer's self times add up, and the compare tool's verdicts.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("pairs", "flats", "volume")


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout's ignored .perfbench/."""
    path = ROOT / ".perfbench" / ("selftest-%d-%s" % (os.getpid(), request.node.name))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def ck():
    import ckgeo
    import ckgeo.cli  # noqa: F401

    return ckgeo


def small_spec(workload, seed=5):
    spec = gen.build(workload, seed)
    if workload == "pairs":
        for f in spec["files"]:
            f["rows"], f["construction"] = f["rows"][:20], f["construction"][:20]
    elif workload == "flats":
        spec["cycles"] = spec["cycles"][:2]
    else:
        spec["mc_seeds"] = spec["mc_seeds"][:5]
        spec["sizes"] = [20_000]
    return oracle.annotate(spec)


def test_same_seed_gives_identical_inputs():
    for workload in WORKLOADS:
        a = json.dumps(gen.build(workload, 7), sort_keys=True)
        b = json.dumps(gen.build(workload, 7), sort_keys=True)
        c = json.dumps(gen.build(workload, 8), sort_keys=True)
        assert a == b
        assert a != c


def test_generator_never_imports_ckgeo():
    # ckgeo is importable in the child, so only gen itself could pull it in
    code = (
        "import sys, gen; "
        "[gen.build(w, 3) for w in ('pairs', 'flats', 'volume')]; "
        "sys.exit(any(m.split('.')[0] == 'ckgeo' for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


def test_pair_references_match_construction():
    spec = gen.build("pairs", 11)
    for f in spec["files"][:6]:
        rows, built = f["rows"][:200], f["construction"][:200]
        for (kind, phi), (want_kind, t) in zip(oracle.pair_refs(f["space"], rows), built):
            assert kind == want_kind
            assert abs(phi - t) <= 1e-12 + 1e-9 * t


def _pairs_run(ck, spec, workdir):
    for idx, f in enumerate(spec["files"]):
        (workdir / ("pairs-%02d.csv" % idx)).write_text(gen.pairs_csv(f["rows"]))
    return workloads.pairs_ops(ck, spec, str(workdir))


def test_pairs_check_passes_and_flags_perturbed(ck, workdir):
    spec = small_spec("pairs")
    for op in _pairs_run(ck, spec, workdir):
        code, text = op.run()
        checked, failed, _, note = op.check((code, text))
        assert checked == 20 and failed == 0, note
    json_op, csv_op = _pairs_run(ck, spec, workdir)[:2]
    code, text = json_op.run()
    rows = json.loads(text)
    rows[3]["phi"] *= 1.0 + 1e-7
    assert json_op.check((code, json.dumps(rows)))[1] == 1
    rows = json.loads(text)
    rows[5]["kind"] = "imaginary" if rows[5]["kind"] == "real" else "real"
    assert json_op.check((code, json.dumps(rows)))[1] == 1
    code, text = csv_op.run()
    lines = text.splitlines()
    phi, level, kind = lines[1].split(",")
    lines[1] = ",".join((repr(float(phi) + 1e-6), level, kind))
    assert csv_op.check((code, "\n".join(lines)))[1] == 1
    assert json_op.check((3, ""))[1] == 20


def test_flats_checks_pass_and_flag_perturbed(ck):
    spec = small_spec("flats")
    ops = workloads.flats_ops(ck, spec, ".")
    flat = [op for cycle in spec["cycles"] for op in cycle]
    for op, raw_op in zip(ops, flat):
        checked, failed, _, note = op.check(op.run())
        assert failed == 0, note
    by_kind = {}
    for op, raw_op in zip(ops, flat):
        by_kind.setdefault(raw_op["op"], []).append((op, raw_op))
    op, raw_op = by_kind["angle"][0]
    m = op.run()
    moved = ck.Measure(m.value + 1e-6, m.level, m.kind)
    assert workloads.check_angle(moved, raw_op)[1] == 1
    op, raw_op = by_kind["validate"][0]
    rep = op.run()
    flipped = ck.ValidationReport(not rep.ok, rep.mode, rep.worst_residual, rep.checks)
    assert workloads.check_validate(flipped, raw_op)[1] == 1
    disputed = frozenset(ck.DISPUTED_LAWS)
    solved = [(op, raw_op) for op, raw_op in by_kind["sas"] if op.run()["sol"] is not None]
    op, raw_op = solved[0]
    out = op.run()
    sol = out["sol"]
    out["sol"] = ck.TriangleMeasurements(
        ck.Measure(sol.a.value * (1 + 1e-6), 1), sol.b, sol.c, sol.alpha, sol.beta_prime, sol.gamma
    )
    assert workloads.check_sas(out, raw_op, disputed)[1] == 1
    out = op.run()
    out["sol"], out["sol_error"] = None, "solve_sas:NoSolution"
    assert workloads.check_sas(out, raw_op, disputed)[1] == 1
    refused = dict(raw_op, ref=dict(raw_op["ref"], bc="not-real"))
    assert workloads.check_sas(op.run(), refused, disputed)[1] == 1
    # both paths refusing a triangle that the reference can measure
    out = dict(op.run(), tm=None, error="measure_triangle:DomainError", sol=None, sol_error="solve_sas:NoSolution")
    assert raw_op["ref"]["measure"] == "real"
    assert workloads.check_sas(out, raw_op, disputed)[1] == 1


def test_volume_check_flags_perturbed(ck):
    spec = small_spec("volume")
    ops = workloads.volume_ops(ck, spec, ".")
    est = ops[0].run()
    assert ops[0].check(est)[1] == 0
    moved = ck.VolumeEstimate(est.value + 7 * est.stderr, est.stderr, est.hits, est.samples, est.seed)
    assert ops[0].check(moved)[1] == 1
    exact = spec["cases"][0]["exact"]
    assert workloads.pooled_volume_check({"ee": (exact, [(est.value, est.stderr)])}) == []
    assert workloads.pooled_volume_check({"ee": (exact, [(moved.value, moved.stderr)])})


def test_tracer_self_times_add_up(ck):
    import numpy as np

    from tracer import LAYERS, Tracer

    original = ck.distance
    tracer = Tracer(ck)
    tracer.install()
    try:
        assert ck.metric.distance is not original and ck.cli.distance is ck.metric.distance
        sp = ck.Space("he")
        x, y = sp.normalize([1.0, 0.1, 0.2]), sp.normalize([1.0, -0.3, 0.1])
        ck.distance(sp, x, y)
        tri = ck.triangle_from_sas(ck.Space("ee"), 0.7, 0.9, 1.1)
        ck.measure_triangle(tri)
    finally:
        tracer.uninstall()
    assert ck.distance is original and ck.metric.gmeasure_from_cs is ck.gtrig.gmeasure_from_cs
    start = np.frombuffer(tracer.span_start)
    end = np.frombuffer(tracer.span_end)
    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    top = float((end - start)[parent < 0].sum())
    assert math.isclose(sum(tracer.self_s), top, rel_tol=1e-9)
    names = [tracer.names[i] for i in tracer.span_name]
    child = names.index("gtrig.gmeasure_from_cs")
    assert names[parent[child]] == "metric.distance"
    assert tracer.calls[LAYERS.index("transform")] > 0 and tracer.cross[0] > 0


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    same = [100.5 + i for i in range(10)]
    assert compare.verdict(base, same, "lower", 0.1)[0] == "unchanged"
    faster = [v * 0.7 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "improved"
    slower = [v * 1.3 for v in base]
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "worse"
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 75.0, 125.0, 100.0, 101.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1)[0] == "worse"


def test_run_fails_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
