"""ckgeo benchmark: one seeded workload, checked, with its metrics as JSON.

    python3 perfbench/run.py --workload pairs|flats|volume --seed N
        --seconds S --trace 0|1

Run it from anywhere inside a checkout; ckgeo is imported from the
checkout's src/ directory.  The inputs come from --seed alone (gen.py, which
does not import ckgeo) and every result is checked against references that
this process computes (oracle.py).  The workload runs in a child process
with one thread per math library.  With --trace 0 the last line reports the
end-to-end metrics, with --trace 1 the per-layer ones; the line before it
records the environment, the refusals by class and the first failures.
Each run is also appended to .perfbench/runs.jsonl for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Cold starts per run, half before and half after the timed loop so they
# meet the host in two states; setup_s is their median.
SETUP_RUNS = 10
# s_to_target: items to reach on pairs and flats, where it is only
# items_per_s restated, and the relative stderr to reach on each volume case.
TARGET_ITEMS = {"pairs": 100_000, "flats": 10_000}
TARGET_REL_STDERR = 1e-3
CHILD_TIMEOUT = 170


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(src)])
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cold_spec(spec: dict) -> dict:
    """The input of the workload's first call only."""
    out = dict(spec)
    if spec["workload"] == "pairs":
        out["files"] = spec["files"][:1]
    elif spec["workload"] == "flats":
        out["cycles"] = [spec["cycles"][0][:1]]
    else:
        out["mc_seeds"] = spec["mc_seeds"][:1]
    return out


def write_inputs(spec: dict, workdir: Path) -> None:
    workdir.mkdir(parents=True)
    if spec["workload"] == "pairs":
        for idx, f in enumerate(spec["files"]):
            (workdir / ("pairs-%02d.csv" % idx)).write_text(gen.pairs_csv(f["rows"]), encoding="utf-8")
    for name, data in (("input.json", spec), ("cold.json", cold_spec(spec))):
        with open(workdir / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def run_child(args, env, cwd) -> float:
    """Run worker.py to completion and return its wall time.

    The wait blocks in waitpid rather than polling (as a wait with a
    timeout does, in steps of up to 50 ms), so the wall time is exact; a
    timer kills a child that overstays CHILD_TIMEOUT.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return wall


def end_to_end(spec: dict, res: dict, setup: list) -> dict:
    """The end-to-end metrics of an untraced run.

    Every time metric is built from each distinct call's best time over its
    repetitions in the run (as timeit's best-of-N), and each call counts at
    its distinct call's best; setup_s is the median cold start.  On the 2-vCPU
    Xeon VM where the baseline was measured, speed drifts between states up
    to 1.5x apart for minutes at a time; means and percentiles of the raw
    call times spread 0.12 to 0.40 across runs of the same code.  The price:
    a cost that hits some repetitions of a call and not others (garbage
    collection, cache evictions) moves none of these metrics, and
    items_per_s is items per second of best call time, not of the run.
    Every pass repeats each distinct call once, so the percentiles weigh
    them equally.
    """
    items = workloads.slot_items(spec)
    best = workloads.best_per_slot(res["latencies"], len(items))
    calls = [best[i % len(best)] for i in range(len(res["latencies"]))]
    if spec["workload"] == "volume":
        # wall x (rel_stderr / target)^2 per call, averaged per case, summed
        per_case = {}
        for index, case, value, stderr in res["estimates"]:
            ratio = stderr / value / TARGET_REL_STDERR
            per_case.setdefault(case, []).append(best[index % len(best)] * ratio * ratio)
        to_target = sum(statistics.fmean(v) for v in per_case.values())
    else:
        to_target = TARGET_ITEMS[spec["workload"]] * sum(best) / sum(items)
    return {
        "items_per_s": (sum(items) / sum(best), "1/s"),
        "call_p50_ms": (statistics.median(calls) * 1e3, "ms"),
        "call_p90_ms": (statistics.quantiles(calls, n=10)[8] * 1e3, "ms"),
        "s_to_target": (to_target, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ckgeo" / "__init__.py").is_file():
        print("run.py: no ckgeo sources under %s" % src, file=sys.stderr)
        return 2

    spec = oracle.annotate(gen.build(args.workload, args.seed))
    state = ROOT / ".perfbench"
    workdir = state / ("run-%d" % os.getpid())
    env = child_env(src)
    common = ["--src", str(src), "--workdir", str(workdir), "--seconds", repr(args.seconds)]
    try:
        write_inputs(spec, workdir)
        cold = common + ["--input", str(workdir / "cold.json"), "--cold"]
        setup = []
        if args.trace == 0:
            run_child(cold, env, workdir)  # unmeasured: fills the bytecode and file caches
            setup += [run_child(cold, env, workdir) for _ in range(SETUP_RUNS // 2)]
        out = workdir / "result.json"
        timed = common + ["--input", str(workdir / "input.json"), "--out", str(out)]
        timed += ["--trace", str(args.trace)]
        if args.trace:
            timed += ["--spans", str(state / ("spans-%s.npz" % args.workload))]
        run_child(timed, env, workdir)
        if args.trace == 0:
            setup += [run_child(cold, env, workdir) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        with open(out, "r", encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = list(res["notes"])
    if spec["workload"] == "volume":
        pooled = {case["case"]: (case["exact"], []) for case in spec["cases"]}
        for _, case, value, stderr in res["estimates"]:
            pooled[case][1].append((value, stderr))
        bad = workloads.pooled_volume_check(pooled)
        notes += bad
        res["failed"] += len(bad)
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = end_to_end(spec, res, setup)
    final = {
        "correct": res["failed"] == 0 and res["checked"] > 0,
        "attempted": res["checked"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": res["calls"],
        "refusals": dict(sorted(res["refusals"].items())),
        "failures": notes[:5],
        "python": res["python"],
        "numpy": res["numpy"],
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(ROOT),
    }
    if args.trace:
        meta["self_s"] = res["self_s"]
        meta["spans"] = res.get("spans")
    state.mkdir(exist_ok=True)
    with open(state / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, "result": final}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
