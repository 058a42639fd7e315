"""One workload in its own process: a cold first call, or a timed closed loop.

    python3 perfbench/worker.py --src SRC --input SPEC.json --workdir DIR
        --seconds S [--out RESULT.json] [--cold] [--trace 0|1] [--spans SPANS.npz]

The parent (run.py) writes the input with its reference values and reads
the result.  With --cold the process imports ckgeo, makes the workload's
first call and exits; the parent times it from outside.  Otherwise one
client calls the entry point, waits for the result, checks it outside the
timed region and calls again, until --seconds have passed and the current
pass over the distinct calls (workloads.slot_items) is complete, so every
distinct call was repeated equally often.  With --trace 1 the loop runs for
half the time untraced, then repeats the same calls with the tracer
installed.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import sys
import time


class Tally:
    def __init__(self):
        self.latencies = []
        self.checked = 0
        self.failed = 0
        self.refusals = collections.Counter()
        self.notes = []
        self.estimates = []  # volume: (call index, case, value, stderr)
        self.bytes_out = 0

    def record(self, op, raw, wall, error):
        index = len(self.latencies)
        self.latencies.append(wall)
        if error is not None:
            checked, failed, refusals, note = op.results, op.results, (), error
        else:
            checked, failed, refusals, note = op.check(raw)
            if op.case is not None:
                self.estimates.append((index, op.case, raw.value, raw.stderr))
            if isinstance(raw, tuple):  # pairs: (exit code, stdout)
                self.bytes_out += len(raw[1].encode("utf-8"))
        self.checked += checked
        self.failed += failed
        self.refusals.update(refusals)
        if note is not None and len(self.notes) < 5:
            self.notes.append(note)


def run_loop(ops, tally, period, seconds=None, count=None, tracer=None):
    """Call ops in order from the first; stop after `count` calls or, with
    `seconds`, at the first pass boundary past the time."""
    begin = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
            tracer.case = op.case
        error = raw = None
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a crash is a failed op, not a crashed run
            error = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        tally.record(op, raw, t1 - t0, error)
        i += 1
        if count is not None:
            if i >= count:
                return i
        elif i % period == 0 and time.perf_counter() - begin >= seconds:
            return i


def summary(tally):
    return {
        "latencies": tally.latencies,
        "checked": tally.checked,
        "failed": tally.failed,
        "refusals": dict(tally.refusals),
        "notes": tally.notes,
        "estimates": tally.estimates,
        "bytes_out": tally.bytes_out,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--out")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cold", action="store_true")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import ckgeo
    import ckgeo.cli  # noqa: F401  (the pairs entry point)

    import workloads

    with open(args.input, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = workloads.OPS[spec["workload"]](ckgeo, spec, args.workdir)
    if args.cold:
        ops[0].run()
        return 0

    import numpy

    period = len(workloads.slot_items(spec))
    for op in ops[:period]:  # warm-up: lazy tables and first-call costs
        op.run()
    result = {"numpy": numpy.__version__, "python": sys.version.split()[0]}
    if args.trace == 0:
        tally = Tally()
        result["calls"] = run_loop(ops, tally, period, seconds=args.seconds)
        result.update(summary(tally))
    else:
        from tracer import Tracer

        plain = Tally()
        calls = run_loop(ops, plain, period, seconds=args.seconds / 2.0)
        tracer = Tracer(ckgeo)
        tracer.install()
        try:
            traced = Tally()
            run_loop(ops, traced, period, count=calls, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_wall = sum(traced.latencies)
        import gen

        metrics = tracer.metrics(traced_wall, [name for name, _, _ in gen.VOLUME_CASES])
        metrics["cli.bytes_out"] = (traced.bytes_out, "bytes")
        metrics["trace.wall_s"] = (traced_wall, "s")
        # best-of-N per distinct call in each phase, so host drift between
        # the two phases does not read as tracing cost
        ratio = sum(workloads.best_per_slot(traced.latencies, period)) / sum(
            workloads.best_per_slot(plain.latencies, period)
        )
        metrics["trace.overhead"] = (ratio - 1.0, "share")
        result["calls"] = 2 * calls
        result.update(summary(traced))
        result["checked"] += plain.checked
        result["failed"] += plain.failed
        result["refusals"] = dict(plain.refusals + traced.refusals)
        result["notes"] = (plain.notes + traced.notes)[:5]
        result["per_layer"] = metrics
        result["self_s"] = tracer.self_seconds()
        if args.spans:
            result["spans"] = tracer.dump(args.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
