"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

A run is one line {"meta": ..., "result": ...} as run.py appends to
.perfbench/runs.jsonl; README.md shows how to make alternated runs in two
checkouts.

Runs are paired by workload and seed; untraced runs only.  For every
workload and end-to-end metric of BENCHMARK.json, with medians m_b, m_c
and the base's interquartile range iqr_b:

- improved: the change wins at least 90% of the pairs (ties count for
  neither) and |m_c - m_b| > iqr_b;
- worse: m_c is worse than m_b by more than the metric's bound (a share
  of m_b);
- unresolved: otherwise, when either side's IQR exceeds the bound as a
  share of its median, unless every change run beats every base run;
- unchanged: otherwise.

Fewer than ten pairs on a workload is reported as "insufficient".
s_to_target is judged on volume only: on pairs and flats it is items_per_s
restated.
The exit code is 1 when any metric is worse or insufficient, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """{(workload, seed): [result, ...]} of the untraced runs in a file."""
    runs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            meta = rec["meta"]
            if meta.get("trace"):
                continue
            runs.setdefault((meta["workload"], meta["seed"]), []).append(rec["result"])
    return runs


def paired(base, change, workload):
    out = []
    for key in sorted(base):
        if key[0] == workload and key in change:
            out.extend(zip(base[key], change[key]))
    return out


def verdict(a, b, better, bound):
    """Classify change values b against base values a (paired, in order)."""
    lower = better == "lower"
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    ma, mb = statistics.median(a), statistics.median(b)
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    worse_by = ((mb - ma) if lower else (ma - mb)) / abs(ma)
    spread = max((qa[2] - qa[0]) / abs(ma), (qb[2] - qb[0]) / abs(mb))
    every = (max(b) < min(a)) if lower else (min(b) > max(a))
    if wins >= WIN_SHARE * len(a) and abs(mb - ma) > qa[2] - qa[0]:
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif spread > bound and not every:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, {"base": (qa[0], ma, qa[2]), "change": (qb[0], mb, qb[2]), "wins": wins,
                   "worse_by": worse_by, "spread": spread}


def compare(bench, base, change):
    rows = []
    for wl in bench["workloads"]:
        pairs = paired(base, change, wl["name"])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name == "s_to_target" and wl["name"] != "volume":
                continue  # items_per_s restated
            if len(pairs) < MIN_PAIRS:
                rows.append((wl["name"], name, "insufficient", {"pairs": len(pairs)}))
                continue
            a = [p[0]["metrics"][name]["value"] for p in pairs]
            b = [p[1]["metrics"][name]["value"] for p in pairs]
            label, info = verdict(a, b, metric["better"], metric["bound"])
            info["pairs"] = len(pairs)
            rows.append((wl["name"], name, label, info))
        if len(pairs) >= MIN_PAIRS:
            fa = sum(p[0]["failed"] for p in pairs)
            fb = sum(p[1]["failed"] for p in pairs)
            if fb > fa:
                rows.append((wl["name"], "failed", "worse", {"base": fa, "change": fb}))
    return rows


def print_rows(rows):
    print("%-8s %-13s %-12s %6s %28s %28s %7s %7s" % (
        "workload", "metric", "verdict", "pairs", "base q1/med/q3", "change q1/med/q3", "change", "wins"))
    for wl, name, label, info in rows:
        if "wins" not in info:
            print("%-8s %-13s %-12s %s" % (wl, name, label, json.dumps(info)))
            continue
        fmt = lambda q: "%.4g/%.4g/%.4g" % q  # noqa: E731
        print("%-8s %-13s %-12s %6d %28s %28s %+6.1f%% %7d" % (
            wl, name, label, info["pairs"], fmt(info["base"]), fmt(info["change"]),
            100.0 * (info["change"][1] - info["base"][1]) / abs(info["base"][1]), info["wins"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="runs of the base commit (JSON lines)")
    ap.add_argument("change", help="runs of the changed commit (JSON lines)")
    args = ap.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    rows = compare(bench, load_runs(args.base), load_runs(args.change))
    print_rows(rows)
    return 1 if any(label in ("worse", "insufficient") for _, _, label, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
