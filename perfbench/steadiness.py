#!/usr/bin/env python3
"""Steadiness report: repeats each workload and shows how much every
end-to-end metric spreads, against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py                      # 10 runs per workload
    python3 perfbench/steadiness.py --workloads pr-bpull --runs 5
    python3 perfbench/steadiness.py --sets 2             # two sets, compared

Run i of a set uses seed i + 1, so two sets repeat the same seeds. For each
metric the report gives the median, the quartiles (statistics.quantiles,
n=4), the interquartile range and the min-max range as shares of the
median, and the bound. A metric is "steady" when its quartile spread is
under a third of its bound; setup_s is exempt from the spread rule. With two
sets, the second set's median may not be worse than the first's by more
than the bound. Workload-specific metrics (the sssp-serve latencies) are not
in BENCHMARK.json: their spread is shown against no bound. The exit code is
1 when any bound is broken or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    reports = [l[len("# report "):] for l in lines if l.startswith("# report ")]
    if proc.returncode != 0 or not reports:
        print("\n".join(l for l in lines if l.startswith("# FAILED")), file=sys.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    return {k: (v["value"], v["unit"]) for k, v in json.loads(reports[0])["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    rel = (lambda x: x / med) if med else (lambda x: 0.0 if x == 0 else float("inf"))
    return med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every measured value here")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    dump = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, i + 1, args.seconds) for i in range(args.runs)]
            sets.append(runs)
            print("%s: set %d done" % (workload, s + 1), file=sys.stderr, flush=True)
        dump[workload] = sets
        print("\n== %s: %d runs x %d set(s), %g s each" % (workload, args.runs, args.sets,
                                                          args.seconds))
        print("%-14s %-6s %14s %14s %14s %8s %8s %6s  %s" % (
            "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "verdict"))
        for name, (_, unit) in sets[0][0].items():
            bound = bounds.get(name)
            if bound is None and "." in name:
                continue  # per-layer: see the traced run
            rows = []
            for runs in sets:
                rows.append(spread([r[name][0] for r in runs]))
            for k, (med, q1, q3, iqr, rng) in enumerate(rows):
                verdict = "no bound"
                if bound is not None:
                    b = bound["bound"]
                    verdict = ("steady" if iqr < b / 3 else "within bound" if iqr <= b
                               else "TOO NOISY")
                    if name == "setup_s" and verdict == "TOO NOISY":
                        verdict = "noisy (setup_s is exempt)"
                    elif verdict == "TOO NOISY":
                        ok = False
                    if k == 1:
                        first = rows[0][0]
                        worse = (med - first if bound["better"] == "lower" else first - med)
                        drift = worse / first if first else 0.0
                        verdict += "; vs set 1 %+.2f%%" % (100 * drift)
                        if drift > b:
                            verdict += " WORSE THAN BOUND"
                            ok = False
                print("%-14s %-6s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %6s  %s" % (
                    name if k == 0 else "  (set 2)", unit, med, q1, q3, 100 * iqr, 100 * rng,
                    "-" if bound is None else bound["bound"], verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(dump, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
