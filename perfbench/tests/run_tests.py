#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/run_tests.py

Builds and runs the C++ unit tests (percentile rule, process-wide CPU,
seeded inputs, determinism guard), then checks that BENCHMARK.json stays
within its format's limits and names exactly the all-workload metrics of the
hg_perfbench catalog, with the same units. Exit code 0 = all passed.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: the build helper)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: %s" % what)


def check_format(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json has exactly the format's keys")
    expect(bench["command"] == ["python3", "perfbench/run.py"], "command runs run.py")
    expect(all(os.path.isdir(os.path.join(run.ROOT, p)) for p in bench["paths"]),
           "every path is a directory")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds is a whole number in [1, 60]")
    expect(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               "workload %s has a name and a one-line why" % w.get("name"))
        names.append(w["name"])
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, "e2e keys of %s" % m["name"])
        expect(0 < m["bound"] <= 0.25, "bound of %s in (0, 0.25]" % m["name"])
    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, "per-layer keys of %s" % m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        expect(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        expect(m["better"] in ("lower", "higher"), "better of %s" % m["name"])
    expect(all(NAME.match(n) for n in names), "names match the name pattern")
    expect(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s is an end-to-end metric in s, lower is better")
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s has the largest bound")


def check_catalog(bench, binary):
    catalog = json.loads(subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                                        text=True, check=True).stdout)
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in catalog
                if m["kind"] == kind and m["scope"] == "all"}
        got = {m["name"]: m["unit"] for m in bench[kind]}
        expect(got == want, "BENCHMARK.json %s matches the hg_perfbench catalog: extra %s, "
               "missing %s" % (kind, sorted(set(got.items()) - set(want.items())),
                               sorted(set(want.items()) - set(got.items()))))


def main():
    binary = run.build("hg_perfbench")
    tests = run.build("perfbench_tests")
    expect(subprocess.run([tests]).returncode == 0, "C++ unit tests")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_format(bench)
    check_catalog(bench, binary)
    print("OK" if not failures else "FAILED: %d check(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
