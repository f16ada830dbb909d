#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload pr-bpull --seed 1 --seconds 35 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; build output goes to stderr.
hg_perfbench's report lines and its result object go to stdout, the result
object last. Before passing the result on, this script checks that

  * the metric names and units hg_perfbench emits are exactly the ones
    BENCHMARK.json declares for the mode (end_to_end with --trace 0,
    per_layer with --trace 1), and
  * the run's determinism fingerprint (every modeled or counted metric plus
    the generated inputs) equals the one an earlier run of the same binary
    and seed recorded. A drift fails the run.

The exit code is nonzero when the build fails, a check fails, or hg_perfbench
reports a wrong output.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                        "perfbench")


def build(target="hg_perfbench"):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    # A configure that failed leaves a cache but no build system; redo it.
    if not any(os.path.exists(os.path.join(out, f)) for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_fingerprint(binary, workload, seed, fingerprint):
    """Records the first fingerprint of (binary, workload, seed); returns an
    error message when a later run disagrees with it."""
    pins = os.path.join(build_dir(), "pins")
    os.makedirs(pins, exist_ok=True)
    path = os.path.join(pins, "%s-%s-%d" % (sha256(binary)[:16], workload, seed))
    if not os.path.exists(path):
        with open(path, "w") as f:
            f.write(fingerprint + "\n")
        return None
    with open(path) as f:
        pinned = f.read().strip()
    if pinned != fingerprint:
        return "determinism: fingerprint %s differs from %s recorded by an earlier run" % (
            fingerprint, pinned)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--out-dir", out_dir],
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print("perfbench: hg_perfbench exited %d without a result" % proc.returncode, file=sys.stderr)
        return proc.returncode or 2
    result = json.loads(lines[-1])
    problems = []

    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append("metrics differ from BENCHMARK.json: undeclared %s, missing %s" % (
            sorted(set(got.items()) - set(want.items())),
            sorted(set(want.items()) - set(got.items()))))
    fingerprints = [l.split()[2] for l in lines if l.startswith("# fingerprint ")]
    if len(fingerprints) != 1:
        problems.append("hg_perfbench printed no determinism fingerprint")
    else:
        err = check_fingerprint(binary, args.workload, args.seed, fingerprints[0])
        if err:
            problems.append(err)

    for line in lines[:-1]:
        print(line)
    for p in problems:
        print("# FAILED %s" % p)
    if problems:
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1
    print(json.dumps(result))
    if problems:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
