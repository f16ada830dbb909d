#!/usr/bin/env python3
"""Modeled-drift gate for the committed benchmark baselines.

    python3 scripts/bench_diff.py COMMITTED FRESH

Compares two BENCH_*.json files field by field and requires exact equality
everywhere except on measured fields. A field is measured, and skipped, by
its name alone: a name containing "wall", ending in "per_s", or starting
with "prefetch_". Every other value (modeled bytes, seconds, supersteps,
decision traces, configuration echoes) must match exactly, so a change that
moves a modeled number without re-pinning its baseline fails.

Exit status: 0 when the files agree, 1 on any difference (each printed as
a JSON path), 2 on a usage or parse error.
"""
import json
import sys


def is_measured(name):
    return "wall" in name or name.endswith("per_s") or name.startswith("prefetch_")


def diff(committed, fresh, path, out):
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            if is_measured(key):
                continue
            sub = f"{path}.{key}"
            if key not in fresh:
                out.append(f"{sub}: missing from the fresh run")
            elif key not in committed:
                out.append(f"{sub}: not in the committed baseline")
            else:
                diff(committed[key], fresh[key], sub, out)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            out.append(f"{path}: {len(committed)} entries committed, "
                       f"{len(fresh)} fresh")
        for i, (c, f) in enumerate(zip(committed, fresh)):
            diff(c, f, f"{path}[{i}]", out)
    elif committed != fresh or isinstance(committed, bool) != isinstance(fresh, bool):
        out.append(f"{path}: committed {committed!r}, fresh {fresh!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            committed = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    out = []
    diff(committed, fresh, "$", out)
    for line in out:
        print(f"{argv[1]}: {line}")
    if out:
        print(f"bench_diff: {len(out)} modeled field(s) differ between "
              f"{argv[1]} and {argv[2]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
