#!/usr/bin/env python3
"""Compare two perfbench results metric by metric.

Usage:
    python3 tools/bench_diff.py PARENT CHANGE [--benchmark FILE]

PARENT and CHANGE are files holding the stdout of
`python3 perfbench/run.py ...`; the result is the last line, a JSON
object with a "metrics" map of {name: {"value": v, "unit": u}}.

For every metric the two runs share, prints the parent value, the
change value and the ratio change/parent. Each ratio is marked
`better` or `worse` by the direction the benchmark declares for that
metric (the "better" field, "higher" or "lower", of its end_to_end or
per_layer entry in BENCHMARK.json), `same` when the values are equal,
and `?` when BENCHMARK.json does not list the metric or the parent
value is 0. Metrics present in only one run are listed at the end.

Exit status: 0 on success, 2 on unreadable input.
"""

import argparse
import json
import os
import sys

DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json"
)


class InputError(Exception):
    pass


def load_result(path):
    """The last-line JSON result of one perfbench run."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")
    if not lines:
        raise InputError(f"{path}: empty file")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: last line is not JSON ({e.msg})")
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not isinstance(metrics, dict):
        raise InputError(f"{path}: result has no \"metrics\" object")
    values = {}
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"{path}: metric {name!r} has no numeric value")
        values[name] = float(value)
    return result, values


def load_directions(path):
    """Map metric name -> "higher" | "lower" from BENCHMARK.json."""
    try:
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: not JSON ({e.msg})")
    directions = {}
    for section in ("end_to_end", "per_layer"):
        for entry in bench.get(section, []):
            better = entry.get("better")
            if better in ("higher", "lower"):
                directions[entry["name"]] = better
    return directions


def verdict(parent, change, better):
    if change == parent:
        return "same"
    if better is None or parent == 0:
        return "?"
    improved = change > parent if better == "higher" else change < parent
    return "better" if improved else "worse"


def fmt(value):
    return f"{value:.6g}"


def main(argv):
    parser = argparse.ArgumentParser(
        description="Per-metric change/parent ratios of two perfbench "
        "results."
    )
    parser.add_argument("parent", help="perfbench output of the parent")
    parser.add_argument("change", help="perfbench output of the change")
    parser.add_argument(
        "--benchmark",
        default=DEFAULT_BENCHMARK,
        help="BENCHMARK.json declaring each metric's direction "
        "(default: the repository's)",
    )
    args = parser.parse_args(argv)

    try:
        parent_result, parent = load_result(args.parent)
        change_result, change = load_result(args.change)
        directions = load_directions(args.benchmark)
    except InputError as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    for label, result in (("parent", parent_result), ("change", change_result)):
        print(
            f"{label}: correct={result.get('correct')} "
            f"attempted={result.get('attempted')} "
            f"failed={result.get('failed')}"
        )

    shared = [name for name in parent if name in change]
    width = max([len("metric")] + [len(name) for name in shared])
    print(f"{'metric':<{width}}  {'parent':>12}  {'change':>12}  "
          f"{'ratio':>8}  verdict")
    for name in shared:
        p, c = parent[name], change[name]
        ratio = f"{c / p:.3f}" if p != 0 else "n/a"
        print(
            f"{name:<{width}}  {fmt(p):>12}  {fmt(c):>12}  {ratio:>8}  "
            f"{verdict(p, c, directions.get(name))}"
        )
    for label, only in (
        ("parent", [n for n in parent if n not in change]),
        ("change", [n for n in change if n not in parent]),
    ):
        for name in only:
            print(f"only in {label}: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
