#!/usr/bin/env python3
"""Check tools/bench_diff.py against its fixtures.

Usage: bench_diff_check.py --tool tools/bench_diff.py --fixtures DIR

- With the fixture BENCHMARK file, the report matches
  bench_diff_expected.txt byte for byte.
- With the repository's BENCHMARK.json (the default), each end-to-end
  metric gets the verdict its declared direction implies.
- A missing file or a result whose last line is not JSON exits 2.
"""

import argparse
import os
import subprocess
import sys
import tempfile


def run(tool, *args):
    return subprocess.run(
        [sys.executable, tool, *args], capture_output=True, text=True
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tool", required=True)
    parser.add_argument("--fixtures", required=True)
    args = parser.parse_args()
    fx = lambda name: os.path.join(args.fixtures, name)
    failures = []

    parent, change = fx("bench_diff_parent.txt"), fx("bench_diff_change.txt")
    got = run(args.tool, parent, change,
              "--benchmark", fx("bench_diff_benchmark.json"))
    with open(fx("bench_diff_expected.txt"), encoding="utf-8") as f:
        want = f.read()
    if got.returncode != 0 or got.stdout != want:
        failures.append("fixture report differs from bench_diff_expected.txt:"
                        f"\n{got.stdout}{got.stderr}")

    got = run(args.tool, parent, change)
    verdicts = {}
    for line in got.stdout.splitlines():
        cols = line.split()
        if len(cols) == 5:
            verdicts[cols[0]] = cols[4]
    for name, want_verdict in (("accesses_per_s", "better"),
                               ("wall_s", "better"),
                               ("peak_rss_mb", "worse")):
        if verdicts.get(name) != want_verdict:
            failures.append(f"default BENCHMARK.json: {name} is "
                            f"{verdicts.get(name)!r}, want {want_verdict!r}")

    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.txt")
        with open(bad, "w", encoding="utf-8") as f:
            f.write('{"metrics": {}}\nnot json\n')
        for argv in ([os.path.join(tmp, "missing.txt"), change],
                     [parent, bad]):
            got = run(args.tool, *argv)
            if got.returncode != 2:
                failures.append(f"{argv}: exit {got.returncode}, want 2")

    for failure in failures:
        print("FAIL:", failure)
    print("bench_diff: %d check(s) failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
