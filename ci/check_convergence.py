#!/usr/bin/env python3
"""Convergence gate: a distributed run against the sequential one.

    check_convergence.py SEQ_REPORT DIST_REPORT

Both arguments are the captured stdout of `dinfomap cluster` on the same
graph (`--algorithm seq` and `--algorithm dist`). Fails if any clustering
stage of the distributed run stopped at the round cap — its `stages:` line
says why each stage stopped — or if the distributed codelength exceeds
1.02 x the sequential one.
"""

import re
import sys

MAX_RATIO = 1.02


def report_line(text, key):
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(key + ":"):
            return line[len(key) + 1 :].strip()
    sys.exit(f"no `{key}:` line in the report:\n{text}")


def codelength(text):
    return float(report_line(text, "codelength").split()[0])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    seq, dist = (open(path).read() for path in sys.argv[1:])
    stages = report_line(dist, "stages")
    stops = re.findall(r"(\d+) \((\w+)\)", stages)
    if not stops:
        sys.exit(f"no stage in `{stages}`")
    unknown = [stop for _, stop in stops if stop not in ("quiesced", "stalled", "cap")]
    if unknown:
        sys.exit(f"unknown stop reason(s) {unknown} in `{stages}`")
    if any(stop == "cap" for _, stop in stops):
        sys.exit(f"a stage ran to the round cap: {stages}")
    ratio = codelength(dist) / codelength(seq)
    if ratio > MAX_RATIO:
        sys.exit(
            f"distributed codelength {codelength(dist)} is {ratio:.4f} x the "
            f"sequential {codelength(seq)} (allowed {MAX_RATIO})"
        )
    print(f"ok: {len(stops)} stage(s), none at the cap ({stages}); codelength {ratio:.4f} x sequential")


if __name__ == "__main__":
    main()
