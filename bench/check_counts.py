"""Check that two traced runs of the same code and seed report identical counts.

    python3 bench/check_counts.py --workload s4-hom --seed 1

Runs ``bench/run.py --trace 1`` twice and compares every per-layer metric
whose unit is a count rather than a time.  Exits 1 and names the metrics
that differ.  A performance claim may rest on a count only when it repeats.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "cells", "ratio"}


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    """Counts of one traced run; a traced run always makes at least one traced pass."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differing = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    for name, (a, b) in sorted(differing.items()):
        print(f"{name}: {a} != {b}")
    print(f"{len(first) - len(differing)} of {len(first)} counts repeat exactly")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
