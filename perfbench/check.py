"""Determinism smoke: the bit-preservation reference of the metrics CSV.

Usage: python3 perfbench/check.py

Runs the 1-seed config of the CLI determinism test (`MINI` in
tests/test_cli.py, seed 3) twice, each in a fresh interpreter, and checks that
both runs write the same metrics.csv and summary.csv bytes as each other and
as `reference.json`.  Prints the metrics.csv sha256, the hash a performance
change cites when it says it preserves bits.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import REFERENCE, WORK, spawn


def main() -> int:
    expected = {name: out["sha256"] for name, out in
                json.loads(REFERENCE.read_text())["tiny"][str(workloads.TINY_SEED)].items()}
    runs = []
    for i in range(2):
        spec = {"workload": "tiny", "seed": workloads.TINY_SEED,
                "work_dir": str(WORK / f"check-{i}")}
        result, why = spawn(spec, timeout=120)
        if result is None:
            print(f"run {i + 1}: {why}", file=sys.stderr)
            return 1
        runs.append({name: out["sha256"] for name, out in result["outputs"].items()})
    print(f"metrics.csv sha256: {runs[0]['metrics.csv']}")
    print(f"two runs identical: {runs[0] == runs[1]}")
    print(f"matches reference:  {runs[0] == expected}")
    return 0 if runs[0] == runs[1] == expected else 1


if __name__ == "__main__":
    sys.exit(main())
