"""Regenerate `reference.json`, the output hashes every benchmark run is checked against.

Usage: python3 perfbench/make_reference.py

Runs each workload once at every program seed (and the tiny config at its
seed), each in a fresh interpreter, and records the sha256 and row count of
every output CSV.  Run it only on a commit whose outputs are known to be
right: a change that preserves bits leaves the file as it is.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import REFERENCE, WORK, spawn


def main() -> int:
    WORK.mkdir(exist_ok=True)
    reference: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        if workload == "tiny":
            seeds = [workloads.TINY_SEED]
        else:
            seeds = range(workloads.REFERENCE_SEEDS)
        reference[workload] = {}
        for seed in seeds:
            spec = {"workload": workload, "seed": seed,
                    "work_dir": str(WORK / f"reference-{workload}-{seed}")}
            result, why = spawn(spec, timeout=900)
            if result is None:
                print(f"{workload} seed {seed}: {why}", file=sys.stderr)
                return 1
            reference[workload][str(result["program_seed"])] = result["outputs"]
            print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
