"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the benchmark seed, the parent's monotonic clock
reading taken just before it started this process (`t_spawn`), a scratch
directory for the entry point's output, and whether to trace.  With
`"setup_only": true` the worker stops after the imports and the config build.
The last line of standard output is one JSON object with the timings, the
output hashes, and for a traced run the per-layer analysis.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ENTRY_POINTS = {"run-matrix": "cmd_run_matrix", "probe-additivity": "cmd_probe_additivity"}


def _cpu_s() -> float:
    """User+sys CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _environment(np, cli) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "numpy": np.__version__, "blas": blas, "code_hash": cli.code_hash()}


def _hash_outputs(out_dir: Path, names) -> dict:
    result = {}
    for name in names:
        data = (out_dir / name).read_bytes()
        rows = max(0, data.count(b"\n") - 1)
        result[name] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": rows}
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from anchorlab import cli

    import workloads

    command, overrides = workloads.WORKLOADS[spec["workload"]]
    cfg = cli.ExperimentConfig(**overrides)
    seed = workloads.program_seed(spec["workload"], spec["seed"])
    if spec.get("setup_only"):
        setup_s = time.monotonic() - spec["t_spawn"]
        print(json.dumps({"setup_s": setup_s, "env": _environment(np, cli)}))
        return 0

    out_dir = Path(spec["work_dir"])
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer().install()
    # Looked up after the tracer is installed, so the call is the root span.
    entry = getattr(cli, ENTRY_POINTS[command])
    t0 = time.monotonic()
    setup_s = t0 - spec["t_spawn"]
    cpu0 = _cpu_s()
    entry(cfg, seed, out_dir)
    wall_s = time.monotonic() - t0
    cpu_s = _cpu_s() - cpu0
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": _peak_rss_mb(), "program_seed": seed,
              "outputs": _hash_outputs(out_dir, workloads.outputs(spec["workload"]))}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracing.analyse(tracer)
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
