"""anchorlab benchmark: the command that runs one workload and prints its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh interpreter
(`worker.py`) started by this process, one at a time, so the package's
in-process caches start cold as they do for users.

A run first starts a few interpreters that only import and build the
config (set-up samples and the environment record).  --trace 0 then repeats
the workload's call until --seconds have passed, at least three times, and
reports the medians of the end-to-end metrics.  --trace 1 instead runs pairs
of an untraced and a traced repetition, at least one, and reports the
per-layer metrics from the traced spans; the tracing overhead is the traced
wall time minus the untraced one.

Each repetition's output CSVs are hashed and compared with
`reference.json`; every output row counts as one operation, and a row of a
repetition that raised or whose bytes differ counts as failed.  Every run
also repeats the determinism smoke (the tiny config at seed 3).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  A fuller record, with the environment, every repetition and the
stage table, goes to `perfbench/_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = HERE / "_work"
OUT = HERE / "_out"

# Every child is stopped by then, so that a run exits within 180 s.
DEADLINE_S = 165.0
SETUP_REPS = 3
MIN_REPS = 3


def spawn(spec: dict, timeout: float) -> tuple[dict | None, str]:
    """Run one worker to completion; (its JSON result, "") or (None, why)."""
    if timeout <= 0:
        return None, "no time left before the deadline"
    spec = {**spec, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"worker exited with {proc.returncode}: {' | '.join(tail)}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


class Run:
    """One benchmark run: spawns repetitions and checks their outputs."""

    def __init__(self, seed: int, reference: dict, deadline: float):
        self.seed = seed
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def setup_only(self, workload: str) -> dict | None:
        result, why = spawn({"workload": workload, "seed": self.seed, "setup_only": True},
                            self.deadline - time.monotonic())
        if result is None:
            self.problems.append(f"set-up of {workload}: {why}")
        return result

    def rep(self, workload: str, trace: bool = False) -> dict | None:
        """One repetition of the workload's call, with its output check."""
        self._count += 1
        tag = f"{workload}-seed{self.seed}-{os.getpid()}-{self._count}"
        spec = {"workload": workload, "seed": self.seed, "trace": trace,
                "work_dir": str(WORK / tag)}
        if trace:
            spec["spans_path"] = str(OUT / f"{workload}-seed{self.seed}.spans.json")
        pseed = workloads.program_seed(workload, self.seed)
        expected = self.reference[workload][str(pseed)]
        self.attempted += sum(e["rows"] for e in expected.values())
        result, why = spawn(spec, self.deadline - time.monotonic())
        if result is None:
            self.failed += sum(e["rows"] for e in expected.values())
            self.problems.append(f"{workload} rep {self._count}: {why}")
            return None
        for name, e in expected.items():
            got = result["outputs"].get(name, {}).get("sha256")
            if got != e["sha256"]:
                self.failed += e["rows"]
                self.problems.append(f"{workload} rep {self._count}: {name} sha256 "
                                     f"{got} differs from the reference {e['sha256']}")
        return result

    def more(self, started: float, durations: list[float], seconds: float,
             minimum: int) -> bool:
        """Whether another repetition fits in the measured time."""
        if time.monotonic() >= self.deadline:
            return False
        if len(durations) < minimum:
            return True
        return time.monotonic() - started + statistics.median(durations) <= seconds


def _median(values):
    return statistics.median(values) if values else None


def measure(run: Run, workload: str, seconds: float, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from untraced repetitions, plus the set-up samples given."""
    started = time.monotonic()
    setups = list(setups)
    reps, durations = [], []
    while run.more(started, durations, seconds, MIN_REPS):
        t = time.monotonic()
        result = run.rep(workload)
        durations.append(time.monotonic() - t)
        if result is not None:
            reps.append(result)
            setups.append(result["setup_s"])
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in reps]), "s"),
        "cpu_s": (_median([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reps]), "MB"),
        "setup_s": (_median(setups), "s"),
    }
    return metrics, {"reps": reps, "setup_samples": setups}


def measure_traced(run: Run, workload: str, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced repetitions, each after an untraced one."""
    started = time.monotonic()
    plain, traced, durations = [], [], []
    while run.more(started, durations, seconds, 1):
        t = time.monotonic()
        a = run.rep(workload)
        b = run.rep(workload, trace=True)
        durations.append(time.monotonic() - t)
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
    metrics = {}
    if traced:
        analyses = [r["trace"]["metrics"] for r in traced]
        for name, unit, _ in tracer.PER_LAYER:
            if name == "trace.overhead_s":
                value = (_median([r["wall_s"] for r in traced])
                         - _median([r["wall_s"] for r in plain]))
            elif unit in tracer.TIMING_UNITS:
                value = _median([m[name] for m in analyses])
            else:
                values = {m[name] for m in analyses}
                if len(values) > 1:
                    run.problems.append(f"{name} differs between traced repetitions: {values}")
                value = analyses[0][name]
            metrics[name] = (value, unit)
    return metrics, {"untraced": plain, "traced": traced}


def stage_table(metrics: dict) -> list[str]:
    wall = metrics["trace.wall_s"][0]
    lines = [f"{'stage':<12}{'s':>9}{'share':>9}"]
    for stage in tracer.STAGES:
        s = metrics[f"stage.{stage}.s"][0]
        lines.append(f"{stage:<12}{s:>9.3f}{100 * s / wall if wall else 0.0:>8.1f}%")
    lines.append(f"{'traced wall':<12}{wall:>9.3f}")
    return lines


def main(argv=None) -> int:
    names = [w for w in workloads.WORKLOADS if w != "tiny"]
    p = argparse.ArgumentParser(description="anchorlab benchmark")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "anchorlab" / "__init__.py").is_file():
        print(f"no anchorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"missing output reference {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    run = Run(args.seed, reference, time.monotonic() + DEADLINE_S)

    setups = [r for r in (run.setup_only(args.workload) for _ in range(SETUP_REPS)) if r]
    env = setups[0]["env"] if setups else None
    if args.trace:
        metrics, detail = measure_traced(run, args.workload, args.seconds)
    else:
        metrics, detail = measure(run, args.workload, args.seconds,
                                  [r["setup_s"] for r in setups])
    tiny = run.rep("tiny")

    if any(value is None for value, _ in metrics.values()) or not metrics:
        for problem in run.problems:
            print(problem, file=sys.stderr)
        print("no repetition completed; no result", file=sys.stderr)
        return 1
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = run.failed == 0 and not run.problems
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "program_seed": workloads.program_seed(args.workload, args.seed),
              "seconds": args.seconds, "env": env,
              "tiny_metrics_sha256": tiny["outputs"]["metrics.csv"]["sha256"] if tiny else None,
              "correct": correct, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "metrics": reported, **detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    if env:
        print("env: " + json.dumps(env, sort_keys=True))
    print(f"tiny config metrics.csv sha256: {record['tiny_metrics_sha256']}")
    if args.trace:
        print("\n".join(stage_table(metrics)))
    else:
        print(f"repetitions: {len(detail['reps'])}, set-up samples: {len(detail['setup_samples'])}")
    for problem in run.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
