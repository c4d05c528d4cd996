"""Workload definitions shared by the benchmark runner and its workers.

Each workload names an `anchorlab.cli` entry point and the `ExperimentConfig`
overrides it runs with.  The sizes are scaled down from the defaults so that
one call takes a few seconds on a 2-CPU host while keeping the pipeline's
shape: image size, methods, correlation rates and encoder width stay at their
defaults on the matrix workloads, and `epochs` stays >= 11 because
`train_control` spends 10 epochs on its head-only warm-up.
"""

from __future__ import annotations

OUTPUTS = {
    "run-matrix": ("metrics.csv", "summary.csv"),
    "probe-additivity": ("additivity.csv",),
}

# One seed of the full pipeline: world, teacher, anchors, the bap / control /
# ortho students, lp-ft at both rates, the probes and BSI, all seven methods.
MATRIX_SEED = dict(
    fg_per_class=10, bg_per_group=16, train_per_class=80, test_per_cell=20,
    teacher_epochs=3, epochs=11, probe_epochs=8, ft_epochs=2, num_seeds=1,
)

# Three planted teachers scoring triples: compositing and frozen 3-row encodes
# only, with no optimizer step and no backward pass.
ADDITIVITY = dict(additivity_n=800)

# Four independent seeds of a small 32x32 world: a fixed cost per seed, the
# only workload where work shared or spread across seeds can show.
MATRIX_MULTISEED = dict(
    hw=32, fg_per_class=6, bg_per_group=12, train_per_class=40, test_per_cell=10,
    teacher_epochs=2, epochs=11, probe_epochs=5, ft_epochs=2, num_seeds=4,
)

# The 1-seed config of tests/test_cli.py (`MINI`) that the determinism test
# runs at seed 3; its metrics.csv hash is the bit-preservation reference.
TINY = dict(
    fg_per_class=4, bg_per_group=10, hw=32,
    teacher="planted", d=16,
    M=2, K=2, epochs=2, batch_size=16,
    train_per_class=8, test_per_cell=2, rhos=(1.0,),
    probe_epochs=3, ft_epochs=2,
    additivity_n=16, additivity_alphas=(0.0, 2.0),
    k_grid=(1, 2), var_trials=10,
    methods=("native-lp", "bap-zs"), num_seeds=1,
)
TINY_SEED = 3

WORKLOADS = {
    "matrix-seed": ("run-matrix", MATRIX_SEED),
    "additivity": ("probe-additivity", ADDITIVITY),
    "matrix-multiseed": ("run-matrix", MATRIX_MULTISEED),
    "tiny": ("run-matrix", TINY),
}

# The benchmark seed selects one of this many program seeds, so that every
# run's output has a stored reference to be checked against.
REFERENCE_SEEDS = 16


def program_seed(workload: str, seed: int) -> int:
    """The global seed handed to the entry point for a benchmark seed."""
    if workload == "tiny":
        return TINY_SEED
    return seed % REFERENCE_SEEDS


def outputs(workload: str) -> tuple[str, ...]:
    return OUTPUTS[WORKLOADS[workload][0]]
