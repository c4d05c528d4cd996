"""Experiment orchestration and command-line entry point.

Subcommands map one-to-one onto the study's artifacts: `gen-data` writes
dataset manifests, `probe-additivity` the additivity table, `k-ablation`
the anchor K-sweep, `run-matrix` the method-by-correlation metrics grid,
`ablate` the sensitivity sweeps, and `report` a consolidated summary.

Every run derives all randomness from one global seed through stable
hashing and writes one run record with its resolved config and results;
each subcommand then builds its plain CSV table from those records.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import os
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import alignment, anchors, evaluation, scene
from .additivity import merge_parts, probe_chunks, run_probe
from .encoders import EncoderModel, PlantedConfig, encode_np, freeze, planted_teacher
from .errors import ConfigError
from .files import write_whole
from .rng import derive_seed
from .scene import GroupedDataset, gen_world

# method -> (encoder, how it classifies): "zs" against prototypes, "lp" with a
# fresh linear probe, "ft" with the head fine-tuned along with the encoder
METHODS = {
    "native-zs": ("native", "zs"),
    "native-lp": ("native", "lp"),
    "lp-ft": ("lp-ft", "ft"),
    "control": ("control", "lp"),
    "bap-lp": ("bap", "lp"),
    "bap-zs": ("bap", "zs"),
    "ortho": ("ortho", "lp"),
}
ALL_METHODS = tuple(METHODS)
# the encoders the methods name, in table order: native, lp-ft, control, bap, ortho
ENCODERS = tuple(dict.fromkeys(name for name, _ in METHODS.values()))
TEACHERS = ("learned-mlp", "planted")
# seconds each encoder's build and runs took in a traced default seed on one CPU,
# rounded: the weights by which `_seed_jobs` deals a split seed's encoders
ENCODER_COST = {"bap": 15, "ortho": 14, "lp-ft": 13, "control": 11, "native": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    # world: two classes over two background groups, the grouped benchmark's cells
    fg_per_class: int = 100
    bg_per_group: int = 150
    hw: int = 64
    # teacher
    teacher: str = "learned-mlp"
    teacher_epochs: int = 6
    d: int = 64
    planted_alpha: float = 0.0
    # anchor + alignment phase
    M: int = 5
    K: int = 10
    epochs: int = 24
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 0.01
    warmup_frac: float = 0.10
    degradation: str = "perfect"
    # downstream benchmark
    train_per_class: int = 800
    test_per_cell: int = 160
    rhos: tuple[float, ...] = (1.0, 0.95)
    probe_epochs: int = 30
    probe_lr: float = 5e-4
    ft_epochs: int = 8
    # additivity probe
    additivity_n: int = 10000
    additivity_alphas: tuple[float, ...] = (0.0, 0.5, 2.0)
    # K ablation
    k_grid: tuple[int, ...] = anchors.DEFAULT_K_GRID
    var_trials: int = 200
    # matrix
    methods: tuple[str, ...] = ALL_METHODS
    num_seeds: int = 5

    def __post_init__(self):
        # each entry names its run records (`bap-lp-rho0.95-s0`, `additivity-a2`), so
        # none may be empty and no two may share a name
        for key, names in (("methods", self.methods),
                           ("rhos", [f"{rho:g}" for rho in self.rhos]),
                           ("additivity_alphas", [f"{a:g}" for a in self.additivity_alphas])):
            if not names or len(set(names)) < len(names):
                raise ConfigError(f"{key} must be non-empty with no two entries alike, "
                                  f"got {getattr(self, key)}")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown method tags {unknown}")
        if any(not 0.5 <= rho <= 1.0 for rho in self.rhos):
            raise ConfigError(f"correlation rates must lie in [0.5, 1], got {self.rhos}")
        if self.degradation not in scene.DEGRADATIONS:
            raise ConfigError(f"unknown degradation mode {self.degradation!r}")
        if self.teacher not in TEACHERS:
            raise ConfigError(f"unknown teacher {self.teacher!r}")
        if "control" in self.methods and self.epochs <= alignment.CONTROL_WARMUP_EPOCHS:
            raise ConfigError(f"control needs more than {alignment.CONTROL_WARMUP_EPOCHS} "
                              f"epochs, its head-only warm-up; got {self.epochs}")
        if "ortho" in self.methods and self.d < 2:
            raise ConfigError(f"ortho needs d >= 2 to fit one orthogonal target "
                              f"per class; got d={self.d}")
        if min(self.d, self.fg_per_class, self.K, self.probe_epochs, self.train_per_class,
               self.test_per_cell, self.additivity_n, self.num_seeds) < 1:
            raise ConfigError("d, fg_per_class, K, probe_epochs, train_per_class, "
                              "test_per_cell, additivity_n and num_seeds must all be >= 1")
        if self.bg_per_group < 2:
            raise ConfigError(f"bg_per_group must be >= 2 for a disjoint train/test split, "
                              f"got {self.bg_per_group}")
        if self.hw < 8 or self.hw % 4:
            raise ConfigError(f"hw must be >= 8 and a multiple of 4, got {self.hw}")
        if not self.k_grid or list(self.k_grid) != sorted(set(self.k_grid)) or self.k_grid[0] < 1:
            raise ConfigError(f"k_grid must be a non-empty, strictly ascending grid of K >= 1, "
                              f"got {self.k_grid}")
        if self.var_trials < 2:
            raise ConfigError(f"var_trials must be >= 2, got {self.var_trials}")
        if any(alpha < 0 for alpha in self.additivity_alphas):
            raise ConfigError(f"additivity alphas must be >= 0, got {self.additivity_alphas}")
        if self.teacher == "learned-mlp" and self.teacher_epochs < 1:
            raise ConfigError(f"the learned-mlp teacher needs teacher_epochs >= 1, "
                              f"got {self.teacher_epochs}")
        if self.teacher == "planted" and self.planted_alpha < 0:
            raise ConfigError(f"the planted teacher needs planted_alpha >= 0, "
                              f"got {self.planted_alpha}")
        if self.probe_lr <= 0:
            raise ConfigError(f"probe_lr must be positive, got {self.probe_lr}")
        # the alignment and lp-ft phases run under these settings
        for epochs in (self.epochs, self.ft_epochs):
            alignment.AlignConfig(epochs=epochs, batch_size=self.batch_size, lr=self.lr,
                                  weight_decay=self.weight_decay,
                                  warmup_frac=self.warmup_frac, M=self.M)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """A config from a JSON object of field overrides; each value must have its
        default's type: an int (not a bool), a string, a number for a float field, a
        list of the default's entry type for a tuple field."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _json_value(key, value, fields[key].default)
                      for key, value in raw.items()})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err.strerror}") from None
        return cls.from_json(text)


def _json_value(key: str, value, default):
    """`value` as the type of the field `key`'s `default`, or a ConfigError."""
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(_json_value(key, v, default[0]) for v in value)
    if isinstance(default, float) and type(value) in (int, float):
        return float(value)  # a seed derived from 1 differs from one derived from 1.0
    if type(value) is not type(default):
        kind = {int: "an integer", float: "a number", str: "a string"}.get(type(default), "a list")
        raise ConfigError(f"config key {key!r} takes {kind}, got {value!r}")
    return value


@cache
def code_hash() -> str:
    """Content hash of the package sources, recorded in every run; read once per process."""
    h = hashlib.sha256()
    pkg = Path(__file__).parent
    for p in sorted(pkg.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_seeds(cfg: ExperimentConfig, global_seed: int) -> list[int]:
    return [derive_seed(global_seed, "run", i) for i in range(cfg.num_seeds)]


def _first_per_class(fgs, n: int) -> list:
    """The first `n` foregrounds of each class, in class order."""
    return [fg for y in sorted({fg.y for fg in fgs}) for fg in [f for f in fgs if f.y == y][:n]]


# ---------------------------------------------------------------------------
# per-seed artifact cache


@dataclass(frozen=True)
class Trained:
    """One frozen encoder of a seed, with everything its methods read from it."""

    encoder: EncoderModel
    bsi: evaluation.BsiReport  # background-sensitivity index, per class and their mean
    test_embs: np.ndarray  # its embeddings of the seed's test split, which every method scores
    trace: dict | None = None  # per-epoch traces of its training; None for native
    head: evaluation.ProbeHead | None = None  # lp-ft's fine-tuned head
    protos: dict[int, np.ndarray] | None = None  # class prototypes for zero-shot methods


class SeedContext:
    """Lazily built world, teacher and trained encoders for one seed.

    Heavy artifacts are shared across methods and correlation rates: the
    anchor/alignment phases never see the downstream correlation, so one
    student serves every rho, and one balanced test split serves every rho.
    Each encoder a `METHODS` row names is built once, as one `Trained` record,
    and kept until `release` drops it.  Every stream the seed renders shares
    one `RenderMemo`, so each distinct foreground size is resized once.
    """

    def __init__(self, cfg: ExperimentConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.data_seed = derive_seed(seed, "data")
        self.memo = scene.RenderMemo()
        self._train_splits: dict[float, GroupedDataset] = {}
        self._trained: dict[tuple[str, float | None], Trained] = {}

    @cached_property
    def world(self):
        c = self.cfg
        return gen_world(derive_seed(self.seed, "world"), 2, 2, c.fg_per_class,
                         c.bg_per_group, (c.hw, c.hw))

    @cached_property
    def bg_pools(self):
        return scene.split_backgrounds(self.world[1], self.data_seed)

    @cached_property
    def teacher(self) -> EncoderModel:
        c = self.cfg
        if c.teacher == "planted":
            return planted_teacher(PlantedConfig(seed=derive_seed(self.seed, "planted"),
                                                 alpha=c.planted_alpha),
                                   d=c.d, input_hw=(c.hw, c.hw))
        return alignment.pretrain_teacher(self.world[0], self.bg_pools[0],
                                          derive_seed(self.seed, "teacher"),
                                          epochs=c.teacher_epochs, d=c.d,
                                          degradation=c.degradation, memo=self.memo)

    def align_config(self, **overrides) -> alignment.AlignConfig:
        c = self.cfg
        base = alignment.AlignConfig(
            epochs=c.epochs, batch_size=c.batch_size, lr=c.lr,
            weight_decay=c.weight_decay, warmup_frac=c.warmup_frac, M=c.M,
            degradation=c.degradation, seed=derive_seed(self.seed, "align"))
        return replace(base, **overrides) if overrides else base

    @cached_property
    def test_split(self) -> GroupedDataset:
        fgs, bgs = self.world
        return scene.build_test_split(fgs, bgs, self.cfg.test_per_cell, self.data_seed,
                                      memo=self.memo)

    def datasets(self, rho: float) -> tuple[GroupedDataset, GroupedDataset]:
        """(train split at rho, the shared test split)."""
        if rho not in self._train_splits:
            fgs, bgs = self.world
            self._train_splits[rho] = scene.build_train_split(
                fgs, bgs, rho, self.cfg.train_per_class, self.data_seed, memo=self.memo)
        return self._train_splits[rho], self.test_split

    @staticmethod
    def _key(name: str, rho: float) -> tuple[str, float | None]:
        # lp-ft fine-tunes on the train split, so only its encoder depends on rho
        return name, rho if name == "lp-ft" else None

    def trained(self, name: str, rho: float) -> Trained:
        """The record of the encoder a `METHODS` row names, built once with its BSI
        and its test-split embeddings."""
        key = self._key(name, rho)
        if key not in self._trained:
            fields = self._BUILDERS[name](self, rho)
            _, bg_test = self.bg_pools
            report = evaluation.bsi_protocol(fields["encoder"], self.world[0], bg_test,
                                             n_pairs=48, seed=derive_seed(self.seed, "bsi"),
                                             memo=self.memo)
            test_embs = encode_np(fields["encoder"], self.test_split.rasters())
            self._trained[key] = Trained(bsi=report, test_embs=test_embs, **fields)
        return self._trained[key]

    def release(self, name: str, rho: float) -> None:
        """Drop the record `trained(name, rho)` returns, and with it all that only that
        encoder used.  The teacher stays, since every student is cloned from it; a
        released encoder is built again if it is asked for again."""
        self._trained.pop(self._key(name, rho), None)

    # one builder per encoder name: the fields of its `Trained` record but the BSI

    def _build_native(self, rho: float) -> dict:
        # the teacher is scored zero-shot against its own class prototypes, built only
        # when a zero-shot native method runs; no backgrounds, since the group
        # prototypes would go unread
        if ("native", "zs") not in {METHODS[m] for m in self.cfg.methods}:
            return {"encoder": self.teacher}
        protos = anchors.compute_prototypes(self.teacher, _first_per_class(self.world[0], 40),
                                            (), memo=self.memo).by_class
        return {"encoder": self.teacher, "protos": protos}

    def _build_lp_ft(self, rho: float) -> dict:
        train, test = self.datasets(rho)
        cfg = self.align_config(epochs=self.cfg.ft_epochs,
                                seed=derive_seed(self.seed, "lp-ft", rho))
        model, head, traces = alignment.finetune_on_correlated(self.teacher, train, test, cfg)
        return {"encoder": freeze(model), "head": head, "trace": traces}

    def _student(self, train, *targets) -> dict:
        """A student that `train` aligns from the teacher on the seed's composite
        stream toward `targets`, frozen, with its per-epoch loss and LR."""
        student, log = train(self.teacher, *targets, self.world[0], self.bg_pools[0],
                             self.align_config(), memo=self.memo)
        return {"encoder": freeze(student),
                "trace": {"epoch_loss": log.epoch_loss, "epoch_lr": log.epoch_lr}}

    def _build_control(self, rho: float) -> dict:
        return self._student(alignment.train_control)

    def _build_bap(self, rho: float) -> dict:
        fgs = self.world[0]
        anchor_set = anchors.build_anchor_set(self.teacher, fgs, self.bg_pools[0], self.cfg.K,
                                              derive_seed(self.seed, "anchors"),
                                              degradation=self.cfg.degradation, memo=self.memo)
        # the student is scored zero-shot against the unit mean of each class's anchors
        protos = {y: anchors.unit_mean([anchor_set[fg.id] for fg in fgs if fg.y == y],
                                       f"class {y} anchor mean")
                  for y in sorted({fg.y for fg in fgs})}
        return {**self._student(alignment.train_bap, anchor_set), "protos": protos}

    def _build_ortho(self, rho: float) -> dict:
        classes = sorted({fg.y for fg in self.world[0]})
        targets = anchors.orthogonal_targets(self.cfg.d, len(classes),
                                             derive_seed(self.seed, "ortho"))
        return self._student(alignment.train_orthogonal, targets,
                             {y: i for i, y in enumerate(classes)})

    _BUILDERS = {"native": _build_native, "lp-ft": _build_lp_ft, "control": _build_control,
                 "bap": _build_bap, "ortho": _build_ortho}


# ---------------------------------------------------------------------------
# method evaluation


def evaluate_method(ctx: SeedContext, method: str, rho: float):
    """(GroupMetrics, BsiReport) for one method on one correlation rate."""
    if method not in METHODS:
        raise ConfigError(f"unknown method tag {method!r}")
    name, how = METHODS[method]
    train, test = ctx.datasets(rho)
    rec = ctx.trained(name, rho)
    if how == "zs":
        preds = evaluation.nearest_prototype(rec.protos, rec.test_embs)
    else:
        head = rec.head if how == "ft" else evaluation.train_probe(
            rec.encoder, train, seed=derive_seed(ctx.seed, f"probe-{name}", rho),
            epochs=ctx.cfg.probe_epochs, lr=ctx.cfg.probe_lr)
        preds = evaluation.head_predict(head, rec.test_embs)
    gm = evaluation.group_metrics(preds, test.labels(), test.groups())
    return gm, rec.bsi


# ---------------------------------------------------------------------------
# subcommands


def _ensure_out(out) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _leakage_check(train: GroupedDataset, test: GroupedDataset) -> None:
    train_bgs = {it.comp.bg_id for it in train.items}
    test_bgs = {it.comp.bg_id for it in test.items}
    overlap = train_bgs & test_bgs
    if overlap:
        raise ConfigError(f"background leakage between train and test: {sorted(overlap)[:5]}")


def cmd_gen_data(cfg: ExperimentConfig, seed: int, out) -> list[Path]:
    out = _ensure_out(out)
    ctx = SeedContext(cfg, derive_seed(seed, "run", 0))
    paths = []
    with _one_blas_thread():
        for rho in cfg.rhos:
            train, test = ctx.datasets(rho)
            _leakage_check(train, test)
            header = {"world_seed": derive_seed(ctx.seed, "world"),
                      "num_classes": 2, "num_bg_groups": 2,
                      "fg_per_class": cfg.fg_per_class, "bg_per_group": cfg.bg_per_group,
                      "hw": [cfg.hw, cfg.hw], "rho": rho, "data_seed": ctx.data_seed}
            path = out / f"dataset-rho{rho:g}.jsonl"
            scene.write_manifest(path, train, test, header)
            paths.append(path)
    return paths


def _probe_share(run: tuple, k: int, shares: int) -> list[tuple]:
    """(`ProbePart`, seconds) of each alpha of `run`, a (config, global seed,
    foregrounds, backgrounds, planted map) tuple: part (k, shares) of its probe,
    scored by the planted teacher of that alpha, which shares the map's `W` and `P`."""
    cfg, seed, fgs, bgs, planted = run
    parts = []
    for alpha in cfg.additivity_alphas:
        t0 = time.perf_counter()
        teacher = EncoderModel(planted.arch, planted.d, planted.input_hw, {}, planted.consts,
                               frozen=True, meta={**planted.meta, "alpha": alpha})
        part = run_probe(teacher, fgs, bgs, cfg.additivity_n,
                         derive_seed(seed, "additivity", alpha), part=(k, shares))
        parts.append((part, time.perf_counter() - t0))
    return parts


def cmd_probe_additivity(cfg: ExperimentConfig, seed: int, out) -> Path:
    """One run record per alpha and the table built from them.

    The world is built, its foregrounds prepared, and the planted map drawn once:
    every alpha's teacher is drawn from the same seed, so they differ only in
    alpha.  Each alpha's probe chunks are split into P contiguous shares, P =
    min(usable CPUs, chunks), which `_fork_shares` runs in children while this
    process waits, or here in turn, in chunk order.  Each chunk is rendered and
    encoded with the same rows either way, and each alpha's scores are joined in
    chunk order, so the output is the same.  A record's `wall_s` is the sum of the
    seconds its shares took.
    """
    out = _ensure_out(out)
    with _one_blas_thread():
        fgs, bgs = SeedContext(cfg, derive_seed(seed, "run", 0)).world
        scene.prepare_foregrounds(fgs)  # once, not once per share
        planted = planted_teacher(PlantedConfig(seed=derive_seed(seed, "additivity-teacher")),
                                  d=cfg.d, input_hw=(cfg.hw, cfg.hw))
        shares = min(_usable_cpus(), probe_chunks(cfg.additivity_n))
        per_share = _fork_shares(_probe_share, (cfg, seed, fgs, bgs, planted),
                                 [(k, shares) for k in range(shares)])
        run_ids = []
        for alpha, timed in zip(cfg.additivity_alphas, zip(*per_share)):
            rep = merge_parts([part for part, _ in timed], encoder_tag=f"planted-a{alpha:g}")
            run_ids.append(_write_run_record(
                out, f"additivity-a{alpha:g}", cfg, derive_seed(seed, "additivity", alpha), {
                    "encoder": rep.encoder_tag, "alpha": alpha, "n": rep.n,
                    "excluded": rep.excluded, "mean_S": rep.mean, "std_S": rep.std,
                    "wall_s": round(sum(seconds for _, seconds in timed), 3)}))
        rows = [[rec["encoder"], rec["alpha"], rec["n"], f"{rec['mean_S']:.6f}",
                 f"{rec['std_S']:.6f}"] for rec in _read_run_records(out, run_ids)]
        # highest score first, ranked on the value the table shows
        rows.sort(key=lambda row: -float(row[3]))
        return _write_csv(out / "additivity.csv", ("encoder", "alpha", "n", "mean_S", "std_S"),
                          rows)


def cmd_k_ablation(cfg: ExperimentConfig, seed: int, out) -> Path:
    out = _ensure_out(out)
    ctx = SeedContext(cfg, derive_seed(seed, "run", 0))
    with _one_blas_thread():
        fgs, bgs = ctx.world
        teacher = ctx.teacher
        protos = anchors.compute_prototypes(teacher, fgs, bgs, memo=ctx.memo)
        report = anchors.k_sweep(teacher, _first_per_class(fgs, 25), bgs, cfg.k_grid,
                                 protos, derive_seed(seed, "ksweep"),
                                 var_trials=cfg.var_trials)
        logk = np.log(np.asarray(report.k_grid, dtype=np.float64))
        logv = np.log(np.asarray(report.var_eps, dtype=np.float64))
        slope = float(np.polyfit(logk, logv, 1)[0])
        run_ids = [_write_run_record(out, f"k-ablation-K{k}", cfg, derive_seed(seed, "ksweep"),
                                     {"K": k, "fg_sim": f, "bg_sim_max": b, "var_eps": v,
                                      "slope": slope})
                   for k, f, b, v in zip(report.k_grid, report.fg_sim, report.bg_sim_max,
                                         report.var_eps)]
        rows = [[rec["K"], f"{rec['fg_sim']:.6f}", f"{rec['bg_sim_max']:.6f}",
                 f"{rec['var_eps']:.8g}", f"{rec['slope']:.4f}"]
                for rec in _read_run_records(out, run_ids)]
        return _write_csv(out / "k_ablation.csv",
                          ("K", "fg_sim", "bg_sim_max", "var_eps", "slope"), rows)


def _write_run_record(out: Path, run_id: str, cfg: ExperimentConfig, seed: int,
                      extra: dict) -> str:
    """Write `runs/<run_id>.json`, whole or not at all."""
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"run_id": run_id, "config": asdict(cfg), "seed": seed,
              "code_hash": code_hash(), **extra}
    write_whole(runs / f"{run_id}.json", json.dumps(record, sort_keys=True, indent=2))
    return run_id


def _read_run_records(out: Path, run_ids) -> list[dict]:
    return [json.loads((out / "runs" / f"{run_id}.json").read_text()) for run_id in run_ids]


def _write_csv(path: Path, header, rows) -> Path:
    """The one CSV writer: a header line, then one line per row, whole or not at all."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return write_whole(path, buf.getvalue())


def _metrics(gm: evaluation.GroupMetrics, bsi: evaluation.BsiReport) -> dict:
    return {"avg": gm.avg, "wga": gm.wga,
            "per_group": {f"{y}{g}": a for (y, g), a in gm.per_group.items()},
            "bsi": bsi.mean, "bsi_per_class": {str(y): v for y, v in bsi.per_class.items()}}


METRICS_HEADER = ("run_id", "method", "rho", "avg", "wga",
                  "acc_00", "acc_01", "acc_10", "acc_11", "bsi", "seed")


def _metrics_row(rec: dict) -> list:
    """A run-matrix record as its `metrics.csv` row; a cell with no test items is blank."""
    m = rec["metrics"]
    cells = [f"{m['per_group'][cell]:.4f}" if cell in m["per_group"] else ""
             for cell in ("00", "01", "10", "11")]
    return [rec["run_id"], rec["method"], f"{rec['rho']:g}", f"{m['avg']:.4f}",
            f"{m['wga']:.4f}", *cells, f"{m['bsi']:.4f}", rec["seed"]]


def _summary_rows(records: list[dict]) -> list[list]:
    """One row per (method, rho): mean and spread over seeds of what `metrics.csv` shows."""
    by_key: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        by_key.setdefault((rec["method"], f"{rec['rho']:g}"), []).append(rec["metrics"])
    rows = []
    for (method, rho), group in sorted(by_key.items()):
        avgs, wgas, bsis = (np.array([float(f"{m[key]:.4f}") for m in group])
                            for key in ("avg", "wga", "bsi"))
        rows.append([method, rho, len(group), f"{avgs.mean():.4f}", f"{avgs.std():.4f}",
                     f"{wgas.mean():.4f}", f"{wgas.std():.4f}", f"{bsis.mean():.4f}"])
    return rows


def _run_cells(ctx: SeedContext, out: Path, cells) -> None:
    """Score each (run id, method, rho, fields) cell of `cells` on `ctx`'s seed, in
    turn, and write its record as soon as it finishes: the cell's fields with its rho,
    method, metrics, its encoder's training trace and `wall_s`.  Each trained encoder
    is released after the last cell that reads it, so with the cells of each encoder
    together the seed holds one trained encoder at a time besides the teacher.  Draws
    derive from names, so neither the order nor the cells left to another group
    change a number."""
    last = {ctx._key(METHODS[method][0], rho): i for i, (_, method, rho, _) in enumerate(cells)}
    for i, (run_id, method, rho, fields) in enumerate(cells):
        t0 = time.perf_counter()
        gm, bsi = evaluate_method(ctx, method, rho)
        name = METHODS[method][0]
        _write_run_record(out, run_id, ctx.cfg, ctx.seed, {
            **fields, "rho": rho, "method": method, "metrics": _metrics(gm, bsi),
            "trace": ctx.trained(name, rho).trace,
            "wall_s": round(time.perf_counter() - t0, 3)})
        if last[ctx._key(name, rho)] == i:
            ctx.release(name, rho)


# (function, state) of the shares a forked child runs, set in it by its pool's initializer
_inherited: tuple | None = None
_PR_SET_PDEATHSIG = 1  # prctl(2): the signal a process gets when its parent dies


def _inherit(fn, state, parent: int) -> None:
    """Run first in each forked child: keep `fn` and `state` for its shares, and have
    the kernel SIGKILL the child when `parent`, the process that forked it, dies; so
    no child, nor a child of its own, outlives a killed caller or a pool that
    terminated it.  A parent already gone by then ends the child at once."""
    global _inherited
    _inherited = fn, state
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _run_inherited(*args):
    fn, state = _inherited
    return fn(state, *args)


def _fork_shares(fn, state, shares: list[tuple]) -> list:
    """`[fn(state, *args) for args in shares]`, and the one place in the lab that
    decides to fork.  Given more than one share where this process may fork
    (`_may_fork`), it runs each share in its own child forked from it while it waits;
    otherwise it runs the shares here in turn.  Each child inherits `fn` and `state`
    unpickled, so only the `args` and the results cross the pipe, and dies with its
    parent (`_inherit`).  The pool forks all its children at the first submit, before
    it starts its manager thread, so each child is single-threaded and may call
    `_fork_shares` itself.  A share's error reaches the caller with its type, and a
    child that dies raises `BrokenProcessPool`; the children are joined before this
    returns or raises."""
    if len(shares) == 1 or not _may_fork():
        return [fn(state, *args) for args in shares]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(len(shares), mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(fn, state, os.getpid())) as pool:
        forked = [pool.submit(_run_inherited, *args) for args in shares]
        return [future.result() for future in forked]


def _run_seed(out: Path, cfg: ExperimentConfig, run_seed: int, groups) -> None:
    """`_run_cells` of each cell group of one job in `groups`.

    The job's world, the train split of each rate its cells score, its test split
    (leakage-checked) and its teacher are built first, once, since every group reads
    them; so no run's `wall_s` includes them.  `_fork_shares` then runs the groups:
    in children forked from this process, which inherit the built `SeedContext`, or
    here in turn."""
    ctx = SeedContext(cfg, run_seed)
    for rho in dict.fromkeys(rho for group in groups for _, _, rho, _ in group):
        _leakage_check(*ctx.datasets(rho))
    ctx.teacher  # built now, so that a forked group inherits it
    _fork_shares(_run_cells, ctx, [(out, group) for group in groups])


def _run_seeds(out: Path, jobs) -> None:
    """`_run_seed` of each (config, run seed, cell groups) job in `jobs`, in turn."""
    for job in jobs:
        _run_seed(out, *job)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_threads() -> list[tuple]:
    """(get, set, shutdown) of each OpenBLAS this process has loaded: its thread-count
    getter and setter, and the call that joins its idle threads.  The libraries are
    found by path in `/proc/self/maps`, so only on Linux; the count functions by the
    names numpy's wheels (`scipy_openblas_*64_`) and other builds (`openblas_*`,
    `openblas_*64_`) export, and the shutdown as `blas_thread_shutdown_`, which
    OpenBLAS's own fork handler calls (a no-op where it is not exported)."""
    from itertools import product

    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5].rstrip("\n") for fields in (line.split(maxsplit=5) for line in fh)
                     if len(fields) == 6 and "openblas" in Path(fields[5]).name.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in product(("scipy_", ""), ("64_", "")):
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            shutdown = getattr(lib, "blas_thread_shutdown_", lambda: 0)
            found.append((get, set_, shutdown))
            break
    return found


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread and its idle threads
    joined, then restore each one's thread count, which starts its threads again,
    also when the block raises; a no-op where none is loaded.

    Every command but `report` runs its body inside it.  With no BLAS thread left
    the process may fork (`_may_fork`), and each child inherits OpenBLAS on one
    thread.  A command that composites between products would otherwise burn a CPU,
    since after each product OpenBLAS's idle threads spin-wait for the next one; and
    at the lab's sizes a second thread shortens no training run (README).  An
    environment variable cannot do this in process, since OpenBLAS reads
    `OPENBLAS_NUM_THREADS` once, when numpy is imported."""
    libs = _openblas_threads()
    saved = [get() for get, _, _ in libs]
    for _, set_threads, shutdown in libs:
        set_threads(1)
        shutdown()
    try:
        yield
    finally:
        for (_, set_threads, _), count in zip(libs, saved):
            set_threads(count)


def _may_fork() -> bool:
    """Whether `_fork_shares`, which alone asks, may fork children from this process
    now: the `fork` start method exists, OpenBLAS is loaded and every copy of it runs
    one thread, and `/proc/self/status` shows one OS thread.  A child forked while
    another thread holds a lock can deadlock on it, and a child with BLAS threads
    must not fork its own.  So it holds inside `_one_blas_thread()` on Linux with
    OpenBLAS, while no other thread is alive, and never on macOS, Windows or other
    BLAS builds."""
    import multiprocessing

    libs = _openblas_threads()
    if ("fork" not in multiprocessing.get_all_start_methods() or not libs
            or any(get() != 1 for get, _, _ in libs)):
        return False
    try:
        with open("/proc/self/status") as fh:
            return any(line.split() == ["Threads:", "1"] for line in fh)
    except OSError:
        return False


def _seed_jobs(jobs, cpus: int) -> list[tuple]:
    """Each (config, run seed, cells) job of `jobs` as (config, run seed, cell groups).

    Jobs run `cpus` at a time.  The jobs of full waves stay whole, one group of every
    encoder their cells' methods name, in `ENCODERS` order.  Each of the last
    `len(jobs) % cpus` jobs, a partial wave, gets `cpus // (len(jobs) % cpus)` groups,
    at most one per trained encoder (native trains nothing): its encoders are dealt
    longest first by `ENCODER_COST`, each into the group with the least cost so far.
    A group holds the cells of its encoders, encoder by encoder, each in the job's
    order.  No student depends on another, so a split changes no number.
    """
    partial = len(jobs) % cpus
    dealt = []
    for i, (cfg, run_seed, cells) in enumerate(jobs):
        named = [name for name in ENCODERS if any(METHODS[m][0] == name for _, m, _, _ in cells)]
        trained = sum(name != "native" for name in named)
        k = max(1, min(trained, cpus // partial)) if i >= len(jobs) - partial else 1
        groups = [[] for _ in range(k)]
        for name in sorted(named, key=ENCODER_COST.get, reverse=True):
            min(groups, key=lambda group: sum(map(ENCODER_COST.get, group))).append(name)
        if k == 1:
            groups = [named]
        dealt.append((cfg, run_seed, [[cell for name in group for cell in cells
                                       if METHODS[cell[1]][0] == name] for group in groups]))
    return dealt


def _run_jobs(out: Path, jobs) -> None:
    """Write the record of every cell of every (config, run seed, cells) job.  The
    groups of `_seed_jobs` are dealt round-robin, job i into share i mod shares, into
    one share per usable CPU, at most one per job; `_fork_shares` runs the shares,
    each share's jobs in turn."""
    cpus = _usable_cpus()
    dealt = _seed_jobs(jobs, cpus)
    shares = min(len(dealt), cpus)
    _fork_shares(_run_seeds, out, [(dealt[w::shares],) for w in range(shares)])


def cmd_run_matrix(cfg: ExperimentConfig, seed: int, out,
                   methods=None, rhos=None) -> Path:
    """The method x rho x seed grid: one run record per cell, then the two CSVs built
    from those records, in grid order (seed, rho, method).  Each seed is one
    `_run_jobs` job, whose records carry the seed's index as `run_index`."""
    # the records carry the grid that runs; a bad override raises ConfigError here
    cfg = replace(cfg, methods=tuple(cfg.methods if methods is None else methods),
                  rhos=tuple(cfg.rhos if rhos is None else rhos))
    out = _ensure_out(out)
    cells = [[(f"{method}-rho{rho:g}-s{i}", method, rho, {"run_index": i})
              for rho in cfg.rhos for method in cfg.methods] for i in range(cfg.num_seeds)]
    with _one_blas_thread():
        _run_jobs(out, [(cfg, run_seed, seed_cells)
                        for run_seed, seed_cells in zip(run_seeds(cfg, seed), cells)])
        records = _read_run_records(out, [cell[0] for seed_cells in cells for cell in seed_cells])
        path = _write_csv(out / "metrics.csv", METRICS_HEADER, map(_metrics_row, records))
        _write_csv(out / "summary.csv", ("method", "rho", "n_runs", "avg_mean", "avg_std",
                                         "wga_mean", "wga_std", "bsi_mean"),
                   _summary_rows(records))
    return path


def cmd_ablate(cfg: ExperimentConfig, seed: int, out, which: str) -> Path:
    """bap-lp at the first rho over one swept setting: one run record per CSV row,
    `runs/ablate-<which>-<param>-<value>.json`, holding the swept config.  `seg` adds
    a native-lp baseline, scored on the point whose degradation is the config's.

    Each sweep point is one `_run_jobs` job, so the points are spread over the usable
    CPUs as run-matrix's seeds are.  A record's `wall_s` excludes its point's world,
    splits and teacher, and it carries bap's training trace."""
    if which == "seg":
        sweep = [("degradation", mode, {"degradation": mode}) for mode in scene.DEGRADATIONS]
    elif which == "n_sweep":
        sizes = {min(size, cfg.fg_per_class) for size in (25, 50, 100, cfg.fg_per_class)}
        sweep = [("N_per_class", n, {"fg_per_class": n}) for n in sorted(sizes)]
    elif which == "m_sweep":
        sweep = [(f"N{n}-M", m, {"fg_per_class": n, "M": m})
                 for n in (50, 100) for m in (2, 4, 8, 16, 32)]
    elif which == "k_train_sweep":
        sweep = [("K", k, {"K": k}) for k in (1, 2, 4, 8, 16)]
    else:
        raise ConfigError(f"unknown ablation {which!r}")
    out = _ensure_out(out)
    run_seed = derive_seed(seed, "run", 0)
    rho = cfg.rhos[0]
    run_ids = [f"ablate-{which}-{param}-{value}" for param, value, _ in sweep]
    jobs = [(replace(cfg, **overrides), run_seed,
             [(run_id, "bap-lp", rho, {"param": param, "value": value})])
            for run_id, (param, value, overrides) in zip(run_ids, sweep)]
    if which == "seg":
        run_ids.append("ablate-seg-degradation-native-lp-baseline")
        _, _, cells = jobs[scene.DEGRADATIONS.index(cfg.degradation)]
        cells.append((run_ids[-1], "native-lp", rho,
                      {"param": "degradation", "value": "native-lp-baseline"}))
    with _one_blas_thread():
        _run_jobs(out, jobs)
        rows = [[rec["param"], rec["value"], f"{rec['metrics']['wga']:.4f}",
                 f"{rec['metrics']['avg']:.4f}"] for rec in _read_run_records(out, run_ids)]
        return _write_csv(out / f"ablate_{which}.csv", ("param", "value", "wga", "avg"), rows)


# figure analog -> the table that holds its data
FIGURE_SOURCES = {"fig_anchor_purification": "k_ablation", "fig_n_scaling": "ablate_n_sweep",
                  "fig_m_recovery": "ablate_m_sweep"}


def cmd_report(out) -> Path:
    """Consolidated summary: the tables present, the source of each figure analog's
    data, and the one figure table `report` computes itself."""
    out = _ensure_out(out)
    present = []
    missing = []
    for name in ("metrics", "summary", "k_ablation", "additivity", "ablate_seg",
                 "ablate_n_sweep", "ablate_m_sweep", "ablate_k_train_sweep"):
        (present if (out / f"{name}.csv").exists() else missing).append(name)
    figures = [f"{fig}: {src}.csv" for fig, src in FIGURE_SOURCES.items() if src in present]
    # the lp-ft traces of the runs behind the current metrics.csv, not every record in runs/
    ft_ids = []
    if "metrics" in present:
        with open(out / "metrics.csv", newline="") as fh:
            ft_ids = [row["run_id"] for row in csv.DictReader(fh) if row["method"] == "lp-ft"]
    ft_rows = [[rec["run_id"], epoch, wga, avg] for rec in _read_run_records(out, ft_ids)
               for epoch, (wga, avg) in enumerate(zip(rec["trace"]["wga"], rec["trace"]["avg"]))]
    ft_plot = out / "plots" / "fig_finetune_degradation.csv"
    if ft_rows:
        ft_plot.parent.mkdir(exist_ok=True)
        _write_csv(ft_plot, ("run_id", "epoch", "wga", "avg"), ft_rows)
        figures.append(f"fig_finetune_degradation: plots/{ft_plot.name}")
    else:
        ft_plot.unlink(missing_ok=True)
        missing.append("fig_finetune_degradation")
    lines = ["consolidated run report", f"code: {code_hash()}", "", "artifacts present:",
             *(f"  {name}: {name}.csv" for name in present), "", "figure data:",
             *(f"  {line}" for line in figures or ["none"]), "", "missing artifacts:",
             *(f"  {name}" for name in missing or ["none"])]
    return write_whole(out / "report.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anchorlab",
                                description="synthetic background-invariance laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default="out")

    common(sub.add_parser("gen-data", help="write dataset manifests"))
    common(sub.add_parser("probe-additivity", help="additivity score table"))
    common(sub.add_parser("k-ablation", help="anchor K-sweep CSV"))
    rm = sub.add_parser("run-matrix", help="method x rho x seed metrics grid")
    common(rm)
    rm.add_argument("--methods", type=str, default=None,
                    help="comma-separated subset of " + ",".join(ALL_METHODS))
    rm.add_argument("--rho", type=str, default=None,
                    help="comma-separated correlation rates")
    ab = sub.add_parser("ablate", help="sensitivity sweeps")
    common(ab)
    ab.add_argument("which", choices=["seg", "n_sweep", "m_sweep", "k_train_sweep"])
    rp = sub.add_parser("report", help="consolidated summary")
    rp.add_argument("--out", type=str, default="out")
    return p


def main(argv=None) -> int:
    """Run one subcommand; a ConfigError is reported the way argparse reports a bad flag."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            print(f"wrote {cmd_report(args.out)}")
            return 0
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        if args.command == "gen-data":
            for path in cmd_gen_data(cfg, args.seed, args.out):
                print(f"wrote {path}")
        elif args.command == "probe-additivity":
            print(f"wrote {cmd_probe_additivity(cfg, args.seed, args.out)}")
        elif args.command == "k-ablation":
            print(f"wrote {cmd_k_ablation(cfg, args.seed, args.out)}")
        elif args.command == "run-matrix":
            # only an absent flag falls back to the config's grid; an empty one is an error
            methods = None if args.methods is None else args.methods.split(",")
            try:
                rhos = None if args.rho is None else [float(r) for r in args.rho.split(",")]
            except ValueError:
                raise ConfigError(f"--rho takes comma-separated numbers, got {args.rho!r}") \
                    from None
            print(f"wrote {cmd_run_matrix(cfg, args.seed, args.out, methods, rhos)}")
        elif args.command == "ablate":
            print(f"wrote {cmd_ablate(cfg, args.seed, args.out, args.which)}")
    except ConfigError as err:
        print(f"anchorlab: error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
