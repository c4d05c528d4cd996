"""Experiment orchestration and command-line entry point.

Subcommands map one-to-one onto the study's artifacts: `gen-data` writes
dataset manifests, `probe-additivity` the additivity table, `k-ablation`
the anchor K-sweep, `run-matrix` the method-by-correlation metrics grid,
`ablate` the sensitivity sweeps, and `report` a consolidated summary.

Every run derives all randomness from one global seed through stable
hashing, records its resolved config in a run record, and emits plain CSV.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import alignment, anchors, evaluation, scene
from .additivity import run_probe, write_additivity_csv
from .encoders import EncoderModel, PlantedConfig, freeze, planted_teacher
from .errors import ConfigError
from .rng import derive_seed
from .scene import DatasetSizes, GroupedDataset, build_grouped_dataset, gen_world

ALL_METHODS = ("native-zs", "native-lp", "lp-ft", "control", "bap-lp", "bap-zs", "ortho")
TEACHERS = ("learned-mlp", "planted")


@dataclass(frozen=True)
class ExperimentConfig:
    # world
    num_classes: int = 2
    num_bg_groups: int = 2
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
        if "ortho" in self.methods and self.d < self.num_classes:
            raise ConfigError(f"ortho needs d >= num_classes to fit one orthogonal target "
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
        if not self.k_grid or list(self.k_grid) != sorted(self.k_grid) or self.k_grid[0] < 1:
            raise ConfigError(f"k_grid must be a non-empty ascending grid of K >= 1, "
                              f"got {self.k_grid}")
        if self.var_trials < 2:
            raise ConfigError(f"var_trials must be >= 2, got {self.var_trials}")
        if any(alpha < 0 for alpha in self.additivity_alphas):
            raise ConfigError(f"additivity alphas must be >= 0, got {self.additivity_alphas}")
        if self.teacher == "learned-mlp" and self.teacher_epochs < 1:
            raise ConfigError(f"the learned-mlp teacher needs teacher_epochs >= 1, "
                              f"got {self.teacher_epochs}")
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
        raw = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("rhos", "additivity_alphas", "k_grid", "methods"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text())


def code_hash() -> str:
    """Content hash of the package sources, recorded in every run."""
    h = hashlib.sha256()
    pkg = Path(__file__).parent
    for p in sorted(pkg.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_seeds(cfg: ExperimentConfig, global_seed: int) -> list[int]:
    return [derive_seed(global_seed, "run", i) for i in range(cfg.num_seeds)]


# ---------------------------------------------------------------------------
# per-seed artifact cache


class SeedContext:
    """Lazily built world, teacher and trained students for one seed.

    Heavy artifacts are shared across methods and correlation rates: the
    anchor/alignment phases never see the downstream correlation, so one
    student serves every rho.
    """

    def __init__(self, cfg: ExperimentConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def world(self):
        def build():
            c = self.cfg
            return gen_world(derive_seed(self.seed, "world"), c.num_classes,
                             c.num_bg_groups, c.fg_per_class, c.bg_per_group,
                             (c.hw, c.hw))

        return self._get("world", build)

    @property
    def data_seed(self) -> int:
        return derive_seed(self.seed, "data")

    @property
    def bg_pools(self):
        def build():
            _, bgs = self.world
            return scene.split_backgrounds(bgs, self.data_seed)

        return self._get("bg_pools", build)

    @property
    def teacher(self) -> EncoderModel:
        def build():
            fgs, _ = self.world
            bg_train, _ = self.bg_pools
            c = self.cfg
            if c.teacher == "planted":
                return planted_teacher(PlantedConfig(seed=derive_seed(self.seed, "planted"),
                                                     alpha=c.planted_alpha),
                                       d=c.d, input_hw=(c.hw, c.hw))
            return alignment.pretrain_teacher(fgs, bg_train,
                                              derive_seed(self.seed, "teacher"),
                                              epochs=c.teacher_epochs, d=c.d,
                                              degradation=c.degradation)

        return self._get("teacher", build)

    def align_config(self, **overrides) -> alignment.AlignConfig:
        c = self.cfg
        base = alignment.AlignConfig(
            epochs=c.epochs, batch_size=c.batch_size, lr=c.lr,
            weight_decay=c.weight_decay, warmup_frac=c.warmup_frac, M=c.M,
            degradation=c.degradation, seed=derive_seed(self.seed, "align"))
        return replace(base, **overrides) if overrides else base

    @property
    def anchor_set(self) -> anchors.AnchorSet:
        def build():
            fgs, _ = self.world
            bg_train, _ = self.bg_pools
            return anchors.build_anchor_set(self.teacher, fgs, bg_train, self.cfg.K,
                                            derive_seed(self.seed, "anchors"),
                                            degradation=self.cfg.degradation)

        return self._get("anchors", build)

    @property
    def bap_student(self):
        def build():
            fgs, _ = self.world
            bg_train, _ = self.bg_pools
            return alignment.train_bap(self.teacher, self.anchor_set, fgs, bg_train,
                                       self.align_config())

        return self._get("bap", build)

    @property
    def control_student(self):
        def build():
            fgs, _ = self.world
            bg_train, _ = self.bg_pools
            return alignment.train_control(self.teacher, fgs, bg_train,
                                           self.align_config())

        return self._get("control", build)

    @property
    def ortho_student(self):
        def build():
            fgs, _ = self.world
            bg_train, _ = self.bg_pools
            classes = sorted({fg.y for fg in fgs})
            targets = anchors.orthogonal_targets(self.cfg.d, len(classes),
                                                 derive_seed(self.seed, "ortho"))
            mapping = {y: i for i, y in enumerate(classes)}
            return alignment.train_orthogonal(self.teacher, targets, mapping, fgs,
                                              bg_train, self.align_config())

        return self._get("ortho", build)

    def datasets(self, rho: float) -> tuple[GroupedDataset, GroupedDataset]:
        def build():
            fgs, bgs = self.world
            sizes = DatasetSizes(self.cfg.train_per_class, self.cfg.test_per_cell)
            return build_grouped_dataset(fgs, bgs, rho, sizes, self.data_seed)

        return self._get(("data", rho), build)

    @property
    def teacher_prototypes(self) -> dict[int, np.ndarray]:
        def build():
            fgs, bgs = self.world
            by_class: dict[int, list] = {}
            for fg in fgs:
                by_class.setdefault(fg.y, []).append(fg)
            exemplars = [fg for y in sorted(by_class) for fg in by_class[y][:40]]
            protos = anchors.compute_prototypes(self.teacher, exemplars, bgs,
                                                derive_seed(self.seed, "protos"))
            return protos.by_class

        return self._get("teacher_protos", build)

    @property
    def anchor_prototypes(self) -> dict[int, np.ndarray]:
        def build():
            fgs, _ = self.world
            by_class: dict[int, list[np.ndarray]] = {}
            for fg in fgs:
                by_class.setdefault(fg.y, []).append(self.anchor_set.anchors[fg.id])
            out = {}
            for y, vecs in sorted(by_class.items()):
                m = np.stack(vecs).astype(np.float64).mean(axis=0)
                out[y] = (m / np.linalg.norm(m)).astype(np.float32)
            return out

        return self._get("anchor_protos", build)

    def bsi_of(self, tag: str, encoder: EncoderModel) -> float:
        def build():
            fgs, _ = self.world
            _, bg_test = self.bg_pools
            report = evaluation.bsi_protocol(encoder, fgs, bg_test, n_pairs=48,
                                             seed=derive_seed(self.seed, "bsi"))
            return report.mean

        return self._get(("bsi", tag), build)

    def lp_ft(self, rho: float):
        def build():
            train, test = self.datasets(rho)
            cfg = self.align_config(epochs=self.cfg.ft_epochs,
                                    lr=self.cfg.lr,
                                    seed=derive_seed(self.seed, "lp-ft", rho))
            return alignment.finetune_on_correlated(self.teacher, train, test, cfg)

        return self._get(("lp-ft", rho), build)


# ---------------------------------------------------------------------------
# method evaluation


def evaluate_method(ctx: SeedContext, method: str, rho: float):
    """(GroupMetrics, bsi) for one method on one correlation rate."""
    cfg = ctx.cfg
    train, test = ctx.datasets(rho)
    test_rasters = test.rasters()
    test_y, test_g = test.labels(), test.groups()

    def lp(encoder: EncoderModel, probe_seed_tag: str):
        frozen = freeze(encoder)
        head = evaluation.train_probe(frozen, train,
                                      seed=derive_seed(ctx.seed, probe_seed_tag, rho),
                                      epochs=cfg.probe_epochs, lr=cfg.probe_lr)
        return evaluation.probe_predict(frozen, head, test_rasters)

    if method == "native-zs":
        preds = evaluation.prototype_predict(ctx.teacher, ctx.teacher_prototypes,
                                             test_rasters)
        enc_tag, encoder = "teacher", ctx.teacher
    elif method == "native-lp":
        preds = lp(ctx.teacher, "probe-native")
        enc_tag, encoder = "teacher", ctx.teacher
    elif method == "lp-ft":
        model, head, _ = ctx.lp_ft(rho)
        frozen = freeze(model)
        preds = evaluation.probe_predict(frozen, head, test_rasters)
        enc_tag, encoder = f"lp-ft-{rho:g}", frozen
    elif method == "control":
        preds = lp(ctx.control_student[0], "probe-control")
        enc_tag, encoder = "control", ctx.control_student[0]
    elif method == "bap-lp":
        preds = lp(ctx.bap_student[0], "probe-bap")
        enc_tag, encoder = "bap", ctx.bap_student[0]
    elif method == "bap-zs":
        preds = evaluation.prototype_predict(freeze(ctx.bap_student[0]),
                                             ctx.anchor_prototypes, test_rasters)
        enc_tag, encoder = "bap", ctx.bap_student[0]
    elif method == "ortho":
        preds = lp(ctx.ortho_student[0], "probe-ortho")
        enc_tag, encoder = "ortho", ctx.ortho_student[0]
    else:
        raise ConfigError(f"unknown method tag {method!r}")

    gm = evaluation.group_metrics(preds, test_y, test_g)
    bsi_value = ctx.bsi_of(enc_tag, encoder)
    return gm, bsi_value


_STUDENT_OF = {"bap-lp": "bap_student", "bap-zs": "bap_student",
               "control": "control_student", "ortho": "ortho_student"}


def _training_trace(ctx: SeedContext, method: str, rho: float) -> dict | None:
    """Per-epoch traces of the training run behind a method, None for native ones.

    Students give their loss and LR per epoch; lp-ft gives WGA and AVG on the
    balanced test split, from the frozen-probe baseline (epoch 0) on.
    """
    if method == "lp-ft":
        return ctx.lp_ft(rho)[2]
    if method in _STUDENT_OF:
        log = getattr(ctx, _STUDENT_OF[method])[1]
        return {"epoch_loss": log.epoch_loss, "epoch_lr": log.epoch_lr}
    return None


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
    for rho in cfg.rhos:
        train, test = ctx.datasets(rho)
        _leakage_check(train, test)
        header = {"world_seed": derive_seed(ctx.seed, "world"),
                  "num_classes": cfg.num_classes, "num_bg_groups": cfg.num_bg_groups,
                  "fg_per_class": cfg.fg_per_class, "bg_per_group": cfg.bg_per_group,
                  "hw": [cfg.hw, cfg.hw], "rho": rho, "data_seed": ctx.data_seed}
        path = out / f"dataset-rho{rho:g}.jsonl"
        scene.write_manifest(path, train, test, header)
        paths.append(path)
    return paths


def cmd_probe_additivity(cfg: ExperimentConfig, seed: int, out) -> Path:
    out = _ensure_out(out)
    ctx = SeedContext(cfg, derive_seed(seed, "run", 0))
    fgs, bgs = ctx.world
    rows = []
    for alpha in cfg.additivity_alphas:
        teacher = planted_teacher(PlantedConfig(seed=derive_seed(seed, "additivity-teacher"),
                                                alpha=alpha),
                                  d=cfg.d, input_hw=(cfg.hw, cfg.hw))
        rep = run_probe(teacher, fgs, bgs, cfg.additivity_n,
                        derive_seed(seed, "additivity", alpha),
                        encoder_tag=f"planted-a{alpha:g}")
        rows.append({"encoder": rep.encoder_tag, "alpha": alpha, "n": rep.n,
                     "mean_S": f"{rep.mean:.6f}", "std_S": f"{rep.std:.6f}"})
    rows.sort(key=lambda r: -float(r["mean_S"]))
    path = out / "additivity.csv"
    write_additivity_csv(path, rows)
    return path


def cmd_k_ablation(cfg: ExperimentConfig, seed: int, out) -> Path:
    out = _ensure_out(out)
    ctx = SeedContext(cfg, derive_seed(seed, "run", 0))
    fgs, bgs = ctx.world
    teacher = ctx.teacher
    protos = anchors.compute_prototypes(teacher, fgs, bgs, derive_seed(seed, "protos"))
    report = anchors.k_sweep(teacher, fgs[: min(len(fgs), 50)], bgs, cfg.k_grid,
                             protos, derive_seed(seed, "ksweep"),
                             var_trials=cfg.var_trials)
    logk = np.log(np.asarray(report.k_grid, dtype=np.float64))
    logv = np.log(np.asarray(report.var_eps, dtype=np.float64))
    slope = float(np.polyfit(logk, logv, 1)[0])
    path = out / "k_ablation.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K", "fg_sim", "bg_sim_max", "var_eps", "slope"])
        for k, f, b, v in zip(report.k_grid, report.fg_sim, report.bg_sim_max,
                              report.var_eps):
            w.writerow([k, f"{f:.6f}", f"{b:.6f}", f"{v:.8g}", f"{slope:.4f}"])
    return path


def _write_run_record(out: Path, run_id: str, cfg: ExperimentConfig, seed: int,
                      extra: dict) -> None:
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"run_id": run_id, "config": asdict(cfg), "seed": seed,
              "code_hash": code_hash(), **extra}
    (runs / f"{run_id}.json").write_text(json.dumps(record, sort_keys=True, indent=2))


def cmd_run_matrix(cfg: ExperimentConfig, seed: int, out,
                   methods=None, rhos=None) -> Path:
    methods = tuple(methods or cfg.methods)
    rhos = tuple(rhos or cfg.rhos)
    replace(cfg, methods=methods, rhos=rhos)  # raises ConfigError on a bad override
    out = _ensure_out(out)
    rows = []
    for run_idx, run_seed in enumerate(run_seeds(cfg, seed)):
        ctx = SeedContext(cfg, run_seed)
        for rho in rhos:
            train, test = ctx.datasets(rho)
            _leakage_check(train, test)
            for method in methods:
                t0 = time.perf_counter()
                gm, bsi_value = evaluate_method(ctx, method, rho)
                run_id = f"{method}-rho{rho:g}-s{run_idx}"
                rows.append(evaluation.metrics_row(run_id, method, rho, gm,
                                                   bsi_value, run_seed))
                _write_run_record(out, run_id, cfg, run_seed, {
                    "rho": rho, "method": method, "run_index": run_idx,
                    "metrics": {"avg": gm.avg, "wga": gm.wga,
                                "per_group": {f"{y}{g}": a for (y, g), a in gm.per_group.items()},
                                "bsi": bsi_value},
                    "trace": _training_trace(ctx, method, rho),
                    "wall_s": round(time.perf_counter() - t0, 3)})
    path = out / "metrics.csv"
    evaluation.write_metrics_csv(path, rows)
    _write_summary(out, rows)
    return path


def _write_summary(out: Path, rows: list[dict]) -> None:
    by_key: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        by_key.setdefault((row["method"], row["rho"]), []).append(row)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "rho", "n_runs", "avg_mean", "avg_std",
                    "wga_mean", "wga_std", "bsi_mean"])
        for (method, rho), group in sorted(by_key.items()):
            avgs = np.array([float(r["avg"]) for r in group])
            wgas = np.array([float(r["wga"]) for r in group])
            bsis = np.array([float(r["bsi"]) for r in group])
            w.writerow([method, rho, len(group),
                        f"{avgs.mean():.4f}", f"{avgs.std():.4f}",
                        f"{wgas.mean():.4f}", f"{wgas.std():.4f}",
                        f"{bsis.mean():.4f}"])


def cmd_ablate(cfg: ExperimentConfig, seed: int, out, which: str) -> Path:
    out = _ensure_out(out)
    run_seed = derive_seed(seed, "run", 0)
    rho = cfg.rhos[0]
    rows = []

    def bap_wga(ctx: SeedContext) -> tuple[float, float]:
        gm, _ = evaluate_method(ctx, "bap-lp", rho)
        return gm.wga, gm.avg

    if which == "seg":
        for mode in scene.DEGRADATIONS:
            ctx = SeedContext(replace(cfg, degradation=mode), run_seed)
            wga, avg = bap_wga(ctx)
            rows.append({"param": "degradation", "value": mode,
                         "wga": f"{wga:.4f}", "avg": f"{avg:.4f}"})
            if mode == cfg.degradation:
                baseline_ctx = ctx
        gm, _ = evaluate_method(baseline_ctx, "native-lp", rho)
        rows.append({"param": "degradation", "value": "native-lp-baseline",
                     "wga": f"{gm.wga:.4f}", "avg": f"{gm.avg:.4f}"})
    elif which == "n_sweep":
        sizes = {min(size, cfg.fg_per_class) for size in (25, 50, 100, cfg.fg_per_class)}
        for n in sorted(sizes):
            ctx = SeedContext(replace(cfg, fg_per_class=n), run_seed)
            wga, avg = bap_wga(ctx)
            rows.append({"param": "N_per_class", "value": n,
                         "wga": f"{wga:.4f}", "avg": f"{avg:.4f}"})
    elif which == "m_sweep":
        for n in (50, 100):
            for m in (2, 4, 8, 16, 32):
                ctx = SeedContext(replace(cfg, fg_per_class=n, M=m), run_seed)
                wga, avg = bap_wga(ctx)
                rows.append({"param": f"N{n}-M", "value": m,
                             "wga": f"{wga:.4f}", "avg": f"{avg:.4f}"})
    elif which == "k_train_sweep":
        for k in (1, 2, 4, 8, 16):
            ctx = SeedContext(replace(cfg, K=k), run_seed)
            wga, avg = bap_wga(ctx)
            rows.append({"param": "K", "value": k,
                         "wga": f"{wga:.4f}", "avg": f"{avg:.4f}"})
    else:
        raise ConfigError(f"unknown ablation {which!r}")
    path = out / f"ablate_{which}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["param", "value", "wga", "avg"])
        w.writeheader()
        for row in rows:
            w.writerow(row)
    return path


def cmd_report(out) -> Path:
    """Consolidated summary plus one plot-data file per figure analog."""
    out = Path(out)
    lines = []
    missing = []
    artifacts = {
        "metrics": out / "metrics.csv",
        "summary": out / "summary.csv",
        "k_ablation": out / "k_ablation.csv",
        "additivity": out / "additivity.csv",
        "ablate_seg": out / "ablate_seg.csv",
        "ablate_n_sweep": out / "ablate_n_sweep.csv",
        "ablate_m_sweep": out / "ablate_m_sweep.csv",
        "ablate_k_train_sweep": out / "ablate_k_train_sweep.csv",
    }
    for name, path in artifacts.items():
        if path.exists():
            lines.append(f"{name}: {path.name}")
        else:
            missing.append(name)
    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    plot_map = {
        "fig_anchor_purification.csv": artifacts["k_ablation"],
        "fig_n_scaling.csv": artifacts["ablate_n_sweep"],
        "fig_m_recovery.csv": artifacts["ablate_m_sweep"],
    }
    for plot_name, src in plot_map.items():
        if src.exists():
            (plots / plot_name).write_bytes(src.read_bytes())
    ft_rows = []
    runs_dir = out / "runs"
    if runs_dir.exists():
        for rec_path in sorted(runs_dir.glob("lp-ft-*.json")):
            rec = json.loads(rec_path.read_text())
            trace = rec["trace"]
            ft_rows.extend([rec["run_id"], epoch, wga, avg]
                           for epoch, (wga, avg) in enumerate(zip(trace["wga"], trace["avg"])))
    if ft_rows:
        with open(plots / "fig_finetune_degradation.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["run_id", "epoch", "wga", "avg"])
            w.writerows(ft_rows)
    else:
        missing.append("fig_finetune_degradation")
    report_path = out / "report.txt"
    with open(report_path, "w") as fh:
        fh.write("consolidated run report\n")
        fh.write(f"code: {code_hash()}\n\n")
        fh.write("artifacts present:\n")
        for line in lines:
            fh.write(f"  {line}\n")
        fh.write("\nmissing artifacts:\n")
        if missing:
            for name in missing:
                fh.write(f"  {name}\n")
        else:
            fh.write("  none\n")
    return report_path


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
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        path = cmd_report(args.out)
        print(f"wrote {path}")
        return 0
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if args.command == "gen-data":
        paths = cmd_gen_data(cfg, args.seed, args.out)
        for path in paths:
            print(f"wrote {path}")
    elif args.command == "probe-additivity":
        print(f"wrote {cmd_probe_additivity(cfg, args.seed, args.out)}")
    elif args.command == "k-ablation":
        print(f"wrote {cmd_k_ablation(cfg, args.seed, args.out)}")
    elif args.command == "run-matrix":
        methods = args.methods.split(",") if args.methods else None
        rhos = [float(r) for r in args.rho.split(",")] if args.rho else None
        print(f"wrote {cmd_run_matrix(cfg, args.seed, args.out, methods, rhos)}")
    elif args.command == "ablate":
        print(f"wrote {cmd_ablate(cfg, args.seed, args.out, args.which)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
