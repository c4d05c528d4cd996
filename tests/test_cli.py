"""Orchestration layer: config handling, subcommands, end-to-end determinism."""

import json

import pytest

from anchorlab import cli
from anchorlab.cli import (
    ALL_METHODS,
    ExperimentConfig,
    SeedContext,
    cmd_ablate,
    cmd_gen_data,
    cmd_k_ablation,
    cmd_probe_additivity,
    cmd_report,
    cmd_run_matrix,
    code_hash,
    evaluate_method,
    main,
    run_seeds,
)
from anchorlab.errors import ConfigError
from anchorlab.scene import DEGRADATIONS, gen_world, read_manifest

MINI = dict(
    fg_per_class=4, bg_per_group=10, hw=32,
    teacher="planted", d=16,
    M=2, K=2, epochs=2, batch_size=16,
    train_per_class=8, test_per_cell=2, rhos=(1.0,),
    probe_epochs=3, ft_epochs=2,
    additivity_n=16, additivity_alphas=(0.0, 2.0),
    k_grid=(1, 2), var_trials=10,
    methods=("native-lp", "bap-zs"), num_seeds=1,
)


@pytest.fixture(scope="module")
def mini_cfg():
    return ExperimentConfig(**MINI)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_json_roundtrip(mini_cfg):
    back = ExperimentConfig.from_json(mini_cfg.to_json())
    assert back == mini_cfg
    assert isinstance(back.rhos, tuple) and isinstance(back.k_grid, tuple)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"momentum": 0.9}')


def test_config_load(tmp_path, mini_cfg):
    path = tmp_path / "cfg.json"
    path.write_text(mini_cfg.to_json())
    assert ExperimentConfig.load(path) == mini_cfg


@pytest.mark.parametrize("override", [
    {"methods": ("native-lp", "dro")},
    {"rhos": (1.0, 0.4)},
    {"rhos": (1.05,)},
    {"degradation": "blurry"},
    {"teacher": "resnet"},
    {"methods": ("control",), "epochs": 10},
    {"methods": ("native-lp", "ortho"), "d": 1},
    {"M": 0},
    {"K": 0},
    {"ft_epochs": 0},
    {"batch_size": 0},
    {"num_seeds": 0},
    {"probe_epochs": 0},
    {"train_per_class": 0},
    {"test_per_cell": 0},
    {"lr": 0.0},
    {"warmup_frac": 1.0},
    {"probe_lr": 0.0},
    {"probe_lr": -1e-3},
    {"weight_decay": -0.01},
    {"d": 0},
    {"hw": 4},
    {"hw": 30},
    {"fg_per_class": 0},
    {"bg_per_group": 1},
    {"k_grid": ()},
    {"k_grid": (2, 1)},
    {"k_grid": (0, 1)},
    {"var_trials": 1},
    {"additivity_n": 0},
    {"additivity_alphas": (0.0, -0.5)},
])
def test_config_rejects_unrunnable(override):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**MINI, **override})


def test_config_rejects_untrainable_teacher():
    with pytest.raises(ConfigError, match="teacher_epochs"):
        ExperimentConfig(**{**MINI, "teacher": "learned-mlp", "teacher_epochs": 0})
    # the planted teacher is built, not trained, so its epochs are never read
    ExperimentConfig(**{**MINI, "teacher": "planted", "teacher_epochs": 0})


def test_run_matrix_fails_before_any_run(tmp_path, mini_cfg):
    # control cannot run at 2 epochs: the override fails before the first seed
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("native-lp", "bap-lp", "control"))
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, rhos=(0.3,))
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "metrics.csv").exists()


def test_run_seeds_deterministic():
    cfg = ExperimentConfig(num_seeds=5)
    seeds = run_seeds(cfg, 0)
    assert len(seeds) == 5 and len(set(seeds)) == 5
    assert seeds == run_seeds(cfg, 0)
    assert seeds != run_seeds(cfg, 1)


def test_code_hash_format():
    h = code_hash()
    assert len(h) == 16
    assert h == code_hash()
    int(h, 16)


def test_seed_context_caches(mini_cfg):
    ctx = SeedContext(mini_cfg, 123)
    assert ctx.world is ctx.world
    assert ctx.teacher is ctx.teacher
    fgs, bgs = ctx.world
    assert len(fgs) == 8 and len(bgs) == 20


def test_evaluate_method_unknown(mini_cfg):
    ctx = SeedContext(mini_cfg, 123)
    with pytest.raises(ConfigError):
        evaluate_method(ctx, "mystery", 1.0)


# ---------------------------------------------------------------------------
# subcommands on the mini config


def test_gen_data_manifests(tmp_path, mini_cfg):
    paths = cmd_gen_data(mini_cfg, 3, tmp_path)
    assert len(paths) == 1 and paths[0].exists()
    header, items = read_manifest(paths[0])
    assert header["rho"] == 1.0
    assert header["num_classes"] == 2
    assert len(items) > 0


def test_probe_additivity_table(tmp_path, mini_cfg):
    path = cmd_probe_additivity(mini_cfg, 3, tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "encoder,alpha,n,mean_S,std_S"
    assert len(lines) == 3
    means = [float(line.split(",")[3]) for line in lines[1:]]
    assert means == sorted(means, reverse=True)


def test_k_ablation_csv(tmp_path, mini_cfg):
    path = cmd_k_ablation(mini_cfg, 3, tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "K,fg_sim,bg_sim_max,var_eps,slope"
    assert len(lines) == 1 + len(mini_cfg.k_grid)
    slopes = {line.split(",")[4] for line in lines[1:]}
    assert len(slopes) == 1  # one fitted slope repeated per row


def test_run_matrix_outputs(tmp_path, mini_cfg):
    path = cmd_run_matrix(mini_cfg, 3, tmp_path)
    assert path.name == "metrics.csv"
    lines = path.read_text().strip().splitlines()
    # one row per method x rho x seed
    assert len(lines) == 1 + len(mini_cfg.methods)
    assert (tmp_path / "summary.csv").exists()
    records = sorted((tmp_path / "runs").glob("*.json"))
    assert len(records) == len(mini_cfg.methods)
    rec = json.loads(records[0].read_text())
    assert rec["code_hash"] == code_hash()
    assert "metrics" in rec and "config" in rec
    # the aligned student's per-epoch training trace rides along; native runs have none
    bap = json.loads((tmp_path / "runs" / "bap-zs-rho1-s0.json").read_text())
    assert len(bap["trace"]["epoch_loss"]) == len(bap["trace"]["epoch_lr"]) == mini_cfg.epochs
    native = json.loads((tmp_path / "runs" / "native-lp-rho1-s0.json").read_text())
    assert native["trace"] is None


def test_run_matrix_rejects_unknown_method(tmp_path, mini_cfg):
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("bap-lp", "dro"))


def test_run_matrix_byte_identical(tmp_path, mini_cfg):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_run_matrix(mini_cfg, 3, a)
    cmd_run_matrix(mini_cfg, 3, b)
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_ablate_seg(tmp_path, mini_cfg, monkeypatch):
    worlds = []

    def counting_gen_world(*args):
        worlds.append(args)
        return gen_world(*args)

    monkeypatch.setattr(cli, "gen_world", counting_gen_world)
    path = cmd_ablate(mini_cfg, 3, tmp_path, "seg")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,value,wga,avg"
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == ["perfect", "noisy", "botched", "bbox", "native-lp-baseline"]
    # the native-lp baseline is scored on the loop's context for cfg.degradation
    assert len(worlds) == len(DEGRADATIONS)
    with pytest.raises(ConfigError):
        cmd_ablate(mini_cfg, 3, tmp_path, "lr_sweep")


def test_ablate_n_sweep_runs_each_size_once(tmp_path, mini_cfg):
    # 25, 50 and 100 all exceed MINI's 4 foregrounds per class: one run, labeled 4
    path = cmd_ablate(mini_cfg, 3, tmp_path, "n_sweep")
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["N_per_class", str(mini_cfg.fg_per_class)]]


def test_report_collects_artifacts(tmp_path, mini_cfg):
    cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("lp-ft",))
    cmd_k_ablation(mini_cfg, 3, tmp_path)
    cmd_ablate(mini_cfg, 3, tmp_path, "k_train_sweep")
    path = cmd_report(tmp_path)
    text = path.read_text()
    assert "metrics: metrics.csv" in text
    assert "k_ablation: k_ablation.csv" in text
    assert "ablate_k_train_sweep: ablate_k_train_sweep.csv" in text
    assert (tmp_path / "plots" / "fig_anchor_purification.csv").exists()
    lines = (tmp_path / "plots" / "fig_finetune_degradation.csv").read_text().splitlines()
    assert lines[0] == "run_id,epoch,wga,avg"
    # one row per epoch of the single lp-ft run, epoch 0 being the frozen-probe baseline
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["lp-ft-rho1-s0", str(epoch)] for epoch in range(mini_cfg.ft_epochs + 1)]


# ---------------------------------------------------------------------------
# entry point


def test_main_gen_data(tmp_path, mini_cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(mini_cfg.to_json())
    rc = main(["gen-data", "--config", str(cfg_path), "--seed", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "dataset-rho1.jsonl").exists()


def test_main_run_matrix_subset(tmp_path, mini_cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(mini_cfg.to_json())
    rc = main(["run-matrix", "--config", str(cfg_path), "--seed", "3",
               "--out", str(tmp_path / "out"), "--methods", "native-zs",
               "--rho", "1.0"])
    assert rc == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "native-zs"


def test_all_methods_cover_matrix():
    assert set(MINI["methods"]) <= set(ALL_METHODS)
    assert len(ALL_METHODS) == 7
