"""Orchestration layer: config handling, subcommands, end-to-end determinism."""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from anchorlab import additivity, alignment, anchors, cli, encoders, evaluation, scene
from anchorlab.additivity import _PROBE_CHUNK, ProbePart
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
from anchorlab.errors import ConfigError, ContractError
from anchorlab.scene import DEGRADATIONS, gen_world, read_manifest

from conftest import param_checksum

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


needs_proc_maps = pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                                     reason="loaded libraries are found in /proc/self/maps")


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
    # each of these names run records: none may be empty, no two may share a name
    {"methods": ()},
    {"rhos": ()},
    {"additivity_alphas": ()},
    {"methods": ("native-lp", "bap-zs", "native-lp")},
    {"rhos": (1.0, 1)},
    {"rhos": (0.95, 0.9500001)},
    {"additivity_alphas": (2.0, 2)},
    {"additivity_alphas": (0.5, 0.5000001)},
    {"k_grid": (1, 1, 2)},
])
def test_config_rejects_unrunnable(override):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**MINI, **override})


def test_config_rejects_untrainable_teacher():
    with pytest.raises(ConfigError, match="teacher_epochs"):
        ExperimentConfig(**{**MINI, "teacher": "learned-mlp", "teacher_epochs": 0})
    # the planted teacher is built, not trained, so its epochs are never read
    ExperimentConfig(**{**MINI, "teacher": "planted", "teacher_epochs": 0})
    with pytest.raises(ConfigError, match="planted_alpha"):
        ExperimentConfig(**{**MINI, "teacher": "planted", "planted_alpha": -0.5})
    # and the learned teacher never reads the planted one's alpha
    ExperimentConfig(**{**MINI, "teacher": "learned-mlp", "planted_alpha": -0.5})


@pytest.mark.parametrize("text, key", [
    ('{"epochs": 2.5}', "epochs"),
    ('{"d": 2.5}', "d"),
    ('{"train_per_class": 8.5}', "train_per_class"),
    ('{"num_seeds": "2"}', "num_seeds"),
    ('{"num_seeds": true}', "num_seeds"),
    ('{"lr": "0.001"}', "lr"),
    ('{"lr": false}', "lr"),
    ('{"teacher": null}', "teacher"),
    ('{"rhos": 1.0}', "rhos"),
    ('{"rhos": [1.0, "0.95"]}', "rhos"),
    ('{"k_grid": [1, 2.0]}', "k_grid"),
    ('{"methods": ["native-lp", 3]}', "methods"),
    ('{"epochs": ', "not valid JSON"),
    ('[{"epochs": 11}]', "JSON object"),
])
def test_config_from_json_rejects_mistyped_values(text, key):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_json(text)


def test_config_from_json_reads_an_int_as_a_float():
    # seeds derive from the printed value, so a rate of 1 must become 1.0
    cfg = ExperimentConfig.from_json('{"rhos": [1, 0.95], "lr": 1}')
    assert cfg == ExperimentConfig(rhos=(1.0, 0.95), lr=1.0)
    assert [type(v) for v in (*cfg.rhos, cfg.lr)] == [float, float, float]


def test_run_matrix_fails_before_any_run(tmp_path, mini_cfg):
    # control cannot run at 2 epochs: the override fails before the first seed
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("native-lp", "bap-lp", "control"))
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, rhos=(0.3,))
    # two cells of one name would write one record and repeat its row
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("native-lp", "native-lp"))
    with pytest.raises(ConfigError):
        cmd_run_matrix(mini_cfg, 3, tmp_path, rhos=(1.0, 1))
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


def test_seed_context_resizes_each_distinct_foreground_size_once(monkeypatch):
    cfg = ExperimentConfig(**{**MINI, "teacher": "learned-mlp", "teacher_epochs": 1,
                              "epochs": 11, "methods": ALL_METHODS})
    inputs: dict[tuple, list] = {}
    real = scene.resize_sinc

    def counting(img, out_hw):
        inputs.setdefault((id(img), tuple(out_hw)), [img, 0])[1] += 1
        return real(img, out_hw)

    monkeypatch.setattr(scene, "resize_sinc", counting)
    ctx = SeedContext(cfg, 123)
    for method in ALL_METHODS:
        evaluate_method(ctx, method, 1.0)
    # the crop and the alpha of one (fg, degradation) are distinct cached arrays,
    # so a key here is one (fg, degradation, oh, ow) and one of its two planes
    counts = [n for _, n in inputs.values()]
    planes = [img.ndim for img, _ in inputs.values()]
    assert counts and set(counts) == {1}
    assert planes.count(3) == planes.count(2)
    assert ctx.memo.parts and len(ctx.memo.parts) == planes.count(3)


def test_method_table_builds_each_encoder_and_bsi_once(monkeypatch):
    cfg = ExperimentConfig(**{**MINI, "epochs": 11, "rhos": (1.0, 0.95),
                              "methods": ALL_METHODS})
    calls = []
    real_bsi, real_freeze = evaluation.bsi_protocol, encoders.freeze

    def counting_bsi(encoder, *args, **kwargs):
        calls.append("bsi")
        return real_bsi(encoder, *args, **kwargs)

    def counting_freeze(model):
        calls.append("freeze")
        return real_freeze(model)

    ctx = SeedContext(cfg, 123)
    real_encode = encoders.encode_batch

    def counting_encode(model, batch):
        if batch is ctx.test_split.rasters():
            calls.append("test split")
        return real_encode(model, batch)

    monkeypatch.setattr(evaluation, "bsi_protocol", counting_bsi)
    for module in (cli, alignment):
        monkeypatch.setattr(module, "freeze", counting_freeze)
    monkeypatch.setattr(encoders, "encode_batch", counting_encode)

    def every_method():
        return {(m, rho): evaluate_method(ctx, m, rho) for rho in cfg.rhos for m in ALL_METHODS}

    first = every_method()
    # native, control, bap and ortho once each, lp-ft once per rate; the test split
    # once per record, and once more for each of lp-ft's per-epoch evaluations
    assert calls.count("bsi") == 6
    assert calls.count("test split") == 6 + len(cfg.rhos) * (cfg.ft_epochs + 1)
    assert all(ctx.trained(name, 1.0).encoder.frozen for name, _ in cli.METHODS.values())
    calls.clear()
    assert every_method() == first
    assert calls == []


def test_encoder_major_seed_writes_the_grid_order_rows(tmp_path, monkeypatch):
    cfg = ExperimentConfig(**{**MINI, "epochs": 11, "rhos": (1.0, 0.95),
                              "methods": ALL_METHODS})
    _cpus(monkeypatch, 1)  # in this process; the split seed is compared with it below
    cmd_run_matrix(cfg, 3, tmp_path)
    run_seed = run_seeds(cfg, 3)[0]
    ctx = SeedContext(cfg, run_seed)
    records = []
    for rho in cfg.rhos:
        for method in ALL_METHODS:
            gm, bsi_value = evaluate_method(ctx, method, rho)
            records.append({"run_id": f"{method}-rho{rho:g}-s0", "method": method, "rho": rho,
                            "seed": run_seed, "metrics": cli._metrics(gm, bsi_value)})
    path = cli._write_csv(tmp_path / "grid_order.csv", cli.METRICS_HEADER,
                          map(cli._metrics_row, records))
    assert path.read_bytes() == (tmp_path / "metrics.csv").read_bytes()


def _grid_cells(cfg, i: int = 0) -> list[tuple]:
    """Seed i's (run id, method, rho, fields) cells of `cfg`'s grid, as `cmd_run_matrix`
    makes them."""
    return [(f"{m}-rho{rho:g}-s{i}", m, rho, {"run_index": i}) for rho in cfg.rhos
            for m in cfg.methods]


def _groups(cfg, *encoders) -> list[list[tuple]]:
    """Seed 0's cells of `cfg`'s grid in one group per tuple of `encoders`, encoder by
    encoder, as `_seed_jobs` groups them."""
    return [[cell for name in group for cell in _grid_cells(cfg)
             if cli.METHODS[cell[1]][0] == name] for group in encoders]


def test_run_seed_holds_one_trained_encoder_at_a_time(tmp_path, monkeypatch):
    cfg = ExperimentConfig(**{**MINI, "epochs": 11, "rhos": (1.0, 0.95),
                              "methods": ALL_METHODS})
    training, alive, alive_at_freeze = [], set(), []
    for fn_name, tag in (("train_bap", "bap"), ("train_control", "control"),
                         ("train_orthogonal", "ortho"), ("finetune_on_correlated", "lp-ft")):
        def tagged(*args, _train=getattr(alignment, fn_name), _tag=tag, **kwargs):
            training.append(_tag)
            return _train(*args, **kwargs)

        monkeypatch.setattr(alignment, fn_name, tagged)
    real_freeze = cli.freeze

    def tracking_freeze(model):
        frozen = real_freeze(model)
        if training:  # the frozen copy SeedContext keeps of a model just trained
            tag = f"{training.pop()}-{len(alive_at_freeze)}"
            alive.add(tag)
            weakref.finalize(frozen, alive.discard, tag)
            alive_at_freeze.append(sorted(alive))
        return frozen

    real_anchor_set = anchors.build_anchor_set

    def tracking_anchor_set(*args, **kwargs):
        anchor_set = real_anchor_set(*args, **kwargs)
        alive.add("anchors")
        # a dict takes no weak reference; one of its anchor arrays does
        weakref.finalize(next(iter(anchor_set.values())), alive.discard, "anchors")
        return anchor_set

    monkeypatch.setattr(cli, "freeze", tracking_freeze)
    monkeypatch.setattr(anchors, "build_anchor_set", tracking_anchor_set)
    # the seed whole, as `cmd_run_matrix` deals it on one CPU
    (job,) = cli._seed_jobs([(cfg, run_seeds(cfg, 3)[0], _grid_cells(cfg))], 1)
    cli._run_seed(tmp_path, *job)
    # lp-ft at each rate, then control, bap with its anchors, and ortho: each is
    # released before the next one trains
    assert alive_at_freeze == [["lp-ft-0"], ["lp-ft-1"], ["control-2"], ["anchors", "bap-3"],
                               ["ortho-4"]]
    assert len(list((tmp_path / "runs").iterdir())) == 2 * len(ALL_METHODS)


def test_release_drops_one_record_and_a_rebuild_matches_it():
    cfg = ExperimentConfig(**{**MINI, "epochs": 11, "rhos": (1.0, 0.95),
                              "methods": ALL_METHODS})
    ctx = SeedContext(cfg, 123)
    ft95 = ctx.trained("lp-ft", 0.95)
    for name in cli.ENCODERS:
        first = ctx.trained(name, 1.0)
        ctx.release(name, 1.0)
        again = ctx.trained(name, 1.0)
        assert again is not first
        assert param_checksum(again.encoder) == param_checksum(first.encoder)
        assert (again.bsi, again.trace) == (first.bsi, first.trace)
    # lp-ft trains one encoder per rate: releasing it at 1.0 kept the one at 0.95
    assert ctx.trained("lp-ft", 0.95) is ft95


def test_run_seed_runs_only_the_given_encoders(tmp_path):
    cfg = ExperimentConfig(**{**MINI, "epochs": 11, "methods": ALL_METHODS})
    cli._run_seed(tmp_path, cfg, run_seeds(cfg, 3)[0], _groups(cfg, ("lp-ft", "bap")))
    assert sorted(p.stem for p in (tmp_path / "runs").iterdir()) == sorted(
        f"{m}-rho1-s0" for m in ("lp-ft", "bap-lp", "bap-zs"))


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
    # every row traces back to its run record, which keeps the excluded count too
    for line in lines[1:]:
        encoder, alpha, n, mean_s, std_s = line.split(",")
        rec = json.loads((tmp_path / "runs" / f"additivity-a{float(alpha):g}.json").read_text())
        assert rec["encoder"] == encoder and rec["alpha"] == float(alpha)
        assert rec["n"] == int(n) and rec["n"] + rec["excluded"] == mini_cfg.additivity_n
        assert (f"{rec['mean_S']:.6f}", f"{rec['std_S']:.6f}") == (mean_s, std_s)
        assert rec["wall_s"] >= 0 and rec["code_hash"] == code_hash()
    assert len(list((tmp_path / "runs").iterdir())) == len(mini_cfg.additivity_alphas)


# five chunks a probe, the last one part full: two CPUs split them 2 | 3, three 1 | 2 | 2
POOLED_PROBE = dict(MINI, additivity_n=5 * _PROBE_CHUNK - 3)


def _probe_shares(monkeypatch, cpus: int) -> list[int]:
    """Make `cmd_probe_additivity` see `cpus` usable CPUs; returns the share count of
    each `_fork_shares` call it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = []
    real = cli._fork_shares
    monkeypatch.setattr(cli, "_fork_shares",
                        lambda fn, state, shares: calls.append(len(shares))
                        or real(fn, state, shares))
    return calls


@pytest.mark.parametrize("cpus", [2, 3])
def test_pooled_and_in_process_probes_agree(tmp_path, monkeypatch, cpus):
    cfg = ExperimentConfig(**POOLED_PROBE)
    assert additivity.probe_chunks(cfg.additivity_n) == 5
    forks = _cpus(monkeypatch, cpus)
    cmd_probe_additivity(cfg, 3, tmp_path / "pooled")
    assert forks == [("_probe_share", cpus)]
    # the same shares, run here in turn
    monkeypatch.setattr(cli, "_may_fork", lambda: False)
    cmd_probe_additivity(cfg, 3, tmp_path / "serial")
    assert forks == [("_probe_share", cpus)]
    pooled, serial = (tmp_path / "pooled", tmp_path / "serial")
    assert ((pooled / "additivity.csv").read_bytes()
            == (serial / "additivity.csv").read_bytes())
    names = sorted(p.name for p in (serial / "runs").iterdir())
    assert sorted(p.name for p in (pooled / "runs").iterdir()) == names
    for name in names:
        rec, serial_rec = (json.loads((out / "runs" / name).read_text())
                           for out in (pooled, serial))
        # the seconds its shares took, in whichever process ran them
        assert rec.pop("wall_s") > 0
        del serial_rec["wall_s"]
        assert rec == serial_rec


def _log_probe_work(monkeypatch, log):
    """Append `render <key> <pid>` for each `render` call of the probe and `encode <key>
    <pid>` for each encode, from whichever process makes it; a key names the items
    or the row bytes of the call."""
    def logged(name, real, key):
        def call(*args):
            with open(log, "a") as fh:
                fh.write(f"{name} {key(*args)} {os.getpid()}\n")
            return real(*args)
        return call

    monkeypatch.setattr(additivity, "render", logged(
        "render", additivity.render,
        lambda items: hash(tuple((fg.id, bg.id, scale) for fg, bg, scale in items))))
    monkeypatch.setattr(additivity, "encode_np", logged(
        "encode", additivity.encode_np, lambda model, rows: f"{model.meta['alpha']}-"
        f"{len(rows)}-{hashlib.sha256(rows.tobytes()).hexdigest()[:16]}"))


def test_a_pooled_probe_renders_and_encodes_each_chunk_once(tmp_path, monkeypatch):
    cfg = ExperimentConfig(**POOLED_PROBE)
    runs = {}
    for cpus in (2, 1):
        _probe_shares(monkeypatch, cpus)
        log = tmp_path / f"cpus{cpus}.log"
        with monkeypatch.context() as m:
            _log_probe_work(m, log)
            cmd_probe_additivity(cfg, 3, tmp_path / f"cpus{cpus}")
        runs[cpus] = [line.split() for line in log.read_text().splitlines()]
    pooled, serial = runs[2], runs[1]
    chunks = len(cfg.additivity_alphas) * 5
    # each render and encode key once, the same keys as in one process, over two pids
    for kind in ("render", "encode"):
        keys = [key for name, key, _ in pooled if name == kind]
        assert len(keys) == len(set(keys)) == chunks
        assert sorted(keys) == sorted(key for name, key, _ in serial if name == kind)
    assert {pid for *_, pid in serial} == {str(os.getpid())}
    assert len({pid for *_, pid in pooled}) == 2


def test_a_forked_probe_shares_error_reaches_the_caller(tmp_path, monkeypatch):
    real = cli.run_probe

    def share_one_fails(*args, part, **kwargs):
        if part[0] == 1:
            raise ContractError("share 1 fails")
        return real(*args, part=part, **kwargs)

    monkeypatch.setattr(cli, "run_probe", share_one_fails)
    shares = _probe_shares(monkeypatch, 2)
    with pytest.raises(ContractError, match="share 1 fails"):
        cmd_probe_additivity(ExperimentConfig(**POOLED_PROBE), 3, tmp_path)
    assert shares == [2]
    assert not (tmp_path / "additivity.csv").exists()
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("why", ["no fork", "one cpu", "one chunk"])
def test_a_probe_opens_no_pool_where_it_need_not_fork(tmp_path, monkeypatch, why):
    import concurrent.futures

    cfg = ExperimentConfig(**(MINI if why == "one chunk" else POOLED_PROBE))
    shares = _probe_shares(monkeypatch, 1 if why == "one cpu" else 2)
    if why == "no fork":
        monkeypatch.setattr(cli, "_may_fork", lambda: False)
    opened = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: opened.append(args))
    cmd_probe_additivity(cfg, 3, tmp_path)
    # shares by usable CPUs and chunks, which run here where it may not fork
    assert (shares, opened) == ([2 if why == "no fork" else 1], [])
    assert (tmp_path / "additivity.csv").exists()


def test_k_ablation_csv(tmp_path, mini_cfg):
    path = cmd_k_ablation(mini_cfg, 3, tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "K,fg_sim,bg_sim_max,var_eps,slope"
    assert len(lines) == 1 + len(mini_cfg.k_grid)
    slopes = {line.split(",")[4] for line in lines[1:]}
    assert len(slopes) == 1  # one fitted slope repeated per row


def test_k_ablation_sweeps_the_first_25_foregrounds_of_each_class(tmp_path, monkeypatch):
    swept = []

    class Swept(Exception):
        pass

    def capture(teacher, foregrounds, *args, **kwargs):
        swept.extend(fg.id for fg in foregrounds)
        raise Swept

    monkeypatch.setattr(anchors, "k_sweep", capture)
    with pytest.raises(Swept):
        cmd_k_ablation(ExperimentConfig(**{**MINI, "fg_per_class": 50}), 3, tmp_path)
    assert swept == [f"fg-{y}-{i}" for y in (0, 1) for i in range(25)]


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


def test_run_matrix_records_keep_the_per_class_bsi(tmp_path, mini_cfg):
    cmd_run_matrix(mini_cfg, 3, tmp_path)
    ctx = SeedContext(mini_cfg, run_seeds(mini_cfg, 3)[0])
    for method in mini_cfg.methods:
        m = json.loads((tmp_path / "runs" / f"{method}-rho1-s0.json").read_text())["metrics"]
        # each class's BSI beside their mean, the figure metrics.csv shows
        report = ctx.trained(cli.METHODS[method][0], 1.0).bsi
        assert m["bsi_per_class"] == {str(y): v for y, v in report.per_class.items()}
        assert sorted(m["bsi_per_class"]) == ["0", "1"] and m["bsi"] == report.mean


def test_run_matrix_records_carry_the_grid_that_ran(tmp_path, mini_cfg):
    cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("lp-ft",))
    rec = json.loads((tmp_path / "runs" / "lp-ft-rho1-s0.json").read_text())
    assert rec["config"]["methods"] == ["lp-ft"]
    assert rec["config"]["rhos"] == [1.0]


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


def _cpus(monkeypatch, n):
    """Make the commands see `n` usable CPUs; returns (function name, children) of
    each `_fork_shares` call that forked children from this process, counted by
    `os.fork` calls that returned here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks, open_calls = [], []
    real, real_fork = cli._fork_shares, os.fork

    def counted(fn, state, shares):
        open_calls.append([fn.__name__, 0])
        try:
            return real(fn, state, shares)
        finally:
            name, children = open_calls.pop()
            if children:
                forks.append((name, children))

    def fork():
        pid = real_fork()
        if pid and open_calls:  # in this process, not in the child
            open_calls[-1][1] += 1
        return pid

    monkeypatch.setattr(cli, "_fork_shares", counted)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_run_matrix_pool_and_serial_paths_agree(tmp_path, monkeypatch):
    def record(out, name):
        rec = json.loads((out / "runs" / name).read_text())
        del rec["wall_s"]
        return rec

    # three seeds on three CPUs run a seed per child; one seed on two CPUs builds its
    # base here and forks its two groups; three seeds on two CPUs run in two
    # children, the first of which splits the third seed
    for seeds, cpus, fork in ((3, 3, ("_run_seeds", 3)), (1, 2, ("_run_cells", 2)),
                              (3, 2, ("_run_seeds", 2))):
        cfg = ExperimentConfig(**{**MINI, "num_seeds": seeds, "methods": ALL_METHODS,
                                  "epochs": 11, "rhos": (1.0, 0.95)})
        outs = {}
        for n in (cpus, 1):
            forks = _cpus(monkeypatch, n)
            outs[n] = tmp_path / f"seeds{seeds}-cpus{n}"
            cmd_run_matrix(cfg, 3, outs[n])
            assert forks == ([fork] if n > 1 else [])
        pooled, serial = outs[cpus], outs[1]
        for name in ("metrics.csv", "summary.csv"):
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()
        names = sorted(p.name for p in (serial / "runs").iterdir())
        assert len(names) == seeds * 2 * len(ALL_METHODS)
        assert sorted(p.name for p in (pooled / "runs").iterdir()) == names
        for name in names:
            assert record(pooled, name) == record(serial, name)


def test_run_matrix_keeps_a_one_encoder_seed_in_process(tmp_path, mini_cfg, monkeypatch):
    forks = _cpus(monkeypatch, 2)
    cmd_run_matrix(mini_cfg, 3, tmp_path)  # bap is its one trained encoder
    assert forks == []


def test_native_prototypes_are_built_only_for_a_zero_shot_native_method(tmp_path, monkeypatch):
    calls = []
    real = anchors.compute_prototypes
    monkeypatch.setattr(anchors, "compute_prototypes",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    _cpus(monkeypatch, 1)  # in this process, where the calls are counted
    cfg = ExperimentConfig(**{**MINI, "num_seeds": 2})
    cmd_run_matrix(cfg, 3, tmp_path / "mini")  # native-lp and bap-zs
    assert calls == []
    cmd_run_matrix(cfg, 3, tmp_path / "zs", methods=(*cfg.methods, "native-zs"))
    assert len(calls) == cfg.num_seeds


WHOLE = (cli.ENCODERS,)
# by `ENCODER_COST`, 27 against 27 of the default seed's training seconds
HALVES = (("bap", "control", "native"), ("ortho", "lp-ft"))
QUARTERS = (("bap",), ("ortho",), ("lp-ft",), ("control", "native"))
GATE_METHODS = ("native-lp", "lp-ft", "control", "bap-lp")


@pytest.mark.parametrize("seeds, cpus, methods, jobs", [
    (1, 2, ALL_METHODS, [(0, HALVES)]),
    (1, 8, ALL_METHODS, [(0, QUARTERS)]),
    (1, 1, ALL_METHODS, [(0, WHOLE)]),
    (4, 2, ALL_METHODS, [(i, WHOLE) for i in range(4)]),
    (3, 8, ALL_METHODS, [(i, HALVES) for i in range(3)]),
    (1, 2, ("lp-ft",), [(0, (("lp-ft",),))]),
    (1, 2, ("native-zs", "native-lp"), [(0, (("native",),))]),
    # a partial last wave: only its seeds are split, over the CPUs the wave leaves
    (5, 2, ALL_METHODS, [(i, WHOLE) for i in range(4)] + [(4, HALVES)]),
    (3, 2, ALL_METHODS, [(0, WHOLE), (1, WHOLE), (2, HALVES)]),
    # the gate's seed 4: about 16 s against 24 s of training
    (5, 2, GATE_METHODS, [(i, (("native", "lp-ft", "control", "bap"),)) for i in range(4)]
     + [(4, (("bap", "native"), ("lp-ft", "control")))]),
    (5, 4, ALL_METHODS, [(i, WHOLE) for i in range(4)] + [(4, QUARTERS)]),
    (7, 4, ALL_METHODS, [(i, WHOLE) for i in range(7)]),
])
def test_seed_jobs_split_a_seed_by_its_trained_encoders(seeds, cpus, methods, jobs):
    cfg = ExperimentConfig(**{**MINI, "num_seeds": seeds, "methods": methods, "epochs": 11})
    seed_cells = [_grid_cells(cfg, i) for i in range(seeds)]
    dealt = cli._seed_jobs([(cfg, i, cells) for i, cells in enumerate(seed_cells)], cpus)
    assert [(i, tuple(tuple(dict.fromkeys(cli.METHODS[m][0] for _, m, _, _ in group))
                      for group in groups)) for _, i, groups in dealt] == jobs
    # each job's groups hold its cells, each cell once
    for (_, _, groups), cells in zip(dealt, seed_cells):
        assert sorted(cell[0] for group in groups for cell in group) == sorted(
            cell[0] for cell in cells)


def test_a_split_seed_that_may_not_fork_runs_its_groups_in_process(tmp_path, monkeypatch):
    cfg = ExperimentConfig(**{**MINI, "methods": ALL_METHODS, "epochs": 11})
    _cpus(monkeypatch, 1)
    cmd_run_matrix(cfg, 3, tmp_path / "one-cpu")
    forks = _cpus(monkeypatch, 2)
    groups = []
    real = cli._run_cells
    monkeypatch.setattr(cli, "_run_cells", lambda ctx, out, cells: groups.append(
        (os.getpid(), {cli.METHODS[m][0] for _, m, _, _ in cells})) or real(ctx, out, cells))
    monkeypatch.setattr(cli, "_may_fork", lambda: False)
    cmd_run_matrix(cfg, 3, tmp_path / "split")
    # the seed is split in two as on two CPUs, and both halves ran here in turn
    assert forks == []
    assert groups == [(os.getpid(), set(group)) for group in HALVES]
    for name in ("metrics.csv", "summary.csv"):
        assert ((tmp_path / "split" / name).read_bytes()
                == (tmp_path / "one-cpu" / name).read_bytes())


def _log_seed_work(monkeypatch, log):
    """Each build of a seed's world, splits and teacher appends `<name> <pid>` to the
    file `log`, and each run `run <method> <OpenBLAS's thread count> <pid>`, from
    whichever process makes it."""
    def log_calls(owner, attr, line):
        real = getattr(owner, attr)

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{line(*args)} {os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, logged)

    for owner, attr in ((cli, "gen_world"), (scene, "build_train_split"),
                        (scene, "build_test_split"), (cli, "planted_teacher")):
        log_calls(owner, attr, lambda *args, _attr=attr: _attr)
    log_calls(cli, "evaluate_method", lambda ctx, method, rho: f"run {method} "
              f"{_blas_threads()}")


@pytest.fixture(scope="module")
def split_seed_log(tmp_path_factory):
    """One seed of every method on two rates, run as `HALVES` from this process, as
    `cmd_run_matrix` runs a split seed: this pid, the run ids and the lines
    `_log_seed_work` wrote."""
    cfg = ExperimentConfig(**{**MINI, "methods": ALL_METHODS, "epochs": 11,
                              "rhos": (1.0, 0.95)})
    out = tmp_path_factory.mktemp("split-seed")
    log = out / "calls.log"
    with pytest.MonkeyPatch.context() as m, cli._one_blas_thread():
        assert cli._may_fork()
        _log_seed_work(m, log)
        cli._run_seed(out, cfg, run_seeds(cfg, 3)[0], _groups(cfg, *HALVES))
    ids = [p.stem for p in (out / "runs").iterdir()]
    return os.getpid(), ids, [line.split() for line in log.read_text().splitlines()]


def test_a_split_seed_builds_its_world_splits_and_teacher_once(split_seed_log):
    pid, ids, lines = split_seed_log
    builds = [(name, int(at)) for name, at, *_ in lines if name != "run"]
    assert sorted(builds) == sorted([("gen_world", pid), ("build_train_split", pid),
                                     ("build_train_split", pid), ("build_test_split", pid),
                                     ("planted_teacher", pid)])
    # every build comes before the first run, and both groups' runs came back
    assert [name for name, *_ in lines[:len(builds)]] == [name for name, _ in builds]
    assert sorted(ids) == sorted(f"{m}-rho{rho:g}-s0" for rho in (1.0, 0.95)
                                 for m in ALL_METHODS)


def test_the_forked_group_runs_with_single_threaded_blas(split_seed_log):
    pid, _, lines = split_seed_log
    runs = {(method, int(at), blas) for name, method, blas, at in
            (line for line in lines if line[0] == "run")}
    # each group ran in its own child, while this process waited, on the one BLAS
    # thread the child inherited
    at = {group: {at for m, at, _ in runs if cli.METHODS[m][0] in group} for group in HALVES}
    assert all(len(pids) == 1 for pids in at.values())
    assert len(set.union(*at.values()) - {pid}) == 2
    assert {m for m, _, _ in runs} == set(ALL_METHODS)
    assert {blas for _, _, blas in runs} == {"1"}


def _blas_threads() -> int:
    """OpenBLAS's own thread count in this process."""
    (get, _, _), *_ = cli._openblas_threads()
    return get()


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


def _worker_state(state, k) -> tuple[int, int, int]:
    return os.getppid(), _blas_threads(), _os_threads()


def _log_forks(monkeypatch, log):
    """Make every `os.fork`, in this process or a child, first append `<pid> <OS
    threads>` of the forking process to the file `log`; returns a reader of the
    (pid, threads) pairs logged so far."""
    real = os.fork

    def logged():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {_os_threads()}\n")
        return real()

    monkeypatch.setattr(os, "fork", logged)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@needs_proc_maps
def test_seed_workers_are_forked_from_a_single_threaded_caller(tmp_path, monkeypatch):
    (get, set_threads, _), *_ = cli._openblas_threads()
    before = get()
    set_threads(2)
    try:
        forks = _log_forks(monkeypatch, tmp_path / "forks.log")
        with cli._one_blas_thread():
            seen = cli._fork_shares(_worker_state, None, [(0,), (1,)])
        # one child per share, forked while this process ran one OS thread; a child
        # inherits OpenBLAS on one thread and starts no other thread
        assert forks() == [(os.getpid(), 1)] * 2
        assert seen == [(os.getpid(), 1, 1)] * 2
        assert get() == 2
    finally:
        set_threads(before)


def _nested_share(state, k):
    """A share that forks two shares of its own: its pid, its parent's pid, whether
    it may fork, and what `_worker_state` saw in each of its children."""
    may_fork = cli._may_fork()
    return os.getpid(), os.getppid(), may_fork, cli._fork_shares(_worker_state, None,
                                                                 [(0,), (1,)])


@needs_proc_maps
def test_a_share_forks_its_own_shares_from_a_single_threaded_child(tmp_path, monkeypatch):
    forks = _log_forks(monkeypatch, tmp_path / "forks.log")
    with cli._one_blas_thread():
        seen = cli._fork_shares(_nested_share, None, [(0,), (1,)])
    pid = os.getpid()
    children = [child for child, *_ in seen]
    assert len(set(children)) == 2 and pid not in children
    for child, parent, may_fork, inner in seen:
        # the grandchildren's parent is that share's child, itself forked from here
        assert (parent, may_fork) == (pid, True)
        assert inner == [(child, 1, 1)] * 2
    # every fork, here or in a child, came while the forking process ran one OS thread
    assert sorted(forks()) == sorted([(pid, 1)] * 2 + [(child, 1) for child in children] * 2)


def test_run_matrix_reraises_a_seed_workers_error(tmp_path, monkeypatch):
    # lr=1e38 passes validation; the first aligned student's weights then overflow.
    # Two seeds run a seed per child; one seed training two encoders is split: this
    # process builds its base and forks both groups.
    for seeds, methods, fork in ((2, MINI["methods"], ("_run_seeds", 2)),
                                 (1, ("native-lp", "bap-zs", "lp-ft"), ("_run_cells", 2))):
        cfg = ExperimentConfig(**{**MINI, "lr": 1e38, "num_seeds": seeds, "methods": methods})
        out = tmp_path / f"seeds{seeds}"
        forks = _cpus(monkeypatch, 2)
        with pytest.raises(ContractError):
            cmd_run_matrix(cfg, 3, out)
        assert forks == [fork]
        assert not (out / "metrics.csv").exists()
        assert list(out.rglob("*.tmp")) == []


def test_a_forked_groups_error_reaches_the_caller_with_its_type(tmp_path):
    # native runs in one child; bap, which overflows at lr=1e38, in the other
    cfg = ExperimentConfig(**{**MINI, "lr": 1e38})
    with cli._one_blas_thread(), pytest.raises(ContractError):
        cli._run_seed(tmp_path, cfg, run_seeds(cfg, 3)[0], _groups(cfg, ("native",), ("bap",)))
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["native-lp-rho1-s0.json"]


def _dies_at_share_one(state, k):
    if k == 1:
        os._exit(1)
    return k


def test_a_dead_child_fails_the_run_rather_than_hang(tmp_path, monkeypatch):
    with cli._one_blas_thread(), pytest.raises(BrokenProcessPool):
        cli._fork_shares(_dies_at_share_one, None, [(0,), (1,)])
    # two seeds, a seed per child: the second child ends before its first run
    cfg = ExperimentConfig(**{**MINI, "num_seeds": 2})
    real = cli._run_seed
    monkeypatch.setattr(cli, "_run_seed", lambda out, cfg, run_seed, groups: os._exit(1)
                        if run_seed == run_seeds(cfg, 3)[1] else real(out, cfg, run_seed, groups))
    forks = _cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        cmd_run_matrix(cfg, 3, tmp_path)
    assert forks == [("_run_seeds", 2)]
    assert not (tmp_path / "metrics.csv").exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def _sleeps(state, k):
    """A share that names its pid in the directory `state`, then sleeps."""
    (Path(state) / f"{os.getpid()}.pid").touch()
    time.sleep(60)


def _sleeps_or_dies(state, k):
    """Share 0 forks two `_sleeps` shares; share 1 dies once both have named their pids."""
    if k == 0:
        return cli._fork_shares(_sleeps, state, [(0,), (1,)])
    while len(list(Path(state).glob("*.pid"))) < 2:
        time.sleep(0.01)
    os._exit(1)


def _pids_named(directory, n: int, seconds: float = 60.0) -> list[int]:
    deadline = time.monotonic() + seconds
    while len(pids := [int(p.stem) for p in Path(directory).glob("*.pid")]) < n:
        assert time.monotonic() < deadline, f"{len(pids)} of {n} shares started"
        time.sleep(0.01)
    return pids


def _still_running(pids, seconds: float = 2.0) -> list[int]:
    """Those of `pids` that are neither gone nor a zombie `seconds` from now; each is
    then killed, so that a failing test leaves nothing running."""
    def running(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + seconds
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


@needs_proc_maps
def test_a_terminated_childs_own_children_die_with_it(tmp_path):
    # share 1's death breaks the pool, which SIGTERMs share 0's child; that child's
    # two children must not outlive it
    with cli._one_blas_thread(), pytest.raises(BrokenProcessPool):
        cli._fork_shares(_sleeps_or_dies, str(tmp_path), [(0,), (1,)])
    assert _still_running(_pids_named(tmp_path, 2)) == []


@needs_proc_maps
def test_the_children_of_a_killed_caller_die_with_it(tmp_path):
    script = tmp_path / "caller.py"
    script.write_text(
        "import os, sys, time\n"
        "from pathlib import Path\n"
        "from anchorlab import cli\n"
        "def sleeps(state, k):\n"
        "    (Path(state) / f'{os.getpid()}.pid').touch()\n"
        "    time.sleep(60)\n"
        "with cli._one_blas_thread():\n"
        "    cli._fork_shares(sleeps, sys.argv[1], [(0,), (1,)])\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    caller = subprocess.Popen([sys.executable, str(script), str(tmp_path)], env=env)
    try:
        pids = _pids_named(tmp_path, 2)
    finally:
        caller.kill()
        caller.wait()
    assert caller.pid not in pids
    assert _still_running(pids) == []


def test_a_child_whose_parent_is_gone_ends_at_once():
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    for parent, exitcode in ((os.getpid(), 0), (-1, 1)):
        child = fork.Process(target=cli._inherit, args=(None, None, parent))
        child.start()
        child.join(30)
        assert child.exitcode == exitcode


@needs_proc_maps
def test_run_matrix_pools_from_a_script_without_a_main_guard(tmp_path, monkeypatch):
    # the children are forked, so nothing imports the script again
    script = tmp_path / "grid.py"
    script.write_text(
        "import os, sys\n"
        "from anchorlab import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "real = cli._fork_shares\n"
        "def counted(fn, state, shares):\n"
        "    if len(shares) > 1:\n"
        "        print(fn.__name__, len(shares), flush=True)\n"
        "    return real(fn, state, shares)\n"
        "cli._fork_shares = counted\n"
        f"cfg = cli.ExperimentConfig(**{dict(MINI, num_seeds=2)!r})\n"
        "cli.cmd_run_matrix(cfg, 3, sys.argv[1])\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(script), str(tmp_path / "pooled")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["_run_seeds", "2"]
    _cpus(monkeypatch, 1)
    cmd_run_matrix(ExperimentConfig(**{**MINI, "num_seeds": 2}), 3, tmp_path / "serial")
    assert ((tmp_path / "pooled" / "metrics.csv").read_bytes()
            == (tmp_path / "serial" / "metrics.csv").read_bytes())


@pytest.mark.parametrize("why", ["a live thread", "no openblas found"])
def test_run_matrix_stays_in_process_where_it_may_not_fork(tmp_path, monkeypatch, why):
    cfg = ExperimentConfig(**{**MINI, "num_seeds": 2})
    _cpus(monkeypatch, 1)
    cmd_run_matrix(cfg, 3, tmp_path / "serial")
    forks = _cpus(monkeypatch, 2)
    with contextlib.ExitStack() as stack:
        if why == "a live thread":
            release = threading.Event()
            thread = threading.Thread(target=release.wait)
            thread.start()
            stack.callback(thread.join)
            stack.callback(release.set)
        else:
            # one OS thread, as in the real block, but no OpenBLAS to be found
            stack.enter_context(cli._one_blas_thread())
            monkeypatch.setattr(cli, "_openblas_threads", lambda: [])
        cmd_run_matrix(cfg, 3, tmp_path / "two-cpus")
    assert forks == []
    for name in ("metrics.csv", "summary.csv"):
        assert ((tmp_path / "two-cpus" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())


def test_a_pooled_run_matrix_forks_without_a_deprecation_warning(tmp_path, monkeypatch):
    # Python >= 3.12 warns when a process with more than one thread forks
    forks = _cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        cmd_run_matrix(ExperimentConfig(**{**MINI, "num_seeds": 2}), 3, tmp_path)
    assert forks == [("_run_seeds", 2)]


def test_run_record_is_written_whole_or_not_at_all(tmp_path, mini_cfg, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        cmd_run_matrix(mini_cfg, 3, tmp_path)
    assert list((tmp_path / "runs").iterdir()) == []


def test_csv_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    path = cli._write_csv(tmp_path / "metrics.csv", ("a", "b"), [[1, 2]])
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        cli._write_csv(path, ("a", "b"), [[3, 4], [5, 6]])
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# BLAS threads

@needs_proc_maps
def test_the_openblas_numpy_loaded_is_found():
    # a renamed thread setter in a later numpy fails here, rather than leaving
    # probe-additivity and gen-data on BLAS threads that spin between products
    assert cli._openblas_threads()


@needs_proc_maps
def test_one_blas_thread_pins_the_block_and_restores_the_count():
    (get, set_threads, _), *_ = cli._openblas_threads()
    before = get()
    set_threads(2)
    try:
        with cli._one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError, match="boom"), cli._one_blas_thread():
            assert get() == 1
            raise RuntimeError("boom")
        assert get() == 2
    finally:
        set_threads(before)


def test_one_blas_thread_without_openblas_is_a_no_op(monkeypatch):
    libs = cli._openblas_threads()
    before = [get() for get, _, _ in libs]
    for _, set_threads, _ in libs:
        set_threads(2)
    try:
        monkeypatch.setattr(cli, "_openblas_threads", lambda: [])
        with cli._one_blas_thread():
            assert [get() for get, _, _ in libs] == [2] * len(libs)
    finally:
        for (_, set_threads, _), count in zip(libs, before):
            set_threads(count)


@needs_proc_maps
def test_the_training_commands_train_on_one_blas_thread(tmp_path, mini_cfg, monkeypatch):
    trained = []
    for fn_name in ("pretrain_teacher", "train_bap"):
        def logged(*args, _real=getattr(alignment, fn_name), _name=fn_name, **kwargs):
            trained.append((_name, _blas_threads()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(alignment, fn_name, logged)
    _cpus(monkeypatch, 1)  # ablate in this process, where the training calls are logged
    (get, set_threads, _), *_ = cli._openblas_threads()
    before = get()
    set_threads(2)
    try:
        cmd_k_ablation(ExperimentConfig(**{**MINI, "teacher": "learned-mlp",
                                           "teacher_epochs": 1}), 3, tmp_path)
        cmd_ablate(mini_cfg, 3, tmp_path, "k_train_sweep")
        assert get() == 2
    finally:
        set_threads(before)
    assert trained == [("pretrain_teacher", 1)] + [("train_bap", 1)] * 5


def test_one_blas_thread_keeps_every_bit(tmp_path, mini_cfg, monkeypatch):
    def run(out):
        tables = [*cmd_gen_data(mini_cfg, 3, out), cmd_probe_additivity(mini_cfg, 3, out)]
        records = [json.loads(p.read_text()) for p in sorted((out / "runs").glob("*.json"))]
        return [p.read_bytes() for p in tables], [(r["mean_S"], r["std_S"]) for r in records]

    pinned = run(tmp_path / "pinned")
    monkeypatch.setattr(cli, "_one_blas_thread", contextlib.nullcontext)
    assert run(tmp_path / "default") == pinned


def test_ablate_seg(tmp_path, mini_cfg, monkeypatch):
    worlds = []

    def counting_gen_world(*args):
        worlds.append(args)
        return gen_world(*args)

    monkeypatch.setattr(cli, "gen_world", counting_gen_world)
    _cpus(monkeypatch, 1)  # in this process, where the worlds are counted
    path = cmd_ablate(mini_cfg, 3, tmp_path, "seg")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,value,wga,avg"
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == ["perfect", "noisy", "botched", "bbox", "native-lp-baseline"]
    # the native-lp baseline is scored on the context of the cfg.degradation point
    assert len(worlds) == len(DEGRADATIONS)
    # each bap record carries its student's training trace; native trained nothing
    for value in values:
        rec = json.loads((tmp_path / "runs" / f"ablate-seg-degradation-{value}.json").read_text())
        if value == "native-lp-baseline":
            assert rec["trace"] is None
        else:
            assert len(rec["trace"]["epoch_loss"]) == len(rec["trace"]["epoch_lr"]) == 2
    with pytest.raises(ConfigError):
        cmd_ablate(mini_cfg, 3, tmp_path, "lr_sweep")


@pytest.mark.parametrize("which", ["seg", "k_train_sweep"])
def test_forked_and_in_process_ablations_agree(tmp_path, mini_cfg, monkeypatch, which):
    outs = {}
    for cpus in (2, 1):
        forks = _cpus(monkeypatch, cpus)
        outs[cpus] = tmp_path / f"cpus{cpus}"
        cmd_ablate(mini_cfg, 3, outs[cpus], which)
        # on two CPUs the points run in two children, in turn in each
        assert forks == ([("_run_seeds", 2)] if cpus == 2 else [])
    forked, serial = outs[2], outs[1]
    table = f"ablate_{which}.csv"
    assert (forked / table).read_bytes() == (serial / table).read_bytes()
    names = sorted(p.name for p in (serial / "runs").iterdir())
    assert sorted(p.name for p in (forked / "runs").iterdir()) == names
    for name in names:
        rec, serial_rec = (json.loads((out / "runs" / name).read_text()) for out in outs.values())
        del rec["wall_s"], serial_rec["wall_s"]
        assert rec == serial_rec


def test_ablate_n_sweep_runs_each_size_once(tmp_path, mini_cfg):
    # 25, 50 and 100 all exceed MINI's 4 foregrounds per class: one run, labeled 4
    path = cmd_ablate(mini_cfg, 3, tmp_path, "n_sweep")
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["N_per_class", str(mini_cfg.fg_per_class)]]


def test_metrics_csv_header_and_format(tmp_path):
    # class 1 has no item in group 0: its cell is written blank
    gm = evaluation.group_metrics(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]),
                                  np.array([0, 1, 1, 1]))
    rec = {"run_id": "r1", "method": "bap-lp", "rho": 0.95, "seed": 7,
           "metrics": cli._metrics(gm, evaluation.BsiReport(per_class={0: 1.0, 1: 1.5},
                                                            mean=1.25))}
    path = cli._write_csv(tmp_path / "metrics.csv", cli.METRICS_HEADER, [cli._metrics_row(rec)])
    assert path.read_text().splitlines() == [
        "run_id,method,rho,avg,wga,acc_00,acc_01,acc_10,acc_11,bsi,seed",
        "r1,bap-lp,0.95,1.0000,1.0000,1.0000,1.0000,,1.0000,1.2500,7"]


def test_additivity_csv_header_and_format(tmp_path, mini_cfg, monkeypatch):
    def fixed_probe(teacher, fgs, bgs, n, seed, part):
        assert part == (0, 1)  # the mini probe is one chunk
        score = 1.0 if teacher.meta["alpha"] == 2.0 else 0.5
        return ProbePart(scores=np.full(n, score), excluded=0)

    monkeypatch.setattr(cli, "run_probe", fixed_probe)
    path = cmd_probe_additivity(mini_cfg, 3, tmp_path)
    # rows rank by score, highest first; alpha keeps its config form
    assert path.read_text().splitlines() == [
        "encoder,alpha,n,mean_S,std_S",
        "planted-a2,2.0,16,1.000000,0.000000",
        "planted-a0,0.0,16,0.500000,0.000000"]


def _table(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_every_table_row_is_its_record_formatted(tmp_path, mini_cfg):
    cmd_run_matrix(mini_cfg, 3, tmp_path)
    cmd_probe_additivity(mini_cfg, 3, tmp_path)
    cmd_k_ablation(mini_cfg, 3, tmp_path)
    cmd_ablate(mini_cfg, 3, tmp_path, "k_train_sweep")

    def records(pattern):
        return {p.stem: json.loads(p.read_text())
                for p in (tmp_path / "runs").glob(f"{pattern}.json")}

    matrix = records("*-rho*-s*")
    rows = _table(tmp_path / "metrics.csv")
    assert len(rows) == len(matrix) == len(mini_cfg.methods)
    for row in rows:
        rec = matrix[row[0]]
        m = rec["metrics"]
        assert row == [rec["run_id"], rec["method"], f"{rec['rho']:g}", f"{m['avg']:.4f}",
                       f"{m['wga']:.4f}", *(f"{m['per_group'][c]:.4f}"
                                            for c in ("00", "01", "10", "11")),
                       f"{m['bsi']:.4f}", str(rec["seed"])]

    additivity = records("additivity-a*")
    rows = _table(tmp_path / "additivity.csv")
    assert len(rows) == len(additivity) == len(mini_cfg.additivity_alphas)
    for row in rows:
        rec = additivity[f"additivity-a{float(row[1]):g}"]
        assert row == [rec["encoder"], str(rec["alpha"]), str(rec["n"]),
                       f"{rec['mean_S']:.6f}", f"{rec['std_S']:.6f}"]

    k_sweep = records("k-ablation-K*")
    rows = _table(tmp_path / "k_ablation.csv")
    assert len(rows) == len(k_sweep) == len(mini_cfg.k_grid)
    for row in rows:
        rec = k_sweep[f"k-ablation-K{row[0]}"]
        assert row == [str(rec["K"]), f"{rec['fg_sim']:.6f}", f"{rec['bg_sim_max']:.6f}",
                       f"{rec['var_eps']:.8g}", f"{rec['slope']:.4f}"]

    ablation = records("ablate-k_train_sweep-*")
    rows = _table(tmp_path / "ablate_k_train_sweep.csv")
    assert len(rows) == len(ablation) == 5
    for row in rows:
        rec = ablation[f"ablate-k_train_sweep-K-{row[1]}"]
        assert row == [rec["param"], str(rec["value"]), f"{rec['metrics']['wga']:.4f}",
                       f"{rec['metrics']['avg']:.4f}"]
        # the record holds the swept config, not the one the sweep started from
        assert rec["config"]["K"] == rec["value"] and rec["method"] == "bap-lp"


def test_report_collects_artifacts(tmp_path, mini_cfg):
    cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("lp-ft",))
    cmd_k_ablation(mini_cfg, 3, tmp_path)
    cmd_ablate(mini_cfg, 3, tmp_path, "k_train_sweep")
    path = cmd_report(tmp_path)
    text = path.read_text()
    assert "metrics: metrics.csv" in text
    assert "k_ablation: k_ablation.csv" in text
    assert "ablate_k_train_sweep: ablate_k_train_sweep.csv" in text
    # a figure analog whose data is a table in --out is named, not copied
    assert "  fig_anchor_purification: k_ablation.csv\n" in text
    assert "  fig_finetune_degradation: plots/fig_finetune_degradation.csv\n" in text
    assert [p.name for p in (tmp_path / "plots").iterdir()] == ["fig_finetune_degradation.csv"]
    lines = (tmp_path / "plots" / "fig_finetune_degradation.csv").read_text().splitlines()
    assert lines[0] == "run_id,epoch,wga,avg"
    # one row per epoch of the single lp-ft run, epoch 0 being the frozen-probe baseline
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["lp-ft-rho1-s0", str(epoch)] for epoch in range(mini_cfg.ft_epochs + 1)]


def test_report_traces_only_the_runs_behind_metrics_csv(tmp_path, mini_cfg):
    plot = tmp_path / "plots" / "fig_finetune_degradation.csv"
    cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("lp-ft",))
    cmd_report(tmp_path)
    assert plot.exists()
    # a second run into the same --out leaves the lp-ft record behind, but not in metrics.csv
    cmd_run_matrix(mini_cfg, 3, tmp_path, methods=("native-lp",))
    assert (tmp_path / "runs" / "lp-ft-rho1-s0.json").exists()
    text = cmd_report(tmp_path).read_text()
    assert not plot.exists()
    assert "  fig_finetune_degradation\n" in text.split("missing artifacts:")[1]


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


@pytest.mark.parametrize("config, flags", [
    ('{"epochs": 2.5}', []),
    ('{"epochs": ', []),
    (None, []),  # no config file at the path
    (ExperimentConfig(**MINI).to_json(), ["--rho", "abc"]),
    (ExperimentConfig(**MINI).to_json(), ["--methods", "dro"]),
    # an empty flag value is an error, not the config's default grid
    (ExperimentConfig(**MINI).to_json(), ["--methods", ""]),
    (ExperimentConfig(**MINI).to_json(), ["--rho", ""]),
])
def test_main_reports_a_bad_config_and_writes_nothing(tmp_path, capsys, config, flags):
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(config)
    out = tmp_path / "out"
    rc = main(["run-matrix", "--config", str(cfg_path), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert err.startswith("anchorlab: error: ") and "Traceback" not in err


def test_all_methods_cover_matrix():
    assert set(MINI["methods"]) <= set(ALL_METHODS)
    assert len(ALL_METHODS) == 7
