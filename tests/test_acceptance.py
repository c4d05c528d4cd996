"""Acceptance gate: one test per criterion, run on the default configuration.

The end-to-end criteria read the run records of one `run-matrix` call on the
default configuration, made by a module fixture; the criteria that probe seed
0's world, teacher and students share one in-process `SeedContext`; the
remaining criteria use small dedicated worlds or exact oracles.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from anchorlab import alignment, anchors, evaluation
from anchorlab import tensor as T
from anchorlab.additivity import merge_parts
from anchorlab.cli import ExperimentConfig, SeedContext, cmd_run_matrix, evaluate_method, run_seeds
from anchorlab.encoders import (
    clone_unfrozen,
    encode_batch,
    encode_np,
    freeze,
    init_encoder,
    planted_teacher,
)
from anchorlab.errors import ConfigError
from anchorlab.rng import derive_seed, rng
from anchorlab.scene import (
    ANCHOR_SCALE,
    RenderMemo,
    composite,
    degrade_mask,
    gen_world,
    make_composite,
    threshold_mask,
)
from anchorlab.tensor import GradTape, Tensor

from test_additivity import exact_probe
from test_evaluation import retention_eval
from test_scene import HAND_MASKS, _brute_morph

GLOBAL_SEED = 0


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def probe_world():
    """Mid-sized planted-teacher world for the additivity and anchor criteria."""
    fgs, bgs = gen_world(derive_seed(GLOBAL_SEED, "accept-world"), 2, 2, 25, 150, (64, 64))
    teacher = planted_teacher(derive_seed(GLOBAL_SEED, "accept-teacher"), d=64,
                              input_hw=(64, 64), alpha=0.0)
    return fgs, bgs, teacher


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """The default configuration's multi-seed grid, run by the lab's own `run-matrix`.

    Per seed: worst-group accuracies for the native probe, the aligned
    student's probe at both correlation rates and the data-matched control,
    plus background-sensitivity indices for the three encoder states.  Each
    number is the full-precision float of its run record, not the rounded
    `metrics.csv` cell.
    """
    cfg = ExperimentConfig(methods=("native-lp", "lp-ft", "control", "bap-lp"))
    out = tmp_path_factory.mktemp("matrix")
    t0 = time.perf_counter()
    cmd_run_matrix(cfg, GLOBAL_SEED, out)
    wall = time.perf_counter() - t0

    def metric(method, rho, i, key):
        rec = json.loads((out / "runs" / f"{method}-rho{rho:g}-s{i}.json").read_text())
        return rec["metrics"][key]

    seeds = range(cfg.num_seeds)
    wga_cells = (("native-lp", 1.0), ("bap-lp", 1.0), ("control", 1.0), ("bap-lp", 0.95))
    rows = [tuple(metric(method, rho, i, "wga") for method, rho in wga_cells) for i in seeds]
    bsis = {name: [metric(method, 1.0, i, "bsi") for i in seeds]
            for name, method in (("bap", "bap-lp"), ("control", "control"), ("lp-ft", "lp-ft"))}
    return {"rows": rows, "bsis": bsis, "wall": wall}


@pytest.fixture(scope="module")
def ctx0():
    """Seed 0 of the default configuration, built in this process, for the criteria
    that probe one seed's world, teacher and students."""
    cfg = ExperimentConfig()
    return SeedContext(cfg, run_seeds(cfg, GLOBAL_SEED)[0])


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def _np_gelu(a):
    c = math.sqrt(2 / math.pi)
    return 0.5 * a * (1 + np.tanh(c * (a + 0.044715 * a**3)))


def _forward64(arch, params, batch):
    """Float64 mirror of the encoder forward passes, the FD reference."""
    B = batch.shape[0]
    if arch == "linear":
        z = batch.reshape(B, -1) @ params["W"]
    else:
        h = _np_gelu(batch.reshape(B, -1) @ params["W1"] + params["b1"])
        z = h @ params["W2"] + params["b2"]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _primitive_checks(seed):
    """Max FD relative error over every autodiff primitive the lab differentiates, at
    one seed."""
    g = np.random.default_rng(seed)
    worst = 0.0

    def check(build, np_fn, x0):
        nonlocal worst
        x = Tensor(x0.astype(np.float32), requires_grad=True)
        with GradTape() as tape:
            tape.backward(build(x))
        x64 = x0.astype(np.float64)
        flat = x64.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            hi = np_fn(x64)
            flat[i] = orig - 1e-5
            lo = np_fn(x64)
            flat[i] = orig
            fd[i] = (hi - lo) / 2e-5
        rel = np.abs(x.grad.reshape(-1).astype(np.float64) - fd) / np.maximum(np.abs(fd), 1e-2)
        worst = max(worst, float(rel.max()))

    c = g.uniform(0.5, 2.0, size=(3, 4))
    x0 = g.uniform(0.3, 1.5, size=(3, 4))
    cf = c.astype(np.float32)
    check(lambda x: T.tsum(x + Tensor(cf)), lambda a: (a + c).sum(), x0)
    check(lambda x: T.tsum(Tensor(cf) - x), lambda a: (c - a).sum(), x0)
    check(lambda x: T.tsum(x * Tensor(cf)), lambda a: (a * c).sum(), x0)
    w = g.standard_normal((4, 2))
    check(lambda x: T.tsum(T.matmul(x, Tensor(w.astype(np.float32)))),
          lambda a: (a @ w).sum(), x0)
    # the row sum without keepdims, as `alignment.cosine_loss` reduces
    check(lambda x: T.tmean(T.tsum(x * Tensor(cf), axis=1)),
          lambda a: (a * c).sum(axis=1).mean(), x0)
    check(lambda x: T.tmean(x), lambda a: a.mean(), x0)
    check(lambda x: T.tsum(T.reshape(x, (12,)) * Tensor(np.arange(12, dtype=np.float32))),
          lambda a: (a.reshape(12) * np.arange(12)).sum(), x0)
    check(lambda x: T.tsum(T.gelu(x)), lambda a: _np_gelu(a).sum(), x0)
    check(lambda x: T.tsum(T.texp(x)), lambda a: np.exp(a).sum(), x0)
    check(lambda x: T.tsum(T.tlog(x)), lambda a: np.log(a).sum(), x0)
    t = g.standard_normal(5)
    v0 = g.uniform(0.3, 1.5, size=5)
    check(lambda x: T.tsum(T.l2_normalize(x) * Tensor(t.astype(np.float32))),
          lambda a: float(a / np.linalg.norm(a) @ t), v0)
    labels = np.array([0, 2, 1])

    def np_ce(a):
        z = a - a.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        return float((lse - z[np.arange(3), labels]).mean())

    check(lambda x: T.softmax_cross_entropy(x, labels), np_ce, x0)
    return worst


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, _primitive_checks(seed))
        for arch in ("linear", "mlp"):
            hw = (8, 8)
            # the linear model is the trainable clone of a planted teacher
            model = (clone_unfrozen(planted_teacher(1000 + seed, d=4, input_hw=hw))
                     if arch == "linear" else init_encoder(1000 + seed, d=4, input_hw=hw))
            g = np.random.default_rng(seed)
            batch = g.uniform(0, 1, size=(2, *hw, 3)).astype(np.float32)
            target = g.standard_normal((2, 4))
            p64 = {k: v.data.astype(np.float64) for k, v in model.params.items()}
            b64 = batch.astype(np.float64)

            def loss64():
                return float((_forward64(arch, p64, b64) * target).sum())

            with GradTape() as tape:
                embs = encode_batch(model, batch)
                tape.backward(T.tsum(embs * Tensor(target.astype(np.float32))))
            for name, p in model.params.items():
                flat = p64[name].reshape(-1)
                gflat = p.grad.reshape(-1)
                for i in g.choice(flat.size, size=min(3, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + 1e-5
                    hi = loss64()
                    flat[i] = orig - 1e-5
                    lo = loss64()
                    flat[i] = orig
                    fd = (hi - lo) / 2e-5
                    worst = max(worst, abs(gflat[i] - fd) / max(abs(fd), 1e-2))
    wall = time.perf_counter() - t0
    assert worst < 1e-3 and wall < 10.0, \
        f"max FD relative error {worst:.2e} in {wall:.1f}s (need < 1e-3 in < 10s)"


# ---------------------------------------------------------------------------
# criterion 2: additivity exactness on the planted linear teacher


def test_additivity_exact_and_monotone(probe_world):
    t0 = time.perf_counter()
    fgs, bgs, _ = probe_world
    means = []
    exact_dev = None
    for alpha in (0.0, 0.5, 2.0):
        teacher = planted_teacher(derive_seed(GLOBAL_SEED, "accept-teacher"), d=64,
                                  input_hw=(64, 64), alpha=alpha)
        part = exact_probe(teacher, fgs, bgs, 1000,
                           derive_seed(GLOBAL_SEED, "accept-additivity"))
        means.append(merge_parts([part]).mean)
        if alpha == 0.0:
            exact_dev = float(np.abs(part.scores - 1.0).max())
    wall = time.perf_counter() - t0
    assert exact_dev < 1e-5 and means[0] > means[1] > means[2] and wall < 60.0, \
        (f"alpha=0 max |S-1| {exact_dev:.2e} (need < 1e-5); "
         f"mean S over alphas {[f'{m:.4f}' for m in means]} must strictly decrease; "
         f"{wall:.0f}s (need < 60s)")


# ---------------------------------------------------------------------------
# criterion 3: 1/K decay of the background residual variance


def estimate_mu_bg(teacher, bg_pool, n_samples: int, seed: int) -> np.ndarray:
    """Unnormalized arithmetic mean of n unit background embeddings.

    Its norm is a cone-width diagnostic: near 1 means the background
    embeddings crowd a narrow cone, near 0 means they spread out.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    g = rng(seed, "mu-bg")
    if n_samples <= len(bg_pool):
        idx = g.choice(len(bg_pool), size=n_samples, replace=False)
    else:
        idx = g.integers(0, len(bg_pool), size=n_samples)
    acc = np.zeros(teacher.d, dtype=np.float64)
    for i in range(0, n_samples, 512):
        chunk = [bg_pool[j] for j in idx[i : i + 512]]
        embs = encode_np(teacher, np.stack([b.raster for b in chunk]))
        acc += embs.astype(np.float64).sum(axis=0)
    return acc / n_samples


def test_estimate_mu_bg_full_pool_oracle(micro_world, micro_teacher):
    _, bgs = micro_world
    mu = estimate_mu_bg(micro_teacher, bgs, len(bgs), 5)
    expected = anchors.background_embeddings(micro_teacher, bgs).astype(np.float64).mean(axis=0)
    assert np.allclose(mu, expected, atol=1e-6)
    assert np.linalg.norm(mu) <= 1.0 + 1e-6
    with pytest.raises(ConfigError):
        estimate_mu_bg(micro_teacher, bgs, 0, 5)


def test_residual_variance_decays_one_over_k(probe_world):
    t0 = time.perf_counter()
    _, bgs, teacher = probe_world
    mu = estimate_mu_bg(teacher, bgs, 20000, derive_seed(GLOBAL_SEED, "mu-bg"))
    bg_embs = anchors.background_embeddings(teacher, bgs)
    k_grid = (1, 2, 4, 8, 16, 32, 64)
    variances = [anchors.residual_variance(bg_embs, k, 200, mu,
                                           derive_seed(GLOBAL_SEED, "resvar", k))
                 for k in k_grid]
    slope = float(np.polyfit(np.log(k_grid), np.log(variances), 1)[0])
    wall = time.perf_counter() - t0
    assert abs(slope + 1.0) <= 0.15 and wall < 120.0, \
        f"log-log slope {slope:.3f} (need -1.0 +/- 0.15) in {wall:.0f}s (need < 120s)"


# ---------------------------------------------------------------------------
# criterion 4: anchor purification with K


def _sign_test_p(wins: int, n: int) -> float:
    """One-sided exact binomial p-value for wins successes out of n at 0.5."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def test_k_sweep_directionality(probe_world):
    t0 = time.perf_counter()
    fgs, bgs, teacher = probe_world
    assert len(fgs) >= 50
    protos = anchors.compute_prototypes(teacher, fgs, RenderMemo())
    # a background group's prototype: the unit mean of its pure backgrounds' embeddings
    pools = [[bg for bg in bgs if bg.g == g] for g in sorted({bg.g for bg in bgs})]
    bg_mat = np.stack([anchors.unit_mean(anchors.background_embeddings(teacher, pool),
                                         "background group prototype") for pool in pools])
    fg_wins = bg_wins = 0
    for fg in fgs:
        a1 = anchors.extract_anchor(teacher, fg, bgs, 1,
                                    derive_seed(GLOBAL_SEED, "sweep", fg.id, 1), RenderMemo())
        a40 = anchors.extract_anchor(teacher, fg, bgs, 40,
                                     derive_seed(GLOBAL_SEED, "sweep", fg.id, 40), RenderMemo())
        proto = protos[fg.y]
        fg_wins += float(a40 @ proto) > float(a1 @ proto)
        bg_wins += float((bg_mat @ a40).max()) < float((bg_mat @ a1).max())
    n = len(fgs)
    p_fg = _sign_test_p(fg_wins, n)
    p_bg = _sign_test_p(bg_wins, n)
    wall = time.perf_counter() - t0
    assert p_fg < 0.01 and p_bg < 0.01 and wall < 120.0, \
        (f"foreground-similarity wins {fg_wins}/{n} (p={p_fg:.2e}), background-leak "
         f"wins {bg_wins}/{n} (p={p_bg:.2e}); both need p < 0.01; {wall:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end robustness ordering


def test_robustness_ordering_across_seeds(matrix):
    rows = matrix["rows"]
    ok = all(native <= 0.30 and bap >= 0.85 and bap >= control
             and abs(bap95 - bap) <= 0.03
             for native, bap, control, bap95 in rows)
    assert ok and matrix["wall"] < 1800.0, \
        (f"per-seed (native, bap, control, bap@0.95) WGA rows {rows}; need native <= 0.30, "
         f"bap >= 0.85, bap >= control, |bap@0.95 - bap| <= 0.03; "
         f"wall {matrix['wall']:.0f}s (need < 1800s)")


# ---------------------------------------------------------------------------
# criterion 6: background-sensitivity ordering


def test_bsi_ordering_with_2x_gaps(matrix):
    b = float(np.mean(matrix["bsis"]["bap"]))
    c = float(np.mean(matrix["bsis"]["control"]))
    f = float(np.mean(matrix["bsis"]["lp-ft"]))
    assert 2 * b <= c and 2 * c <= f, \
        f"mean BSI aligned/control/fine-tuned = {b:.2f}/{c:.2f}/{f:.2f}; need >= 2x gaps"


# ---------------------------------------------------------------------------
# criterion 7: orthogonal-target ablation


def test_orthogonal_targets_destroy_transfer(ctx0):
    s0 = ctx0.seed
    gm_in, _ = evaluate_method(ctx0, "ortho", 1.0)
    # novel fine-grained shape pair the ortho student never saw, scored
    # zero-shot against teacher prototypes over (class, background) cells.
    # At seed 0 the bound shows no contrast: scored the same way, the teacher,
    # bap and the control read 0.000 here too, as ortho does.
    fgs7, _ = gen_world(derive_seed(s0, "ood-world"), 7, 2, 40, 150, (64, 64))
    pair = [fg for fg in fgs7 if fg.y in (5, 6)]
    _, bg_test = ctx0.bg_pools
    protos = anchors.compute_prototypes(ctx0.teacher, pair, RenderMemo())
    g = rng(s0, "ood-eval")
    rasters, ys, gs = [], [], []
    for i in range(400):
        fg = pair[g.integers(len(pair))]
        bg = bg_test[g.integers(len(bg_test))]
        rasters.append(make_composite(fg, bg, derive_seed(s0, "ood2", i)))
        ys.append(fg.y)
        gs.append(bg.g)
    preds = evaluation.nearest_prototype(
        protos, encode_np(freeze(ctx0.trained("ortho", 1.0).encoder), np.stack(rasters)))
    gm_ood = evaluation.group_metrics(preds, np.array(ys), np.array(gs))
    assert gm_in.wga >= 0.85 and gm_ood.wga <= 0.40, \
        (f"in-distribution WGA {gm_in.wga:.3f} (need >= 0.85), "
         f"novel-class WGA {gm_ood.wga:.3f} (need <= 0.40)")


# ---------------------------------------------------------------------------
# criterion 8: many-to-one contraction


def test_embedding_variance_contracts(ctx0):
    s0 = ctx0.seed
    fgs, _ = ctx0.world
    _, bg_test = ctx0.bg_pools
    teacher = ctx0.teacher
    student = freeze(ctx0.trained("bap", 1.0).encoder)
    wins = 0
    for fg in fgs:
        g = rng(s0, "contract", fg.id)
        picks = [bg_test[int(g.integers(len(bg_test)))] for _ in range(32)]
        ras = np.stack([composite(fg, bg, ANCHOR_SCALE) for bg in picks])
        for_t = encode_np(teacher, ras).astype(np.float64)
        for_s = encode_np(student, ras).astype(np.float64)
        var_t = float(((for_t - for_t.mean(0)) ** 2).sum(1).mean())
        var_s = float(((for_s - for_s.mean(0)) ** 2).sum(1).mean())
        wins += var_s < var_t
    frac = wins / len(fgs)
    assert frac >= 0.90, \
        f"variance contracted for {frac:.1%} of foregrounds (need >= 90%)"


# ---------------------------------------------------------------------------
# criterion 9: mask pipeline bit-exactness


def test_mask_pipeline_bit_exact():
    # threshold boundary
    out = threshold_mask(np.array([[100, 101]], dtype=np.uint8))
    boundary_ok = out.tolist() == [[0, 255]]
    # morphology against the brute-force distance oracle on 7x7 hand masks
    morph_ok = True
    for binary in HAND_MASKS:
        m = np.where(binary, 255, 0).astype(np.uint8)
        for radius in (1, 2):
            want = _brute_morph(binary, radius, dilate=True)
            morph_ok &= np.array_equal(degrade_mask(m, "noisy", radius=radius) > 0, want)
            want = _brute_morph(binary, radius, dilate=False)
            if binary.any() and want.any():
                morph_ok &= np.array_equal(
                    degrade_mask(m, "botched", radius=radius) > 0, want)
    # bbox equals the filled tight rectangle
    m = np.zeros((7, 7), dtype=np.uint8)
    m[1, 2] = m[4, 5] = 255
    want = np.zeros((7, 7), dtype=np.uint8)
    want[1:5, 2:6] = 255
    bbox_ok = np.array_equal(degrade_mask(m, "bbox"), want)
    assert boundary_ok and morph_ok and bbox_ok, \
        f"threshold {boundary_ok}, morphology {morph_ok}, bbox {bbox_ok}; all must be exact"


# ---------------------------------------------------------------------------
# criterion 10: segmentation-degradation sanity


def test_bbox_masks_still_beat_native(matrix, ctx0):
    native_wga, perfect_wga = matrix["rows"][0][0], matrix["rows"][0][1]
    ctx_bbox = SeedContext(replace(ctx0.cfg, degradation="bbox"), ctx0.seed)
    gm_bbox, _ = evaluate_method(ctx_bbox, "bap-lp", 1.0)
    assert gm_bbox.wga >= native_wga + 0.20 and perfect_wga >= gm_bbox.wga, \
        (f"bbox WGA {gm_bbox.wga:.3f} vs native {native_wga:.3f} (need +0.20) "
         f"and perfect {perfect_wga:.3f} (need >= bbox)")


# ---------------------------------------------------------------------------
# criterion 11: fine-tuning degradation


def test_finetuning_erodes_worst_group_first(ctx0):
    train, test = ctx0.datasets(1.0)
    ft_cfg = ctx0.align_config(epochs=ctx0.cfg.ft_epochs,
                               seed=derive_seed(ctx0.seed, "ft-degrade"))
    _, _, traces = alignment.finetune_on_correlated(ctx0.trained("bap", 1.0).encoder, train,
                                                    test, ft_cfg)
    wga_drop = traces["wga"][0] - traces["wga"][-1]
    avg_drop = traces["avg"][0] - traces["avg"][-1]
    assert wga_drop >= 0.20 and avg_drop < wga_drop, \
        (f"WGA {traces['wga'][0]:.3f}->{traces['wga'][-1]:.3f} (need drop >= 0.20), "
         f"AVG {traces['avg'][0]:.3f}->{traces['avg'][-1]:.3f} (need smaller drop)")


# ---------------------------------------------------------------------------
# criterion 12: background-retention collapse


def test_background_information_is_suppressed(ctx0):
    fgs, _ = ctx0.world
    bg_all = ctx0.bg_pools[0] + ctx0.bg_pools[1]
    before, after = retention_eval(ctx0.teacher, ctx0.trained("bap", 1.0).encoder, bg_all, fgs,
                                   seed=derive_seed(ctx0.seed, "retention"))
    assert before - after >= 0.20, \
        f"background-group probe accuracy {before:.3f}->{after:.3f} (need drop >= 0.20)"


# ---------------------------------------------------------------------------
# criterion 13: determinism of the full run matrix


def test_run_matrix_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        fg_per_class=4, bg_per_group=10, hw=32, teacher="planted", d=16,
        M=2, K=2, epochs=12, batch_size=16, train_per_class=8, test_per_cell=2,
        rhos=(1.0,), probe_epochs=3, ft_epochs=2, additivity_n=16,
        k_grid=(1, 2), var_trials=10, num_seeds=1)
    a = cmd_run_matrix(cfg, 3, tmp_path / "a")
    b = cmd_run_matrix(cfg, 3, tmp_path / "b")
    same = a.read_bytes() == b.read_bytes()
    summary_same = ((tmp_path / "a" / "summary.csv").read_bytes()
                    == (tmp_path / "b" / "summary.csv").read_bytes())
    assert same and summary_same, "repeated run matrix must be byte-identical"
