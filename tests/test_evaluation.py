"""Metrics: probes, group accuracies, background sensitivity.

Also home to the background-retention probe, criterion 12's instrument: a
gate-only measurement that no command runs, so it lives with its tests, not in
`src/`.
"""

import numpy as np
import pytest

from anchorlab import tensor as T
from anchorlab.encoders import encode_np, init_encoder, planted_teacher
from anchorlab.errors import ConfigError, ContractError
from anchorlab.evaluation import (
    PROBE_BATCH,
    PROBE_LR,
    bsi,
    bsi_protocol,
    class_weights,
    fit_linear_head,
    group_metrics,
    head_predict,
    init_head,
    nearest_prototype,
    train_probe,
)
from anchorlab.rng import derive_seed, rng
from anchorlab.scene import RenderMemo, build_test_split, build_train_split, render, scene_scale
from anchorlab.tensor import Tensor

# scenes in the background-group probe's train and held-out test sets
_RETENTION_TRAIN = 600
_RETENTION_TEST = 300


def _fit_unweighted_head(embs, labels, num_classes: int, seed: int, epochs: int):
    """`evaluation.fit_linear_head`'s recipe without the class weights; it must stay
    that recipe, which `test_the_unweighted_head_is_fit_linear_heads_recipe` pins."""
    n, d = embs.shape
    head = init_head(d, num_classes, rng(seed, "probe-init"))

    def loss(idx):
        logits = T.matmul(Tensor(embs[idx]), head.W) + head.b
        return T.softmax_cross_entropy(logits, labels[idx])

    T.fit(head.params(), lambda epoch: (rng(seed, "probe-order", epoch).permutation(n),),
          loss, n=n, batch_size=PROBE_BATCH, epochs=epochs, lr=PROBE_LR, weight_decay=0.0,
          warmup_frac=0.10)
    return head


def _background_probe_accuracy(encoder, backgrounds, foregrounds, seed: int) -> float:
    """Background-group probe on scene embeddings, held-out backgrounds.

    Probing backgrounds in context (behind a random foreground) rather than
    in isolation: in-context decodability is the quantity the alignment
    phase regularizes, and shallow encoders keep isolated backgrounds
    linearly separable no matter how hard the scene-level cue is crushed.
    The head is `_fit_unweighted_head`.
    """
    by_group: dict[int, list] = {}
    for bg in backgrounds:
        by_group.setdefault(bg.g, []).append(bg)
    train_bgs, test_bgs = [], []
    for grp in sorted(by_group):
        pool = sorted(by_group[grp], key=lambda b: b.id)
        order = rng(seed, "retention-split", grp).permutation(len(pool))
        k = max(1, len(pool) // 5)
        test_bgs.extend(pool[i] for i in order[:k])
        train_bgs.extend(pool[i] for i in order[k:])
    fgs = sorted(foregrounds, key=lambda f: f.id)

    memo = RenderMemo()

    def scenes(pool, n, tag):
        g = rng(seed, "retention", tag)
        items = []
        for i in range(n):
            bg = pool[int(g.integers(0, len(pool)))]
            fg = fgs[int(g.integers(0, len(fgs)))]
            items.append((fg, bg, scene_scale(derive_seed(seed, "retention", tag, i))))
        return render(items, memo=memo), np.array([bg.g for _, bg, _ in items])

    X_tr, y_tr = scenes(train_bgs, _RETENTION_TRAIN, "train")
    X_te, y_te = scenes(test_bgs, _RETENTION_TEST, "test")
    head = _fit_unweighted_head(encode_np(encoder, X_tr), y_tr, int(y_tr.max()) + 1,
                                derive_seed(seed, "retention-head"), epochs=20)
    return float((head_predict(head, encode_np(encoder, X_te)) == y_te).mean())


def retention_eval(encoder_before, encoder_after, backgrounds, foregrounds,
                   seed: int = 0) -> tuple[float, float]:
    """Criterion 12's instrument: how much in-context background-group information
    each encoder retains."""
    if len({bg.g for bg in backgrounds}) < 2:
        raise ConfigError("retention_eval needs >= 2 background groups")
    before = _background_probe_accuracy(encoder_before, backgrounds, foregrounds, seed)
    after = _background_probe_accuracy(encoder_after, backgrounds, foregrounds, seed)
    return before, after


# ---------------------------------------------------------------------------
# class weights and the linear head


def test_class_weights_oracle():
    labels = np.array([0] * 19 + [1] * 1)
    w = class_weights(labels, 2)
    # inverse frequency: n / (C * count)
    assert w[0] == pytest.approx(20 / (2 * 19))
    assert w[1] == pytest.approx(20 / (2 * 1))
    with pytest.raises(ConfigError):
        class_weights(np.array([0, 0]), 2)


def test_fit_linear_head_separable():
    g = np.random.default_rng(0)
    embs = np.concatenate([
        g.normal(0, 0.1, size=(40, 4)) + np.array([1, 0, 0, 0]),
        g.normal(0, 0.1, size=(40, 4)) + np.array([-1, 0, 0, 0]),
    ]).astype(np.float32)
    labels = np.array([0] * 40 + [1] * 40)
    head = fit_linear_head(embs, labels, 2, seed=1, epochs=10, lr=5e-2)
    preds = (embs @ head.W.data + head.b.data).argmax(axis=1)
    assert (preds == labels).mean() == 1.0
    again = fit_linear_head(embs, labels, 2, seed=1, epochs=10, lr=5e-2)
    assert np.array_equal(head.W.data, again.W.data)


def test_the_unweighted_head_is_fit_linear_heads_recipe():
    # balanced classes weigh 1 each, so the class-weighted fit and the
    # unweighted one agree bit for bit, ragged last batch included
    g = np.random.default_rng(3)
    n = PROBE_BATCH + 31
    embs = g.normal(size=(n, 5)).astype(np.float32)
    labels = np.arange(n) % 3
    weighted = fit_linear_head(embs, labels, 3, seed=4, epochs=10)
    plain = _fit_unweighted_head(embs, labels, 3, seed=4, epochs=10)
    assert np.any(plain.b.data != 0.0)
    assert np.array_equal(weighted.W.data, plain.W.data)
    assert np.array_equal(weighted.b.data, plain.b.data)


def test_train_probe_requires_frozen(micro_world, micro_teacher):
    fgs, bgs = micro_world
    train, test = build_train_split(fgs, bgs, 1.0, 8, 3), build_test_split(fgs, bgs, 2, 3)
    thawed = init_encoder(1, d=8, input_hw=(32, 32))
    with pytest.raises(ContractError):
        train_probe(thawed, train)
    head = train_probe(micro_teacher, train, seed=2, epochs=5)
    preds = head_predict(head, encode_np(micro_teacher, test.batch))
    assert preds.shape == (len(test.batch),)
    assert set(np.unique(preds)) <= {0, 1}


# ---------------------------------------------------------------------------
# prototype classification


def test_prototype_tie_breaks_low_and_errors(micro_world, micro_teacher):
    _, bgs = micro_world
    raster = bgs[0].raster[None]
    embs = encode_np(micro_teacher, raster)
    emb = embs[0]
    # two identical prototypes tie exactly: the lower class wins
    assert nearest_prototype({1: emb, 0: emb.copy()}, embs).tolist() == [0]
    with pytest.raises(ConfigError):
        nearest_prototype({0: emb}, embs)


def test_prototype_scale_invariance(micro_world, micro_teacher):
    _, bgs = micro_world
    rasters = np.stack([bg.raster for bg in bgs])
    embs = encode_np(micro_teacher, rasters)
    protos = {0: embs[0], 1: embs[-1]}
    preds = nearest_prototype(protos, embs)
    assert set(preds.tolist()) == {0, 1}
    scaled = {0: 5.0 * embs[0], 1: embs[-1]}
    assert np.array_equal(nearest_prototype(scaled, embs), preds)


def test_nearest_prototype_self_retrieval(micro_world, micro_teacher):
    _, bgs = micro_world
    rasters = np.stack([bgs[0].raster, bgs[1].raster])
    embs = encode_np(micro_teacher, rasters)
    protos = {0: embs[0], 1: embs[1]}
    # each raster retrieves its own prototype
    assert nearest_prototype(protos, embs).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# group metrics


def test_group_metrics_hand_case():
    preds = np.array([0, 0, 1, 1, 0, 1])
    labels = np.array([0, 0, 0, 1, 1, 1])
    groups = np.array([0, 0, 1, 0, 0, 1])
    gm = group_metrics(preds, labels, groups)
    assert gm.per_group[(0, 0)] == 1.0
    assert gm.per_group[(0, 1)] == 0.0
    assert gm.per_group[(1, 0)] == 0.5
    assert gm.per_group[(1, 1)] == 1.0
    assert gm.avg == pytest.approx(4 / 6)
    assert gm.wga == 0.0


def test_group_metrics_permutation_invariance():
    g = np.random.default_rng(3)
    preds = g.integers(0, 2, size=50)
    labels = g.integers(0, 2, size=50)
    groups = g.integers(0, 2, size=50)
    gm = group_metrics(preds, labels, groups)
    p = g.permutation(50)
    gm2 = group_metrics(preds[p], labels[p], groups[p])
    assert gm.avg == gm2.avg and gm.wga == gm2.wga
    assert gm.per_group == gm2.per_group
    assert gm.wga <= gm.avg + 1e-12


def test_group_metrics_empty_cell_and_errors():
    gm = group_metrics(np.array([0, 1]), np.array([0, 1]), np.array([0, 0]))
    assert set(gm.per_group) == {(0, 0), (1, 0)}
    # an empty (class, group) cell has no accuracy and does not enter the WGA
    gm2 = group_metrics(np.array([0, 1, 0]), np.array([0, 1, 1]), np.array([0, 0, 1]))
    assert set(gm2.per_group) == {(0, 0), (1, 0), (1, 1)}
    assert gm2.wga == 0.0 and gm2.avg == pytest.approx(2 / 3)
    with pytest.raises(ConfigError):
        group_metrics(np.array([0]), np.array([0, 1]), np.array([0, 1]))


# ---------------------------------------------------------------------------
# BSI


def test_bsi_hand_cases():
    # two tight clouds two apart with unit total variance each
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    b = np.array([[2.0, 1.0], [2.0, -1.0]])
    # var_a = var_b = 1, numerator 2, denom sqrt(2)
    assert bsi(a, b) == pytest.approx(2 / np.sqrt(2))
    # identical clouds: zero separation
    assert bsi(a, a) == 0.0
    with pytest.raises(ConfigError):
        bsi(a[:1], b)


def test_bsi_invariances():
    g = np.random.default_rng(5)
    a = g.normal(size=(30, 6))
    b = g.normal(size=(30, 6)) + 1.0
    base = bsi(a, b)
    q, _ = np.linalg.qr(g.standard_normal((6, 6)))
    assert bsi(a @ q, b @ q) == pytest.approx(base, abs=1e-9)
    assert bsi(3.0 * a, 3.0 * b) == pytest.approx(base, abs=1e-9)


def test_bsi_protocol(micro_world, micro_teacher):
    fgs, bgs = micro_world
    report = bsi_protocol(micro_teacher, fgs, bgs, n_pairs=8, seed=4)
    assert set(report.per_class) == {0, 1}
    assert all(v >= 0 for v in report.per_class.values())
    assert report.mean == pytest.approx(float(np.mean(list(report.per_class.values()))))
    only_g0 = [bg for bg in bgs if bg.g == 0]
    with pytest.raises(ConfigError):
        bsi_protocol(micro_teacher, fgs, only_g0, n_pairs=4)


def test_retention_eval_errors_and_range(micro_world, micro_teacher):
    fgs, bgs = micro_world
    with pytest.raises(ConfigError):
        retention_eval(micro_teacher, micro_teacher, [bg for bg in bgs if bg.g == 0], fgs)
    other = planted_teacher(9, d=16, input_hw=(32, 32))
    before, after = retention_eval(micro_teacher, other, bgs, fgs, seed=1)
    assert 0.0 <= before <= 1.0 and 0.0 <= after <= 1.0

