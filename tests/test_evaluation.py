"""Metrics: probes, group accuracies, background sensitivity."""

import numpy as np
import pytest

from anchorlab.encoders import encode_np, freeze, init_encoder
from anchorlab.errors import ConfigError, ContractError
from anchorlab.evaluation import (
    bsi,
    bsi_protocol,
    class_weights,
    fit_linear_head,
    group_metrics,
    probe_predict,
    prototype_predict,
    retention_eval,
    train_probe,
)
from anchorlab.scene import build_test_split, build_train_split


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
    preds = (embs @ head.W + head.b).argmax(axis=1)
    assert (preds == labels).mean() == 1.0
    again = fit_linear_head(embs, labels, 2, seed=1, epochs=10, lr=5e-2)
    assert np.array_equal(head.W, again.W)


def test_train_probe_requires_frozen(micro_world, micro_teacher):
    fgs, bgs = micro_world
    train, test = build_train_split(fgs, bgs, 1.0, 8, 3), build_test_split(fgs, bgs, 2, 3)
    thawed = init_encoder("mlp", 1, d=8, input_hw=(32, 32))
    with pytest.raises(ContractError):
        train_probe(thawed, train)
    head = train_probe(micro_teacher, train, seed=2, epochs=5)
    preds = probe_predict(micro_teacher, head, test.rasters())
    assert preds.shape == (len(test.items),)
    assert set(np.unique(preds)) <= {0, 1}


# ---------------------------------------------------------------------------
# prototype classification


def test_prototype_tie_breaks_low_and_errors(micro_world, micro_teacher):
    _, bgs = micro_world
    raster = bgs[0].raster[None]
    emb = encode_np(micro_teacher, raster)[0]
    # two identical prototypes tie exactly: the lower class wins
    assert prototype_predict(micro_teacher, {1: emb, 0: emb.copy()}, raster).tolist() == [0]
    with pytest.raises(ConfigError):
        prototype_predict(micro_teacher, {0: emb}, raster)


def test_prototype_scale_invariance(micro_world, micro_teacher):
    _, bgs = micro_world
    rasters = np.stack([bg.raster for bg in bgs])
    embs = encode_np(micro_teacher, rasters)
    protos = {0: embs[0], 1: embs[-1]}
    preds = prototype_predict(micro_teacher, protos, rasters)
    assert set(preds.tolist()) == {0, 1}
    scaled = {0: 5.0 * embs[0], 1: embs[-1]}
    assert np.array_equal(prototype_predict(micro_teacher, scaled, rasters), preds)


def test_prototype_predict_self_retrieval(micro_world, micro_teacher):
    _, bgs = micro_world
    rasters = np.stack([bgs[0].raster, bgs[1].raster])
    embs = encode_np(micro_teacher, rasters)
    protos = {0: embs[0], 1: embs[1]}
    # each raster retrieves its own prototype
    assert prototype_predict(micro_teacher, protos, rasters).tolist() == [0, 1]


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
    other = freeze(init_encoder("linear", 9, d=16, input_hw=(32, 32)))
    before, after = retention_eval(micro_teacher, other, bgs, fgs, seed=1)
    assert 0.0 <= before <= 1.0 and 0.0 <= after <= 1.0

