"""Anchor extraction, background-mean diagnostics, K sweeps, orthogonal targets."""

import numpy as np
import pytest

from anchorlab import anchors
from anchorlab.anchors import (
    BackgroundMean,
    Prototypes,
    anchor_composite,
    background_embeddings,
    build_anchor_set,
    compute_prototypes,
    estimate_mu_bg,
    extract_anchor,
    k_sweep,
    orthogonal_targets,
    residual_variance,
)
from anchorlab.encoders import encode_np
from anchorlab.errors import ConfigError, DegenerateInputError, DimensionError
from anchorlab.rng import rng


def test_extract_anchor_k1_matches_single_embedding(micro_world, micro_teacher):
    fgs, bgs = micro_world
    fg = fgs[0]
    a = extract_anchor(micro_teacher, fg, bgs, 1, 77)
    # reconstruct the single draw the extractor makes
    g = rng(77, "anchor", fg.id, 1)
    idx = g.choice(len(bgs), size=1, replace=False)[0]
    raster = anchor_composite(fg, bgs[idx], 77)
    expected = encode_np(micro_teacher, raster[None])[0]
    assert np.allclose(a, expected, atol=1e-6)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-5)


def test_extract_anchor_unit_norm_and_deterministic(micro_world, micro_teacher):
    fgs, bgs = micro_world
    a = extract_anchor(micro_teacher, fgs[1], bgs, 5, 3)
    b = extract_anchor(micro_teacher, fgs[1], bgs, 5, 3)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-5)


def test_extract_anchor_errors(micro_world, micro_teacher):
    fgs, bgs = micro_world
    with pytest.raises(ConfigError):
        extract_anchor(micro_teacher, fgs[0], bgs, 0, 1)
    with pytest.raises(ConfigError):
        extract_anchor(micro_teacher, fgs[0], [], 3, 1)


def test_build_anchor_set_replacement_flag(micro_world, micro_teacher):
    fgs, bgs = micro_world
    aset = build_anchor_set(micro_teacher, fgs, bgs, 3, 11)
    assert set(aset.anchors) == {fg.id for fg in fgs}
    assert not aset.with_replacement
    small = build_anchor_set(micro_teacher, fgs[:1], bgs[:2], 5, 11)
    assert small.with_replacement


def test_background_embeddings_order_and_norm(micro_world, micro_teacher):
    _, bgs = micro_world
    embs = background_embeddings(micro_teacher, bgs, batch=3)
    assert embs.shape == (len(bgs), micro_teacher.d)
    assert np.allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-5)
    direct = encode_np(micro_teacher, np.stack([b.raster for b in bgs]))
    assert np.allclose(embs, direct, atol=1e-6)


def test_estimate_mu_bg_full_pool_oracle(micro_world, micro_teacher):
    _, bgs = micro_world
    mu = estimate_mu_bg(micro_teacher, bgs, len(bgs), 5)
    expected = background_embeddings(micro_teacher, bgs).astype(np.float64).mean(axis=0)
    assert np.allclose(mu.vector, expected, atol=1e-6)
    assert mu.count == len(bgs)
    assert np.linalg.norm(mu.vector) <= 1.0 + 1e-6
    with pytest.raises(ConfigError):
        estimate_mu_bg(micro_teacher, bgs, 0, 5)


def test_residual_variance_decreases_with_k(micro_world, micro_teacher):
    _, bgs = micro_world
    embs = background_embeddings(micro_teacher, bgs)
    mu = BackgroundMean(vector=embs.astype(np.float64).mean(axis=0), count=len(bgs))
    v1 = residual_variance(micro_teacher, bgs, 1, 400, mu, 9, bg_embs=embs)
    v8 = residual_variance(micro_teacher, bgs, 8, 400, mu, 9, bg_embs=embs)
    assert v8 < v1
    with pytest.raises(ConfigError):
        residual_variance(micro_teacher, bgs, 2, 1, mu, 9)
    with pytest.raises(ConfigError):
        residual_variance(micro_teacher, bgs, len(bgs) + 1, 5, mu, 9, replace=False)


def test_compute_prototypes(micro_world, micro_teacher, monkeypatch):
    fgs, bgs = micro_world
    protos = compute_prototypes(micro_teacher, fgs, bgs)
    assert set(protos.by_class) == {0, 1}
    assert set(protos.by_group) == {0, 1}
    for v in list(protos.by_class.values()) + list(protos.by_group.values()):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-5)
    # no backgrounds: the same class prototypes and no group prototypes
    alone = compute_prototypes(micro_teacher, fgs, ())
    assert alone.by_group == {}
    assert all(np.array_equal(alone.by_class[y], protos.by_class[y]) for y in (0, 1))
    # embeddings that cancel give a zero-mean prototype, which has no direction
    monkeypatch.setattr(anchors, "encode_np", lambda teacher, rasters: np.array(
        [[1.0, 0.0], [-1.0, 0.0]] * (len(rasters) // 2), dtype=np.float32))
    with pytest.raises(DegenerateInputError):
        compute_prototypes(micro_teacher, fgs, ())


def test_k_sweep_report_and_errors(micro_world, micro_teacher):
    fgs, bgs = micro_world
    protos = compute_prototypes(micro_teacher, fgs, bgs)
    report = k_sweep(micro_teacher, fgs[:2], bgs, (1, 4), protos, 6, var_trials=50)
    assert report.k_grid == (1, 4)
    assert len(report.fg_sim) == len(report.bg_sim_max) == len(report.var_eps) == 2
    assert report.var_eps[1] < report.var_eps[0]
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], bgs, (), protos, 6)
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], bgs, (4, 1), protos, 6)
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], bgs, (1,),
                Prototypes(by_class={}, by_group=protos.by_group), 6)


def test_orthogonal_targets_properties():
    vecs = orthogonal_targets(8, 4, 13)
    assert len(vecs) == 4
    mat = np.stack(vecs).astype(np.float64)
    gram = mat @ mat.T
    assert np.allclose(gram, np.eye(4), atol=1e-5)
    again = orthogonal_targets(8, 4, 13)
    assert all(np.array_equal(a, b) for a, b in zip(vecs, again))
    with pytest.raises(DimensionError):
        orthogonal_targets(3, 4, 1)
