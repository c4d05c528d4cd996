"""Anchor extraction, background residuals, K sweeps, orthogonal targets."""

import numpy as np
import pytest

from anchorlab import anchors
from anchorlab.anchors import (
    background_embeddings,
    build_anchor_set,
    compute_prototypes,
    extract_anchor,
    k_sweep,
    orthogonal_targets,
    residual_variance,
)
from anchorlab.encoders import encode_np
from anchorlab.errors import ConfigError, DegenerateInputError, DimensionError
from anchorlab.rng import rng
from anchorlab.scene import ANCHOR_SCALE, RenderMemo, composite


def test_extract_anchor_k1_matches_single_embedding(micro_world, micro_teacher):
    fgs, bgs = micro_world
    fg = fgs[0]
    a = extract_anchor(micro_teacher, fg, bgs, 1, 77, RenderMemo())
    # reconstruct the single draw the extractor makes
    g = rng(77, "anchor", fg.id, 1)
    idx = g.choice(len(bgs), size=1, replace=False)[0]
    raster = composite(fg, bgs[idx], ANCHOR_SCALE)
    expected = encode_np(micro_teacher, raster[None])[0]
    assert np.allclose(a, expected, atol=1e-6)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-5)


def test_extract_anchor_unit_norm_and_deterministic(micro_world, micro_teacher):
    fgs, bgs = micro_world
    a = extract_anchor(micro_teacher, fgs[1], bgs, 5, 3, RenderMemo())
    b = extract_anchor(micro_teacher, fgs[1], bgs, 5, 3, RenderMemo())
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-5)


def test_extract_anchor_errors(micro_world, micro_teacher):
    fgs, bgs = micro_world
    with pytest.raises(ConfigError):
        extract_anchor(micro_teacher, fgs[0], bgs, 0, 1, RenderMemo())
    with pytest.raises(ConfigError):
        extract_anchor(micro_teacher, fgs[0], [], 3, 1, RenderMemo())


def test_build_anchor_set_covers_every_foreground(micro_world, micro_teacher):
    fgs, bgs = micro_world
    aset = build_anchor_set(micro_teacher, fgs, bgs, 3, 11, "perfect", RenderMemo())
    assert set(aset) == {fg.id for fg in fgs}
    # a pool smaller than K is drawn with replacement
    small = build_anchor_set(micro_teacher, fgs[:1], bgs[:2], 5, 11, "perfect",
                             RenderMemo())
    assert set(small) == {fgs[0].id}
    assert np.linalg.norm(small[fgs[0].id]) == pytest.approx(1.0, abs=1e-5)


def test_background_embeddings_order_and_norm(micro_world, micro_teacher, monkeypatch):
    _, bgs = micro_world
    monkeypatch.setattr(anchors, "_BG_CHUNK", 3)  # chunk boundaries inside the pool
    embs = background_embeddings(micro_teacher, bgs)
    assert embs.shape == (len(bgs), micro_teacher.d)
    assert np.allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-5)
    direct = encode_np(micro_teacher, np.stack([b.raster for b in bgs]))
    assert np.array_equal(embs, direct)


def test_residual_variance_decreases_with_k(micro_world, micro_teacher):
    _, bgs = micro_world
    embs = background_embeddings(micro_teacher, bgs)
    mu = embs.astype(np.float64).mean(axis=0)
    v1 = residual_variance(embs, 1, 400, mu, 9)
    v8 = residual_variance(embs, 8, 400, mu, 9)
    assert v8 < v1
    with pytest.raises(ConfigError):
        residual_variance(embs, 2, 1, mu, 9)


def test_compute_prototypes(micro_world, micro_teacher, monkeypatch):
    fgs, _ = micro_world
    protos = compute_prototypes(micro_teacher, fgs, RenderMemo())
    assert set(protos) == {0, 1}
    for v in protos.values():
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-5)
    # embeddings that cancel give a zero-mean prototype, which has no direction
    monkeypatch.setattr(anchors, "encode_np", lambda teacher, rasters: np.array(
        [[1.0, 0.0], [-1.0, 0.0]] * (len(rasters) // 2), dtype=np.float32))
    with pytest.raises(DegenerateInputError):
        compute_prototypes(micro_teacher, fgs, RenderMemo())


def test_k_sweep_report_and_errors(micro_world, micro_teacher):
    fgs, bgs = micro_world
    protos = compute_prototypes(micro_teacher, fgs, RenderMemo())
    embs = background_embeddings(micro_teacher, bgs)
    report = k_sweep(micro_teacher, fgs[:2], bgs, embs, (1, 4), protos, 6, var_trials=50,
                     memo=RenderMemo())
    assert report.k_grid == (1, 4)
    assert len(report.fg_sim) == len(report.bg_sim_max) == len(report.var_eps) == 2
    assert report.var_eps[1] < report.var_eps[0]
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], bgs, embs, (), protos, 6, 200, RenderMemo())
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], bgs, embs, (4, 1), protos, 6, 200, RenderMemo())
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], bgs, embs, (1,), {}, 6, 200, RenderMemo())
    with pytest.raises(ConfigError):
        k_sweep(micro_teacher, fgs[:2], [], embs[:0], (1,), protos, 6, 200, RenderMemo())


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
