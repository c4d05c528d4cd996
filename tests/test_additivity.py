"""Additivity probe: hand-computed scores, exactness on the planted map."""

import math

import numpy as np
import pytest

from anchorlab import additivity
from anchorlab.additivity import (
    _PROBE_CHUNK,
    additivity_score,
    batch_additivity,
    exact_triple_rasters,
    neutral_background,
    run_probe,
    sample_pairs,
    triple_rasters,
)
from anchorlab.encoders import PlantedConfig, encode_np, planted_teacher, pre_embedding
from anchorlab.errors import ConfigError, DegenerateInputError
from anchorlab import scene
from anchorlab.rng import derive_seed
from anchorlab.scene import BackgroundImage, gen_world, make_composite, scaled_foreground


def _triple(v_a, v_b, v_ab):
    return tuple(np.asarray(v, dtype=np.float64) for v in (v_a, v_b, v_ab))


def test_score_hand_oracles():
    e1 = [1.0, 0.0]
    e2 = [0.0, 1.0]
    # composite aligned with the part sum
    assert additivity_score(*_triple(e1, e2, [1.0, 1.0])) == pytest.approx(1.0)
    # composite orthogonal to the part sum
    assert additivity_score(*_triple(e1, e2, [1.0, -1.0])) == pytest.approx(0.0, abs=1e-12)
    # composite equal to one part: cos 45 degrees
    assert additivity_score(*_triple(e1, e2, e1)) == pytest.approx(0.70710678, abs=1e-8)


def test_score_swap_symmetry():
    g = np.random.default_rng(1)
    a, b, ab = g.standard_normal((3, 5))
    assert additivity_score(*_triple(a, b, ab)) == pytest.approx(
        additivity_score(*_triple(b, a, ab)), abs=1e-12)


def test_score_antipodal_raises():
    with pytest.raises(DegenerateInputError):
        additivity_score(*_triple([1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]))


def test_score_rotation_invariance():
    g = np.random.default_rng(7)
    a, b, ab = g.standard_normal((3, 6))
    base = additivity_score(*_triple(a, b, ab))
    # random orthogonal matrix via QR
    q, _ = np.linalg.qr(g.standard_normal((6, 6)))
    rotated = additivity_score(*_triple(q @ a, q @ b, q @ ab))
    assert rotated == pytest.approx(base, abs=1e-5)


def test_batch_mean_matches_arithmetic(micro_world, micro_teacher):
    fgs, bgs = micro_world
    triples = [triple_rasters(fg, bgs[i % len(bgs)], 100 + i)
               for i, fg in enumerate(fgs)]
    report = batch_additivity(micro_teacher, triples, encoder_tag="t")
    assert report.n == len(triples)
    assert report.mean == pytest.approx(float(report.scores.mean()), abs=1e-7)
    assert report.std == pytest.approx(float(report.scores.std(ddof=0)), abs=1e-7)
    assert report.encoder_tag == "t"
    with pytest.raises(ConfigError):
        batch_additivity(micro_teacher, [])


def test_exact_mode_planted_alpha0_is_one(micro_world, micro_teacher):
    fgs, bgs = micro_world
    report = run_probe(micro_teacher, fgs[:4], bgs[:4], 8, 9, mode="exact")
    assert report.mean == pytest.approx(1.0, abs=1e-5)
    assert np.all(np.abs(report.scores - 1.0) < 1e-5)


def test_exact_mode_nonlinearity_lowers_scores(micro_world):
    fgs, bgs = micro_world
    bent = planted_teacher(PlantedConfig(seed=7, alpha=2.0), d=16, input_hw=(32, 32))
    report = run_probe(bent, fgs[:4], bgs[:4], 8, 9, mode="exact")
    assert report.mean < 1.0 - 1e-4


def test_exact_triple_disjoint_support(micro_world, micro_teacher):
    fgs, bgs = micro_world
    I_a, I_b, I_ab = exact_triple_rasters(fgs[0], bgs[0], 3, micro_teacher)
    # supports never overlap, so the composite is a pixelwise sum
    assert float((np.abs(I_a) * np.abs(I_b)).sum()) == 0.0
    assert np.allclose(I_ab, I_a + I_b)
    # parts have equal pre-embedding norm after rescaling
    za = pre_embedding(micro_teacher, I_a)[0]
    zb = pre_embedding(micro_teacher, I_b)[0]
    assert np.linalg.norm(za) == pytest.approx(np.linalg.norm(zb), rel=1e-4)


def test_exact_triple_object_is_the_scaled_foreground(micro_world, micro_teacher):
    fgs, bgs = micro_world
    # a dim background makes the object the larger-norm part, the one rescaled
    dim = BackgroundImage(id="dim", g=0, raster=np.full((32, 32, 3), 0.02, dtype=np.float32))
    factors = set()
    for fg, bg in [(fg, bgs[3 * i]) for i, fg in enumerate(fgs[:4])] + [(fgs[5], dim)]:
        I_a, _, _ = exact_triple_rasters(fg, bg, 3, micro_teacher)
        H, W = bg.raster.shape[:2]
        fg_scaled, a = scaled_foreground(fg, 0.45, (H, W))
        oh, ow = a.shape[:2]
        r0, c0 = (H - oh) // 2, max(0, W // 4 - ow // 2)
        placed = np.zeros((H, W, 3), dtype=np.float32)
        placed[r0 : r0 + oh, c0 : c0 + ow] = a * fg_scaled
        bg_half = bg.raster.copy()
        bg_half[:, : W // 2] = 0.0
        ratio = (np.linalg.norm(pre_embedding(micro_teacher, placed)[0].astype(np.float64))
                 / np.linalg.norm(pre_embedding(micro_teacher, bg_half)[0].astype(np.float64)))
        factor = np.float32(1.0) if ratio <= 1.0 else np.float32(1.0 / ratio)
        assert np.array_equal(I_a, placed * factor)
        factors.add(factor == 1.0)
    assert factors == {True, False}


def test_standard_triple_geometry(micro_world):
    fgs, bgs = micro_world
    iso, bg, comp = triple_rasters(fgs[0], bgs[0], 5)
    assert iso.shape == bg.shape == comp.shape
    # the isolated raster sits on a neutral canvas, matching corners are gray
    assert iso[0, 0, 0] == pytest.approx(0.5)
    # composite and isolated share the object pixels at the same placement
    diff_iso = np.abs(iso - 0.5).sum(axis=2) > 0.05
    diff_comp = np.abs(comp - bg).sum(axis=2) > 0.05
    assert (diff_iso & diff_comp).sum() > 0


def test_standard_triple_is_two_composites_from_one_resize(micro_world, monkeypatch):
    fgs, bgs = micro_world
    calls = []
    real = scene.resize_sinc
    monkeypatch.setattr(scene, "resize_sinc", lambda img, hw: calls.append(hw) or real(img, hw))
    iso, bg, comp = triple_rasters(fgs[0], bgs[0], 5)
    assert len(calls) == 2  # the object's raster and alpha, shared by both composites
    assert bg is bgs[0].raster
    assert np.array_equal(iso, make_composite(fgs[0], neutral_background((32, 32)), 5).raster)
    assert np.array_equal(comp, make_composite(fgs[0], bgs[0], 5).raster)


def test_neutral_background_constant():
    bg = neutral_background((16, 16))
    assert bg.raster.shape == (16, 16, 3)
    assert np.all(bg.raster == np.float32(0.5))
    assert bg.g == -1


def test_sample_pairs_distinct_and_seeded(micro_world):
    fgs, bgs = micro_world
    pairs = sample_pairs(fgs, bgs, 20, 4)
    assert len(pairs) == 20
    keys = {(fg.id, bg.id) for fg, bg in pairs}
    assert len(keys) == 20  # without replacement when the pool allows
    again = sample_pairs(fgs, bgs, 20, 4)
    assert [(f.id, b.id) for f, b in pairs] == [(f.id, b.id) for f, b in again]
    # oversampling falls back to replacement
    many = sample_pairs(fgs[:1], bgs[:1], 5, 4)
    assert len(many) == 5
    with pytest.raises(ConfigError):
        sample_pairs([], bgs, 1, 0)


def test_run_probe_rejects_unknown_mode(micro_world, micro_teacher):
    fgs, bgs = micro_world
    with pytest.raises(ConfigError, match="mode"):
        run_probe(micro_teacher, fgs, bgs, 4, 8, mode="Exact")


def _per_triple_probe(model, foregrounds, backgrounds, n, seed, mode):
    """The probe as it ran before chunking: one triple, one render, one 3-row encode."""
    pairs = sample_pairs(foregrounds, backgrounds, n, seed)
    scores = []
    excluded = 0
    for i, (fg, bg) in enumerate(pairs):
        item_seed = derive_seed(seed, "additivity", fg.id, bg.id, i)
        if mode == "exact":
            I_a, I_b, I_ab = exact_triple_rasters(fg, bg, item_seed, model)
        else:
            I_a, I_b, I_ab = triple_rasters(fg, bg, item_seed)
        embs = encode_np(model, np.stack([I_a, I_b, I_ab]))
        try:
            scores.append(additivity_score(embs[0], embs[1], embs[2]))
        except DegenerateInputError:
            excluded += 1
    return np.asarray(scores, dtype=np.float64), excluded


@pytest.mark.parametrize("mode", ["standard", "exact"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("hw, d, n", [((64, 64), 64, 2 * _PROBE_CHUNK + 5),
                                      ((32, 32), 16, _PROBE_CHUNK + 7)])
def test_run_probe_matches_the_per_triple_loop(mode, alpha, hw, d, n):
    fgs, bgs = gen_world(31, 2, 2, 5, 12, hw)
    model = planted_teacher(PlantedConfig(seed=5, alpha=alpha), d=d, input_hw=hw)
    report = run_probe(model, fgs, bgs, n, 17, mode=mode)
    scores, excluded = _per_triple_probe(model, fgs, bgs, n, 17, mode)
    assert (report.n, report.excluded) == (scores.size, excluded) == (n, 0)
    # BLAS sums a planted map's products in an order that can depend on the batch
    # height.  For the default 12288x64 W every batch of >= 2 rows gives the same
    # row bits; the 4x4-pooled P product, and W at other shapes, can move by ~1e-7.
    if alpha == 0 and (hw, d) == ((64, 64), 64):
        assert np.array_equal(report.scores, scores)
    else:
        assert np.max(np.abs(report.scores - scores)) <= 1e-6


def test_run_probe_renders_and_encodes_once_per_chunk(micro_world, micro_teacher, monkeypatch):
    fgs, bgs = micro_world
    n = 3 * _PROBE_CHUNK + 1
    renders, encodes = [], []
    real_render, real_encode = additivity.render, additivity.encode_np
    monkeypatch.setattr(additivity, "render",
                        lambda items: renders.append(len(items)) or real_render(items))
    monkeypatch.setattr(additivity, "encode_np",
                        lambda model, rows: encodes.append(len(rows)) or real_encode(model, rows))
    report = run_probe(micro_teacher, fgs, bgs, n, 8)
    assert report.n == n
    chunks = math.ceil(n / _PROBE_CHUNK)
    assert renders == [2 * _PROBE_CHUNK] * (chunks - 1) + [2]
    assert encodes == [3 * _PROBE_CHUNK] * (chunks - 1) + [3]


def test_batch_additivity_counts_a_degenerate_triple_past_a_chunk(micro_world,
                                                                   micro_teacher):
    fgs, bgs = micro_world
    triples = [triple_rasters(fgs[i % len(fgs)], bgs[i % len(bgs)], 40 + i)
               for i in range(_PROBE_CHUNK)]
    iso = triples[0][0]
    triples.append((iso, -iso, iso))  # antipodal parts under the linear planted map
    report = batch_additivity(micro_teacher, iter(triples))
    assert (report.n, report.excluded) == (_PROBE_CHUNK, 1)
    one_at_a_time = [batch_additivity(micro_teacher, [t]).scores[0] for t in triples[:-1]]
    assert np.max(np.abs(report.scores - one_at_a_time)) <= 1e-6
    with pytest.raises(DegenerateInputError):
        batch_additivity(micro_teacher, triples[-1:])
    for empty in ([], iter(())):
        with pytest.raises(ConfigError):
            batch_additivity(micro_teacher, empty)


def test_run_probe_deterministic(micro_world, micro_teacher):
    fgs, bgs = micro_world
    a = run_probe(micro_teacher, fgs, bgs, 12, 8)
    b = run_probe(micro_teacher, fgs, bgs, 12, 8)
    assert np.array_equal(a.scores, b.scores)

