"""Additivity probe: hand-computed scores, exactness on the planted map."""

import numpy as np
import pytest

from anchorlab.additivity import (
    AdditivityTriple,
    additivity_score,
    batch_additivity,
    exact_triple_rasters,
    neutral_background,
    run_probe,
    sample_pairs,
    triple_rasters,
    write_additivity_csv,
)
from anchorlab.encoders import PlantedConfig, planted_teacher, pre_embedding
from anchorlab.errors import ConfigError, DegenerateInputError
from anchorlab.scene import BackgroundImage, scaled_foreground


def _triple(v_a, v_b, v_ab):
    return AdditivityTriple(
        v_a=np.asarray(v_a, dtype=np.float64),
        v_b=np.asarray(v_b, dtype=np.float64),
        v_ab=np.asarray(v_ab, dtype=np.float64),
    )


def test_score_hand_oracles():
    e1 = [1.0, 0.0]
    e2 = [0.0, 1.0]
    # composite aligned with the part sum
    assert additivity_score(_triple(e1, e2, [1.0, 1.0])) == pytest.approx(1.0)
    # composite orthogonal to the part sum
    assert additivity_score(_triple(e1, e2, [1.0, -1.0])) == pytest.approx(0.0, abs=1e-12)
    # composite equal to one part: cos 45 degrees
    assert additivity_score(_triple(e1, e2, e1)) == pytest.approx(0.70710678, abs=1e-8)


def test_score_swap_symmetry():
    g = np.random.default_rng(1)
    a, b, ab = g.standard_normal((3, 5))
    assert additivity_score(_triple(a, b, ab)) == pytest.approx(
        additivity_score(_triple(b, a, ab)), abs=1e-12)


def test_score_antipodal_raises():
    with pytest.raises(DegenerateInputError):
        additivity_score(_triple([1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]))


def test_score_rotation_invariance():
    g = np.random.default_rng(7)
    a, b, ab = g.standard_normal((3, 6))
    base = additivity_score(_triple(a, b, ab))
    # random orthogonal matrix via QR
    q, _ = np.linalg.qr(g.standard_normal((6, 6)))
    rotated = additivity_score(_triple(q @ a, q @ b, q @ ab))
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


def test_run_probe_deterministic(micro_world, micro_teacher):
    fgs, bgs = micro_world
    a = run_probe(micro_teacher, fgs, bgs, 12, 8)
    b = run_probe(micro_teacher, fgs, bgs, 12, 8)
    assert np.array_equal(a.scores, b.scores)


def test_write_additivity_csv(tmp_path):
    path = tmp_path / "add.csv"
    write_additivity_csv(path, [
        {"encoder": "planted", "alpha": 0.0, "n": 10, "mean_S": 1.0, "std_S": 0.0},
    ])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "encoder,alpha,n,mean_S,std_S"
    assert lines[1].startswith("planted,0.0,10,")
