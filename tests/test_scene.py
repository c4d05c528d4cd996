"""World generation, mask pipeline, compositing, datasets and manifests."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchorlab import scene
from anchorlab.errors import ConfigError, DegenerateMaskError, ManifestError
from anchorlab.rng import derive_seed, rng
from anchorlab.scene import (
    CLASS_STYLES,
    DEGRADATIONS,
    GROUP_STYLES,
    SCENE_SCALE_RANGE,
    ForegroundInstance,
    build_test_split,
    build_train_split,
    composite,
    degrade_mask,
    gaussian_blur,
    gen_world,
    make_background,
    make_composite,
    RenderMemo,
    regenerate_from_manifest,
    render,
    resize_sinc,
    scaled_foreground,
    scene_scale,
    split_backgrounds,
    threshold_mask,
    write_manifest,
)


# ---------------------------------------------------------------------------
# mask pipeline oracles


def test_threshold_boundary_exact():
    m = np.array([[99, 100, 101, 255, 0]], dtype=np.uint8)
    out = threshold_mask(m)
    assert out.tolist() == [[0, 0, 255, 255, 0]]


@given(arrays(np.uint8, (6, 6)))
@settings(max_examples=50, deadline=None)
def test_threshold_binary_and_idempotent(m):
    out = threshold_mask(m)
    assert set(np.unique(out)) <= {0, 255}
    assert np.array_equal(threshold_mask(out), out)


def _brute_morph(binary: np.ndarray, radius: int, dilate: bool) -> np.ndarray:
    """Distance-based oracle: disk structuring element, borders act as False."""
    H, W = binary.shape
    out = np.zeros_like(binary)
    for i in range(H):
        for j in range(W):
            hit = [] if dilate else [True]
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    if di * di + dj * dj > radius * radius:
                        continue
                    ii, jj = i + di, j + dj
                    val = binary[ii, jj] if 0 <= ii < H and 0 <= jj < W else False
                    hit.append(val)
            out[i, j] = any(hit) if dilate else all(hit)
    return out


HAND_MASKS = [
    np.zeros((7, 7), dtype=bool),
    np.eye(7, dtype=bool),
]
_center = np.zeros((7, 7), dtype=bool)
_center[3, 3] = True
HAND_MASKS.append(_center)
_block = np.zeros((7, 7), dtype=bool)
_block[2:5, 2:5] = True
HAND_MASKS.append(_block)
_full = np.ones((7, 7), dtype=bool)
HAND_MASKS.append(_full)


@pytest.mark.parametrize("mask_idx", range(len(HAND_MASKS)))
@pytest.mark.parametrize("radius", [1, 2])
def test_morphology_matches_brute_force(mask_idx, radius):
    binary = HAND_MASKS[mask_idx]
    m = np.where(binary, 255, 0).astype(np.uint8)
    expected = _brute_morph(binary, radius, dilate=True)
    got = degrade_mask(m, "noisy", radius=radius) > 0
    assert np.array_equal(got, expected)
    expected = _brute_morph(binary, radius, dilate=False)
    if binary.any() and not expected.any():
        with pytest.raises(DegenerateMaskError):
            degrade_mask(m, "botched", radius=radius)
    elif binary.any():
        got = degrade_mask(m, "botched", radius=radius) > 0
        assert np.array_equal(got, expected)


def test_bbox_mode_is_filled_rectangle():
    m = np.zeros((7, 7), dtype=np.uint8)
    m[1, 2] = 255
    m[4, 5] = 255
    out = degrade_mask(m, "bbox")
    expected = np.zeros((7, 7), dtype=np.uint8)
    expected[1:5, 2:6] = 255
    assert np.array_equal(out, expected)
    with pytest.raises(DegenerateMaskError):
        degrade_mask(np.zeros((5, 5), dtype=np.uint8), "bbox")


def test_degrade_mask_errors_and_identity():
    m = np.where(_block, 255, 0).astype(np.uint8)
    with pytest.raises(ConfigError):
        degrade_mask(m, "fuzzy")
    with pytest.raises(ConfigError):
        degrade_mask(m, "noisy", radius=-1)
    assert np.array_equal(degrade_mask(m, "perfect"), m)
    assert np.array_equal(degrade_mask(m, "noisy", radius=0), m)


@given(arrays(np.uint8, (8, 8), elements=st.sampled_from([0, 255])))
@settings(max_examples=30, deadline=None)
def test_dilation_superset_erosion_subset(m):
    binary = m > 0
    dil = degrade_mask(m, "noisy", radius=1) > 0
    assert (dil | binary).sum() == dil.sum()  # dilation keeps every original pixel
    if binary.any():
        try:
            ero = degrade_mask(m, "botched", radius=1) > 0
        except DegenerateMaskError:
            return
        assert (ero & binary).sum() == ero.sum()  # erosion never adds pixels


def test_gaussian_blur_preserves_constants():
    img = np.full((9, 9), 3.5, dtype=np.float32)
    assert np.allclose(gaussian_blur(img), 3.5, atol=1e-5)
    delta = np.zeros((11, 11), dtype=np.float32)
    delta[5, 5] = 1.0
    out = gaussian_blur(delta)
    assert out.sum() == pytest.approx(1.0, abs=1e-5)
    assert np.allclose(out, out[::-1, :], atol=1e-7)  # symmetric response
    assert np.allclose(out, out.T, atol=1e-7)


def test_resize_sinc_identity_and_constant():
    g = np.random.default_rng(0)
    img = g.uniform(0, 1, size=(12, 12, 3)).astype(np.float32)
    assert np.allclose(resize_sinc(img, (12, 12)), img, atol=1e-5)
    const = np.full((10, 14), 0.7, dtype=np.float32)
    out = resize_sinc(const, (5, 9))
    assert out.shape == (5, 9)
    assert np.allclose(out, 0.7, atol=1e-4)


def _resize_matrix_loop(n_in, n_out):
    """The per-tap loop that built resize matrices before vectorisation."""
    scale = n_in / n_out
    support = scene._LOBES * max(scale, 1.0)
    M = np.zeros((n_out, n_in), dtype=np.float32)
    for i in range(n_out):
        center = (i + 0.5) * scale - 0.5
        lo = int(np.floor(center - support)) if support > 0 else 0
        hi = int(np.ceil(center + support))
        j = np.arange(lo, hi + 1)
        d = (j - center) / max(scale, 1.0)
        w = scene._windowed_sinc(d)
        jc = np.clip(j, 0, n_in - 1)  # edge clamp
        for jj, ww in zip(jc, w):
            M[i, jj] += ww
        s = M[i].sum()
        if s != 0:
            M[i] /= s
    return M


def test_resize_matrix_matches_the_per_tap_loop(monkeypatch):
    monkeypatch.setattr(scene, "_resize_matrix_cache", {})
    pairs = {(n_in, n_out) for n_in in range(1, 70, 3) for n_out in range(1, 70, 2)}
    pairs |= {(64, n_out) for n_out in range(1, 65)} | {(n_in, 64) for n_in in range(1, 65)}
    for n_in, n_out in sorted(pairs):
        got = scene._resize_matrix(n_in, n_out)
        want = _resize_matrix_loop(n_in, n_out)
        assert got.dtype == np.float32 and np.array_equal(got, want), (n_in, n_out)


# ---------------------------------------------------------------------------
# world generation


def test_gen_world_shapes_and_determinism():
    fgs, bgs = gen_world(11, 2, 2, 3, 4, (32, 32))
    assert len(fgs) == 6 and len(bgs) == 8
    assert {fg.y for fg in fgs} == {0, 1}
    assert {bg.g for bg in bgs} == {0, 1}
    for fg in fgs:
        assert fg.raster.shape == (32, 32, 3)
        assert set(np.unique(fg.mask)) <= {0, 255}
    again = gen_world(11, 2, 2, 3, 4, (32, 32))
    assert np.array_equal(fgs[0].raster, again[0][0].raster)
    assert np.array_equal(bgs[0].raster, again[1][0].raster)


def test_gen_world_config_errors():
    with pytest.raises(ConfigError):
        gen_world(1, len(CLASS_STYLES) + 1, 2, 1, 1)
    with pytest.raises(ConfigError):
        gen_world(1, 2, len(GROUP_STYLES) + 1, 1, 1)
    with pytest.raises(ConfigError):
        gen_world(1, 2, 2, 0, 1)


def test_background_families_differ():
    a = make_background(5, "bg-a", 0, (32, 32))
    b = make_background(5, "bg-b", 1, (32, 32))
    assert a.raster.shape == (32, 32, 3)
    assert not np.allclose(a.raster, b.raster)
    assert a.raster.min() >= 0.0 and a.raster.max() <= 1.0


# ---------------------------------------------------------------------------
# compositing


def test_composite_center_and_determinism(micro_world):
    fgs, bgs = micro_world
    raster = composite(fgs[0], bgs[0], 0.6)
    assert raster.shape == bgs[0].raster.shape and raster.dtype == np.float32
    assert np.array_equal(raster, composite(fgs[0], bgs[0], 0.6))
    # far corners are untouched background
    assert np.array_equal(raster[0, 0], bgs[0].raster[0, 0].astype(np.float32))


@pytest.mark.parametrize("mode", ["perfect", "bbox"])
def test_composite_is_the_centred_blend_of_scaled_foreground(micro_world, mode):
    fgs, bgs = micro_world
    bg = bgs[3]
    H, W = bg.raster.shape[:2]
    fg_scaled, a = scaled_foreground(fgs[1], 0.65, (H, W), mode)
    oh, ow = a.shape[:2]
    assert a.shape == (oh, ow, 1) and fg_scaled.shape == (oh, ow, 3)
    assert a.min() >= 0.0 and a.max() <= 1.0
    expected = bg.raster.copy()
    r0, c0 = (H - oh) // 2, (W - ow) // 2
    region = expected[r0 : r0 + oh, c0 : c0 + ow]
    expected[r0 : r0 + oh, c0 : c0 + ow] = a * fg_scaled + (1.0 - a) * region
    assert np.array_equal(render([(fgs[1], bg, 0.65)], mode)[0], expected.astype(np.float32))


def test_composite_config_errors(micro_world):
    fgs, bgs = micro_world
    for scale in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            scaled_foreground(fgs[0], scale, (32, 32))
        with pytest.raises(ConfigError):
            composite(fgs[0], bgs[0], scale)


def test_make_composite_scale_in_range_and_seeded(micro_world):
    fgs, bgs = micro_world
    scales = [scene_scale(seed) for seed in range(20)]
    assert all(SCENE_SCALE_RANGE[0] <= s <= SCENE_SCALE_RANGE[1] for s in scales)
    assert len(set(scales)) > 1
    again = make_composite(fgs[0], bgs[0], 9)
    assert np.array_equal(again, composite(fgs[0], bgs[0], scales[9]))
    assert np.array_equal(again, make_composite(fgs[0], bgs[0], 9))


def test_make_composite_modes(micro_world):
    fgs, bgs = micro_world
    perfect = make_composite(fgs[0], bgs[0], 5)
    box = render([(fgs[0], bgs[0], scene_scale(5))], "bbox")[0]
    assert not np.array_equal(perfect, box)


@pytest.mark.parametrize("mode", DEGRADATIONS)
def test_crop_cache_is_keyed_by_degradation(micro_world, mode):
    fgs, bgs = micro_world

    def fresh():
        fg = fgs[0]
        return ForegroundInstance(fg.id, fg.y, fg.raster, fg.mask)

    used = fresh()
    for other in DEGRADATIONS:
        if other != mode:
            render([(used, bgs[0], scene_scale(5))], other)
    got = render([(used, bgs[0], scene_scale(5))], mode)[0]
    assert np.array_equal(got, render([(fresh(), bgs[0], scene_scale(5))], mode)[0])


def _reference_blend(fg, bg, scale, mode):
    """Centred blend in the background's dtype, as `composite` computed it before `render`."""
    H, W = bg.raster.shape[:2]
    fg_scaled, a = scaled_foreground(fg, scale, (H, W), mode)
    oh, ow = a.shape[:2]
    out = bg.raster.copy()
    r0, c0 = (H - oh) // 2, (W - ow) // 2
    out[r0 : r0 + oh, c0 : c0 + ow] = a * fg_scaled + (1.0 - a) * out[r0 : r0 + oh, c0 : c0 + ow]
    return out


@pytest.mark.parametrize("mode", DEGRADATIONS)
def test_render_rows_are_the_blend_rounded_once(micro_world, mode):
    fgs, bgs = micro_world
    stripes = bgs[0]
    checker = next(bg for bg in bgs if bg.g == 1)
    assert stripes.raster.dtype == np.float64 and checker.raster.dtype == np.float32
    specs = [(fg, bg, seed) for bg in (stripes, checker) for fg in fgs[:2] for seed in (3, 4, 3)]
    items = [(fg, bg, scene_scale(seed)) for fg, bg, seed in specs]
    expected = [render([item], mode)[0] for item in items]
    memo = RenderMemo()
    miss = render(items, mode, memo)
    assert memo.parts
    hit = render(items, mode, memo)
    assert miss.dtype == np.float32 and miss.shape == (len(items), 32, 32, 3)
    for i, (fg, bg, scale) in enumerate(items):
        reference = _reference_blend(fg, bg, scale, mode).astype(np.float32)
        assert np.array_equal(miss[i], reference)
        assert np.array_equal(hit[i], reference)
        assert np.array_equal(expected[i], reference)


def test_render_background_only_rows_are_the_cast_raster(micro_world):
    fgs, bgs = micro_world
    stripes = bgs[0]
    checker = next(bg for bg in bgs if bg.g == 1)
    assert stripes.raster.dtype == np.float64 and checker.raster.dtype == np.float32
    composites = [(fg, bg, scene_scale(seed)) for bg in (stripes, checker)
                  for fg, seed in zip(fgs[:3], (3, 4, 5))]
    mixed = [(None, stripes, None), composites[0], (None, checker, 0.7), *composites[1:4],
             (None, stripes, 0.3), *composites[4:]]
    rows = render(mixed)
    alone = render(composites)
    assert rows.dtype == np.float32 and rows.shape == (len(mixed), 32, 32, 3)
    composite_rows = []
    for row, (fg, bg, _) in zip(rows, mixed):
        if fg is None:
            assert np.array_equal(row, bg.raster.astype(np.float32))
        else:
            composite_rows.append(row)
    assert np.array_equal(np.stack(composite_rows), alone)


def test_prepared_crop_is_a_read_only_view_of_the_world_raster(micro_world):
    fgs, _ = micro_world
    crop = scene._prepare_foreground(fgs[0], "perfect")[0]
    assert np.shares_memory(crop, fgs[0].raster)
    with pytest.raises(ValueError):
        crop[...] = 0.0
    assert fgs[0].raster.flags.writeable


def test_render_memo_at_its_cap_stores_nothing(micro_world, monkeypatch):
    fgs, bgs = micro_world
    items = [(fgs[0], bgs[0], 0.7), (fgs[0], bgs[11], 0.7)]
    calls = []
    real = scene.resize_sinc
    monkeypatch.setattr(scene, "resize_sinc", lambda img, hw: calls.append(hw) or real(img, hw))
    full = RenderMemo()
    full.nbytes = scene.RENDER_MEMO_BYTES
    capped = render(items, memo=full)
    assert full.parts == {} and full.nbytes == scene.RENDER_MEMO_BYTES
    assert len(calls) == 4  # raster and alpha, once per item: nothing was stored
    calls.clear()
    fresh = render(items)
    assert len(calls) == 2
    assert np.array_equal(capped, fresh)


# ---------------------------------------------------------------------------
# grouped datasets


def test_split_backgrounds_disjoint_stratified(micro_world):
    _, bgs = micro_world
    train, test = split_backgrounds(bgs, 3)
    assert {b.id for b in train} & {b.id for b in test} == set()
    assert len(train) + len(test) == len(bgs)
    for grp in (0, 1):
        assert any(b.g == grp for b in test)
    one_per_group = [next(b for b in bgs if b.g == grp) for grp in (0, 1)]
    with pytest.raises(ConfigError):
        split_backgrounds(one_per_group, 3)


def test_build_grouped_dataset_counts(micro_world):
    fgs, bgs = micro_world
    train = build_train_split(fgs, bgs, 0.9, 20, 17)
    test = build_test_split(fgs, bgs, 5, 17)
    assert len(train.batch) == 40 and len(test.batch) == 20
    for y in (0, 1):
        majority = int(((train.labels == y) & (train.groups == y)).sum())
        assert majority == round(0.9 * 20)
    # test split is balanced per cell
    for y in (0, 1):
        for g in (0, 1):
            assert int(((test.labels == y) & (test.groups == g)).sum()) == 5
    # background leakage guard
    assert set(train.bg_ids) & set(test.bg_ids) == set()


def test_test_split_does_not_depend_on_the_rate(micro_world):
    fgs, bgs = micro_world
    test = build_test_split(fgs, bgs, 3, 17)
    again = build_test_split(fgs, bgs, 3, 17)
    assert np.array_equal(again.batch, test.batch)
    assert again.seeds == test.seeds
    # every rate's train split draws from the backgrounds the test split leaves out
    for rho in (1.0, 0.9, 0.5):
        train = build_train_split(fgs, bgs, rho, 6, 17)
        assert set(train.bg_ids) & set(test.bg_ids) == set()


def test_build_grouped_dataset_errors(micro_world):
    fgs, bgs = micro_world
    with pytest.raises(ConfigError):
        build_train_split(fgs, bgs, 0.4, 4, 1)
    three, _ = gen_world(2, 3, 2, 1, 2, (32, 32))
    with pytest.raises(ConfigError):
        build_train_split(three, bgs, 0.9, 4, 1)
    with pytest.raises(ConfigError):
        build_test_split(three, bgs, 2, 1)


def test_dataset_columns_align_with_one_read_only_batch(micro_world, tmp_path):
    fgs, bgs = micro_world
    train, test = build_train_split(fgs, bgs, 0.9, 5, 8), build_test_split(fgs, bgs, 2, 8)
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, train, test, {"world_seed": 4242, "num_classes": 2,
                                       "num_bg_groups": 2, "fg_per_class": 4,
                                       "bg_per_group": 10, "hw": [32, 32], "rho": 0.9})
    regenerated, _ = regenerate_from_manifest(path)
    class_of = {fg.id: fg.y for fg in fgs}
    group_of = {bg.id: bg.g for bg in bgs}
    for ds, n in ((train, 10), (test, 8), (regenerated, 10)):
        assert ds.batch.shape == (n, 32, 32, 3) and ds.batch.dtype == np.float32
        for column in (ds.labels, ds.groups, ds.fg_ids, ds.bg_ids, ds.seeds):
            assert len(column) == n
        assert not ds.batch.flags.writeable
        with pytest.raises(ValueError):
            ds.batch[0, 0, 0, 0] = 0.0
        assert ds.labels.tolist() == [class_of[fg_id] for fg_id in ds.fg_ids]
        assert ds.groups.tolist() == [group_of[bg_id] for bg_id in ds.bg_ids]
        assert ds.degradation == "perfect"


# ---------------------------------------------------------------------------
# manifests


def test_manifest_bitwise_regeneration(tmp_path):
    fgs, bgs = gen_world(31, 2, 2, 2, 5, (32, 32))
    train, test = build_train_split(fgs, bgs, 1.0, 4, 55), build_test_split(fgs, bgs, 2, 55)
    header = {"world_seed": 31, "num_classes": 2, "num_bg_groups": 2,
              "fg_per_class": 2, "bg_per_group": 5, "hw": [32, 32], "rho": 1.0,
              "data_seed": 55}
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, train, test, header)
    got_header, *items = [json.loads(line) for line in path.read_text().splitlines()]
    assert got_header["kind"] == "header" and got_header["world_seed"] == 31
    assert len(items) == len(train.batch) + len(test.batch)
    train2, test2 = regenerate_from_manifest(path)
    for orig, back in ((train, train2), (test, test2)):
        assert np.array_equal(orig.labels, back.labels)
        assert np.array_equal(orig.groups, back.groups)
        assert np.array_equal(orig.batch, back.batch)


def test_manifest_split_with_mixed_degradations_is_rejected(tmp_path):
    fgs, bgs = gen_world(31, 2, 2, 2, 5, (32, 32))
    train, test = build_train_split(fgs, bgs, 1.0, 4, 55), build_test_split(fgs, bgs, 2, 55)
    header = {"world_seed": 31, "num_classes": 2, "num_bg_groups": 2,
              "fg_per_class": 2, "bg_per_group": 5, "hw": [32, 32], "rho": 1.0}
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, train, test, header)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"perfect"', '"bbox"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError):
        regenerate_from_manifest(path)


@pytest.mark.parametrize("lineno, edit, named", [
    (3, lambda line: re.sub(r'"fg_id": "[^"]*"', '"fg_id": "fg-9-9"', line), "line 3"),
    (5, lambda line: "not json", "line 5"),
    (1, lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                 if k != "world_seed"}), "'world_seed'"),
])
def test_malformed_manifest_raises_manifest_error(tmp_path, lineno, edit, named):
    fgs, bgs = gen_world(31, 2, 2, 2, 5, (32, 32))
    train, test = build_train_split(fgs, bgs, 1.0, 4, 55), build_test_split(fgs, bgs, 2, 55)
    header = {"world_seed": 31, "num_classes": 2, "num_bg_groups": 2,
              "fg_per_class": 2, "bg_per_group": 5, "hw": [32, 32], "rho": 1.0}
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, train, test, header)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=named):
        regenerate_from_manifest(path)


def test_manifest_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    fgs, bgs = gen_world(31, 2, 2, 2, 5, (32, 32))
    train, test = build_train_split(fgs, bgs, 1.0, 4, 55), build_test_split(fgs, bgs, 2, 55)
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, train, test, {"rho": 1.0})
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        write_manifest(path, train, train, {"rho": 1.0})
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_manifest_missing_header(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "item", "fg_id": "x"}\n')
    with pytest.raises(ManifestError, match="header"):
        regenerate_from_manifest(path)


def test_item_seed_is_order_independent():
    a = derive_seed(5, "fg-0-0", "bg-1-2", 3)
    b = derive_seed(5, "fg-0-0", "bg-1-2", 3)
    c = derive_seed(5, "fg-0-0", "bg-1-2", 4)
    assert a == b and a != c


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1,
                                  derive_seed(7, "low"), derive_seed(7, "high") | 2**63])
def test_rng_seeds_from_the_int_as_from_its_uint64(seed):
    # rng hands the int to default_rng; the generator state is the one np.uint64 gave
    assert (rng(seed).bit_generator.state
            == np.random.default_rng(np.uint64(seed)).bit_generator.state)


def test_prepared_foregrounds_render_without_preparing_again(monkeypatch):
    fgs, bgs = gen_world(12, 2, 2, 3, 4, (32, 32))
    items = [(fg, bgs[i % len(bgs)], 0.6) for i, fg in enumerate(fgs)]
    expected = scene.render(items)
    fresh, _ = gen_world(12, 2, 2, 3, 4, (32, 32))
    scene.prepare_foregrounds(fresh)
    blurs = []
    real = scene.gaussian_blur
    monkeypatch.setattr(scene, "gaussian_blur", lambda img: blurs.append(1) or real(img))
    got = scene.render([(fg, bg, scale) for fg, (_, bg, scale) in zip(fresh, items)])
    assert blurs == [] and np.array_equal(got, expected)
