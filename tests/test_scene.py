"""World generation, mask pipeline, compositing, datasets and manifests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchorlab.errors import ConfigError, DegenerateMaskError, PlacementError
from anchorlab.rng import derive_seed
from anchorlab.scene import (
    CLASS_STYLES,
    DEGRADATIONS,
    GROUP_STYLES,
    SCENE_SCALE_RANGE,
    DatasetSizes,
    ForegroundInstance,
    build_grouped_dataset,
    composite,
    degrade_mask,
    gaussian_blur,
    gen_world,
    make_background,
    make_composite,
    read_manifest,
    regenerate_from_manifest,
    resize_sinc,
    scaled_foreground,
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
        r0, r1, c0, c1 = fg.bbox
        assert (fg.mask[r0:r1, c0:c1] > 0).any()
        assert not (fg.mask[:r0] > 0).any() and not (fg.mask[r1:] > 0).any()
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
    rec = composite(fgs[0], bgs[0], 0.6, 123)
    assert rec.raster.shape == bgs[0].raster.shape
    assert rec.fg_id == fgs[0].id and rec.bg_id == bgs[0].id
    again = composite(fgs[0], bgs[0], 0.6, 123)
    assert np.array_equal(rec.raster, again.raster)
    # far corners are untouched background
    assert np.array_equal(rec.raster[0, 0], bgs[0].raster[0, 0])


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
    assert np.array_equal(composite(fgs[1], bg, 0.65, 9, mode).raster, expected)


def test_composite_config_errors(micro_world):
    fgs, bgs = micro_world
    for scale in (0.0, -0.2, 1.5):
        with pytest.raises((ConfigError, PlacementError)):
            scaled_foreground(fgs[0], scale, (32, 32))
        with pytest.raises((ConfigError, PlacementError)):
            composite(fgs[0], bgs[0], scale, 1)


def test_make_composite_scale_in_range_and_seeded(micro_world):
    fgs, bgs = micro_world
    scales = [make_composite(fgs[0], bgs[0], seed).scale for seed in range(20)]
    assert all(SCENE_SCALE_RANGE[0] <= s <= SCENE_SCALE_RANGE[1] for s in scales)
    assert len(set(scales)) > 1
    again = make_composite(fgs[0], bgs[0], 9)
    assert again.scale == scales[9]
    assert np.array_equal(again.raster, make_composite(fgs[0], bgs[0], 9).raster)


def test_make_composite_modes(micro_world):
    fgs, bgs = micro_world
    perfect = make_composite(fgs[0], bgs[0], 5)
    box = make_composite(fgs[0], bgs[0], 5, degradation="bbox")
    assert not np.array_equal(perfect.raster, box.raster)
    assert box.degradation == "bbox"


@pytest.mark.parametrize("mode", DEGRADATIONS)
def test_crop_cache_is_keyed_by_degradation(micro_world, mode):
    fgs, bgs = micro_world

    def fresh():
        fg = fgs[0]
        return ForegroundInstance(fg.id, fg.y, fg.raster, fg.mask, fg.bbox)

    used = fresh()
    for other in DEGRADATIONS:
        if other != mode:
            make_composite(used, bgs[0], 5, degradation=other)
    got = make_composite(used, bgs[0], 5, degradation=mode).raster
    assert np.array_equal(got, make_composite(fresh(), bgs[0], 5, degradation=mode).raster)


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
    sizes = DatasetSizes(train_per_class=20, test_per_cell=5)
    train, test = build_grouped_dataset(fgs, bgs, 0.9, sizes, 17)
    assert len(train.items) == 40 and len(test.items) == 20
    for y in (0, 1):
        majority = sum(1 for it in train.items if it.y == y and it.g == y)
        assert majority == round(0.9 * 20)
    # test split is balanced per cell
    for y in (0, 1):
        for g in (0, 1):
            assert sum(1 for it in test.items if it.y == y and it.g == g) == 5
    # background leakage guard
    train_bgs = {it.comp.bg_id for it in train.items}
    test_bgs = {it.comp.bg_id for it in test.items}
    assert train_bgs & test_bgs == set()


def test_build_grouped_dataset_errors(micro_world):
    fgs, bgs = micro_world
    sizes = DatasetSizes(4, 2)
    with pytest.raises(ConfigError):
        build_grouped_dataset(fgs, bgs, 0.4, sizes, 1)
    three, _ = gen_world(2, 3, 2, 1, 2, (32, 32))
    with pytest.raises(ConfigError):
        build_grouped_dataset(three, bgs, 0.9, sizes, 1)


def test_dataset_accessors(micro_world):
    fgs, bgs = micro_world
    train, _ = build_grouped_dataset(fgs, bgs, 1.0, DatasetSizes(4, 2), 3)
    assert train.rasters().shape == (8, 32, 32, 3)
    assert train.labels().shape == (8,)
    assert train.groups().shape == (8,)
    assert train.rho == 1.0 and train.split == "train"


# ---------------------------------------------------------------------------
# manifests


def test_manifest_bitwise_regeneration(tmp_path):
    fgs, bgs = gen_world(31, 2, 2, 2, 5, (32, 32))
    sizes = DatasetSizes(4, 2)
    train, test = build_grouped_dataset(fgs, bgs, 1.0, sizes, 55)
    header = {"world_seed": 31, "num_classes": 2, "num_bg_groups": 2,
              "fg_per_class": 2, "bg_per_group": 5, "hw": [32, 32], "rho": 1.0,
              "data_seed": 55}
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, train, test, header)
    got_header, items = read_manifest(path)
    assert got_header["world_seed"] == 31
    assert len(items) == len(train.items) + len(test.items)
    train2, test2 = regenerate_from_manifest(path)
    for orig, back in zip(train.items + test.items, train2.items + test2.items):
        assert orig.y == back.y and orig.g == back.g
        assert np.array_equal(orig.comp.raster, back.comp.raster)


def test_manifest_missing_header(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "item", "fg_id": "x"}\n')
    with pytest.raises(ConfigError):
        read_manifest(path)


def test_item_seed_is_order_independent():
    a = derive_seed(5, "fg-0-0", "bg-1-2", 3)
    b = derive_seed(5, "fg-0-0", "bg-1-2", 3)
    c = derive_seed(5, "fg-0-0", "bg-1-2", 4)
    assert a == b and a != c
