"""Synthetic foreground/background world and the compositing pipeline.

Foregrounds are parametric shapes with class-specific texture painted on a
neutral mid-gray canvas; backgrounds are per-group texture families.  The
two downstream benchmark classes are deliberately similar in color while the
two background groups differ loudly, so a shortcut-prone encoder has an easy
spurious cue to latch onto.

Compositing: crop to the mask's bounding box, threshold the mask, optionally
degrade it (dilate / erode / bounding box), soften the edge with a Gaussian
blur, rescale with a 3-lobe windowed-sinc filter, and alpha-blend it onto
the background, always centred.  Every composite is fully determined by
(ids, per-item seed, config), so generation is order-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateMaskError, DimensionError, PlacementError
from .rng import derive_seed, rng

NEUTRAL_GRAY = 0.5
MASK_THRESHOLD = 100
BLUR_SIGMA = 1.0
BLUR_RADIUS = 3  # 3 sigma truncation

# segmentation-mask degradation modes, see degrade_mask
DEGRADATIONS = ("perfect", "noisy", "botched", "bbox")

# degradation radii at the reference resolution; scaled by H/224 below
NOISY_RADIUS_REF = 15
BOTCHED_RADIUS_REF = 21
REF_RESOLUTION = 224

SCENE_SCALE_RANGE = (0.6, 0.8)
ANCHOR_SCALE = 0.8

TEST_FRACTION = 0.2  # share of each background group held out for testing

# (shape, base RGB): consecutive classes share a similar palette so the
# foreground cue is subtler than the background one
CLASS_STYLES = [
    ("disk", (0.35, 0.62, 0.30)),
    ("cross", (0.30, 0.58, 0.36)),
    ("triangle", (0.55, 0.50, 0.25)),
    ("square", (0.50, 0.55, 0.32)),
    ("ring", (0.42, 0.48, 0.42)),
    ("disk", (0.60, 0.40, 0.45)),
    ("cross", (0.55, 0.35, 0.50)),
    ("triangle", (0.35, 0.40, 0.60)),
]

# (family, two-color palette) per background group; palettes are far apart
# so the background cue is loud, the way water/land contexts are
GROUP_STYLES = [
    ("stripes", ((0.10, 0.25, 0.70), (0.35, 0.75, 0.90))),
    ("checker", ((0.75, 0.20, 0.10), (0.95, 0.65, 0.20))),
    ("noise", ((0.45, 0.15, 0.60), (0.80, 0.70, 0.85))),
    ("stripes", ((0.80, 0.80, 0.20), (0.25, 0.55, 0.15))),
]


@dataclass
class ForegroundInstance:
    id: str
    y: int
    raster: np.ndarray  # H x W x 3 in [0,1], object on neutral gray
    mask: np.ndarray  # H x W uint8 in 0..255
    bbox: tuple[int, int, int, int]  # r0, r1, c0, c1 (exclusive)
    _prepared: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class BackgroundImage:
    id: str
    g: int
    raster: np.ndarray


@dataclass
class CompositeRecord:
    raster: np.ndarray
    fg_id: str
    bg_id: str
    scale: float
    degradation: str
    seed: int


@dataclass
class GroupedItem:
    comp: CompositeRecord
    y: int
    g: int


@dataclass
class GroupedDataset:
    items: list[GroupedItem]
    rho: float
    split: str

    def rasters(self) -> np.ndarray:
        return np.stack([it.comp.raster for it in self.items])

    def labels(self) -> np.ndarray:
        return np.array([it.y for it in self.items], dtype=np.int64)

    def groups(self) -> np.ndarray:
        return np.array([it.g for it in self.items], dtype=np.int64)


# ---------------------------------------------------------------------------
# world generation


def _shape_mask(shape: str, H: int, W: int, cr: float, cc: float, R: float) -> np.ndarray:
    r, c = np.mgrid[0:H, 0:W].astype(np.float32)
    dr, dc = r - cr, c - cc
    if shape == "disk":
        inside = dr * dr + dc * dc <= R * R
    elif shape == "square":
        inside = np.maximum(np.abs(dr), np.abs(dc)) <= R
    elif shape == "triangle":
        # upward triangle inscribed in the radius-R box
        inside = (dr <= R) & (np.abs(dc) <= (dr + R) * 0.5) & (dr >= -R)
    elif shape == "cross":
        w = R * 0.34
        arm = np.maximum(np.abs(dr), np.abs(dc)) <= R
        inside = arm & ((np.abs(dr) <= w) | (np.abs(dc) <= w))
    elif shape == "ring":
        d2 = dr * dr + dc * dc
        inside = (d2 <= R * R) & (d2 >= (0.55 * R) ** 2)
    else:
        raise ConfigError(f"unknown shape {shape!r}")
    return inside


def _fg_texture(base, H: int, W: int, g: np.random.Generator) -> np.ndarray:
    r, c = np.mgrid[0:H, 0:W].astype(np.float32)
    theta = g.uniform(0, np.pi)
    freq = g.uniform(0.25, 0.6)
    phase = g.uniform(0, 2 * np.pi)
    wave = np.sin(freq * (r * np.cos(theta) + c * np.sin(theta)) + phase)
    tex = np.empty((H, W, 3), dtype=np.float32)
    for ch in range(3):
        tex[:, :, ch] = base[ch] + 0.12 * wave
    tex += g.normal(0.0, 0.02, size=tex.shape).astype(np.float32)
    return np.clip(tex, 0.0, 1.0)


def make_foreground(seed: int, fg_id: str, y: int, style_idx: int,
                    hw: tuple[int, int] = (64, 64)) -> ForegroundInstance:
    H, W = hw
    shape, base = CLASS_STYLES[style_idx]
    g = rng(seed, "fg", fg_id)
    R = g.uniform(0.28, 0.38) * min(H, W)
    cr = H / 2 + g.uniform(-2, 2)
    cc = W / 2 + g.uniform(-2, 2)
    inside = _shape_mask(shape, H, W, cr, cc, R)
    if not inside.any():
        raise DegenerateMaskError(f"foreground {fg_id} has empty support")
    raster = np.full((H, W, 3), NEUTRAL_GRAY, dtype=np.float32)
    raster[inside] = _fg_texture(base, H, W, g)[inside]
    # outside the object the source image shows its muted native context,
    # pixels that only reach a composite when the mask is degraded
    context = np.empty((H, W, 3), dtype=np.float32)
    for ch in range(3):
        context[:, :, ch] = NEUTRAL_GRAY + 0.4 * (base[ch] - NEUTRAL_GRAY)
    context += g.normal(0.0, 0.03, size=context.shape).astype(np.float32)
    raster[~inside] = np.clip(context, 0.0, 1.0)[~inside]
    mask = np.where(inside, 255, 0).astype(np.uint8)
    rows = np.flatnonzero(inside.any(axis=1))
    cols = np.flatnonzero(inside.any(axis=0))
    bbox = (int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1)
    return ForegroundInstance(id=fg_id, y=y, raster=raster, mask=mask, bbox=bbox)


def _upsample_nearest(small: np.ndarray, H: int, W: int) -> np.ndarray:
    ry = H // small.shape[0]
    rx = W // small.shape[1]
    return np.repeat(np.repeat(small, ry, axis=0), rx, axis=1)


def make_background(seed: int, bg_id: str, group: int,
                    hw: tuple[int, int] = (64, 64)) -> BackgroundImage:
    H, W = hw
    family, (col_a, col_b) = GROUP_STYLES[group % len(GROUP_STYLES)]
    g = rng(seed, "bg", bg_id)
    col_a = np.asarray(col_a, dtype=np.float32)
    col_b = np.asarray(col_b, dtype=np.float32)
    if family.startswith("stripes"):
        r, c = np.mgrid[0:H, 0:W].astype(np.float32)
        theta = g.uniform(0, np.pi)
        freq = g.uniform(0.3, 0.8)
        phase = g.uniform(0, 2 * np.pi)
        t = 0.5 + 0.5 * np.sin(freq * (r * np.cos(theta) + c * np.sin(theta)) + phase)
    elif family == "checker":
        tile = int(g.integers(5, 11))
        orow = int(g.integers(0, tile))
        ocol = int(g.integers(0, tile))
        r, c = np.mgrid[0:H, 0:W]
        t = (((r + orow) // tile + (c + ocol) // tile) % 2).astype(np.float32)
        t = 0.15 + 0.7 * t  # keep both tile colors inside the palette span
    elif family == "noise":
        small = g.random((8, 8)).astype(np.float32)
        t = _upsample_nearest(small, H, W)
    else:
        raise ConfigError(f"unknown background family {family!r}")
    raster = col_a[None, None, :] + t[:, :, None] * (col_b - col_a)[None, None, :]
    raster += g.normal(0.0, 0.015, size=raster.shape).astype(np.float32)
    return BackgroundImage(id=bg_id, g=group, raster=np.clip(raster, 0.0, 1.0))


def gen_world(seed: int, num_classes: int, num_bg_groups: int,
              fg_per_class: int, bg_per_group: int,
              hw: tuple[int, int] = (64, 64)) -> tuple[list[ForegroundInstance], list[BackgroundImage]]:
    """Deterministic synthetic world: shapes with class texture, grouped backgrounds."""
    if num_classes > len(CLASS_STYLES):
        raise ConfigError(f"at most {len(CLASS_STYLES)} classes available")
    if num_bg_groups > len(GROUP_STYLES):
        raise ConfigError(f"at most {len(GROUP_STYLES)} background groups available")
    if fg_per_class < 1 or bg_per_group < 1:
        raise ConfigError("counts must be >= 1 per class/group")
    H, W = hw
    if H < 8 or W < 8:
        raise DimensionError("raster extents must be >= 8")
    fgs = []
    for y in range(num_classes):
        for i in range(fg_per_class):
            fg_id = f"fg-{y}-{i}"
            fg = make_foreground(seed, fg_id, y, y, hw)
            support = (fg.mask > 0).mean()
            if support > 0.64:
                raise ConfigError(f"foreground {fg_id} support fraction {support:.2f} > 0.64")
            fgs.append(fg)
    bgs = []
    for grp in range(num_bg_groups):
        for i in range(bg_per_group):
            bg_id = f"bg-{grp}-{i}"
            bgs.append(make_background(seed, bg_id, grp, hw))
    return fgs, bgs


# ---------------------------------------------------------------------------
# mask pipeline


def gaussian_blur(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur, sigma BLUR_SIGMA truncated at BLUR_RADIUS, edge-clamped."""
    x = np.arange(-BLUR_RADIUS, BLUR_RADIUS + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / BLUR_SIGMA) ** 2)
    k = (k / k.sum()).astype(np.float32)
    pad = (BLUR_RADIUS, BLUR_RADIUS)
    out = np.asarray(img, dtype=np.float32)
    padded = np.pad(out, [pad] + [(0, 0)] * (out.ndim - 1), mode="edge")
    out = np.zeros_like(img, dtype=np.float32)
    for i, w in enumerate(k):
        out += w * padded[i : i + img.shape[0]]
    padded = np.pad(out, [(0, 0), pad] + [(0, 0)] * (out.ndim - 2), mode="edge")
    res = np.zeros_like(out)
    for i, w in enumerate(k):
        res += w * padded[:, i : i + img.shape[1]]
    return res


def threshold_mask(m: np.ndarray) -> np.ndarray:
    """Hard threshold: values > 100 map to 255, everything else to 0."""
    return np.where(np.asarray(m) > MASK_THRESHOLD, 255, 0).astype(np.uint8)


def _disk_element(radius: int) -> np.ndarray:
    r = np.arange(-radius, radius + 1)
    return (r[:, None] ** 2 + r[None, :] ** 2) <= radius * radius


def degrade_mask(m: np.ndarray, mode: str, radius: int | None = None) -> np.ndarray:
    """Segmentation-quality degradations on a binary (0/255) mask.

    noisy = dilation, botched = erosion, both with a Euclidean-disk element;
    bbox = filled tight rectangle of the support.  Default radii follow the
    reference-resolution values scaled by H/224.
    """
    binary = np.asarray(m) > 0
    H = binary.shape[0]
    if mode == "perfect":
        return np.where(binary, 255, 0).astype(np.uint8)
    if mode == "bbox":
        if not binary.any():
            raise DegenerateMaskError("bbox of an empty mask")
        rows = np.flatnonzero(binary.any(axis=1))
        cols = np.flatnonzero(binary.any(axis=0))
        out = np.zeros_like(binary)
        out[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] = True
        return np.where(out, 255, 0).astype(np.uint8)
    if mode not in ("noisy", "botched"):
        raise ConfigError(f"unknown degradation mode {mode!r}")
    if radius is None:
        ref = NOISY_RADIUS_REF if mode == "noisy" else BOTCHED_RADIUS_REF
        radius = max(1, round(ref * H / REF_RESOLUTION))
    if radius < 0:
        raise ConfigError("radius must be >= 0")
    if radius == 0:
        return np.where(binary, 255, 0).astype(np.uint8)
    elem = _disk_element(radius)
    k = 2 * radius + 1
    padded = np.pad(binary, radius, mode="constant", constant_values=False)
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    if mode == "noisy":
        out = (win & elem).any(axis=(2, 3))
    else:
        out = (win | ~elem).all(axis=(2, 3))
    if mode == "botched" and not out.any():
        raise DegenerateMaskError(f"erosion radius {radius} emptied the mask")
    return np.where(out, 255, 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# windowed-sinc rescaling

_LOBES = 3
_resize_matrix_cache: dict[tuple[int, int], np.ndarray] = {}


def _windowed_sinc(x: np.ndarray) -> np.ndarray:
    out = np.sinc(x) * np.sinc(x / _LOBES)
    out[np.abs(x) >= _LOBES] = 0.0
    return out


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    key = (n_in, n_out)
    cached = _resize_matrix_cache.get(key)
    if cached is not None:
        return cached
    scale = n_in / n_out
    support = _LOBES * max(scale, 1.0)
    M = np.zeros((n_out, n_in), dtype=np.float32)
    for i in range(n_out):
        center = (i + 0.5) * scale - 0.5
        lo = int(np.floor(center - support)) if support > 0 else 0
        hi = int(np.ceil(center + support))
        j = np.arange(lo, hi + 1)
        d = (j - center) / max(scale, 1.0)
        w = _windowed_sinc(d)
        jc = np.clip(j, 0, n_in - 1)  # edge clamp
        for jj, ww in zip(jc, w):
            M[i, jj] += ww
        s = M[i].sum()
        if s != 0:
            M[i] /= s
    _resize_matrix_cache[key] = M
    return M


def resize_sinc(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Separable 3-lobe windowed-sinc resample with edge clamping."""
    H, W = img.shape[:2]
    oh, ow = out_hw
    My = _resize_matrix(H, oh)
    Mx = _resize_matrix(W, ow)
    flat = img.reshape(H, -1)
    tmp = (My @ flat).reshape(oh, W, -1)
    out = np.tensordot(tmp, Mx, axes=([1], [1])).transpose(0, 2, 1)
    if img.ndim == 2:
        return out[:, :, 0]
    return out


# ---------------------------------------------------------------------------
# compositing


def _prepare_foreground(fg: ForegroundInstance, degradation: str) -> tuple[np.ndarray, np.ndarray]:
    """Cropped foreground raster + refined alpha for a degradation mode (cached)."""
    cached = fg._prepared.get(degradation)
    if cached is not None:
        return cached
    binary = threshold_mask(fg.mask)
    binary = degrade_mask(binary, degradation)
    alpha = np.clip(gaussian_blur(binary.astype(np.float32)), 0.0, 255.0)
    support = alpha > 0
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    r0, r1, c0, c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    crop = (fg.raster[r0:r1, c0:c1].copy(), alpha[r0:r1, c0:c1].copy())
    fg._prepared[degradation] = crop
    return crop


def scaled_foreground(fg: ForegroundInstance, scale: float, hw: tuple[int, int],
                      degradation: str = "perfect") -> tuple[np.ndarray, np.ndarray]:
    """Foreground crop and its [0, 1] alpha (oh x ow x 1), long side rescaled to
    `scale` of the `hw` canvas's shorter extent: the one place a foreground is resized."""
    if not (0.0 < scale <= 1.0):
        raise ConfigError(f"scale {scale} outside (0, 1]")
    H, W = hw
    crop, alpha = _prepare_foreground(fg, degradation)
    h, w = crop.shape[:2]
    long_side = max(h, w)
    target_long = max(1, round(scale * min(H, W)))
    oh = max(1, round(h * target_long / long_side))
    ow = max(1, round(w * target_long / long_side))
    if oh > H or ow > W:
        raise PlacementError(f"scaled foreground {oh}x{ow} exceeds canvas {H}x{W}")
    fg_scaled = np.clip(resize_sinc(crop, (oh, ow)), 0.0, 1.0)
    a_scaled = np.clip(resize_sinc(alpha, (oh, ow)), 0.0, 255.0)[:, :, None] / 255.0
    return fg_scaled, a_scaled


def composite(fg: ForegroundInstance, bg: BackgroundImage, scale: float,
              seed: int, degradation: str = "perfect") -> CompositeRecord:
    """Alpha-blend a rescaled foreground onto the centre of a background.

    The record keeps `seed`, so it regenerates bitwise from (ids, seed, config).
    """
    H, W = bg.raster.shape[:2]
    fg_scaled, a = scaled_foreground(fg, scale, (H, W), degradation)
    oh, ow = a.shape[:2]
    r0, c0 = (H - oh) // 2, (W - ow) // 2
    out = bg.raster.copy()
    region = out[r0 : r0 + oh, c0 : c0 + ow]
    out[r0 : r0 + oh, c0 : c0 + ow] = a * fg_scaled + (1.0 - a) * region
    return CompositeRecord(raster=out, fg_id=fg.id, bg_id=bg.id, scale=scale,
                           degradation=degradation, seed=seed)


def make_composite(fg: ForegroundInstance, bg: BackgroundImage, seed: int,
                   degradation: str = "perfect") -> CompositeRecord:
    """Composite with the scale drawn from SCENE_SCALE_RANGE by the item seed."""
    scale = float(rng(seed, "scale").uniform(*SCENE_SCALE_RANGE))
    return composite(fg, bg, scale, seed, degradation)


# ---------------------------------------------------------------------------
# grouped spurious-correlation datasets


def split_backgrounds(backgrounds: list[BackgroundImage],
                      seed: int) -> tuple[list[BackgroundImage], list[BackgroundImage]]:
    """Disjoint train/test background pools, stratified per group."""
    by_group: dict[int, list[BackgroundImage]] = {}
    for bg in backgrounds:
        by_group.setdefault(bg.g, []).append(bg)
    train, test = [], []
    for grp in sorted(by_group):
        pool = sorted(by_group[grp], key=lambda b: b.id)
        order = rng(seed, "bg-split", grp).permutation(len(pool))
        n_test = max(1, round(TEST_FRACTION * len(pool)))
        if n_test >= len(pool):
            raise ConfigError(f"group {grp} has too few backgrounds for a disjoint split")
        test.extend(pool[i] for i in order[:n_test])
        train.extend(pool[i] for i in order[n_test:])
    return train, test


@dataclass(frozen=True)
class DatasetSizes:
    train_per_class: int
    test_per_cell: int


def build_grouped_dataset(foregrounds: list[ForegroundInstance],
                          backgrounds: list[BackgroundImage],
                          rho: float, sizes: DatasetSizes, seed: int,
                          ) -> tuple[GroupedDataset, GroupedDataset]:
    """Two-class / two-group correlated train split plus a balanced test split.

    Class y's majority background group is y.  Test backgrounds are disjoint
    from train backgrounds (leakage prevention).
    """
    if not (0.5 <= rho <= 1.0):
        raise ConfigError(f"correlation rate {rho} outside [0.5, 1.0]")
    classes = sorted({fg.y for fg in foregrounds})
    groups = sorted({bg.g for bg in backgrounds})
    if len(classes) != 2 or len(groups) != 2:
        raise ConfigError("the grouped benchmark needs exactly two classes and two groups")
    fg_by_class = {y: sorted([f for f in foregrounds if f.y == y], key=lambda f: f.id)
                   for y in classes}
    bg_train, bg_test = split_backgrounds(backgrounds, seed)
    train_by_group = {g: [b for b in bg_train if b.g == g] for g in groups}
    test_by_group = {g: [b for b in bg_test if b.g == g] for g in groups}

    def _make(fg, bg, rep):
        item_seed = derive_seed(seed, fg.id, bg.id, rep)
        comp = make_composite(fg, bg, item_seed)
        return GroupedItem(comp=comp, y=fg.y, g=bg.g)

    train_items = []
    for ci, y in enumerate(classes):
        n = sizes.train_per_class
        n_major = round(rho * n)
        major_g, minor_g = groups[ci], groups[1 - ci]
        gsel = rng(seed, "train-sel", y)
        for i in range(n):
            grp = major_g if i < n_major else minor_g
            fg = fg_by_class[y][int(gsel.integers(0, len(fg_by_class[y])))]
            pool = train_by_group[grp]
            bg = pool[int(gsel.integers(0, len(pool)))]
            train_items.append(_make(fg, bg, i))
    test_items = []
    for ci, y in enumerate(classes):
        for grp in groups:
            gsel = rng(seed, "test-sel", y, grp)
            for i in range(sizes.test_per_cell):
                fg = fg_by_class[y][int(gsel.integers(0, len(fg_by_class[y])))]
                pool = test_by_group[grp]
                bg = pool[int(gsel.integers(0, len(pool)))]
                test_items.append(_make(fg, bg, i))
    return (GroupedDataset(train_items, rho, "train"),
            GroupedDataset(test_items, rho, "test"))


# ---------------------------------------------------------------------------
# manifests


def write_manifest(path, train: GroupedDataset, test: GroupedDataset,
                   world_config: dict) -> None:
    """One JSON record per line; a header line carries the world config."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "header", **world_config}, sort_keys=True) + "\n")
        for split_name, ds in (("train", train), ("test", test)):
            for i, it in enumerate(ds.items):
                rec = {"kind": "item", "composite_id": f"{split_name}-{i}",
                       "fg_id": it.comp.fg_id, "bg_id": it.comp.bg_id,
                       "y": it.y, "g": it.g, "split": split_name,
                       "degradation": it.comp.degradation, "seed": it.comp.seed}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_manifest(path) -> tuple[dict, list[dict]]:
    header = None
    items = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("kind") == "header":
                header = rec
            else:
                items.append(rec)
    if header is None:
        raise ConfigError("manifest missing header record")
    return header, items


def regenerate_from_manifest(path) -> tuple[GroupedDataset, GroupedDataset]:
    """Rebuild all composite rasters from a manifest alone (bitwise identical)."""
    header, items = read_manifest(path)
    fgs, bgs = gen_world(header["world_seed"], header["num_classes"],
                         header["num_bg_groups"], header["fg_per_class"],
                         header["bg_per_group"], tuple(header["hw"]))
    fg_map = {f.id: f for f in fgs}
    bg_map = {b.id: b for b in bgs}
    out = {"train": [], "test": []}
    for rec in items:
        comp = make_composite(fg_map[rec["fg_id"]], bg_map[rec["bg_id"]], rec["seed"],
                              rec["degradation"])
        out[rec["split"]].append(GroupedItem(comp=comp, y=rec["y"], g=rec["g"]))
    return (GroupedDataset(out["train"], header["rho"], "train"),
            GroupedDataset(out["test"], header["rho"], "test"))
