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

`render` is the one place composites are rendered: every stream (datasets,
alignment epochs, anchors, prototypes, BSI, additivity triples, background
embeddings) goes through it as one float32 batch, and `composite` is its
one-item case.  It resizes each distinct (foreground, degradation, output
size) once per `RenderMemo`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateMaskError, DimensionError, ManifestError
from .files import write_whole
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

# cap on the blend parts one RenderMemo stores: a default-config seed's
# distinct sizes take 83.4 MiB
RENDER_MEMO_BYTES = 84 * 2**20

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
]

# (family, two-color palette) per background group; palettes are far apart
# so the background cue is loud, the way water/land contexts are
GROUP_STYLES = [
    ("stripes", ((0.10, 0.25, 0.70), (0.35, 0.75, 0.90))),
    ("checker", ((0.75, 0.20, 0.10), (0.95, 0.65, 0.20))),
]


@dataclass
class ForegroundInstance:
    id: str
    y: int
    raster: np.ndarray  # H x W x 3 in [0,1], object on neutral gray
    mask: np.ndarray  # H x W uint8 in 0..255
    _prepared: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class BackgroundImage:
    id: str
    g: int
    raster: np.ndarray


def neutral_background(hw: tuple[int, int]) -> BackgroundImage:
    """The uniform NEUTRAL_GRAY canvas that isolated objects are shown on."""
    return BackgroundImage(id="neutral", g=-1,
                           raster=np.full((*hw, 3), NEUTRAL_GRAY, dtype=np.float32))


@dataclass
class GroupedDataset:
    """One split as aligned columns: row i of the read-only float32 `batch` is
    foreground `fg_ids[i]`, of class `labels[i]`, composited on background
    `bg_ids[i]`, of group `groups[i]`, at the scale item seed `seeds[i]` draws, with
    the split's mask `degradation`."""

    batch: np.ndarray = field(repr=False)
    labels: np.ndarray
    groups: np.ndarray
    fg_ids: list[str]
    bg_ids: list[str]
    seeds: list[int]
    degradation: str


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


def make_foreground(seed: int, fg_id: str, y: int, hw: tuple[int, int]) -> ForegroundInstance:
    """Foreground `fg_id` of class `y`, drawn in the class's `CLASS_STYLES` shape."""
    H, W = hw
    shape, base = CLASS_STYLES[y]
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
    return ForegroundInstance(id=fg_id, y=y, raster=raster, mask=mask)


def make_background(seed: int, bg_id: str, group: int, hw: tuple[int, int]) -> BackgroundImage:
    H, W = hw
    family, (col_a, col_b) = GROUP_STYLES[group]
    g = rng(seed, "bg", bg_id)
    col_a = np.asarray(col_a, dtype=np.float32)
    col_b = np.asarray(col_b, dtype=np.float32)
    if family == "stripes":
        r, c = np.mgrid[0:H, 0:W].astype(np.float32)
        theta = g.uniform(0, np.pi)
        freq = g.uniform(0.3, 0.8)
        phase = g.uniform(0, 2 * np.pi)
        t = 0.5 + 0.5 * np.sin(freq * (r * np.cos(theta) + c * np.sin(theta)) + phase)
    else:  # checker
        tile = int(g.integers(5, 11))
        orow = int(g.integers(0, tile))
        ocol = int(g.integers(0, tile))
        r, c = np.mgrid[0:H, 0:W]
        t = (((r + orow) // tile + (c + ocol) // tile) % 2).astype(np.float32)
        t = 0.15 + 0.7 * t  # keep both tile colors inside the palette span
    raster = col_a[None, None, :] + t[:, :, None] * (col_b - col_a)[None, None, :]
    raster += g.normal(0.0, 0.015, size=raster.shape).astype(np.float32)
    return BackgroundImage(id=bg_id, g=group, raster=np.clip(raster, 0.0, 1.0))


def gen_world(seed: int, num_classes: int, num_bg_groups: int,
              fg_per_class: int, bg_per_group: int,
              hw: tuple[int, int]) -> tuple[list[ForegroundInstance], list[BackgroundImage]]:
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
            fg = make_foreground(seed, fg_id, y, hw)
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
    stretch = max(scale, 1.0)
    center = (np.arange(n_out) + 0.5) * scale - 0.5
    lo = np.floor(center - _LOBES * stretch).astype(int)
    hi = np.ceil(center + _LOBES * stretch).astype(int)
    j = lo[:, None] + np.arange((hi - lo).max() + 1)  # row i's taps are lo[i]..hi[i]
    taps = j <= hi[:, None]
    w = _windowed_sinc((j - center[:, None]) / stretch)
    rows = np.broadcast_to(np.arange(n_out)[:, None], j.shape)
    M = np.zeros((n_out, n_in), dtype=np.float32)
    # taps land one at a time in row-major order, each sum rounded to float32,
    # so clamped edge taps accumulate exactly as a per-tap loop would
    np.add.at(M, (rows[taps], np.clip(j, 0, n_in - 1)[taps]), w[taps])
    s = M.sum(axis=1)
    nz = s != 0
    M[nz] /= s[nz, None]
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
    # the product `np.tensordot(tmp, Mx, axes=([1], [1]))` makes, without its set-up
    out = np.dot(tmp.transpose(0, 2, 1).reshape(-1, W), Mx.T).reshape(oh, -1, ow)
    out = out.transpose(0, 2, 1)
    if img.ndim == 2:
        return out[:, :, 0]
    return out


# ---------------------------------------------------------------------------
# compositing


def _prepare_foreground(fg: ForegroundInstance, degradation: str) -> tuple[np.ndarray, np.ndarray]:
    """Foreground crop (a read-only view) + refined alpha for a degradation mode (cached)."""
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
    view = fg.raster[r0:r1, c0:c1]
    view.flags.writeable = False
    crop = (view, alpha[r0:r1, c0:c1].copy())  # the full-canvas alpha is a temporary
    fg._prepared[degradation] = crop
    return crop


def prepare_foregrounds(fgs) -> None:
    """Crop each foreground and refine its alpha for the "perfect" mask now, as `render`
    does on first use: a process forked afterwards inherits them."""
    for fg in fgs:
        _prepare_foreground(fg, "perfect")


def _scaled_size(fg: ForegroundInstance, scale: float, hw: tuple[int, int],
                 degradation: str) -> tuple[int, int]:
    """Extents of the foreground crop with its long side at `scale` of hw's shorter one."""
    if not (0.0 < scale <= 1.0):
        raise ConfigError(f"scale {scale} outside (0, 1]")
    crop, _ = _prepare_foreground(fg, degradation)
    h, w = crop.shape[:2]
    long_side = max(h, w)
    target_long = max(1, round(scale * min(hw)))
    return (max(1, round(h * target_long / long_side)),
            max(1, round(w * target_long / long_side)))


def scaled_foreground(fg: ForegroundInstance, scale: float, hw: tuple[int, int],
                      degradation: str) -> tuple[np.ndarray, np.ndarray]:
    """Foreground crop and its [0, 1] alpha (oh x ow x 1), long side rescaled to
    `scale` of the `hw` canvas's shorter extent: the one place a foreground is resized."""
    oh, ow = _scaled_size(fg, scale, hw, degradation)
    crop, alpha = _prepare_foreground(fg, degradation)
    fg_scaled = np.clip(resize_sinc(crop, (oh, ow)), 0.0, 1.0)
    a_scaled = np.clip(resize_sinc(alpha, (oh, ow)), 0.0, 255.0)[:, :, None] / 255.0
    return fg_scaled, a_scaled


class RenderMemo:
    """Blend parts (a * fg_scaled, 1 - a) keyed by (fg.id, degradation, oh, ow).

    Foreground ids repeat across worlds, so a memo serves one world: a
    `SeedContext` keeps one per seed.  Once `nbytes` would pass
    RENDER_MEMO_BYTES, further parts are computed but not stored.
    """

    def __init__(self):
        self.parts: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.nbytes = 0


def _blend_parts(memo: RenderMemo, fg: ForegroundInstance, scale: float,
                 hw: tuple[int, int], degradation: str) -> tuple[np.ndarray, np.ndarray]:
    key = (fg.id, degradation, *_scaled_size(fg, scale, hw, degradation))
    parts = memo.parts.get(key)
    if parts is None:
        fg_scaled, a = scaled_foreground(fg, scale, hw, degradation)
        parts = (a * fg_scaled, 1.0 - a)
        size = parts[0].nbytes + parts[1].nbytes
        if memo.nbytes + size <= RENDER_MEMO_BYTES:
            memo.parts[key] = parts
            memo.nbytes += size
    return parts


def render(items, degradation: str = "perfect", memo: RenderMemo | None = None) -> np.ndarray:
    """Composites of (fg, bg, scale) items as one float32 (B, H, W, 3) batch.

    Each foreground is centred on its background.  The blend runs in the
    background's dtype (float64 for stripes) and is rounded to float32 once,
    as it is written into its row: blending in float32 would change the bits.
    A background-only item `(None, bg, _)` ignores its scale; its row is `bg.raster`
    cast to float32.  Without a `memo`, resizes are shared within this call only.
    """
    memo = RenderMemo() if memo is None else memo
    H, W = items[0][1].raster.shape[:2]
    out = np.empty((len(items), H, W, 3), dtype=np.float32)
    for row, (fg, bg, scale) in zip(out, items):
        row[...] = bg.raster
        if fg is None:
            continue
        premul, inv = _blend_parts(memo, fg, scale, (H, W), degradation)
        oh, ow = inv.shape[:2]
        r0, c0 = (H - oh) // 2, (W - ow) // 2
        # `1 - a` spread over the channels: the same products as broadcasting its
        # (oh, ow, 1) shape, in a quarter to a third less time.  The memo keeps one
        # channel, since bigger entries would leave more sizes past its cap.
        inv = np.repeat(inv, premul.shape[2], axis=2)
        row[r0 : r0 + oh, c0 : c0 + ow] = premul + inv * bg.raster[r0 : r0 + oh, c0 : c0 + ow]
    return out


def scene_scale(seed: int) -> float:
    """A stream item's scale, drawn from SCENE_SCALE_RANGE by its seed."""
    return float(rng(seed, "scale").uniform(*SCENE_SCALE_RANGE))


def composite(fg: ForegroundInstance, bg: BackgroundImage, scale: float) -> np.ndarray:
    """The float32 raster of one centred composite: a one-item `render`."""
    return render([(fg, bg, scale)])[0]


def make_composite(fg: ForegroundInstance, bg: BackgroundImage, seed: int) -> np.ndarray:
    """The raster of the composite whose scale item seed `seed` draws from
    SCENE_SCALE_RANGE, as a stream item's: it regenerates bitwise from (fg, bg, seed)."""
    return composite(fg, bg, scene_scale(seed))


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


def _rendered_split(specs, degradation: str = "perfect",
                    memo: RenderMemo | None = None) -> GroupedDataset:
    """A split of (fg, bg, item_seed) specs rendered in one `render` call."""
    batch = render([(fg, bg, scene_scale(s)) for fg, bg, s in specs], degradation, memo)
    batch.flags.writeable = False
    return GroupedDataset(batch, np.array([fg.y for fg, _, _ in specs], dtype=np.int64),
                          np.array([bg.g for _, bg, _ in specs], dtype=np.int64),
                          [fg.id for fg, _, _ in specs], [bg.id for _, bg, _ in specs],
                          [s for _, _, s in specs], degradation)


def _split_cells(foregrounds: list[ForegroundInstance], backgrounds: list[BackgroundImage],
                 seed: int, split: str):
    """(classes, groups, foregrounds by class, the split's backgrounds by group)."""
    classes = sorted({fg.y for fg in foregrounds})
    groups = sorted({bg.g for bg in backgrounds})
    if len(classes) != 2 or len(groups) != 2:
        raise ConfigError("the grouped benchmark needs exactly two classes and two groups")
    fg_by_class = {y: sorted([f for f in foregrounds if f.y == y], key=lambda f: f.id)
                   for y in classes}
    pool = split_backgrounds(backgrounds, seed)[0 if split == "train" else 1]
    return classes, groups, fg_by_class, {g: [b for b in pool if b.g == g] for g in groups}


def build_train_split(foregrounds: list[ForegroundInstance],
                      backgrounds: list[BackgroundImage], rho: float, per_class: int,
                      seed: int, memo: RenderMemo) -> GroupedDataset:
    """Two-class / two-group train split correlated at `rho`: class y's majority
    background group is y."""
    if not (0.5 <= rho <= 1.0):
        raise ConfigError(f"correlation rate {rho} outside [0.5, 1.0]")
    classes, groups, fg_by_class, bg_by_group = _split_cells(foregrounds, backgrounds,
                                                             seed, "train")
    specs = []
    for ci, y in enumerate(classes):
        n_major = round(rho * per_class)
        major_g, minor_g = groups[ci], groups[1 - ci]
        gsel = rng(seed, "train-sel", y)
        for i in range(per_class):
            pool = bg_by_group[major_g if i < n_major else minor_g]
            fg = fg_by_class[y][int(gsel.integers(0, len(fg_by_class[y])))]
            bg = pool[int(gsel.integers(0, len(pool)))]
            specs.append((fg, bg, derive_seed(seed, fg.id, bg.id, i)))
    return _rendered_split(specs, memo=memo)


def build_test_split(foregrounds: list[ForegroundInstance],
                     backgrounds: list[BackgroundImage], per_cell: int, seed: int,
                     memo: RenderMemo) -> GroupedDataset:
    """Balanced test split, `per_cell` items per (class, group) cell; it does not
    depend on the train split's correlation rate."""
    classes, groups, fg_by_class, bg_by_group = _split_cells(foregrounds, backgrounds,
                                                             seed, "test")
    specs = []
    for y in classes:
        for grp in groups:
            gsel = rng(seed, "test-sel", y, grp)
            for i in range(per_cell):
                fg = fg_by_class[y][int(gsel.integers(0, len(fg_by_class[y])))]
                pool = bg_by_group[grp]
                bg = pool[int(gsel.integers(0, len(pool)))]
                specs.append((fg, bg, derive_seed(seed, fg.id, bg.id, i)))
    return _rendered_split(specs, memo=memo)


# ---------------------------------------------------------------------------
# manifests


def write_manifest(path, train: GroupedDataset, test: GroupedDataset,
                   world_config: dict) -> None:
    """One JSON record per line; a header line carries the world config.  Written
    whole or not at all, so a crash never leaves a shorter manifest behind."""
    lines = [json.dumps({"kind": "header", **world_config}, sort_keys=True)]
    for split_name, ds in (("train", train), ("test", test)):
        for i, (fg_id, bg_id, y, g, seed) in enumerate(zip(ds.fg_ids, ds.bg_ids, ds.labels,
                                                           ds.groups, ds.seeds)):
            rec = {"kind": "item", "composite_id": f"{split_name}-{i}",
                   "fg_id": fg_id, "bg_id": bg_id, "y": int(y), "g": int(g),
                   "split": split_name, "degradation": ds.degradation, "seed": seed}
            lines.append(json.dumps(rec, sort_keys=True))
    write_whole(path, "\n".join(lines) + "\n")


# what `regenerate_from_manifest` reads from the header and from each item line
_HEADER_FIELDS = ("world_seed", "num_classes", "num_bg_groups", "fg_per_class",
                  "bg_per_group", "hw")
_ITEM_FIELDS = ("fg_id", "bg_id", "split", "degradation", "seed")


def _numbered_records(path) -> tuple[dict, list[tuple[int, dict]]]:
    """(header, [(line number, item record)]); a line that is not a JSON object
    raises a ManifestError naming its number."""
    header = None
    items = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise ManifestError(f"manifest line {lineno} is not JSON: {err.msg}") from None
            if not isinstance(rec, dict):
                raise ManifestError(f"manifest line {lineno} is not a JSON object")
            if rec.get("kind") == "header":
                header = rec
            else:
                items.append((lineno, rec))
    if header is None:
        raise ManifestError("manifest missing header record")
    return header, items


def _require(rec: dict, fields, where: str) -> None:
    missing = [key for key in fields if key not in rec]
    if missing:
        raise ManifestError(f"{where} has no {', '.join(map(repr, missing))}")


def regenerate_from_manifest(path) -> tuple[GroupedDataset, GroupedDataset]:
    """Rebuild all composite rasters from a manifest alone (bitwise identical).

    A header or item line that lacks a field, or an item naming a foreground or
    background the header's world does not hold, raises a ManifestError."""
    header, numbered = _numbered_records(path)
    _require(header, _HEADER_FIELDS, "manifest header")
    fgs, bgs = gen_world(header["world_seed"], header["num_classes"],
                         header["num_bg_groups"], header["fg_per_class"],
                         header["bg_per_group"], tuple(header["hw"]))
    fg_map = {f.id: f for f in fgs}
    bg_map = {b.id: b for b in bgs}
    for lineno, rec in numbered:
        _require(rec, _ITEM_FIELDS, f"manifest line {lineno}")
        for key, known in (("fg_id", fg_map), ("bg_id", bg_map)):
            if rec[key] not in known:
                raise ManifestError(f"manifest line {lineno}: {key} {rec[key]!r} is not in "
                                    f"the header's world")
    memo = RenderMemo()
    out = []
    for split in ("train", "test"):
        recs = [rec for _, rec in numbered if rec["split"] == split]
        modes = {rec["degradation"] for rec in recs}
        if len(modes) != 1:
            raise ManifestError(f"{split} split needs one degradation, has {sorted(modes)}")
        out.append(_rendered_split([(fg_map[rec["fg_id"]], bg_map[rec["bg_id"]], rec["seed"])
                                    for rec in recs], modes.pop(), memo))
    return out[0], out[1]
