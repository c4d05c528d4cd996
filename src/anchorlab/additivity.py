"""Linear-additivity probe for scene embeddings.

Measures how well an encoder's embedding of a composite scene matches the
sum of its part embeddings, S = cos(v_ab, v_a + v_b), over batches of
(object, background, composite) raster triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .encoders import EncoderModel, encode_np, pre_embedding
from .errors import ConfigError, DegenerateInputError
from .rng import derive_seed, rng
from .scene import (  # make_composite and neutral_background are re-exported
    BackgroundImage,
    ForegroundInstance,
    make_composite,  # noqa: F401
    neutral_background,
    render,
    scaled_foreground,
    scene_scale,
)

_EPS = 1e-8
# Triples per render and encode: enough rows that the planted map's matrix
# reads are shared, few enough that a chunk's rasters stay a few MB.
_PROBE_CHUNK = 32


@dataclass(frozen=True)
class AdditivityReport:
    scores: np.ndarray
    mean: float
    std: float
    encoder_tag: str
    n: int
    excluded: int = 0


def additivity_score(v_a: np.ndarray, v_b: np.ndarray, v_ab: np.ndarray) -> float:
    """S = cos(v_ab, v_a + v_b); symmetric in the two parts."""
    s = v_a.astype(np.float64) + v_b.astype(np.float64)
    ns = float(np.linalg.norm(s))
    if ns < _EPS:
        raise DegenerateInputError("v_a and v_b are antipodal, their sum is zero")
    v = v_ab.astype(np.float64)
    return float(v @ s / (np.linalg.norm(v) * ns))


def triple_rasters(fg: ForegroundInstance, bg: BackgroundImage,
                   seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard probe triple: object on a neutral canvas, background, composite."""
    return next(_standard_triples([(fg, bg)], [seed]))


def _standard_triples(pairs, seeds):
    """`triple_rasters` of each pair, with one `render` call per _PROBE_CHUNK pairs.

    The isolated-object raster uses the same scale draw and placement as the
    composite, so the two differ only in what sits behind the object, and
    the `render` call resizes the object once for both.
    """
    neutral = neutral_background(pairs[0][1].raster.shape[:2])
    for start in range(0, len(pairs), _PROBE_CHUNK):
        chunk = pairs[start : start + _PROBE_CHUNK]
        items = []
        for (fg, bg), s in zip(chunk, seeds[start : start + _PROBE_CHUNK]):
            scale = scene_scale(s)
            items += [(fg, neutral, scale), (fg, bg, scale)]
        rendered = render(items)
        for k, (_, bg) in enumerate(chunk):
            yield rendered[2 * k], bg.raster, rendered[2 * k + 1]


def exact_triple_rasters(fg: ForegroundInstance, bg: BackgroundImage, seed: int,
                         teacher: EncoderModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint-support norm-equalized triple, exactly additive under a linear map.

    The object sits in the left half of a black canvas, the background fills
    the right half, and the composite is the pixelwise sum.  One part is
    rescaled so both pre-embeddings have equal norm, which makes the sum of
    the normalized parts parallel to the composite embedding.
    """
    H, W = bg.raster.shape[:2]
    fg_scaled, a = scaled_foreground(fg, 0.45, (H, W))
    oh, ow = a.shape[:2]
    I_a = np.zeros((H, W, 3), dtype=np.float32)
    r0 = (H - oh) // 2
    c0 = max(0, W // 4 - ow // 2)
    I_a[r0 : r0 + oh, c0 : c0 + ow] = a * fg_scaled
    I_b = bg.raster.copy()
    I_b[:, : W // 2] = 0.0
    z_a = pre_embedding(teacher, I_a)[0].astype(np.float64)
    z_b = pre_embedding(teacher, I_b)[0].astype(np.float64)
    na, nb = np.linalg.norm(z_a), np.linalg.norm(z_b)
    if na < _EPS or nb < _EPS:
        raise DegenerateInputError("zero pre-embedding in the exact-triple build")
    ratio = na / nb
    if ratio <= 1.0:
        I_b = I_b * np.float32(ratio)
    else:
        I_a = I_a * np.float32(1.0 / ratio)
    return I_a, I_b, I_a + I_b


def batch_additivity(model: EncoderModel, raster_triples, encoder_tag: str = "",
                     ) -> AdditivityReport:
    """Encode triples and report mean and std of S (64-bit accumulation).

    Triples are encoded _PROBE_CHUNK at a time, each as three rows of one
    batch, so an iterator of triples is never held whole.  Degenerate
    triples (antipodal part sum) are excluded and counted instead of failing
    the batch.
    """
    triples = iter(raster_triples)
    scores = []
    excluded = 0
    while chunk := list(islice(triples, _PROBE_CHUNK)):
        rows = np.stack([r for triple in chunk for r in triple], dtype=np.float32)
        for embs in encode_np(model, rows).reshape(len(chunk), 3, -1):
            try:
                scores.append(additivity_score(*embs))
            except DegenerateInputError:
                excluded += 1
    if not scores and not excluded:
        raise ConfigError("batch_additivity needs at least one triple")
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise DegenerateInputError("every triple in the batch was degenerate")
    mean = float(arr.mean())
    std = float(arr.std(ddof=0)) if arr.size > 1 else 0.0
    return AdditivityReport(scores=arr, mean=mean, std=std,
                            encoder_tag=encoder_tag, n=arr.size, excluded=excluded)


def sample_pairs(foregrounds, backgrounds, n: int, seed: int):
    """n distinct (fg, bg) pairs when the product allows, else with replacement."""
    total = len(foregrounds) * len(backgrounds)
    if total == 0:
        raise ConfigError("empty foreground or background pool")
    g = rng(seed, "additivity-pairs")
    if n <= total:
        idx = g.choice(total, size=n, replace=False)
    else:
        idx = g.integers(0, total, size=n)
    return [(foregrounds[i // len(backgrounds)], backgrounds[i % len(backgrounds)])
            for i in idx]


def run_probe(model: EncoderModel, foregrounds, backgrounds, n: int, seed: int,
              encoder_tag: str = "", mode: str = "standard") -> AdditivityReport:
    """Sample n triples from the world and evaluate the probe.

    In standard mode each chunk of _PROBE_CHUNK triples is rendered by one
    `render` call and encoded by one `batch_additivity` encode.
    """
    if mode not in ("standard", "exact"):
        raise ConfigError(f"unknown additivity probe mode {mode!r}")
    pairs = sample_pairs(foregrounds, backgrounds, n, seed)
    seeds = [derive_seed(seed, "additivity", fg.id, bg.id, i)
             for i, (fg, bg) in enumerate(pairs)]
    if mode == "exact":
        triples = (exact_triple_rasters(fg, bg, s, model) for (fg, bg), s in zip(pairs, seeds))
    else:
        triples = _standard_triples(pairs, seeds)
    return batch_additivity(model, triples, encoder_tag=encoder_tag)

