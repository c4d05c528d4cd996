"""Linear-additivity probe for scene embeddings.

Measures how well an encoder's embedding of a composite scene matches the
sum of its part embeddings, S = cos(v_ab, v_a + v_b), over batches of
(object, background, composite) raster triples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoders import EncoderModel, encode_np, pre_embedding
from .errors import ConfigError, DegenerateInputError
from .rng import derive_seed, rng
from .scene import (  # make_composite is re-exported for callers of this module
    NEUTRAL_GRAY,
    BackgroundImage,
    ForegroundInstance,
    make_composite,  # noqa: F401
    render,
    scaled_foreground,
    scene_scale,
)

_EPS = 1e-8


@dataclass(frozen=True)
class AdditivityTriple:
    v_a: np.ndarray
    v_b: np.ndarray
    v_ab: np.ndarray


@dataclass(frozen=True)
class AdditivityReport:
    scores: np.ndarray
    mean: float
    std: float
    encoder_tag: str
    n: int
    excluded: int = 0


def additivity_score(t: AdditivityTriple) -> float:
    """S = cos(v_ab, v_a + v_b); symmetric in the two parts."""
    s = t.v_a.astype(np.float64) + t.v_b.astype(np.float64)
    ns = float(np.linalg.norm(s))
    if ns < _EPS:
        raise DegenerateInputError("v_a and v_b are antipodal, their sum is zero")
    v = t.v_ab.astype(np.float64)
    return float(v @ s / (np.linalg.norm(v) * ns))


def neutral_background(hw: tuple[int, int] = (64, 64)) -> BackgroundImage:
    return BackgroundImage(id="neutral", g=-1,
                           raster=np.full((*hw, 3), NEUTRAL_GRAY, dtype=np.float32))


def triple_rasters(fg: ForegroundInstance, bg: BackgroundImage,
                   seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard probe triple: object on a neutral canvas, background, composite.

    The isolated-object raster uses the same scale draw and placement as the
    composite, so the two differ only in what sits behind the object, and
    one `render` call resizes the object once for both.
    """
    scale = scene_scale(seed)
    iso, comp = render([(fg, neutral_background(bg.raster.shape[:2]), scale),
                        (fg, bg, scale)])
    return iso, bg.raster, comp


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

    Degenerate triples (antipodal part sum) are excluded and counted instead
    of failing the batch.
    """
    raster_triples = list(raster_triples)
    if len(raster_triples) < 1:
        raise ConfigError("batch_additivity needs at least one triple")
    scores = []
    excluded = 0
    for I_a, I_b, I_ab in raster_triples:
        embs = encode_np(model, np.stack([I_a, I_b, I_ab]))
        try:
            scores.append(additivity_score(
                AdditivityTriple(v_a=embs[0], v_b=embs[1], v_ab=embs[2])))
        except DegenerateInputError:
            excluded += 1
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
    """Sample n triples from the world and evaluate the probe."""
    if mode not in ("standard", "exact"):
        raise ConfigError(f"unknown additivity probe mode {mode!r}")
    pairs = sample_pairs(foregrounds, backgrounds, n, seed)

    def gen():
        for i, (fg, bg) in enumerate(pairs):
            item_seed = derive_seed(seed, "additivity", fg.id, bg.id, i)
            if mode == "exact":
                yield exact_triple_rasters(fg, bg, item_seed, model)
            else:
                yield triple_rasters(fg, bg, item_seed)

    return batch_additivity(model, gen(), encoder_tag=encoder_tag)


def write_additivity_csv(path, rows: list[dict]) -> None:
    """Rows of {encoder, alpha, n, mean_S, std_S}."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["encoder", "alpha", "n", "mean_S", "std_S"])
        w.writeheader()
        for row in rows:
            w.writerow(row)
