"""Linear-additivity probe for scene embeddings.

Measures how well an encoder's embedding of a composite scene matches the
sum of its part embeddings, S = cos(v_ab, v_a + v_b), over batches of
(object, background, composite) raster triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import EncoderModel, encode_np
from .errors import ConfigError, DegenerateInputError
from .rng import derive_seed, rng
from .scene import (  # make_composite and neutral_background are re-exported
    make_composite,  # noqa: F401
    neutral_background,
    render,
    scene_scale,
)

_EPS = 1e-8
# Triples per render and encode: enough rows that the planted map's matrix
# reads are shared, few enough that a chunk's rasters stay a few MB.
_PROBE_CHUNK = 32


@dataclass(frozen=True)
class AdditivityReport:
    mean: float
    std: float
    n: int
    excluded: int


def additivity_score(v_a: np.ndarray, v_b: np.ndarray, v_ab: np.ndarray) -> float:
    """S = cos(v_ab, v_a + v_b); symmetric in the two parts."""
    s = v_a.astype(np.float64) + v_b.astype(np.float64)
    ns = float(np.linalg.norm(s))
    if ns < _EPS:
        raise DegenerateInputError("v_a and v_b are antipodal, their sum is zero")
    v = v_ab.astype(np.float64)
    return float(v @ s / (np.linalg.norm(v) * ns))


def _standard_triples(pairs, seeds):
    """The pairs' standard triples in triple order, 3 float32 rows a pair (object on a
    neutral canvas, background, composite), one `render` batch per _PROBE_CHUNK pairs.

    The isolated-object raster uses the same scale draw and placement as the
    composite, so the two differ only in what sits behind the object, and
    the `render` call resizes the object once for both.
    """
    neutral = neutral_background(pairs[0][1].raster.shape[:2])
    scaled = [(fg, bg, scene_scale(s)) for (fg, bg), s in zip(pairs, seeds)]
    for start in range(0, len(scaled), _PROBE_CHUNK):
        yield render([entry for fg, bg, scale in scaled[start : start + _PROBE_CHUNK]
                      for entry in ((fg, neutral, scale), (None, bg, None), (fg, bg, scale))])


@dataclass(frozen=True)
class ProbePart:
    """The scores of one share of a probe's triples, in order, and how many of its
    triples were degenerate (antipodal part sum) and left out."""

    scores: np.ndarray
    excluded: int


def score_triples(model: EncoderModel, batches) -> ProbePart:
    """S of each triple of `batches`, rasters in triple order (object, background,
    composite; a triple is a 3-row batch), each encoded by one `encode_np` call."""
    scores = []
    excluded = 0
    for rows in batches:
        for embs in encode_np(model, rows).reshape(-1, 3, model.d):
            try:
                scores.append(additivity_score(*embs))
            except DegenerateInputError:
                excluded += 1
    return ProbePart(scores=np.asarray(scores, dtype=np.float64), excluded=excluded)


def merge_parts(parts) -> AdditivityReport:
    """The report of the triples `parts` scored, joined in the order given: mean and
    std of S (64-bit accumulation), with the degenerate triples counted.  Every report
    is made here, also that of a probe run whole (`merge_parts([part])`)."""
    arr = np.concatenate([part.scores for part in parts])
    excluded = sum(part.excluded for part in parts)
    if not arr.size and not excluded:
        raise ConfigError("the additivity probe needs at least one triple")
    if arr.size == 0:
        raise DegenerateInputError("every triple in the batch was degenerate")
    mean = float(arr.mean())
    std = float(arr.std(ddof=0)) if arr.size > 1 else 0.0
    return AdditivityReport(mean=mean, std=std, n=arr.size, excluded=excluded)


def probe_chunks(n: int) -> int:
    """How many chunks of _PROBE_CHUNK triples a probe of n triples runs: the most
    parts it can be split into."""
    return -(-n // _PROBE_CHUNK)


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
              part: tuple[int, int]) -> ProbePart:
    """Sample n triples from the world and score part `part=(k, P)` of the probe:
    the k-th of P contiguous runs of whole chunks, rendered, encoded and scored
    with the same rows as in a whole run.  `merge_parts` of the P parts, in order,
    is the report of the whole probe, and part (0, 1) is the whole probe.

    Each chunk of _PROBE_CHUNK triples is one batch, rendered by one `render` call
    and encoded by one `encode_np` call.
    """
    pairs = sample_pairs(foregrounds, backgrounds, n, seed)
    k, shares = part
    if not 0 <= k < shares <= probe_chunks(n):
        raise ConfigError(f"part {part} is not one of at most {probe_chunks(n)} shares")
    lo, hi = (_PROBE_CHUNK * (probe_chunks(n) * j // shares) for j in (k, k + 1))
    pairs = pairs[lo:hi]
    return score_triples(model, _standard_triples(
        pairs, [derive_seed(seed, "additivity", fg.id, bg.id, i)
                for i, (fg, bg) in enumerate(pairs, lo)]))
