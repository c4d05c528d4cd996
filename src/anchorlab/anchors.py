"""Anchor extraction and its decomposition diagnostics.

An anchor is the normalized mean embedding of one foreground composited over
K different backgrounds.  Averaging cancels the background content down to
the fixed population mean plus a residual whose variance decays like 1/K,
which the K-sweep report makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import EncoderModel, encode_np
from .errors import ConfigError, DegenerateInputError, DimensionError
from .rng import derive_seed, rng
from .scene import (  # composite is re-exported; perfbench's tracer tests pin the alias
    ANCHOR_SCALE,
    BackgroundImage,
    ForegroundInstance,
    RenderMemo,
    composite,  # noqa: F401
    neutral_background,
    render,
)

DEFAULT_K_GRID = (1, 2, 3, 5, 8, 10, 15, 20, 30, 40)

_EPS = 1e-8
# Rows per background encode: one encode of a whole pool might take another BLAS
# path and change the bits.
_BG_CHUNK = 256


@dataclass(frozen=True)
class KSweepReport:
    k_grid: tuple[int, ...]
    fg_sim: tuple[float, ...]
    bg_sim_max: tuple[float, ...]
    var_eps: tuple[float, ...]


def _sample_pool(pool, K: int, g: np.random.Generator) -> list:
    if len(pool) >= K:
        idx = g.choice(len(pool), size=K, replace=False)
    else:
        idx = g.integers(0, len(pool), size=K)
    return [pool[i] for i in idx]


def extract_anchor(teacher: EncoderModel, fg: ForegroundInstance,
                   bg_pool: list[BackgroundImage], K: int, seed: int,
                   degradation: str = "perfect", memo: RenderMemo | None = None) -> np.ndarray:
    """Normalized mean embedding of the foreground over K sampled backgrounds.

    Backgrounds are drawn without replacement when the pool allows, with
    replacement otherwise.  The mean accumulates in 64-bit so the result is
    independent of background order.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if not bg_pool:
        raise ConfigError("background pool is empty")
    g = rng(seed, "anchor", fg.id, K)
    rasters = render([(fg, bg, ANCHOR_SCALE) for bg in _sample_pool(bg_pool, K, g)],
                     degradation, memo)
    return unit_mean(encode_np(teacher, rasters), f"anchor for {fg.id}")


def unit_mean(vecs, what: str) -> np.ndarray:
    """The mean of the rows of `vecs`, taken in 64-bit and scaled to unit length, as
    float32; `what` names the vector in the error a zero-norm mean raises."""
    mean = np.asarray(vecs).astype(np.float64).mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < _EPS:
        raise DegenerateInputError(f"{what} collapsed to the zero vector")
    return (mean / norm).astype(np.float32)


def build_anchor_set(teacher: EncoderModel, foregrounds, bg_pool, K: int,
                     seed: int, degradation: str = "perfect",
                     memo: RenderMemo | None = None) -> dict[str, np.ndarray]:
    """The anchor of each foreground, keyed by foreground id."""
    return {fg.id: extract_anchor(teacher, fg, bg_pool, K, derive_seed(seed, fg.id),
                                  degradation, memo)
            for fg in foregrounds}


def background_embeddings(teacher: EncoderModel, backgrounds) -> np.ndarray:
    """Unit embeddings of pure background rasters, in pool order."""
    chunks = (backgrounds[i : i + _BG_CHUNK] for i in range(0, len(backgrounds), _BG_CHUNK))
    return np.concatenate([encode_np(teacher, render([(None, b, None) for b in chunk]))
                           for chunk in chunks], axis=0)


def residual_variance(bg_embs: np.ndarray, K: int, trials: int, mu: np.ndarray,
                      seed: int) -> float:
    """Mean squared distance between the mean of K background embeddings, drawn
    with replacement, and the background mean `mu`."""
    if trials < 2:
        raise ConfigError("trials must be >= 2")
    bg_embs = bg_embs.astype(np.float64)
    mu = mu.astype(np.float64)
    g = rng(seed, "residual", K)
    total = 0.0
    for _ in range(trials):
        eps = bg_embs[g.integers(0, len(bg_embs), size=K)].mean(axis=0) - mu
        total += float(eps @ eps)
    return total / trials


def compute_prototypes(teacher: EncoderModel, foregrounds,
                       memo: RenderMemo | None = None) -> dict[int, np.ndarray]:
    """{class: unit prototype}: the normalized mean embedding of the class's
    foregrounds, each isolated on the neutral canvas at ANCHOR_SCALE."""
    by_class: dict[int, list[ForegroundInstance]] = {}
    for fg in foregrounds:
        by_class.setdefault(fg.y, []).append(fg)
    neutral = neutral_background(teacher.input_hw)
    protos = {}
    for y, members in sorted(by_class.items()):
        rasters = render([(fg, neutral, ANCHOR_SCALE) for fg in members], memo=memo)
        protos[y] = unit_mean(encode_np(teacher, rasters), f"class {y} prototype")
    return protos


def k_sweep(teacher: EncoderModel, foregrounds, bg_pool, bg_embs: np.ndarray, k_grid,
            class_protos: dict[int, np.ndarray], seed: int, var_trials: int = 200,
            memo: RenderMemo | None = None) -> KSweepReport:
    """Anchor quality versus K: class similarity, background leakage, Var(eps).

    `bg_embs` is the pool's `background_embeddings`, row for row.  Leakage is an
    anchor's highest cosine to a background-group prototype, the `unit_mean` of
    that group's rows of `bg_embs`.  Each K's anchors and variance trials draw
    from seeds named by K, so a K's results do not depend on the rest of the grid.
    The swept anchors render through `memo`, a fresh one when None.
    """
    k_grid = tuple(int(k) for k in k_grid)
    if not k_grid:
        raise ConfigError("empty K grid")
    if list(k_grid) != sorted(k_grid):
        raise ConfigError("K grid must be ascending")
    for fg in foregrounds:
        if fg.y not in class_protos:
            raise ConfigError(f"missing class prototype for class {fg.y}")
    if not bg_pool:
        raise ConfigError("background pool is empty")
    mu = bg_embs.astype(np.float64).mean(axis=0)
    groups = np.array([bg.g for bg in bg_pool])
    bg_proto_mat = np.stack([unit_mean(bg_embs[groups == g], f"background group {g} prototype")
                             for g in np.unique(groups)])
    fg_sims, bg_sims, var_eps = [], [], []
    memo = RenderMemo() if memo is None else memo
    for K in k_grid:
        f_acc, b_acc = [], []
        for fg in foregrounds:
            a = extract_anchor(teacher, fg, bg_pool, K, derive_seed(seed, "sweep", fg.id, K),
                               memo=memo)
            f_acc.append(T.cosine_sim_np(a, class_protos[fg.y]))
            b_acc.append(float((bg_proto_mat @ a).max()))
        fg_sims.append(float(np.mean(f_acc)))
        bg_sims.append(float(np.mean(b_acc)))
        var_eps.append(residual_variance(bg_embs, K, var_trials, mu, derive_seed(seed, "var", K)))
    return KSweepReport(k_grid=k_grid, fg_sim=tuple(fg_sims),
                        bg_sim_max=tuple(bg_sims), var_eps=tuple(var_eps))


def orthogonal_targets(d: int, num_targets: int, seed: int) -> list[np.ndarray]:
    """Random orthonormal unit vectors via Gram-Schmidt on Gaussian draws."""
    if num_targets > d:
        raise DimensionError(f"cannot fit {num_targets} orthogonal vectors in {d} dims")
    g = rng(seed, "ortho")
    basis: list[np.ndarray] = []
    while len(basis) < num_targets:
        v = g.normal(size=d)
        for u in basis:
            v = v - (v @ u) * u
        n = np.linalg.norm(v)
        if n < 1e-6:
            continue
        basis.append(v / n)
    return [b.astype(np.float32) for b in basis]
