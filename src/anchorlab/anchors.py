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
from .scene import (
    ANCHOR_SCALE,
    BackgroundImage,
    ForegroundInstance,
    RenderMemo,
    composite,
    neutral_background,
    render,
)

DEFAULT_K = 10
DEFAULT_K_GRID = (1, 2, 3, 5, 8, 10, 15, 20, 30, 40)

_EPS = 1e-8


@dataclass
class AnchorSet:
    anchors: dict[str, np.ndarray]
    K: int
    with_replacement: bool = False


@dataclass(frozen=True)
class BackgroundMean:
    vector: np.ndarray  # unnormalized mean of unit embeddings; norm <= 1
    count: int


@dataclass(frozen=True)
class KSweepReport:
    k_grid: tuple[int, ...]
    fg_sim: tuple[float, ...]
    bg_sim_max: tuple[float, ...]
    var_eps: tuple[float, ...]


@dataclass(frozen=True)
class Prototypes:
    by_class: dict[int, np.ndarray]
    by_group: dict[int, np.ndarray]


def anchor_composite(fg: ForegroundInstance, bg: BackgroundImage, seed: int,
                     degradation: str = "perfect") -> np.ndarray:
    """Anchor-construction composite: fixed 0.8 scale, centered."""
    return composite(fg, bg, ANCHOR_SCALE, seed, degradation).raster


def _sample_pool(pool, K: int, g: np.random.Generator) -> tuple[list, bool]:
    if len(pool) >= K:
        idx = g.choice(len(pool), size=K, replace=False)
        return [pool[i] for i in idx], False
    idx = g.integers(0, len(pool), size=K)
    return [pool[i] for i in idx], True


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
    picks, _ = _sample_pool(bg_pool, K, g)
    rasters = render([(fg, bg, ANCHOR_SCALE) for bg in picks], degradation, memo)
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
                     memo: RenderMemo | None = None) -> AnchorSet:
    anchors = {fg.id: extract_anchor(teacher, fg, bg_pool, K, derive_seed(seed, fg.id),
                                     degradation, memo)
               for fg in foregrounds}
    return AnchorSet(anchors=anchors, K=K, with_replacement=len(bg_pool) < K)


def background_embeddings(teacher: EncoderModel, backgrounds, batch: int = 256) -> np.ndarray:
    """Unit embeddings of pure background rasters, in pool order."""
    out = []
    for i in range(0, len(backgrounds), batch):
        rasters = np.stack([b.raster for b in backgrounds[i : i + batch]])
        out.append(encode_np(teacher, rasters))
    return np.concatenate(out, axis=0)


def estimate_mu_bg(teacher: EncoderModel, bg_pool, n_samples: int, seed: int) -> BackgroundMean:
    """Unnormalized arithmetic mean of n unit background embeddings.

    Its norm is a cone-width diagnostic: near 1 means the background
    embeddings crowd a narrow cone, near 0 means they spread out.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    g = rng(seed, "mu-bg")
    if n_samples <= len(bg_pool):
        idx = g.choice(len(bg_pool), size=n_samples, replace=False)
    else:
        idx = g.integers(0, len(bg_pool), size=n_samples)
    acc = np.zeros(teacher.d, dtype=np.float64)
    for i in range(0, n_samples, 512):
        chunk = [bg_pool[j] for j in idx[i : i + 512]]
        embs = encode_np(teacher, np.stack([b.raster for b in chunk]))
        acc += embs.astype(np.float64).sum(axis=0)
    return BackgroundMean(vector=acc / n_samples, count=n_samples)


def residual_variance(teacher: EncoderModel, bg_pool, K: int, trials: int,
                      mu_bg: BackgroundMean, seed: int,
                      replace: bool = True,
                      bg_embs: np.ndarray | None = None) -> float:
    """Mean squared distance between a K-sample background mean and mu_bg.

    The residual lives entirely in the background embeddings, which may be
    passed in precomputed to amortize sweeps.
    """
    if trials < 2:
        raise ConfigError("trials must be >= 2")
    if not replace and K > len(bg_pool):
        raise ConfigError(f"K={K} exceeds the pool with replacement disabled")
    if bg_embs is None:
        bg_embs = background_embeddings(teacher, bg_pool)
    bg_embs = bg_embs.astype(np.float64)
    mu = mu_bg.vector.astype(np.float64)
    g = rng(seed, "residual", K)
    total = 0.0
    for _ in range(trials):
        idx = (g.integers(0, len(bg_embs), size=K) if replace
               else g.choice(len(bg_embs), size=K, replace=False))
        eps = bg_embs[idx].mean(axis=0) - mu
        total += float(eps @ eps)
    return total / trials


def compute_prototypes(teacher: EncoderModel, foregrounds, backgrounds,
                       memo: RenderMemo | None = None) -> Prototypes:
    """Class and background-group prototypes as normalized mean embeddings.

    Class prototypes come from isolated foregrounds on the neutral canvas;
    group prototypes from pure backgrounds, one per group present, so an
    empty `backgrounds` gives the class prototypes alone.
    """
    by_class: dict[int, list[ForegroundInstance]] = {}
    for fg in foregrounds:
        by_class.setdefault(fg.y, []).append(fg)
    neutral = neutral_background(teacher.input_hw)
    class_protos = {}
    for y, members in sorted(by_class.items()):
        rasters = render([(fg, neutral, ANCHOR_SCALE) for fg in members], memo=memo)
        class_protos[y] = unit_mean(encode_np(teacher, rasters), f"class {y} prototype")
    by_group: dict[int, list[BackgroundImage]] = {}
    for bg in backgrounds:
        by_group.setdefault(bg.g, []).append(bg)
    group_protos = {grp: unit_mean(background_embeddings(teacher, pool),
                                   f"background group {grp} prototype")
                    for grp, pool in sorted(by_group.items())}
    return Prototypes(by_class=class_protos, by_group=group_protos)


def k_sweep(teacher: EncoderModel, foregrounds, bg_pool, k_grid, prototypes: Prototypes,
            seed: int, var_trials: int = 200) -> KSweepReport:
    """Anchor quality versus K: class similarity, background leakage, Var(eps)."""
    k_grid = tuple(int(k) for k in k_grid)
    if not k_grid:
        raise ConfigError("empty K grid")
    if list(k_grid) != sorted(k_grid):
        raise ConfigError("K grid must be ascending")
    for fg in foregrounds:
        if fg.y not in prototypes.by_class:
            raise ConfigError(f"missing class prototype for class {fg.y}")
    if not prototypes.by_group:
        raise ConfigError("missing background-group prototypes")
    bg_embs = background_embeddings(teacher, bg_pool)
    mu = BackgroundMean(vector=bg_embs.astype(np.float64).mean(axis=0), count=len(bg_pool))
    bg_proto_mat = np.stack([prototypes.by_group[g] for g in sorted(prototypes.by_group)])
    fg_sims, bg_sims, var_eps = [], [], []
    memo = RenderMemo()
    for K in k_grid:
        f_acc, b_acc = [], []
        for fg in foregrounds:
            a = extract_anchor(teacher, fg, bg_pool, K, derive_seed(seed, "sweep", fg.id, K),
                               memo=memo)
            f_acc.append(T.cosine_sim_np(a, prototypes.by_class[fg.y]))
            b_acc.append(float((bg_proto_mat @ a).max()))
        fg_sims.append(float(np.mean(f_acc)))
        bg_sims.append(float(np.mean(b_acc)))
        var_eps.append(residual_variance(teacher, bg_pool, K, var_trials, mu,
                                         derive_seed(seed, "var", K), bg_embs=bg_embs))
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
