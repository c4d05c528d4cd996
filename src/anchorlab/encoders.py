"""Differentiable image encoders producing unit-norm embeddings.

Three architectures:

* ``planted-linear`` — a frozen, analytically constructed teacher whose
  pre-normalization map is ``z = W.vec(x) + alpha * phi(x)``.  At alpha=0 it
  is exactly linear, so foreground/background superposition is exact and the
  additivity probe has a ground-truth reference point.  phi squares 4x4
  average-pooled patches, which injects foreground x background interaction
  terms as alpha grows.
* ``linear`` — trainable W only: the trainable clone of a planted teacher
  (``clone_unfrozen``).
* ``mlp`` — two layers, hidden 256, GELU: what ``init_encoder`` builds, the
  learned teacher's backbone.

All encoders emit unit-L2 embeddings; frozen models never register
gradients and are safe to share across workers.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .rng import rng
from .tensor import Tensor

MLP_HIDDEN = 256


class EncoderModel:
    """An encoder with a named parameter set and a frozen/trainable role."""

    def __init__(self, arch: str, d: int, input_hw: tuple[int, int],
                 params: dict[str, Tensor], consts: dict[str, np.ndarray],
                 frozen: bool):
        self.arch = arch
        self.d = d
        self.input_hw = tuple(input_hw)
        self.params = params
        self.consts = consts
        self.frozen = frozen


def _flat_dim(hw: tuple[int, int]) -> int:
    return hw[0] * hw[1] * 3


def _avg_pool4(x: np.ndarray) -> np.ndarray:
    """4x4 average pooling of float32 [B,H,W,C]; extents must divide by 4.

    The 16 taps are summed in place, row-major (`i` outer, `j` inner), which is
    the order of numpy's `reshape(...).mean(axis=(2, 4))`: the same bits in
    about a third of the time, without the strided reduction.
    """
    out = x[:, 0::4, 0::4].copy()
    for i in range(4):
        for j in range(4):
            if i or j:
                out += x[:, i::4, j::4]
    out /= np.float32(16)
    return out


def planted_teacher(seed: int, d: int, input_hw: tuple[int, int],
                    alpha: float = 0.0) -> EncoderModel:
    """Frozen teacher with tunable foreground/background additivity: `alpha` >= 0
    weighs the non-additive term, a constant of the map beside `W` and `P`.

    Stands in for a pre-trained contrastive backbone: the plain Gaussian W
    keeps the shared mid-gray image component, so all natural rasters map
    into a narrow cone (nonzero background mean), mirroring real encoders.
    """
    if alpha < 0:
        raise ConfigError("non-additivity coefficient alpha must be >= 0")
    H, W = input_hw
    if H % 4 or W % 4:
        raise ConfigError("planted teacher needs extents divisible by 4")
    D = _flat_dim(input_hw)
    g = rng(seed, "planted")
    Wmat = (g.standard_normal((D, d)) / np.sqrt(D)).astype(np.float32)
    Dp = (H // 4) * (W // 4) * 3
    Pmat = (g.standard_normal((Dp, d)) / np.sqrt(Dp)).astype(np.float32)
    return EncoderModel(
        arch="planted-linear", d=d, input_hw=input_hw, params={},
        consts={"W": Wmat, "P": Pmat, "alpha": np.float64(alpha)}, frozen=True,
    )


def init_encoder(seed: int, d: int, input_hw: tuple[int, int]) -> EncoderModel:
    """Fresh trainable MLP encoder."""
    g = rng(seed, "encoder", "mlp")
    D = _flat_dim(input_hw)
    params = {
        "W1": Tensor((g.standard_normal((D, MLP_HIDDEN)) * np.sqrt(2.0 / D)).astype(np.float32),
                     requires_grad=True),
        "b1": Tensor(np.zeros(MLP_HIDDEN, dtype=np.float32), requires_grad=True),
        "W2": Tensor((g.standard_normal((MLP_HIDDEN, d)) * np.sqrt(2.0 / MLP_HIDDEN)).astype(np.float32),
                     requires_grad=True),
        "b2": Tensor(np.zeros(d, dtype=np.float32), requires_grad=True),
    }
    return EncoderModel(arch="mlp", d=d, input_hw=input_hw, params=params,
                        consts={}, frozen=False)


def _pre_embed_planted(model: EncoderModel, batch: np.ndarray) -> np.ndarray:
    B = batch.shape[0]
    flat = batch.reshape(B, -1).astype(np.float32, copy=False)
    z = flat @ model.consts["W"]
    alpha = float(model.consts["alpha"])
    if alpha > 0:
        pooled = _avg_pool4(batch)
        z = z + alpha * (pooled**2).reshape(B, -1) @ model.consts["P"]
    return z


def _as_batch(x: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or x.shape[1] != hw[0] or x.shape[2] != hw[1] or x.shape[3] != 3:
        raise DimensionError(f"expected rasters of extents {hw}+(3,), got {x.shape}")
    return x


def _forward(model: EncoderModel, x: Tensor) -> Tensor:
    """Pre-normalization forward pass building on the active tape."""
    B = x.shape[0]
    p = model.params
    if model.arch == "planted-linear":
        return Tensor(_pre_embed_planted(model, x.data))
    if model.arch == "linear":
        return T.matmul(T.reshape(x, (B, -1)), p["W"])
    if model.arch == "mlp":
        h = T.gelu(T.matmul(T.reshape(x, (B, -1)), p["W1"]) + p["b1"])
        return T.matmul(h, p["W2"]) + p["b2"]
    raise ConfigError(f"unknown architecture {model.arch!r}")


def encode_batch(model: EncoderModel, batch: np.ndarray) -> Tensor:
    """Unit-norm embeddings [B, d] of rasters; differentiable when the model is
    trainable."""
    z = _forward(model, Tensor(_as_batch(batch, model.input_hw)))
    return T.l2_normalize(z)


def encode_np(model: EncoderModel, batch: np.ndarray) -> np.ndarray:
    """Embeddings as a plain ndarray (evaluation path, no tape)."""
    return encode_batch(model, batch).data


def clone_unfrozen(teacher: EncoderModel) -> EncoderModel:
    """Parameter-identical trainable copy; a planted teacher becomes a linear map.

    Cloning a planted teacher drops the alpha interaction term: only the
    linear part transfers into the trainable parameterization.
    """
    if teacher.arch == "planted-linear":
        params = {"W": Tensor(teacher.consts["W"].copy(), requires_grad=True)}
        return EncoderModel(arch="linear", d=teacher.d, input_hw=teacher.input_hw,
                            params=params, consts={}, frozen=False)
    params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in teacher.params.items()}
    return EncoderModel(arch=teacher.arch, d=teacher.d, input_hw=teacher.input_hw,
                        params=params, consts={k: v.copy() for k, v in teacher.consts.items()},
                        frozen=False)


def freeze(model: EncoderModel) -> EncoderModel:
    """Frozen copy of a trained encoder (copies arrays, drops grad flags)."""
    params = {k: Tensor(v.data.copy(), requires_grad=False) for k, v in model.params.items()}
    return EncoderModel(arch=model.arch, d=model.d, input_hw=model.input_hw,
                        params=params, consts={k: v.copy() for k, v in model.consts.items()},
                        frozen=True)
