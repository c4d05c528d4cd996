"""Differentiable image encoders producing unit-norm embeddings.

Four architectures:

* ``planted-linear`` — a frozen, analytically constructed teacher whose
  pre-normalization map is ``z = W.vec(x) + alpha * phi(x)``.  At alpha=0 it
  is exactly linear, so foreground/background superposition is exact and the
  additivity probe has a ground-truth reference point.  phi squares 4x4
  average-pooled patches, which injects foreground x background interaction
  terms as alpha grows.
* ``linear`` — trainable W only.
* ``mlp`` — two layers, hidden 256, GELU.
* ``cnn`` — three stride-2 conv blocks (k=4) then a linear head.

All encoders emit unit-L2 embeddings; frozen models never register
gradients and are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .rng import rng
from .tensor import Tensor

MLP_HIDDEN = 256
CNN_CHANNELS = (16, 32, 64)
CNN_KERNEL = 4
CNN_STRIDE = 2


@dataclass(frozen=True)
class PlantedConfig:
    """Configuration of the planted analytically-additive teacher."""

    seed: int
    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError("non-additivity coefficient alpha must be >= 0")


class EncoderModel:
    """An encoder with a named parameter set and a frozen/trainable role."""

    def __init__(self, arch: str, d: int, input_hw: tuple[int, int],
                 params: dict[str, Tensor], consts: dict[str, np.ndarray],
                 frozen: bool, meta: dict | None = None):
        self.arch = arch
        self.d = d
        self.input_hw = tuple(input_hw)
        self.params = params
        self.consts = consts
        self.frozen = frozen
        self.meta = dict(meta or {})

    def param_checksum(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        for name in sorted(self.consts):
            h.update(name.encode())
            h.update(self.consts[name].tobytes())
        return h.hexdigest()


def _flat_dim(hw: tuple[int, int]) -> int:
    return hw[0] * hw[1] * 3


def _avg_pool4(x: np.ndarray) -> np.ndarray:
    """4x4 average pooling of [B,H,W,C]; extents must divide by 4."""
    B, H, W, C = x.shape
    return x.reshape(B, H // 4, 4, W // 4, 4, C).mean(axis=(2, 4))


def planted_teacher(cfg: PlantedConfig, d: int = 64, input_hw: tuple[int, int] = (64, 64)) -> EncoderModel:
    """Frozen teacher with tunable foreground/background additivity.

    Stands in for a pre-trained contrastive backbone: the plain Gaussian W
    keeps the shared mid-gray image component, so all natural rasters map
    into a narrow cone (nonzero background mean), mirroring real encoders.
    """
    H, W = input_hw
    if H % 4 or W % 4:
        raise ConfigError("planted teacher needs extents divisible by 4")
    D = _flat_dim(input_hw)
    g = rng(cfg.seed, "planted")
    Wmat = (g.standard_normal((D, d)) / np.sqrt(D)).astype(np.float32)
    Dp = (H // 4) * (W // 4) * 3
    Pmat = (g.standard_normal((Dp, d)) / np.sqrt(Dp)).astype(np.float32)
    return EncoderModel(
        arch="planted-linear", d=d, input_hw=input_hw, params={},
        consts={"W": Wmat, "P": Pmat}, frozen=True,
        meta={"seed": cfg.seed, "alpha": cfg.alpha},
    )


def init_encoder(arch: str, seed: int, d: int = 64, input_hw: tuple[int, int] = (64, 64)) -> EncoderModel:
    """Fresh trainable encoder of the given architecture."""
    g = rng(seed, "encoder", arch)
    H, W = input_hw
    D = _flat_dim(input_hw)
    params: dict[str, Tensor] = {}
    if arch == "linear":
        params["W"] = Tensor((g.standard_normal((D, d)) / np.sqrt(D)).astype(np.float32),
                             requires_grad=True)
    elif arch == "mlp":
        params["W1"] = Tensor((g.standard_normal((D, MLP_HIDDEN)) * np.sqrt(2.0 / D)).astype(np.float32),
                              requires_grad=True)
        params["b1"] = Tensor(np.zeros(MLP_HIDDEN, dtype=np.float32), requires_grad=True)
        params["W2"] = Tensor((g.standard_normal((MLP_HIDDEN, d)) * np.sqrt(2.0 / MLP_HIDDEN)).astype(np.float32),
                              requires_grad=True)
        params["b2"] = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
    elif arch == "cnn":
        cin = 3
        side = H
        for i, cout in enumerate(CNN_CHANNELS):
            side = (side - CNN_KERNEL) // CNN_STRIDE + 1
            if side < 1:
                raise ConfigError(f"input {input_hw} too small for the cnn stack")
            fan_in = CNN_KERNEL * CNN_KERNEL * cin
            params[f"conv{i}"] = Tensor(
                (g.standard_normal((fan_in, cout)) * np.sqrt(2.0 / fan_in)).astype(np.float32),
                requires_grad=True)
            params[f"cb{i}"] = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)
            cin = cout
        flat = side * side * CNN_CHANNELS[-1]
        params["Wh"] = Tensor((g.standard_normal((flat, d)) * np.sqrt(2.0 / flat)).astype(np.float32),
                              requires_grad=True)
        params["bh"] = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
    else:
        raise ConfigError(f"unknown architecture {arch!r}")
    return EncoderModel(arch=arch, d=d, input_hw=input_hw, params=params,
                        consts={}, frozen=False, meta={"seed": seed})


def _pre_embed_planted(model: EncoderModel, batch: np.ndarray) -> np.ndarray:
    B = batch.shape[0]
    flat = batch.reshape(B, -1).astype(np.float32)
    z = flat @ model.consts["W"]
    alpha = float(model.meta.get("alpha", 0.0))
    if alpha > 0:
        pooled = _avg_pool4(batch)
        z = z + alpha * (pooled**2).reshape(B, -1) @ model.consts["P"]
    return z


def pre_embedding(model: EncoderModel, batch: np.ndarray) -> np.ndarray:
    """Pre-normalization embeddings for a frozen model (plain ndarray path)."""
    batch = _as_batch(batch, model.input_hw)
    if model.arch == "planted-linear":
        return _pre_embed_planted(model, batch)
    out = _forward(model, Tensor(batch))
    return out.data


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
    if model.arch == "cnn":
        h = x
        side = model.input_hw[0]
        cin = 3
        for i, cout in enumerate(CNN_CHANNELS):
            oside = (side - CNN_KERNEL) // CNN_STRIDE + 1
            cols = T.im2col(h, CNN_KERNEL, CNN_STRIDE)
            h = T.gelu(T.matmul(cols, p[f"conv{i}"]) + p[f"cb{i}"])
            h = T.reshape(h, (B, oside, oside, cout))
            side, cin = oside, cout
        flat = T.reshape(h, (B, -1))
        return T.matmul(flat, p["Wh"]) + p["bh"]
    raise ConfigError(f"unknown architecture {model.arch!r}")


def encode_batch(model: EncoderModel, batch) -> Tensor:
    """Unit-norm embeddings [B, d]; differentiable when the model is trainable."""
    if isinstance(batch, Tensor):
        data = _as_batch(batch.data, model.input_hw)
        x = batch if data.shape == batch.data.shape else Tensor(data)
    else:
        x = Tensor(_as_batch(batch, model.input_hw))
    z = _forward(model, x)
    return T.l2_normalize(z, axis=-1)


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
                            params=params, consts={}, frozen=False,
                            meta={**teacher.meta, "cloned_from": "planted-linear"})
    params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in teacher.params.items()}
    return EncoderModel(arch=teacher.arch, d=teacher.d, input_hw=teacher.input_hw,
                        params=params, consts={k: v.copy() for k, v in teacher.consts.items()},
                        frozen=False, meta=dict(teacher.meta))


def freeze(model: EncoderModel) -> EncoderModel:
    """Frozen copy of a trained encoder (copies arrays, drops grad flags)."""
    params = {k: Tensor(v.data.copy(), requires_grad=False) for k, v in model.params.items()}
    return EncoderModel(arch=model.arch, d=model.d, input_hw=model.input_hw,
                        params=params, consts={k: v.copy() for k, v in model.consts.items()},
                        frozen=True, meta=dict(model.meta))
