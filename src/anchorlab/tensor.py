"""Dense float32 tensors with reverse-mode differentiation.

A `GradTape` records primitive ops in construction order while it is active;
`backward()` replays the records in reverse.  Everything is numpy-backed and
single-threaded from the caller's point of view: a tape is confined to one
logical execution context and tensors are treated as immutable outside an
optimizer step.

Accumulations that sum many terms (means over large pools) are done in
float64 before being cast back, to avoid drift in long-running estimates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError, DimensionError

_EPS_NORM = 1e-8

_ACTIVE_TAPE: "GradTape | None" = None


class Tensor:
    """A dense float32 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise ContractError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tracked = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all graph building goes through the module functions
    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


class GradTape:
    """Ordered record of primitive ops with local-gradient closures.

    Usable as a context manager; ops constructed while the tape is active and
    touching a tracked tensor are recorded.  `backward()` consumes the tape.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], callable]] = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("nested GradTapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], bwd) -> None:
        out._tracked = True
        self._nodes.append((out, inputs, bwd))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into `.grad` of every tracked leaf.

        The tape is reset afterwards; each node is visited exactly once.
        """
        if loss.data.ndim != 0:
            raise ContractError("backward() requires a scalar loss")
        loss.grad = np.ones((), dtype=np.float32)
        for out, inputs, bwd in reversed(self._nodes):
            if out.grad is None:
                continue
            grads = bwd(out.grad)
            for inp, g in zip(inputs, grads):
                if g is None or not inp._tracked:
                    continue
                if inp.grad is None:
                    inp.grad = np.asarray(g, dtype=np.float32).reshape(inp.data.shape)
                else:
                    inp.grad = inp.grad + np.asarray(g, dtype=np.float32).reshape(inp.data.shape)
        # intermediate grads are transient; leaves keep theirs
        for out, _, _ in self._nodes:
            if not out.requires_grad:
                out.grad = None
        self._nodes.clear()


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], bwd) -> Tensor:
    if _ACTIVE_TAPE is not None and any(i._tracked for i in inputs):
        _ACTIVE_TAPE._record(out, inputs, bwd)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient `g` down to `shape` (reverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    return _maybe_record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return _maybe_record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _maybe_record(
        out, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    # an untracked input (the raster batch, a frozen layer) gets no gradient
    return _maybe_record(out, (a, b), lambda g: (g @ b.data.T if a._tracked else None,
                                                 a.data.T @ g if b._tracked else None))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).astype(np.float32),)

    return _maybe_record(out, (a,), bwd)


def tmean(a: Tensor) -> Tensor:
    return mul(tsum(a), Tensor(np.float32(1.0 / a.size)))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _maybe_record(out, (a,), lambda g: (g.reshape(a.shape),))


_CUBE_BLOCK = 8192  # elements per `_cube` block: its float64 temporaries stay in L2
_DROPPED, _TIE = (1 << 29) - 1, 1 << 28  # float64 mantissa bits a float32 cast drops; a tie
_TIE_WINDOW = (1 << 29) // 50  # 0.02 float32 ulp


def _cube(x: np.ndarray) -> np.ndarray:
    """`x**3` of a float32 array, bit for bit, without NumPy's per-element path (~50x
    slower) for a sign-set base. Sign-clear lanes take `abs(x)**3`, the same ufunc on
    the same bits. Sign-set lanes take the float64 cube rounded to float32, except
    within 0.02 ulp of a rounding midpoint or where that cube is zero, subnormal, the
    smallest normal, inf or NaN: there they take `x**3`, never in place (an overlapping
    output may take another loop). This is exact while NumPy's negative-base cube is
    within 0.52 ulp: ~0.507 on NumPy 2.4.6 with AVX-512 SVML, where every sign-set
    float32 matches; `tests/test_tensor.py` pins it."""
    flat = x.reshape(-1)
    out = np.empty(flat.shape, np.float32)
    for s in range(0, flat.size, _CUBE_BLOCK):
        xb = flat[s:s + _CUBE_BLOCK]
        sign = xb.view(np.int32) >> 31  # -1 on sign-set lanes, 0 elsewhere
        cube = (np.abs(xb) ** 3).view(np.int32)
        d = xb.astype(np.float64)
        c64 = d * d * d
        neg = c64.astype(np.float32).view(np.int32)
        cube ^= (cube ^ neg) & sign  # neg where the sign is set; np.where is slower
        out[s:s + _CUBE_BLOCK] = cube.view(np.float32)
        near_tie = np.abs((c64.view(np.int64) & _DROPPED) - _TIE) < _TIE_WINDOW
        # |neg| at or below the smallest normal, or inf or NaN
        edge = ((neg & 0x7FFFFFFF) - 0x00800001).view(np.uint32) >= 0x7EFFFFFF
        idx = np.flatnonzero(near_tie | edge)
        idx = idx[sign[idx] != 0]
        out[s + idx] = xb[idx] ** 3
    return out.reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU with exact derivative of the approximation.  Its cube,
    `_cube(x)`, has the bits of `x**3` while NumPy's cube is within 0.52 ulp."""
    x = a.data
    c = np.float32(math.sqrt(2.0 / math.pi))
    inner = c * (x + 0.044715 * _cube(x))
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bwd(g):
        dinner = c * (1.0 + 3 * 0.044715 * x**2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return _maybe_record(out, (a,), bwd)


def texp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    return _maybe_record(out, (a,), lambda g: (g * out.data,))


def tlog(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _maybe_record(out, (a,), lambda g: (g / a.data,))


def l2_normalize(v: Tensor) -> Tensor:
    """Scale `v` to unit L2 norm along its last axis; direction preserved.

    Raises DegenerateInputError for (near-)zero norms rather than clamping:
    a zero pre-embedding means a broken encoder and must not pass silently.
    """
    norms = np.linalg.norm(v.data.astype(np.float64), axis=-1, keepdims=True)
    if np.any(norms < _EPS_NORM):
        raise DegenerateInputError("l2_normalize of a (near-)zero vector")
    n = norms.astype(np.float32)
    out = Tensor(v.data / n)

    def bwd(g):
        dot = np.sum(g * out.data, axis=-1, keepdims=True)
        return ((g - out.data * dot) / n,)

    return _maybe_record(out, (v,), bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray,
                          class_weights: np.ndarray | None = None) -> Tensor:
    """Mean softmax cross-entropy over a [B, C] logit batch.

    Shifted by the per-row max (a constant, so gradients are unaffected) for
    numerical stability.  Optional per-class weights rescale each sample's
    loss; weights are normalized so the batch reduction stays a mean.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"expected [B, C] logits, got {logits.shape}")
    labels = np.asarray(labels)
    B, C = logits.shape
    if labels.shape != (B,):
        raise DimensionError(f"expected {B} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= C:
        raise ContractError("label outside [0, num_classes)")
    onehot = np.zeros((B, C), dtype=np.float32)
    onehot[np.arange(B), labels] = 1.0
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = sub(logits, shift)
    lse = tlog(tsum(texp(z), axis=1, keepdims=True))
    picked = tsum(mul(z, Tensor(onehot)), axis=1, keepdims=True)
    per_sample = sub(lse, picked)
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=np.float64)[labels]
        w = (w / w.sum() * B).astype(np.float32)
        per_sample = mul(per_sample, Tensor(w.reshape(B, 1)))
    return tmean(per_sample)


def cosine_sim_np(u: np.ndarray, v: np.ndarray) -> float:
    """Plain ndarray cosine for evaluation paths (no tape)."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < _EPS_NORM or nv < _EPS_NORM:
        raise DegenerateInputError("cosine of a zero-norm vector")
    return float(np.dot(u.astype(np.float64), v.astype(np.float64)) / (nu * nv))


# ---------------------------------------------------------------------------
# optimizer and schedule


_CHUNK = 32768  # elements per AdamW block: 128 KB per float32 array, so a block stays in L2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """AdamW with decoupled weight decay and standard bias correction.

    Betas and epsilon are the package-wide `ADAM_BETA1` / `ADAM_BETA2` / `ADAM_EPS`.
    The step updates each parameter and its moments in place, block by block
    through two scratch buffers, so it allocates nothing per step.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        for name, p in params.items():
            # a flat view of a non-contiguous array is a copy, and the update would be lost
            if not p.data.flags.c_contiguous:
                raise ContractError(f"AdamW parameter '{name}' is not C-contiguous")
        self.params = params
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}
        block = min(_CHUNK, max((p.data.size for p in params.values()), default=0))
        self._scratch = (np.empty(block, np.float32), np.empty(block, np.float32))

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        lr = np.float32(self.lr)
        decay = np.float32(self.lr * self.weight_decay) if self.weight_decay else None
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise ContractError(f"NaN/Inf gradient for parameter '{name}'")
            pf, gf = p.data.reshape(-1), g.reshape(-1)
            mf, vf = self._m[name].reshape(-1), self._v[name].reshape(-1)
            for i in range(0, pf.size, _CHUNK):
                j = min(i + _CHUNK, pf.size)
                pb, gb, mb, vb = pf[i:j], gf[i:j], mf[i:j], vf[i:j]
                s, u = self._scratch[0][: j - i], self._scratch[1][: j - i]
                # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=s)
                mb += s
                vb *= b2
                np.multiply(gb, 1.0 - b2, out=s)
                s *= gb
                vb += s
                # s = (m/bc1) / (sqrt(v/bc2) + eps)
                np.divide(mb, bc1, out=s)
                np.divide(vb, bc2, out=u)
                np.sqrt(u, out=u)
                u += ADAM_EPS
                s /= u
                if decay is not None:
                    np.multiply(pb, decay, out=u)
                    pb -= u
                s *= lr
                pb -= s
            p.grad = None


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup from 0 to `base`, then cosine decay down to `floor`."""

    base: float
    warmup_frac: float
    total_steps: int
    floor: float

    def __post_init__(self):
        if not (0.0 <= self.warmup_frac < 1.0) or self.total_steps < 1:
            raise ConfigError("invalid schedule parameters")
        if self.floor > self.base:
            raise ConfigError("schedule floor above base rate")

    def lr_at(self, step: int) -> float:
        if step < 0 or step > self.total_steps:
            raise ContractError(f"step {step} outside [0, {self.total_steps}]")
        warm = max(1, round(self.warmup_frac * self.total_steps))
        if step < warm:
            return self.base * step / warm
        span = max(1, self.total_steps - warm)
        frac = (step - warm) / span
        return self.floor + (self.base - self.floor) * 0.5 * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# the minibatch training loop


@dataclass
class FitLog:
    """Per-epoch mean loss, final LR and wall time, plus the LR of every step."""

    epoch_loss: list[float] = field(default_factory=list)
    epoch_lr: list[float] = field(default_factory=list)
    epoch_wall_ms: list[float] = field(default_factory=list)
    lr_steps: list[float] = field(default_factory=list)


def fit(params: dict[str, Tensor], epoch_data, loss_fn, *, n: int, batch_size: int,
        epochs: int, lr: float, weight_decay: float, warmup_frac: float,
        head: dict[str, Tensor] | None = None, head_only_epochs: int = 0,
        after_epoch=None) -> FitLog:
    """Minibatch AdamW on `params` under warmup plus cosine decay to lr/10.

    `epoch_data(epoch)` returns the epoch's `n` items as a tuple of aligned
    sequences; each step hands their next `batch_size` slices to `loss_fn`,
    which builds a scalar loss on the active tape.  During the first
    `head_only_epochs` epochs only `head`, a subset of `params`, steps, with
    its own optimizer state, while the schedule runs on; the other parameters
    are untracked meanwhile, so no gradient is computed for them.
    `after_epoch(epoch)` runs when each epoch ends.
    """
    steps_per_epoch = max(1, -(-n // batch_size))
    sched = LrSchedule(lr, warmup_frac, epochs * steps_per_epoch, lr / 10)
    head_opt = AdamW(head, lr=lr, weight_decay=weight_decay) if head_only_epochs else None
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    rest = [p for k, p in params.items() if k not in head] if head_only_epochs else []
    log = FitLog()
    step = 0
    try:
        for epoch in range(epochs):
            t0 = time.perf_counter()
            data = epoch_data(epoch)
            warm = epoch < head_only_epochs
            for p in rest:
                p.requires_grad = p._tracked = not warm
            active = head_opt if warm else opt
            losses = []
            for b0 in range(0, n, batch_size):
                step += 1
                active.lr = sched.lr_at(step)
                log.lr_steps.append(active.lr)
                for p in params.values():
                    p.grad = None
                with GradTape() as tape:
                    loss = loss_fn(*(seq[b0 : b0 + batch_size] for seq in data))
                    tape.backward(loss)
                active.step()
                losses.append(float(loss.data))
            log.epoch_loss.append(float(np.mean(losses)))
            log.epoch_lr.append(log.lr_steps[-1])
            log.epoch_wall_ms.append((time.perf_counter() - t0) * 1e3)
            if after_epoch is not None:
                after_epoch(epoch)
    finally:
        # tracked again even when a step raises during the warm-up
        for p in rest:
            p.requires_grad = p._tracked = True
    return log
