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
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all graph building goes through the module functions
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __neg__(self):
        return mul(self, Tensor(np.float32(-1.0)))

    def __matmul__(self, other):
        return matmul(self, other)


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


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)
    return _maybe_record(
        out, (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
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


def power(a: Tensor, exponent: float) -> Tensor:
    out = Tensor(a.data ** np.float32(exponent))
    return _maybe_record(
        out, (a,), lambda g: (g * exponent * a.data ** np.float32(exponent - 1.0),)
    )


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).astype(np.float32),)

    return _maybe_record(out, (a,), bwd)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis), Tensor(np.float32(1.0 / n)))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _maybe_record(out, (a,), lambda g: (g.reshape(a.shape),))


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU with exact derivative of the approximation."""
    x = a.data
    c = np.float32(math.sqrt(2.0 / math.pi))
    inner = c * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bwd(g):
        dinner = c * (1.0 + 3 * 0.044715 * x**2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return _maybe_record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _maybe_record(out, (a,), lambda g: (g * (a.data > 0),))


def texp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    return _maybe_record(out, (a,), lambda g: (g * out.data,))


def tlog(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _maybe_record(out, (a,), lambda g: (g / a.data,))


def l2_normalize(v: Tensor, axis: int = -1) -> Tensor:
    """Scale `v` to unit L2 norm along `axis`; direction preserved.

    Raises DegenerateInputError for (near-)zero norms rather than clamping:
    a zero pre-embedding means a broken encoder and must not pass silently.
    """
    norms = np.linalg.norm(v.data.astype(np.float64), axis=axis, keepdims=True)
    if np.any(norms < _EPS_NORM):
        raise DegenerateInputError("l2_normalize of a (near-)zero vector")
    n = norms.astype(np.float32)
    out = Tensor(v.data / n)

    def bwd(g):
        dot = np.sum(g * out.data, axis=axis, keepdims=True)
        return ((g - out.data * dot) / n,)

    return _maybe_record(out, (v,), bwd)


def cosine_sim(u: Tensor, v: Tensor) -> Tensor:
    """cos(u, v) as a scalar tensor; both inputs must have nonzero norm."""
    if u.shape != v.shape or u.data.ndim != 1:
        raise DimensionError(f"cosine_sim expects equal 1-D shapes, got {u.shape}, {v.shape}")
    un = l2_normalize(u)
    vn = l2_normalize(v)
    return tsum(mul(un, vn))


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

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
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
    floor: float = 0.0

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
