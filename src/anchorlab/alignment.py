"""Alignment-phase losses and the students trained with them.

The main student pulls its embedding of each composite toward a fixed
per-foreground anchor with the loss 1 - cos.  Variants swap the target
(per-class orthogonal vectors) or the loss (cross-entropy on the same data
stream, for a budget-matched control), and a fine-tuning protocol measures
how correlated-label training erodes worst-group accuracy.  Every run goes
through the one minibatch loop, `tensor.fit`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import (
    EncoderModel,
    clone_unfrozen,
    encode_batch,
    freeze,
    init_encoder,
)
from .errors import ConfigError, ManifestError
from .evaluation import ProbeHead, group_metrics, probe_predict, train_probe
from .rng import derive_seed, rng
from .scene import (  # make_composite is re-exported for callers of this module
    GroupedDataset,
    RenderMemo,
    make_composite,  # noqa: F401
    render,
    scene_scale,
)
from .tensor import Tensor


# epochs that train_control spends updating its head alone
CONTROL_WARMUP_EPOCHS = 10

TEACHER_LR = 1e-3


@dataclass(frozen=True)
class AlignConfig:
    epochs: int = 30
    batch_size: int = 128
    lr: float = 1e-4
    weight_decay: float = 0.01
    warmup_frac: float = 0.10
    M: int = 5  # contexts per foreground per epoch
    degradation: str = "perfect"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.M < 1:
            raise ConfigError("epochs, batch size and M must all be >= 1")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be >= 0")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup fraction must lie in [0, 1)")


def composite_stream(foregrounds, bg_pool, M: int, seed: int, epoch: int):
    """Deterministic per-epoch list of (fg, bg, item_seed, comp_id).

    Each foreground gets M fresh random backgrounds; the draw depends only on
    (seed, epoch, fg, m), so the stream is shared verbatim by any consumer
    with the same seed.
    """
    items = []
    for fg in foregrounds:
        g = rng(seed, "stream", epoch, fg.id)
        for m in range(M):
            bg = bg_pool[int(g.integers(0, len(bg_pool)))]
            item_seed = derive_seed(seed, "stream", epoch, fg.id, bg.id, m)
            items.append((fg, bg, item_seed, f"{fg.id}|{bg.id}|{epoch}|{m}"))
    order = rng(seed, "stream-order", epoch).permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# losses over a batch of stream items and their rasters


def cosine_loss(student: EncoderModel, target_of):
    """Loss for `fit`: mean 1 - cos(student embedding, target_of(fg))."""

    def loss(items, rasters) -> Tensor:
        targets = np.stack([target_of(fg) for fg, _, _, _ in items])
        cos = T.tsum(T.mul(encode_batch(student, rasters), Tensor(targets)), axis=1)
        return T.tmean(Tensor(np.float32(1.0)) - cos)

    return loss


def head_cross_entropy(student: EncoderModel, head: dict[str, Tensor],
                       rasters: np.ndarray, ys: np.ndarray) -> Tensor:
    logits = T.matmul(encode_batch(student, rasters), head["head_W"]) + head["head_b"]
    return T.softmax_cross_entropy(logits, ys)


def ce_loss(student: EncoderModel, head: dict[str, Tensor], label_of):
    """Loss for `fit`: cross-entropy of a linear head on label_of(fg, bg)."""

    def loss(items, rasters) -> Tensor:
        ys = np.array([label_of(fg, bg) for fg, bg, _, _ in items])
        if len(np.unique(ys)) < 2:
            warnings.warn("single-class batch in the label stream")
        return head_cross_entropy(student, head, rasters, ys)

    return loss


def _train_loop(student: EncoderModel, loss_fn, foregrounds, bg_pool, cfg: AlignConfig,
                head: dict[str, Tensor] | None = None,
                head_only_epochs: int = 0, memo: RenderMemo | None = None) -> T.FitLog:
    """Fit the student on each epoch's composite stream, rendered as the epoch starts."""
    memo = RenderMemo() if memo is None else memo

    def epoch_data(epoch):
        stream = composite_stream(foregrounds, bg_pool, cfg.M, cfg.seed, epoch)
        rasters = render([(fg, bg, scene_scale(s)) for fg, bg, s, _ in stream],
                         cfg.degradation, memo)
        return stream, rasters

    return T.fit({**student.params, **(head or {})}, epoch_data, loss_fn,
                 n=len(foregrounds) * cfg.M, batch_size=cfg.batch_size,
                 epochs=cfg.epochs, lr=cfg.lr, weight_decay=cfg.weight_decay,
                 warmup_frac=cfg.warmup_frac, head=head,
                 head_only_epochs=head_only_epochs)


def train_bap(teacher: EncoderModel, anchors: dict[str, np.ndarray], foregrounds, bg_pool,
              cfg: AlignConfig, memo: RenderMemo | None = None) -> tuple[EncoderModel, T.FitLog]:
    """Anchor-alignment training of a student cloned from the teacher."""
    for fg in foregrounds:
        if fg.id not in anchors:
            raise ManifestError(f"no anchor for foreground {fg.id}")
    student = clone_unfrozen(teacher)
    loss = cosine_loss(student, lambda fg: anchors[fg.id])
    return student, _train_loop(student, loss, foregrounds, bg_pool, cfg, memo=memo)


def train_orthogonal(teacher: EncoderModel, targets: list[np.ndarray],
                     class_to_target: dict[int, int], foregrounds, bg_pool,
                     cfg: AlignConfig, memo: RenderMemo | None = None,
                     ) -> tuple[EncoderModel, T.FitLog]:
    """Alignment training toward one static orthogonal vector per class."""
    for fg in foregrounds:
        if fg.y not in class_to_target:
            raise ManifestError(f"class {fg.y} has no target vector assigned")
    student = clone_unfrozen(teacher)
    loss = cosine_loss(student, lambda fg: targets[class_to_target[fg.y]])
    return student, _train_loop(student, loss, foregrounds, bg_pool, cfg, memo=memo)


def _head_params(d: int, num_classes: int, seed: int) -> dict[str, Tensor]:
    g = rng(seed, "head")
    return {
        "head_W": Tensor(0.01 * g.standard_normal((d, num_classes)), requires_grad=True),
        "head_b": Tensor(np.zeros(num_classes), requires_grad=True),
    }


def train_control(teacher: EncoderModel, foregrounds, bg_pool, cfg: AlignConfig,
                  probe_epochs: int = CONTROL_WARMUP_EPOCHS,
                  memo: RenderMemo | None = None) -> tuple[EncoderModel, T.FitLog]:
    """Budget-matched cross-entropy control on the exact same composite stream.

    Consumes exactly the epochs an alignment run would, in two stages within
    that budget: the first `probe_epochs` epochs update the head only
    (frozen-encoder warm-up), the remainder fine-tune everything.  The
    classification head is discarded; only the encoder is returned.
    """
    if probe_epochs >= cfg.epochs:
        raise ConfigError("probe stage must leave at least one fine-tuning epoch")
    student = clone_unfrozen(teacher)
    head = _head_params(student.d, len({fg.y for fg in foregrounds}),
                        derive_seed(cfg.seed, "control-head"))
    loss = ce_loss(student, head, lambda fg, bg: fg.y)
    return student, _train_loop(student, loss, foregrounds, bg_pool, cfg, head=head,
                                head_only_epochs=probe_epochs, memo=memo)


def pretrain_teacher(foregrounds, backgrounds, seed: int, epochs: int = 6,
                     d: int = 64, degradation: str = "perfect",
                     memo: RenderMemo | None = None) -> EncoderModel:
    """Learned teacher: joint (class, background-group) supervised pre-training.

    Backgrounds are drawn uniformly regardless of class, and the target is
    the product label class * G + group, so the embedding keeps both
    foreground and background structure, like a generically pre-trained
    backbone.  Returned frozen, head discarded.
    """
    hw = backgrounds[0].raster.shape[:2]
    model = init_encoder("mlp", derive_seed(seed, "teacher"), d=d, input_hw=hw)
    num_groups = len({bg.g for bg in backgrounds})
    num_classes = len({fg.y for fg in foregrounds})
    head = _head_params(d, num_classes * num_groups,
                        derive_seed(seed, "teacher-head"))
    cfg = AlignConfig(epochs=epochs, batch_size=128, lr=TEACHER_LR, M=4,
                      degradation=degradation,
                      seed=derive_seed(seed, "teacher-train"))
    loss = ce_loss(model, head, lambda fg, bg: fg.y * num_groups + bg.g)
    _train_loop(model, loss, foregrounds, backgrounds, cfg, head=head, memo=memo)
    return freeze(model)


def finetune_on_correlated(student: EncoderModel, train: GroupedDataset,
                           test: GroupedDataset, cfg: AlignConfig,
                           ) -> tuple[EncoderModel, ProbeHead, dict[str, list[float]]]:
    """Full-parameter cross-entropy fine-tuning on a correlated set.

    Epoch 0 of the returned traces is the frozen-probe baseline (no encoder
    update yet); later entries track the balanced test set after each epoch.
    """
    model = clone_unfrozen(student)
    probe = train_probe(freeze(model), train,
                        seed=derive_seed(cfg.seed, "ft-probe"))
    head = {"head_W": Tensor(probe.W.copy(), requires_grad=True),
            "head_b": Tensor(probe.b.copy(), requires_grad=True)}
    rasters = train.rasters()
    ys = train.labels()
    test_rasters = test.rasters()
    test_y, test_g = test.labels(), test.groups()
    traces: dict[str, list[float]] = {"wga": [], "avg": []}

    def evaluate(epoch=None):
        preds = probe_predict(model, ProbeHead(head["head_W"].data, head["head_b"].data),
                              test_rasters)
        gm = group_metrics(preds, test_y, test_g)
        traces["wga"].append(gm.wga)
        traces["avg"].append(gm.avg)

    evaluate()
    n = len(rasters)
    T.fit({**model.params, **head},
          lambda epoch: (rng(cfg.seed, "ft-order", epoch).permutation(n),),
          lambda idx: head_cross_entropy(model, head, rasters[idx], ys[idx]),
          n=n, batch_size=cfg.batch_size, epochs=cfg.epochs, lr=cfg.lr,
          weight_decay=cfg.weight_decay, warmup_frac=cfg.warmup_frac,
          after_epoch=evaluate)
    return model, ProbeHead(head["head_W"].data.copy(), head["head_b"].data.copy()), traces
