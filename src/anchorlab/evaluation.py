"""Downstream measurement: probes, group metrics, and background sensitivity.

All evaluation is read-only over frozen encoders.  The headline numbers are
AVG (sample-weighted accuracy), WGA (worst accuracy over the (class, group)
cells) and BSI (how far embeddings move when only the background changes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import EncoderModel, encode_np
from .errors import ConfigError, ContractError
from .rng import rng
from .scene import (  # composite is re-exported for callers of this module
    ANCHOR_SCALE,
    GroupedDataset,
    RenderMemo,
    composite,  # noqa: F401
    render,
)
from .tensor import Tensor

PROBE_EPOCHS = 30
PROBE_LR = 5e-4
PROBE_BATCH = 128

_BSI_EPS = 1e-8


@dataclass
class ProbeHead:
    """A linear head, logits = emb @ W + b, as trainable tensors: the form of every
    head the lab trains, a probe's or one trained along with its encoder."""

    W: Tensor  # d x num_classes
    b: Tensor

    def params(self) -> dict[str, Tensor]:
        """The head's parameters, as `tensor.fit` takes them."""
        return {"head_W": self.W, "head_b": self.b}


@dataclass(frozen=True)
class GroupMetrics:
    per_group: dict[tuple[int, int], float]
    avg: float
    wga: float


@dataclass(frozen=True)
class BsiReport:
    per_class: dict[int, float]
    mean: float


# ---------------------------------------------------------------------------
# linear probe


def class_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Weights inversely proportional to class frequency."""
    counts = np.bincount(labels, minlength=num_classes)
    if (counts == 0).any():
        raise ConfigError("a class has no samples; cannot weight the probe loss")
    return (len(labels) / (num_classes * counts)).astype(np.float64)


def init_head(d: int, num_classes: int, g: np.random.Generator) -> ProbeHead:
    """A fresh head: W drawn from N(0, 0.01^2) by `g`, b zero."""
    return ProbeHead(Tensor(0.01 * g.standard_normal((d, num_classes)), requires_grad=True),
                     Tensor(np.zeros(num_classes), requires_grad=True))


def fit_linear_head(embs: np.ndarray, labels: np.ndarray, num_classes: int,
                    seed: int, epochs: int = PROBE_EPOCHS, lr: float = PROBE_LR) -> ProbeHead:
    """Class-weighted cross-entropy linear head on fixed embeddings."""
    n, d = embs.shape
    weights = class_weights(labels, num_classes)
    head = init_head(d, num_classes, rng(seed, "probe-init"))

    def loss(idx):
        logits = T.matmul(Tensor(embs[idx]), head.W) + head.b
        return T.softmax_cross_entropy(logits, labels[idx], weights)

    T.fit(head.params(), lambda epoch: (rng(seed, "probe-order", epoch).permutation(n),),
          loss, n=n, batch_size=PROBE_BATCH, epochs=epochs, lr=lr, weight_decay=0.0,
          warmup_frac=0.10)
    return head


def train_probe(encoder: EncoderModel, train: GroupedDataset, seed: int = 0,
                epochs: int = PROBE_EPOCHS, lr: float = PROBE_LR) -> ProbeHead:
    """Linear probe on a frozen encoder's embeddings of the train split."""
    if not encoder.frozen:
        raise ContractError("probes must be trained on a frozen encoder")
    return fit_linear_head(encode_np(encoder, train.batch), train.labels,
                           int(train.labels.max()) + 1, seed, epochs=epochs, lr=lr)


def head_predict(head: ProbeHead, embs: np.ndarray) -> np.ndarray:
    """The class a linear head gives each embedding."""
    return (embs @ head.W.data + head.b.data).argmax(axis=1)


# ---------------------------------------------------------------------------
# prototype classification


def nearest_prototype(prototypes: dict[int, np.ndarray], embs: np.ndarray) -> np.ndarray:
    """The class of each embedding's most cosine-similar prototype, by argmax over
    the unit prototypes; ties break to the lowest class."""
    if len(prototypes) < 2:
        raise ConfigError("need at least two class prototypes")
    classes = sorted(prototypes)
    proto = np.stack([prototypes[c] for c in classes])
    proto = proto / np.linalg.norm(proto, axis=1, keepdims=True)
    sims = embs @ proto.T
    return np.asarray(classes)[sims.argmax(axis=1)]


# ---------------------------------------------------------------------------
# group metrics


def group_metrics(predictions: np.ndarray, labels: np.ndarray,
                  groups: np.ndarray) -> GroupMetrics:
    """Per-(class, group) accuracy, sample-weighted AVG, min-cell WGA."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    if not (len(predictions) == len(labels) == len(groups)):
        raise ConfigError("predictions, labels and groups must align")
    per_group: dict[tuple[int, int], float] = {}
    correct = predictions == labels
    for y, g in sorted({(int(y), int(g)) for y, g in zip(labels, groups)}):
        per_group[(y, g)] = float(correct[(labels == y) & (groups == g)].mean())
    avg = float(correct.mean())
    wga = min(per_group.values())
    return GroupMetrics(per_group=per_group, avg=avg, wga=wga)


# ---------------------------------------------------------------------------
# background sensitivity index


def bsi(embeddings_a: np.ndarray, embeddings_b: np.ndarray) -> float:
    """Centroid separation over pooled spread, BSI = ||mu_A - mu_B|| / sqrt(var_A + var_B).

    Variances are total (trace of covariance), the rotation-invariant match
    for the L2 numerator; the denominator is floored at 1e-8.
    """
    a = np.asarray(embeddings_a, dtype=np.float64)
    b = np.asarray(embeddings_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or len(a) < 2 or len(b) < 2:
        raise ConfigError("bsi needs two sets of >= 2 vectors each")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    var_a = float(((a - mu_a) ** 2).sum(axis=1).mean())
    var_b = float(((b - mu_b) ** 2).sum(axis=1).mean())
    denom = max(np.sqrt(var_a + var_b), _BSI_EPS)
    return float(np.linalg.norm(mu_a - mu_b) / denom)


def bsi_protocol(encoder: EncoderModel, foregrounds, backgrounds, n_pairs: int, seed: int = 0,
                 memo: RenderMemo | None = None) -> BsiReport:
    """Per-class BSI from a paired background swap.

    For each class, the same composites are rendered once over group-0 and
    once over group-1 backgrounds (identical foreground, scale, placement),
    and the two embedding clouds are compared.
    """
    groups = sorted({bg.g for bg in backgrounds})
    if len(groups) != 2:
        raise ConfigError("bsi_protocol needs exactly two background groups")
    pool = {g: [bg for bg in backgrounds if bg.g == g] for g in groups}
    per_class = {}
    for y in sorted({fg.y for fg in foregrounds}):
        members = [fg for fg in foregrounds if fg.y == y]
        g = rng(seed, "bsi", y)
        items_a, items_b = [], []
        for _ in range(n_pairs):
            fg = members[int(g.integers(0, len(members)))]
            bg_a = pool[groups[0]][int(g.integers(0, len(pool[groups[0]])))]
            bg_b = pool[groups[1]][int(g.integers(0, len(pool[groups[1]])))]
            items_a.append((fg, bg_a, ANCHOR_SCALE))
            items_b.append((fg, bg_b, ANCHOR_SCALE))
        rasters = render(items_a + items_b, memo=memo)
        emb_a = encode_np(encoder, rasters[:n_pairs])
        emb_b = encode_np(encoder, rasters[n_pairs:])
        per_class[y] = bsi(emb_a, emb_b)
    return BsiReport(per_class=per_class, mean=float(np.mean(list(per_class.values()))))
