"""Downstream measurement: probes, group metrics, and background sensitivity.

All evaluation is read-only over frozen encoders.  The headline numbers are
AVG (sample-weighted accuracy), WGA (worst accuracy over the (class, group)
cells) and BSI (how far embeddings move when only the background changes).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .encoders import EncoderModel, encode_np
from .errors import ConfigError, ContractError
from .rng import derive_seed, rng
from .scene import ANCHOR_SCALE, GroupedDataset, composite
from .tensor import Tensor

PROBE_EPOCHS = 30
PROBE_LR = 5e-4
PROBE_BATCH = 128

_BSI_EPS = 1e-8


@dataclass
class ProbeHead:
    W: np.ndarray  # d x num_classes
    b: np.ndarray


@dataclass(frozen=True)
class GroupMetrics:
    per_group: dict[tuple[int, int], float]
    counts: dict[tuple[int, int], int]
    avg: float
    wga: float
    empty_groups: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class BsiReport:
    per_class: dict[int, float]
    mean: float
    eps: float = _BSI_EPS


# ---------------------------------------------------------------------------
# linear probe


def class_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Weights inversely proportional to class frequency."""
    counts = np.bincount(labels, minlength=num_classes)
    if (counts == 0).any():
        raise ConfigError("a class has no samples; cannot weight the probe loss")
    return (len(labels) / (num_classes * counts)).astype(np.float64)


def fit_linear_head(embs: np.ndarray, labels: np.ndarray, num_classes: int,
                    seed: int, epochs: int = PROBE_EPOCHS, lr: float = PROBE_LR,
                    batch: int = PROBE_BATCH, weighted: bool = True) -> ProbeHead:
    """Class-weighted cross-entropy linear head on fixed embeddings."""
    n, d = embs.shape
    weights = class_weights(labels, num_classes) if weighted else None
    g = rng(seed, "probe-init")
    Wp = Tensor(0.01 * g.standard_normal((d, num_classes)), requires_grad=True)
    bp = Tensor(np.zeros(num_classes), requires_grad=True)

    def loss(idx):
        logits = T.matmul(Tensor(embs[idx]), Wp) + bp
        return T.softmax_cross_entropy(logits, labels[idx], weights)

    T.fit({"W": Wp, "b": bp}, lambda epoch: (rng(seed, "probe-order", epoch).permutation(n),),
          loss, n=n, batch_size=batch, epochs=epochs, lr=lr, weight_decay=0.0,
          warmup_frac=0.10)
    return ProbeHead(W=Wp.data.copy(), b=bp.data.copy())


def train_probe(encoder: EncoderModel, train: GroupedDataset, seed: int = 0,
                epochs: int = PROBE_EPOCHS, lr: float = PROBE_LR) -> ProbeHead:
    """Linear probe on a frozen encoder's embeddings of the train split."""
    if not encoder.frozen:
        raise ContractError("probes must be trained on a frozen encoder")
    embs = encode_np(encoder, train.rasters())
    labels = train.labels()
    return fit_linear_head(embs, labels, int(labels.max()) + 1, seed,
                           epochs=epochs, lr=lr)


def probe_predict(encoder: EncoderModel, head: ProbeHead, rasters: np.ndarray) -> np.ndarray:
    embs = encode_np(encoder, rasters)
    return (embs @ head.W + head.b).argmax(axis=1)


# ---------------------------------------------------------------------------
# prototype classification


def prototype_predict(encoder: EncoderModel, prototypes: dict[int, np.ndarray],
                      rasters: np.ndarray) -> np.ndarray:
    """Argmax cosine over class prototypes; ties break to the lowest class."""
    if len(prototypes) < 2:
        raise ConfigError("need at least two class prototypes")
    embs = encode_np(encoder, rasters)
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
    counts: dict[tuple[int, int], int] = {}
    cells = sorted({(int(y), int(g)) for y, g in zip(labels, groups)})
    empty = []
    for y in sorted(set(int(v) for v in labels)):
        for g in sorted(set(int(v) for v in groups)):
            if (y, g) not in cells:
                empty.append((y, g))
    correct = predictions == labels
    for y, g in cells:
        sel = (labels == y) & (groups == g)
        counts[(y, g)] = int(sel.sum())
        per_group[(y, g)] = float(correct[sel].mean())
    avg = float(correct.mean())
    wga = min(per_group.values())
    return GroupMetrics(per_group=per_group, counts=counts, avg=avg, wga=wga,
                        empty_groups=tuple(empty))


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


def bsi_protocol(encoder: EncoderModel, foregrounds, backgrounds,
                 n_pairs: int = 64, seed: int = 0) -> BsiReport:
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
        ras_a, ras_b = [], []
        for i in range(n_pairs):
            fg = members[int(g.integers(0, len(members)))]
            bg_a = pool[groups[0]][int(g.integers(0, len(pool[groups[0]])))]
            bg_b = pool[groups[1]][int(g.integers(0, len(pool[groups[1]])))]
            item_seed = derive_seed(seed, "bsi", y, i)
            ras_a.append(composite(fg, bg_a, ANCHOR_SCALE, item_seed).raster)
            ras_b.append(composite(fg, bg_b, ANCHOR_SCALE, item_seed).raster)
        emb_a = encode_np(encoder, np.stack(ras_a))
        emb_b = encode_np(encoder, np.stack(ras_b))
        per_class[y] = bsi(emb_a, emb_b)
    return BsiReport(per_class=per_class, mean=float(np.mean(list(per_class.values()))))


# ---------------------------------------------------------------------------
# background-information retention


def _background_probe_accuracy(encoder: EncoderModel, backgrounds, foregrounds,
                               seed: int, n_train: int = 600,
                               n_test: int = 300) -> float:
    """Background-group probe on scene embeddings, held-out backgrounds.

    Probing backgrounds in context (behind a random foreground) rather than
    in isolation: in-context decodability is the quantity the alignment
    phase regularizes, and shallow encoders keep isolated backgrounds
    linearly separable no matter how hard the scene-level cue is crushed.
    """
    from .scene import make_composite

    by_group: dict[int, list] = {}
    for bg in backgrounds:
        by_group.setdefault(bg.g, []).append(bg)
    train_bgs, test_bgs = [], []
    for grp in sorted(by_group):
        pool = sorted(by_group[grp], key=lambda b: b.id)
        order = rng(seed, "retention-split", grp).permutation(len(pool))
        k = max(1, len(pool) // 5)
        test_bgs.extend(pool[i] for i in order[:k])
        train_bgs.extend(pool[i] for i in order[k:])
    fgs = sorted(foregrounds, key=lambda f: f.id)

    def scenes(pool, n, tag):
        g = rng(seed, "retention", tag)
        X, y = [], []
        for i in range(n):
            bg = pool[int(g.integers(0, len(pool)))]
            fg = fgs[int(g.integers(0, len(fgs)))]
            X.append(make_composite(fg, bg, derive_seed(seed, "retention", tag, i)).raster)
            y.append(bg.g)
        return np.stack(X), np.array(y)

    X_tr, y_tr = scenes(train_bgs, n_train, "train")
    X_te, y_te = scenes(test_bgs, n_test, "test")
    head = fit_linear_head(encode_np(encoder, X_tr), y_tr, int(y_tr.max()) + 1,
                           derive_seed(seed, "retention-head"), epochs=20,
                           weighted=False)
    return float((probe_predict(encoder, head, X_te) == y_te).mean())


def retention_eval(encoder_before: EncoderModel, encoder_after: EncoderModel,
                   backgrounds, foregrounds, seed: int = 0) -> tuple[float, float]:
    """How much in-context background-group information each encoder retains."""
    if len({bg.g for bg in backgrounds}) < 2:
        raise ConfigError("retention_eval needs >= 2 background groups")
    before = _background_probe_accuracy(encoder_before, backgrounds, foregrounds, seed)
    after = _background_probe_accuracy(encoder_after, backgrounds, foregrounds, seed)
    return before, after


# ---------------------------------------------------------------------------
# metrics CSV


METRICS_FIELDS = ["run_id", "method", "rho", "avg", "wga",
                  "acc_00", "acc_01", "acc_10", "acc_11", "bsi", "seed"]


def metrics_row(run_id: str, method: str, rho: float, gm: GroupMetrics,
                bsi_value: float, seed: int) -> dict:
    row = {"run_id": run_id, "method": method, "rho": f"{rho:g}",
           "avg": f"{gm.avg:.4f}", "wga": f"{gm.wga:.4f}",
           "bsi": f"{bsi_value:.4f}", "seed": seed}
    for (y, g), acc in gm.per_group.items():
        row[f"acc_{y}{g}"] = f"{acc:.4f}"
    return row


def write_metrics_csv(path, rows: list[dict]) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=METRICS_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow(row)
