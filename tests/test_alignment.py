"""Training loops: loss oracles, stream sharing, the three student variants."""

import numpy as np
import pytest

from anchorlab import alignment
from anchorlab import tensor as T
from anchorlab.alignment import (
    AlignConfig,
    composite_stream,
    cosine_loss,
    finetune_on_correlated,
    pretrain_teacher,
    train_bap,
    train_control,
    train_orthogonal,
)
from anchorlab.anchors import build_anchor_set, orthogonal_targets
from anchorlab.encoders import encode_np
from anchorlab.errors import ConfigError, ManifestError
from anchorlab.evaluation import ProbeHead, group_metrics, probe_predict
from anchorlab.scene import build_test_split, build_train_split


def _small_cfg(**kw):
    base = dict(epochs=3, batch_size=16, lr=1e-3, M=2, seed=5)
    base.update(kw)
    return AlignConfig(**base)


# ---------------------------------------------------------------------------
# loss oracles


def test_align_loss_oracles(micro_teacher, micro_world):
    fgs, bgs = micro_world
    raster = bgs[0].raster
    emb = encode_np(micro_teacher, raster[None])[0]
    items = [(fgs[0], bgs[0], 0, "c")]

    def align_loss(anchor):
        return cosine_loss(micro_teacher, lambda fg: anchor)(items, raster[None])

    # anchor equal to the embedding: perfect alignment, loss 0
    assert align_loss(emb).item() == pytest.approx(0.0, abs=1e-5)
    # antipodal anchor: loss 2
    assert align_loss(-emb).item() == pytest.approx(2.0, abs=1e-5)
    # orthogonal anchor: loss 1
    ortho = np.zeros_like(emb)
    j = int(np.argmin(np.abs(emb)))
    ortho[j] = 1.0
    ortho = ortho - (ortho @ emb) * emb
    ortho /= np.linalg.norm(ortho)
    assert align_loss(ortho).item() == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# the shared composite stream


def test_composite_stream_deterministic(micro_world):
    fgs, bgs = micro_world
    a = composite_stream(fgs, bgs, 3, 9, 0)
    b = composite_stream(fgs, bgs, 3, 9, 0)
    assert [x[3] for x in a] == [x[3] for x in b]
    c = composite_stream(fgs, bgs, 3, 9, 1)
    assert [x[3] for x in a] != [x[3] for x in c]


def test_composite_stream_counts(micro_world):
    fgs, bgs = micro_world
    stream = composite_stream(fgs, bgs, 4, 2, 0)
    assert len(stream) == len(fgs) * 4
    per_fg = {}
    for fg, bg, s, cid in stream:
        per_fg[fg.id] = per_fg.get(fg.id, 0) + 1
        assert cid.startswith(fg.id)
    assert set(per_fg.values()) == {4}


# ---------------------------------------------------------------------------
# alignment students


def test_train_bap_runs_and_logs(micro_world, micro_teacher):
    fgs, bgs = micro_world
    aset = build_anchor_set(micro_teacher, fgs, bgs, 3, 1)
    cfg = _small_cfg()
    student, log = train_bap(micro_teacher, aset, fgs, bgs, cfg)
    assert not student.frozen
    assert len(log.epoch_loss) == cfg.epochs
    assert student.param_checksum() != micro_teacher.param_checksum()
    # schedule conformance: one step per epoch at these sizes
    sched = T.LrSchedule(cfg.lr, cfg.warmup_frac, cfg.epochs, cfg.lr / 10)
    assert log.lr_steps == [sched.lr_at(s) for s in range(1, cfg.epochs + 1)]
    # loss moves toward the anchors
    assert log.epoch_loss[-1] < log.epoch_loss[0]


def test_train_bap_missing_anchor(micro_world, micro_teacher):
    fgs, bgs = micro_world
    with pytest.raises(ManifestError):
        train_bap(micro_teacher, {}, fgs, bgs, _small_cfg())


def test_bap_and_control_share_the_stream(micro_world, micro_teacher, monkeypatch):
    fgs, bgs = micro_world
    aset = build_anchor_set(micro_teacher, fgs, bgs, 2, 1)
    cfg = _small_cfg()
    consumed = []
    real = alignment.composite_stream

    def recording(*args):
        stream = real(*args)
        consumed[-1].append([(fg.id, bg.id, s, cid) for fg, bg, s, cid in stream])
        return stream

    monkeypatch.setattr(alignment, "composite_stream", recording)
    for train in (lambda: train_bap(micro_teacher, aset, fgs, bgs, cfg),
                  lambda: train_control(micro_teacher, fgs, bgs, cfg, probe_epochs=1)):
        consumed.append([])
        train()
    bap_stream, control_stream = consumed
    assert len(bap_stream) == cfg.epochs and bap_stream == control_stream


def test_train_control_probe_budget_error(micro_world, micro_teacher):
    fgs, bgs = micro_world
    with pytest.raises(ConfigError):
        train_control(micro_teacher, fgs, bgs, _small_cfg(epochs=2), probe_epochs=2)


def test_train_control_discards_head(micro_world, micro_teacher):
    fgs, bgs = micro_world
    student, _ = train_control(micro_teacher, fgs, bgs, _small_cfg(), probe_epochs=1)
    assert "head_W" not in student.params
    assert not student.frozen


def test_train_orthogonal_unmapped_class(micro_world, micro_teacher):
    fgs, bgs = micro_world
    targets = orthogonal_targets(micro_teacher.d, 2, 4)
    with pytest.raises(ManifestError):
        train_orthogonal(micro_teacher, targets, {0: 0}, fgs, bgs, _small_cfg())


def test_train_orthogonal_pulls_toward_targets(micro_world, micro_teacher):
    fgs, bgs = micro_world
    targets = orthogonal_targets(micro_teacher.d, 2, 4)
    cfg = _small_cfg(epochs=6, lr=3e-3)
    student, log = train_orthogonal(micro_teacher, targets, {0: 0, 1: 1}, fgs, bgs, cfg)
    assert log.epoch_loss[-1] < log.epoch_loss[0]


def test_align_config_validation():
    with pytest.raises(ConfigError):
        AlignConfig(epochs=0)
    with pytest.raises(ConfigError):
        AlignConfig(lr=0.0)
    with pytest.raises(ConfigError):
        AlignConfig(M=0)
    with pytest.raises(ConfigError):
        AlignConfig(warmup_frac=1.0)
    with pytest.raises(ConfigError):
        AlignConfig(weight_decay=-0.01)


# ---------------------------------------------------------------------------
# teacher pre-training and fine-tuning


def test_pretrain_teacher_frozen_deterministic(micro_world):
    fgs, bgs = micro_world
    a = pretrain_teacher(fgs, bgs, 3, epochs=1, d=8)
    b = pretrain_teacher(fgs, bgs, 3, epochs=1, d=8)
    assert a.frozen
    assert a.param_checksum() == b.param_checksum()
    assert "head_W" not in a.params


def test_finetune_traces(micro_world, micro_teacher):
    fgs, bgs = micro_world
    train = build_train_split(fgs, bgs, 1.0, 16, 8)
    test = build_test_split(fgs, bgs, 4, 8)
    cfg = _small_cfg(epochs=2)
    model, head, traces = finetune_on_correlated(micro_teacher, train, test, cfg)
    assert len(traces["wga"]) == cfg.epochs + 1
    assert len(traces["avg"]) == cfg.epochs + 1
    for key in ("wga", "avg"):
        assert all(0.0 <= v <= 1.0 for v in traces[key])
    assert isinstance(head, ProbeHead)
    assert head.W.shape == (micro_teacher.d, 2) and head.b.shape == (2,)
    # the returned head is the one the last traced epoch was scored with
    gm = group_metrics(probe_predict(model, head, test.rasters()), test.labels(), test.groups())
    assert (gm.wga, gm.avg) == (traces["wga"][-1], traces["avg"][-1])
    assert not model.frozen
    assert model.param_checksum() != micro_teacher.param_checksum()
