"""Encoder architectures: linearity of the planted map, cloning, freezing."""

import numpy as np
import pytest

from anchorlab import tensor as T
from anchorlab.encoders import (
    _avg_pool4,
    _pre_embed_planted,
    clone_unfrozen,
    encode_batch,
    encode_np,
    freeze,
    init_encoder,
    planted_teacher,
)
from anchorlab.errors import ConfigError, ContractError, DimensionError
from anchorlab.tensor import GradTape, Tensor

from conftest import param_checksum


def _rand_raster(seed, hw=(32, 32), n=1):
    g = np.random.default_rng(seed)
    return g.uniform(0, 1, size=(n, *hw, 3)).astype(np.float32)


def test_planted_alpha0_is_linear(micro_teacher):
    x1 = _rand_raster(1)
    x2 = _rand_raster(2)
    z1 = _pre_embed_planted(micro_teacher, x1)[0]
    z2 = _pre_embed_planted(micro_teacher, x2)[0]
    z12 = _pre_embed_planted(micro_teacher, x1 + x2)[0]
    assert np.allclose(z12, z1 + z2, atol=1e-4)


def test_planted_alpha_breaks_linearity():
    t = planted_teacher(7, d=16, input_hw=(32, 32), alpha=2.0)
    x1 = _rand_raster(1)
    x2 = _rand_raster(2)
    z1 = _pre_embed_planted(t, x1)[0]
    z2 = _pre_embed_planted(t, x2)[0]
    z12 = _pre_embed_planted(t, x1 + x2)[0]
    assert not np.allclose(z12, z1 + z2, atol=1e-3)


def test_planted_alpha_term_is_float32_arithmetic():
    t = planted_teacher(7, d=16, input_hw=(32, 32), alpha=2.0)
    B = 24
    x = _rand_raster(3, n=B)
    W, P = t.consts["W"], t.consts["P"]
    assert W.dtype == P.dtype == np.float32
    explicit = x.reshape(B, -1) @ W + 2.0 * ((_avg_pool4(x) ** 2).reshape(B, -1) @ P)
    assert explicit.dtype == np.float32
    z = _pre_embed_planted(t, x)
    assert z.dtype == np.float32
    assert np.array_equal(z, explicit)


@pytest.mark.parametrize("B", [1, 3, 96])
@pytest.mark.parametrize("hw", [(8, 8), (32, 32), (64, 64), (16, 40)])
def test_avg_pool4_matches_the_strided_mean_bit_for_bit(B, hw):
    def strided_mean(x):
        B, H, W, C = x.shape
        return x.reshape(B, H // 4, 4, W // 4, 4, C).mean(axis=(2, 4))

    x = _rand_raster(B + hw[1], hw=hw, n=B) ** 2
    pooled = _avg_pool4(x)
    assert pooled.dtype == np.float32
    assert np.array_equal(pooled, strided_mean(x))


def test_planted_is_frozen_and_deterministic():
    a = planted_teacher(3, d=8, input_hw=(32, 32))
    b = planted_teacher(3, d=8, input_hw=(32, 32))
    assert a.frozen and not a.params
    assert param_checksum(a) == param_checksum(b)
    with pytest.raises(ConfigError):
        planted_teacher(3, d=8, input_hw=(30, 30))
    with pytest.raises(ConfigError):
        planted_teacher(1, d=8, input_hw=(32, 32), alpha=-0.5)


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_embeddings_unit_norm(arch):
    hw = (16, 16)
    model = init_encoder(arch, 5, d=8, input_hw=hw)
    embs = encode_np(model, _rand_raster(9, hw=hw, n=4))
    assert embs.shape == (4, 8)
    assert np.allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-5)


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_architecture_gradients(arch):
    hw = (8, 8)
    model = init_encoder(arch, 13, d=4, input_hw=hw)
    batch = _rand_raster(21, hw=hw, n=2)
    target = np.random.default_rng(0).standard_normal((2, 4)).astype(np.float32)

    def loss_np():
        return float((encode_np(model, batch) * target).sum())

    with GradTape() as tape:
        embs = encode_batch(model, batch)
        loss = T.tsum(embs * Tensor(target))
        tape.backward(loss)
    # spot-check a handful of coordinates per parameter against central FD
    g = np.random.default_rng(99)
    eps = 1e-2
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in g.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_np()
            flat[i] = orig - eps
            lo = loss_np()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            assert abs(gflat[i] - fd) / max(abs(fd), 1e-2) < 2e-3, name


def test_clone_of_planted_matches_linear_part(micro_teacher):
    clone = clone_unfrozen(micro_teacher)
    assert clone.arch == "linear" and not clone.frozen
    batch = _rand_raster(3, n=3)
    assert np.allclose(encode_np(micro_teacher, batch), encode_np(clone, batch), atol=1e-5)


def test_clone_copies_do_not_alias():
    model = init_encoder("mlp", 2, d=4, input_hw=(8, 8))
    clone = clone_unfrozen(model)
    clone.params["W1"].data += 1.0
    assert not np.allclose(model.params["W1"].data, clone.params["W1"].data)


def test_freeze_preserves_outputs():
    model = init_encoder("mlp", 8, d=8, input_hw=(16, 16))
    frozen = freeze(model)
    batch = _rand_raster(4, hw=(16, 16), n=2)
    assert frozen.frozen
    assert not any(p.requires_grad for p in frozen.params.values())
    assert np.allclose(encode_np(model, batch), encode_np(frozen, batch))


def test_bad_inputs():
    model = init_encoder("linear", 1, d=4, input_hw=(16, 16))
    with pytest.raises(DimensionError):
        encode_np(model, np.zeros((2, 8, 8, 3), dtype=np.float32))
    with pytest.raises(ConfigError):
        init_encoder("transformer", 1)


@pytest.mark.parametrize("arch", ["linear", "mlp"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_raster_is_rejected(arch, bad):
    model = init_encoder(arch, 6, d=4, input_hw=(8, 8))
    batch = _rand_raster(5, hw=(8, 8), n=3)
    batch[1, 2, 3, 0] = bad
    with pytest.raises(ContractError):
        encode_batch(model, batch)
