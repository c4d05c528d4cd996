"""Shared fixtures: a small synthetic world and cheap encoders."""

import hashlib

import numpy as np
import pytest

from anchorlab.encoders import init_encoder, planted_teacher
from anchorlab.scene import gen_world


@pytest.fixture(scope="session")
def micro_world():
    """Tiny 32x32 world: 2 classes x 4 foregrounds, 2 groups x 10 backgrounds."""
    return gen_world(4242, 2, 2, 4, 10, (32, 32))


@pytest.fixture(scope="session")
def micro_teacher():
    """Frozen planted teacher matched to the micro world's resolution."""
    return planted_teacher(7, d=16, input_hw=(32, 32), alpha=0.0)


@pytest.fixture()
def tiny_mlp():
    return init_encoder(11, d=8, input_hw=(8, 8))


def finite_diff(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function of an ndarray."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def param_checksum(model) -> str:
    """sha256 of an encoder's parameters and constants, in name order."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    for name in sorted(model.consts):
        h.update(name.encode())
        h.update(model.consts[name].tobytes())
    return h.hexdigest()
