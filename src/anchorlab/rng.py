"""Seed derivation helpers.

Every stochastic routine in the package takes an explicit integer seed and
derives child seeds through a stable hash, so generation is order-independent
and safe to parallelize.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from an arbitrary tuple of ints/strings.

    Uses SHA-256 over the repr of the parts, so the mapping is identical
    across platforms and processes (unlike Python's builtin hash()).
    """
    payload = "\x1f".join(str(p) for p in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def rng(seed: int, *parts) -> np.random.Generator:
    """Generator seeded from `seed` plus optional context parts."""
    if parts:
        seed = derive_seed(seed, *parts)
    return np.random.default_rng(seed)
