"""Deterministic seed derivation and the counter-based draw of the detectors.

Runs are reproducible for a fixed top-level seed, and no value depends on
draw order. derive_seed hashes stable labels (tag, seed, root, ...) into a
64-bit key; make_rng seeds a random.Random from one, for the per-solve draw
of the k-leaf primes. Every per-trial value of the detectors comes from
counter_draw: value (trial, index) under a key is one splitmix64 output, a
pure function of (key, trial, index), so any chunking of the trials
reproduces the same values (counter-based generators: Salmon, Moraes, Dror
and Shaw, SC 2011; splitmix64: Steele, Lea and Flood, OOPSLA 2014). Only
hamdetect and branchings import this module, so the numpy-free commands
never load it.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def derive_seed(*parts) -> int:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def counter_draw(key: int, start: int, count: int, width: int) -> np.ndarray:
    """Uniform 64-bit words of trials start..start+count-1, [count, width] uint64.

    Word (trial, index) is output number trial*width + index + 1 of a
    splitmix64 generator seeded with key: the counter is scaled by the
    golden-ratio increment and put through splitmix64's mixer, which is a
    bijection on 64-bit words. Every word is a function of (key, trial,
    index) alone.
    """
    ctr = np.arange(start * width + 1, (start + count) * width + 1, dtype=np.uint64)
    z = ctr * _GAMMA + np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z.reshape(count, width)
