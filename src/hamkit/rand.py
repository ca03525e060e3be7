"""Deterministic seed derivation.

All randomness in the package flows through derive_seed so that runs are
reproducible for a fixed top-level seed: every work item (prime, root,
trial, chunk) derives its own child seed from stable labels rather than from
draw order.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(*parts) -> int:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))
