"""A fixed probe of how fast the machine runs right now.

Shared machines drift: the same corpus, run minutes apart, has taken 1.2 to
1.5 times as long, in CPU time as well as wall time, so the slowdown is the
core's and not the scheduler's. The runner times this probe before every
round and after the last one. The probe never changes with the program,
so dividing an op's wall time by the probe time measured around it cancels
the drift and leaves the program's own cost.

The probe mixes the two kinds of work hamkit does: pure-Python integer
elimination (like the Bareiss sieve) and small numpy array passes with
table lookups (like the batched field kernels).
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on the reference machine (a 2-vCPU Intel Xeon, Python 3.11.7,
# numpy 2.4.6) when it was not slowed down; see README.md.
REFERENCE_S = 0.0066


def _kernel() -> int:
    acc = 0
    base = [[(i * 7 + j * 13) % 97 - 48 for j in range(12)] for i in range(12)]
    for _ in range(60):
        a = [row[:] for row in base]
        for k in range(11):
            pivot = a[k][k] or 1
            for i in range(k + 1, 12):
                f, ai, ak = a[i][k], a[i], a[k]
                for j in range(k + 1, 12):
                    ai[j] = (ai[j] * pivot - f * ak[j]) % 1_000_003
        acc ^= a[11][11]
    table = np.arange(256, dtype=np.int32) * 7 % 251
    x = np.arange(4096 * 16, dtype=np.int32).reshape(4096, 16)
    for _ in range(12):
        x = table[(x * 3 + 1) & 0xFF] ^ x
        acc ^= int(x[:, 3].sum())
    return acc


def probe(repeats: int = 5) -> float:
    """Median wall seconds of the fixed kernel over `repeats` runs."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]
