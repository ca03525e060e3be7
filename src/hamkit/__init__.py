"""Algebraic counting and detection of Hamiltonian cycles and out-branchings.

The package is organised around a weighted-Laplacian toolbox:

- graph: digraph parsing, the cycle-to-path vertex split, independent-set
  partitions of the vertex set.
- algebra: primes, prime-power residues, CRT.
- gf2m: the detectors' binary fields GF(2^m) on numpy arrays.
- modp: the prime fields GF(p), p < 2^31, on numpy arrays: batched
  determinants, batch inverses and interpolation, and the row-by-row
  minor recurrence that finishes every batched determinant kernel.
- matrixtree: out-branching counts and the exact integer determinant
  (±1-pivot elimination, then Bareiss).
- hamcount: Hamiltonian-cycle counts modulo prime powers via an
  inclusion-exclusion determinant sieve, whose one blocked screen lists
  the subsets both modes evaluate, and CRT over prime powers; exact counts
  from one meet-in-the-middle pass modulo a power of two above (n-1)!,
  which visits only the screen's survivors.
- hamdetect: one-sided randomized Hamiltonicity detection driven by a
  port matrix indexed by an independent-set partition of the vertices.
- branchings: detectors for out-branchings with many internal vertices or
  many leaves, via a marker-algebra determinant sieve and degree-window
  tests on trial-batched mod-p determinants and interpolation.
- oracle: small-instance brute-force reference implementations.

Entry points take a run's settings as plain arguments and check them
before any graph work: count_hc_mod(g, p, k=None, lam=0.01,
mode="mitm"), crt_count(g, q, lam), count_exact(g),
detect_hamiltonian_cycle(g, trials=None, seed=0), detect_k_internal(g, k,
trials=100, seed=0), detect_k_leaf(g, k, budget=None, seed=0) and
solve_nk_dv(P, k, budget=None, seed=0). The seed is the detectors' only
source of randomness; the counters draw nothing.

Each question has one determinant route. The counts are exact Python
integer arithmetic, with one determinant kernel (±1-pivot elimination,
then Bareiss): hamcount takes one determinant per subset the screen keeps,
those whose dead-row product is nonzero mod the pass modulus p^k (the
other terms vanish mod p^k), and count_out_branchings one bigint determinant of
the punctured Laplacian. Only the detectors batch over numpy arrays:
hamdetect, branchings, and the binary fields in gf2m and the prime-field
kernels in modp, which only they import. So `import hamkit`, the counting commands and the oracles never
load numpy; the four numpy-backed exports (detect_hamiltonian_cycle,
detect_k_internal, detect_k_leaf, solve_nk_dv) load hamdetect or
branchings on first access.
Nor do `import hamkit` and the counting commands load the data-class module
with its inspect and ast imports (the records are namedtuples or __slots__
classes), fractions (only count-exact's --d parses one) or the oracle module
(only the oracle commands use it).
The scalar routes the batches are tested against live with the tests, in
tests/reference.py.
"""

import importlib

from .errors import GuardError, ParseError
from .graph import (
    Digraph,
    IndependentPartition,
    VertexSplit,
    find_independent_partition,
    parse_digraph,
    split_vertex,
)
from .hamcount import count_exact, count_hc_mod, crt_count
from .matrixtree import count_out_branchings
from .report import DetectionReport

__all__ = [
    "GuardError",
    "ParseError",
    "Digraph",
    "IndependentPartition",
    "VertexSplit",
    "find_independent_partition",
    "parse_digraph",
    "split_vertex",
    "count_hc_mod",
    "crt_count",
    "count_exact",
    "count_out_branchings",
    "detect_hamiltonian_cycle",
    "detect_k_internal",
    "detect_k_leaf",
    "solve_nk_dv",
    "DetectionReport",
]

__version__ = "0.1.0"

# numpy-backed exports, loaded on first access (PEP 562)
_LAZY = {
    "detect_hamiltonian_cycle": "hamdetect",
    "detect_k_internal": "branchings",
    "detect_k_leaf": "branchings",
    "solve_nk_dv": "branchings",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
