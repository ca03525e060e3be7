"""Randomized Hamiltonian cycle detection via port-matrix determinant sums.

A Hamiltonian cycle enters and leaves every vertex exactly once. The test
materializes that as a square "port matrix" over a binary field: one row per
vertex, one column per *port*. Vertices in an independent set (yellow) each
own a dedicated entry port and exit port; the remaining (blue) vertices share
an anonymous pool of n - 2*|yellow| ports. Every port carries its own
independent random weight table on the arcs.

Entries are gated by a guessed membership pair (I, O) of blue vertices, I
being the blue vertices currently credited with entering moves and O with
exiting moves. Summing det over all pairs with I union O = blue and the
anchor vertex (smallest blue id) pinned to I gives, in characteristic 2, a
polynomial in the weights that is nonzero for some weight choice exactly when
the graph has a Hamiltonian cycle. Random weights then make a one-sided test:
a nonzero sum proves a cycle exists, and a zero sum is wrong with probability
at most n/q per trial.

The n x n port matrix is never built. A yellow row holds only din at its
entry port E and dout at its exit port X, so folding it away leaves a
|blue| x |blue| matrix with the same determinant: one row per blue vertex,
the pool columns, and per yellow vertex one merged column din*X + dout*E
over the blue rows. Every entry of that matrix is GF(2)-linear in the
selector of its own side, the merged columns included (din*X is the xor over
w in O of the entry weight on w -> y times X), so each trial tabulates the
xor of every subset of per-vertex rows over each half of the blue vertices,
and a pair matrix is two table lookups and one xor per side, its rows gated
by I and O. The determinants of a chunk of pairs are taken at once by
table-driven batched Gaussian elimination.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import BinaryField, make_binary_field
from .errors import GuardError
from .graph import Digraph, IndependentPartition, find_independent_partition
from .rand import derive_seed
from .report import DetectionReport

STATE_CHUNK = 1 << 14
# 2 * 3^(BLUE_LIMIT - 1) pair determinants per trial, about 2.9e7 at 16
BLUE_LIMIT = 16


@dataclass(frozen=True)
class PortLayout:
    """Row and column bookkeeping for the port matrix of one graph.

    Rows are the blue vertices in id order followed by the yellow ones.
    Columns are `pool_count` shared pool ports, then one entry port per
    yellow vertex, then one exit port per yellow vertex. The anchor is the
    smallest blue vertex; its exiting role is suppressed in gated entries.
    The sieve folds the yellow rows away and keeps only the blue ones.
    """

    blue: tuple[int, ...]
    yellow: tuple[int, ...]

    def __post_init__(self):
        if not self.blue:
            raise ValueError("need at least one blue vertex")
        if len(self.yellow) * 2 > self.n:
            raise ValueError("yellow set may hold at most half the vertices")

    @property
    def n(self) -> int:
        return len(self.blue) + len(self.yellow)

    @property
    def pool_count(self) -> int:
        return self.n - 2 * len(self.yellow)

    @property
    def anchor(self) -> int:
        return self.blue[0]

    @property
    def ports(self) -> tuple[tuple[str, int], ...]:
        pool = tuple(("pool", i) for i in range(self.pool_count))
        entry = tuple(("entry", y) for y in self.yellow)
        exit_ = tuple(("exit", y) for y in self.yellow)
        return pool + entry + exit_

    @staticmethod
    def from_partition(g: Digraph, part: IndependentPartition) -> "PortLayout":
        if len(part.blue) + len(part.yellow) != g.n:
            raise ValueError("partition does not cover the graph")
        return PortLayout(blue=tuple(sorted(part.blue)), yellow=tuple(sorted(part.yellow)))


class PortWeights:
    """One random arc-weight table per port, as a [ports, n, n] int array."""

    def __init__(self, layout: PortLayout, field: BinaryField, values: np.ndarray):
        nports = len(layout.ports)
        if values.shape != (nports, layout.n, layout.n):
            raise ValueError("weight array shape mismatch")
        self.layout = layout
        self.field = field
        self.values = values

    @staticmethod
    def draw(g: Digraph, layout: PortLayout, field: BinaryField, seed: int) -> "PortWeights":
        nports = len(layout.ports)
        values = np.zeros((nports, g.n, g.n), dtype=np.int32)
        arcs = sorted(g.arcs)
        if arcs:
            rng = np.random.default_rng(seed)
            tails = np.array([a for a, _ in arcs])
            heads = np.array([b for _, b in arcs])
            values[:, tails, heads] = rng.integers(0, field.q, size=(nports, len(arcs)), dtype=np.int32)
        return PortWeights(layout, field, values)


# ---------------------------------------------------------------------------
# batched pair sums


def batched_gf_det(field: BinaryField, mats: np.ndarray) -> np.ndarray:
    """Determinants of a [B, n, n] int32 stack over GF(2^m). Consumes mats.

    Plain Gaussian elimination; characteristic 2 makes row swaps sign-free.
    Matrices that run out of pivots flow through with determinant 0 (their
    pivot columns are all zero, so the masked table products stay zero).
    """
    nmats, n, _ = mats.shape
    det = np.ones(nmats, dtype=np.int32)
    bidx = np.arange(nmats)
    for j in range(n):
        pidx = j + np.argmax(mats[:, j:, j] != 0, axis=1)
        rj = mats[bidx, j, :].copy()
        mats[bidx, j, :] = mats[bidx, pidx, :]
        mats[bidx, pidx, :] = rj
        det = field.nmul(det, mats[:, j, j])
        if j + 1 < n:
            fac = field.nmul(mats[:, j + 1 :, j], field.ninv(mats[:, j, j])[:, None])
            mats[:, j + 1 :, j + 1 :] ^= field.nmul(fac[:, :, None], mats[:, j, j + 1 :][:, None, :])
    return det


def subset_xor_table(rows: np.ndarray) -> np.ndarray:
    """table[mask] = xor of rows[i] over the set bits i of mask, built by doubling."""
    table = np.zeros((1 << len(rows),) + rows.shape[1:], dtype=rows.dtype)
    for i, row in enumerate(rows):
        table[1 << i : 2 << i] = table[: 1 << i] ^ row
    return table


class _BatchedSieve:
    """Per-trial XOR subset tables for chunked evaluation of the pair sum.

    Each pair gets a |blue| x |blue| matrix: one row per blue vertex, the
    pool columns, then one merged column per yellow vertex y. In the port
    matrix, yellow row y holds din at its entry port E_y and dout at its exit
    port X_y, and nothing else. In characteristic 2:
      replacing X_y by din*X_y + dout*E_y scales det by din, leaving din alone in row y;
      expanding along row y gives det = det(that matrix without row y and column E_y);
      if din = 0, linearity in column X_y gives the same result.
    So the merged column over the blue rows is
    din_y * (gate_in * vexit[:, y]) + dout_y * (gate_out * ventry[:, y]).

    Every entry is GF(2)-linear in the selector of its own side. din_y is
    the xor over w in O of ventry[w, y], so din_y * vexit[u, y] is the xor
    over w in O of ventry[w, y] * vexit[u, y]; dout_y * ventry[u, y] is the
    xor over w in I of vexit[w, y] * ventry[u, y]. With the row tables
      A_in[w, u, :]  = pool weights of arc w -> u, then ventry[w, y] * vexit[u, y] per y,
      A_out[w, u, :] = pool weights of arc u -> w, then vexit[w, y] * ventry[u, y] per y
    (so A_out is A_in with w and u swapped), row u of a pair matrix is
      gate_in[u] * (xor over w in O of A_in[w, u]) + gate_out[u] * (xor over w in I of A_out[w, u]),
    where gate_in[u] says u is in I and gate_out[u] that u is in O and not the anchor.
    Each xor over a selector is one lookup in a subset table of each half
    of the blue vertices and one xor; the field products are taken once per
    trial, when A_in is built.
    """

    def __init__(self, g: Digraph, layout: PortLayout, weights: PortWeights):
        self.field = weights.field
        blue = np.array(layout.blue, dtype=np.intp)
        yellow = np.array(layout.yellow, dtype=np.intp)
        nb, ny, npool = len(blue), len(yellow), layout.pool_count
        adj = np.zeros((g.n, g.n), dtype=bool)
        if g.arcs:
            tails, heads = zip(*g.arcs)
            adj[tails, heads] = True
        w = np.where(adj, weights.values, 0)

        # ventry[u_i, y_i] = entry-port weight on blue[u_i] -> y, vexit the exit-port
        # weight on y -> blue[u_i]
        yi = np.arange(ny)
        ventry = w[npool + yi, blue[:, None], yellow]
        vexit = w[npool + ny + yi, yellow, blue[:, None]]
        a_in = np.empty((nb, nb, nb), dtype=np.int32)
        a_in[:, :, :npool] = w[:npool][:, blue[:, None], blue].transpose(1, 2, 0)
        a_in[:, :, npool:] = self.field.nmul(ventry[:, None, :], vexit[None, :, :])
        a_out = a_in.transpose(1, 0, 2)

        # blue indices [0, half) index the low table, the rest the high one
        self.half = half = nb // 2
        self.bit = 1 << np.arange(nb)
        self.in_lo, self.in_hi = subset_xor_table(a_in[:half]), subset_xor_table(a_in[half:])
        self.out_lo, self.out_hi = subset_xor_table(a_out[:half]), subset_xor_table(a_out[half:])

    def matrices(self, isel: np.ndarray, osel: np.ndarray) -> np.ndarray:
        """[B, |blue|, |blue|] matrices for one chunk of membership rows."""
        half = self.half
        low = (1 << half) - 1
        imask = isel @ self.bit
        omask = osel @ self.bit
        mats = self.in_lo[omask & low]
        mats ^= self.in_hi[omask >> half]
        mats[isel == 0] = 0
        out = self.out_lo[imask & low]
        out ^= self.out_hi[imask >> half]
        out[osel == 0] = 0
        out[:, 0] = 0  # anchor's exiting role is suppressed
        mats ^= out
        return mats

    def chunk_sum(self, isel: np.ndarray, osel: np.ndarray) -> int:
        """Xor of port-matrix determinants for one chunk of membership rows."""
        dets = batched_gf_det(self.field, self.matrices(isel, osel))
        return int(np.bitwise_xor.reduce(dets))


def _membership_chunk(nb: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership selector rows for pair codes [start, stop).

    Column order matches PortLayout.blue. Codes below 3^(nb-1) leave the
    anchor out of O, the upper half puts it in; the base-3 digits of the
    remainder place each other blue vertex in I only / O only / both.
    """
    reps = 3 ** (nb - 1)
    codes = np.arange(start, stop, dtype=np.int64)
    isel = np.ones((len(codes), nb), dtype=np.uint8)
    osel = np.zeros((len(codes), nb), dtype=np.uint8)
    osel[:, 0] = codes // reps
    rem = codes % reps
    for pos in range(1, nb):
        d = rem % 3
        rem = rem // 3
        isel[:, pos] = d != 1
        osel[:, pos] = d != 0
    return isel, osel


def sieve_membership_pairs(
    g: Digraph,
    layout: PortLayout,
    weights: PortWeights,
    threads: int = 1,
) -> tuple[int, int]:
    """Sum det(port matrix) over all gated membership pairs.

    Returns (field element, number of pairs visited). The sum is the xor of
    2 * 3^(|blue| - 1) determinants, evaluated in chunks of STATE_CHUNK
    pairs, and is independent of visit order, so thread partitioning cannot
    change the answer.
    """
    nb = len(layout.blue)
    npairs = 2 * 3 ** (nb - 1)
    sieve = _BatchedSieve(g, layout, weights)
    chunk = STATE_CHUNK
    spans = [(a, min(a + chunk, npairs)) for a in range(0, npairs, chunk)]

    def run(span: tuple[int, int]) -> int:
        isel, osel = _membership_chunk(nb, *span)
        return sieve.chunk_sum(isel, osel)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run, spans))
    else:
        partials = [run(s) for s in spans]
    total = 0
    for part in partials:
        total ^= part
    return total, npairs


def default_trial_count(n: int) -> int:
    return 2 * max(1, (n - 1).bit_length()) + 4


def detect_hamiltonian_cycle(
    g: Digraph,
    trials: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> DetectionReport:
    """One-sided randomized test for the existence of a Hamiltonian cycle.

    A True verdict is certain. After T zero trials the graph is declared
    cycle-free, wrongly with probability at most (n/q)^T where q is the
    field size (at least n^2). Two structural rejections are exact: fewer
    than two vertices, or an independent set larger than n/2 (every vertex
    of an independent set needs a distinct successor outside it).

    Refuses (GuardError) n > 2 * BLUE_LIMIT before the independent-set
    search, and more than BLUE_LIMIT blue vertices before the first trial.
    Past 2 * BLUE_LIMIT vertices every graph either has too many blue
    vertices or is a structural NO that only an exponential search finds.
    """
    n = g.n
    if trials is not None and trials < 1:
        raise ValueError("need at least one trial")
    if n < 2:
        return DetectionReport(
            verdict=False, trials_run=0, trials_max=0, seed=seed,
            failure_bound=0.0, detail={"reason": "fewer than two vertices"},
        )
    if n > 2 * BLUE_LIMIT:
        raise GuardError(f"detect-hc guard: n={n} > {2 * BLUE_LIMIT}")
    part = find_independent_partition(g)
    tmax = trials if trials is not None else default_trial_count(n)
    if len(part.yellow) > n // 2:
        return DetectionReport(
            verdict=False, trials_run=0, trials_max=tmax, seed=seed,
            failure_bound=0.0,
            detail={"reason": "independent set larger than half the graph",
                    "independent_set_size": len(part.yellow)},
        )
    if len(part.blue) > BLUE_LIMIT:
        raise GuardError(
            f"detect-hc guard: {len(part.blue)} blue vertices > {BLUE_LIMIT}, "
            f"2*3^{len(part.blue) - 1} pair determinants per trial"
        )
    layout = PortLayout.from_partition(g, part)
    field = make_binary_field(n)
    pairs = 0
    for t in range(tmax):
        w = PortWeights.draw(g, layout, field, derive_seed("hc-trial", seed, t))
        total, pairs = sieve_membership_pairs(g, layout, w, threads=threads)
        if total != 0:
            return DetectionReport(
                verdict=True, trials_run=t + 1, trials_max=tmax, seed=seed,
                failure_bound=0.0,
                detail={"pairs_per_trial": pairs, "field_bits": field.m,
                        "witness_value": total, "engine": "batched"},
            )
    return DetectionReport(
        verdict=False, trials_run=tmax, trials_max=tmax, seed=seed,
        failure_bound=failure_bound(n, tmax),
        detail={"pairs_per_trial": pairs, "field_bits": field.m, "engine": "batched"},
    )


def failure_bound(n: int, trials: int) -> float:
    """Upper bound on the false-negative probability of the cycle test.

    The field from `make_binary_field(n)` has order q = 2^(2 bitlen(n-1)),
    and each zero trial misses a cycle with probability at most n/q.
    """
    if n < 2:
        return 0.0
    q = 1 << (2 * (n - 1).bit_length())
    return math.pow(n / q, trials)
