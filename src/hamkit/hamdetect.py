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

All pair matrices of a chunk are built at once with numpy (xor-sums via
float32 bit-plane matmuls) and their determinants taken by table-driven
batched Gaussian elimination.
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


class _BatchedSieve:
    """Per-trial precomputation for chunked evaluation of the pair sum.

    Xor-sums of weights over membership-gated neighbor sets are computed as
    float32 matmuls on bit planes (counts stay below 2^24, so float32 sums
    are exact), reduced mod 2, and repacked into field elements.
    """

    def __init__(self, g: Digraph, layout: PortLayout, weights: PortWeights):
        self.layout = layout
        self.field = weights.field
        m = self.field.m
        blue = layout.blue
        yellow = layout.yellow
        nb, ny, npool = len(blue), len(yellow), layout.pool_count
        self.nb, self.ny, self.npool = nb, ny, npool
        w = weights.values

        def bits(arr: np.ndarray) -> np.ndarray:
            # [..., m] float32 bit planes of an int array
            return ((arr[..., None] >> np.arange(m)) & 1).astype(np.float32)

        # pool_in[w_i, u_i, c] = weight of port c on arc blue[w_i] -> blue[u_i]
        pool_in = np.zeros((nb, nb, npool), dtype=np.int32)
        pool_out = np.zeros((nb, nb, npool), dtype=np.int32)
        for wi, wv in enumerate(blue):
            for ui, uv in enumerate(blue):
                if g.has_arc(wv, uv):
                    pool_in[wi, ui, :] = w[:npool, wv, uv]
                if g.has_arc(uv, wv):
                    pool_out[wi, ui, :] = w[:npool, uv, wv]
        self.bits_pool_in = bits(pool_in).reshape(nb, nb * npool * m)
        self.bits_pool_out = bits(pool_out).reshape(nb, nb * npool * m)

        self.ventry = np.zeros((nb, ny), dtype=np.int32)
        self.vexit = np.zeros((nb, ny), dtype=np.int32)
        ydiag_in = np.zeros((nb, ny), dtype=np.int32)
        ydiag_out = np.zeros((nb, ny), dtype=np.int32)
        for yi, yv in enumerate(yellow):
            for ui, uv in enumerate(blue):
                if g.has_arc(uv, yv):
                    self.ventry[ui, yi] = w[npool + yi, uv, yv]
                    ydiag_in[ui, yi] = w[npool + yi, uv, yv]
                if g.has_arc(yv, uv):
                    self.vexit[ui, yi] = w[npool + ny + yi, yv, uv]
                    ydiag_out[ui, yi] = w[npool + ny + yi, yv, uv]
        self.bits_ydiag_in = bits(ydiag_in).reshape(nb, ny * m)
        self.bits_ydiag_out = bits(ydiag_out).reshape(nb, ny * m)
        self.mbits = m

    def _pack(self, parity: np.ndarray, *shape: int) -> np.ndarray:
        m = self.mbits
        bitvals = 1 << np.arange(m, dtype=np.int32)
        return (parity.reshape(*shape, m) * bitvals).sum(axis=-1, dtype=np.int32)

    def chunk_sum(self, isel: np.ndarray, osel: np.ndarray) -> int:
        """Xor of port-matrix determinants for one chunk of membership rows."""
        field = self.field
        nb, ny, npool = self.nb, self.ny, self.npool
        n = nb + ny
        nc = isel.shape[0]
        i_f = isel.astype(np.float32)
        o_f = osel.astype(np.float32)
        gate_in = isel.astype(bool)
        gate_out = osel.astype(bool).copy()
        gate_out[:, 0] = False  # anchor's exiting role is suppressed

        def parity(x: np.ndarray) -> np.ndarray:
            return np.rint(x).astype(np.int32) & 1

        q = np.zeros((nc, n, n), dtype=np.int32)
        if npool:
            in_pool = self._pack(parity(o_f @ self.bits_pool_in), nc, nb, npool)
            out_pool = self._pack(parity(i_f @ self.bits_pool_out), nc, nb, npool)
            q[:, :nb, :npool] = np.where(gate_in[:, :, None], in_pool, 0)
            q[:, :nb, :npool] ^= np.where(gate_out[:, :, None], out_pool, 0)
        if ny:
            q[:, :nb, npool : npool + ny] = np.where(gate_out[:, :, None], self.ventry[None], 0)
            q[:, :nb, npool + ny :] = np.where(gate_in[:, :, None], self.vexit[None], 0)
            din = self._pack(parity(o_f @ self.bits_ydiag_in), nc, ny)
            dout = self._pack(parity(i_f @ self.bits_ydiag_out), nc, ny)
            yrows = nb + np.arange(ny)
            q[:, yrows, npool + np.arange(ny)] = din
            q[:, yrows, npool + ny + np.arange(ny)] = dout
        dets = batched_gf_det(field, q)
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
