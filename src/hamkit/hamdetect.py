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
at most n/q per trial. Every detection runs in the one field GF(2^FIELD_BITS),
and the default trial count is the smallest T with (n/q)^T <= 2^-84
(FAILURE_TARGET_BITS).

The n x n port matrix is never built. A yellow row holds only din at its
entry port E and dout at its exit port X, so folding it away leaves a
|blue| x |blue| matrix with the same determinant: one row per blue vertex,
the pool columns, and per yellow vertex one merged column din*X + dout*E
over the blue rows. Every entry of that matrix is GF(2)-linear in the
selector of its own side, the merged columns included (din*X is the xor over
w in O of the entry weight on w -> y times X), so each trial tabulates the
xor of every subset of per-vertex rows over each block of at most
TABLE_BLOCK = 8 blue vertices (one block per side up to |blue| = 8, two
halves beyond), next to a zero row for each gated-off vertex, and a pair
matrix is the xor of one gathered row per vertex and table: two tables up
to |blue| = 8, four beyond. Which rows to gather depends only on |blue|, so
one cached pair plan serves every trial; a trial draws one weight per
port and arc, and which weights fill the tables depends only on the graph
and its layout, so a detection plans it once. A detection also zeroes the
tables' gate-0 halves once, and builds a chunk's gather index only when
its prefix differs from the last one built (once a detection up to
|blue| = 9), so a trial draws and gathers its weights and rewrites only
the gated halves. The determinants of a chunk of pairs are taken at once
by table-driven batched Gaussian elimination, batch-last: the matrices
that pass an all-zero column screen are laid out in one [n, n, L] stack
whose innermost axis runs over the L matrices, so every step works on
rows of L entries. Many pair matrices are singular and add nothing to
the sum, so the elimination drops a matrix as soon as it is known to be
singular: up front if it has an all-zero column, later if a pivot column
has no nonzero entry left. A dropped matrix gets determinant 0, which is
its exact determinant, so the sum does not change. Half of the pairs, those
with the anchor outside O, are singular for every graph and draw (their
rows xor to zero), so the kernel is told to skip them and reads only the
anchor-in-O half of each chunk; every pair is still gathered and counted.
Elimination stops when MINOR_TAIL = 4 rows are left: the determinant of
that trailing block is the xor of its row-by-row minors (characteristic 2
has no signs), taken in the log domain by modp.minor_det, the recurrence
every batched kernel finishes with: a few batched gathers that need no
pivot and drop nothing.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import GuardError
from .gf2m import BinaryField, make_binary_field
from .graph import Digraph, IndependentPartition, find_independent_partition
from .modp import MINOR_TAIL, minor_det
from .rand import counter_draw, derive_seed
from .report import DetectionReport, run_trials, structural

# every detection draws its weights from GF(2^FIELD_BITS)
FIELD_BITS = 16
# default trials bound the miss probability by 2^-FAILURE_TARGET_BITS
FAILURE_TARGET_BITS = 84
STATE_CHUNK = 1 << 14
# 2 * 3^(BLUE_LIMIT - 1) pair matrices gathered per trial, about 2.9e7 at
# 16; batched_gf_det eliminates only the half with the anchor in O
BLUE_LIMIT = 16
# a subset table covers at most this many blue positions: one table per side
# up to |blue| = 8, two from 9 to BLUE_LIMIT, so a table has at most
# BLUE_LIMIT * 2 * 2^8 rows and a plan's indices fit in uint16
TABLE_BLOCK = BLUE_LIMIT // 2
# building the field's tables (~7 ms) at import keeps them out of the first
# detection call
make_binary_field(FIELD_BITS)


class PortLayout(namedtuple("PortLayout", "blue yellow")):
    """Row and column bookkeeping for the port matrix of one graph.

    Rows are the blue vertices in id order followed by the yellow ones.
    Columns are `pool_count` shared pool ports, then one entry port per
    yellow vertex, then one exit port per yellow vertex. The anchor is the
    smallest blue vertex; its exiting role is suppressed in gated entries.
    The sieve folds the yellow rows away and keeps only the blue ones.
    """

    __slots__ = ()

    def __new__(cls, blue: tuple[int, ...], yellow: tuple[int, ...]):
        if not blue:
            raise ValueError("need at least one blue vertex")
        if len(yellow) > len(blue):
            raise ValueError("yellow set may hold at most half the vertices")
        return super().__new__(cls, blue, yellow)

    @property
    def n(self) -> int:
        return len(self.blue) + len(self.yellow)

    @property
    def pool_count(self) -> int:
        return self.n - 2 * len(self.yellow)

    @property
    def anchor(self) -> int:
        return self.blue[0]

    @staticmethod
    def from_partition(g: Digraph, part: IndependentPartition) -> "PortLayout":
        if len(part.blue) + len(part.yellow) != g.n:
            raise ValueError("partition does not cover the graph")
        return PortLayout(blue=tuple(sorted(part.blue)), yellow=tuple(sorted(part.yellow)))


class PortWeights:
    """One trial's random weights as an [n, arcs] int array: one per port and arc.

    Ports are pool, entry then exit, n of them, and arcs in sorted order.
    A port carries weights on the arcs only, so nothing off them is stored.
    """

    def __init__(self, layout: PortLayout, field: BinaryField, values: np.ndarray):
        if values.ndim != 2 or len(values) != layout.n:
            raise ValueError("weight array shape mismatch")
        self.field = field
        self.values = values

    @staticmethod
    def draw(g: Digraph, layout: PortLayout, field: BinaryField, key: int, trial: int = 0) -> "PortWeights":
        """One trial's weights: counter_draw's words (trial, port * arcs + arc) under key.

        Arcs are taken in sorted order. A weight is the top m bits of its
        word for GF(2^m), so it is exactly uniform on 0..q-1.
        """
        words = counter_draw(key, trial, 1, layout.n * g.m).reshape(layout.n, g.m)
        return PortWeights(layout, field, (words >> np.uint64(64 - field.m)).astype(np.int32))


# ---------------------------------------------------------------------------
# batched pair sums


def batched_gf_det(field: BinaryField, mats: np.ndarray, singular: int = 0) -> np.ndarray:
    """Determinants of a [B, n, n] int32 stack over GF(2^m). Leaves mats as it was.

    The caller may vouch that the first `singular` matrices are singular:
    they get determinant 0 and are never read, and everything below runs on
    the contiguous view mats[singular:] alone, the column screen included.
    sieve_membership_pairs vouches for the first half of each pair chunk,
    the pairs with the anchor outside O (see _pair_plan). Their rows xor to
    zero, so their determinant is 0 for every graph and weight draw. With
    the anchor outside O, no vertex of O has its exit gated off, so with
    A_in as in _BatchedSieve the rows sum to
      (xor over u in I, w in O of A_in[w, u]) xor (xor over u in O, w in I of A_in[u, w]),
    the same terms twice, which is 0 in characteristic 2. The argument goes
    once the sieve stops assembling those pairs.

    Gaussian elimination down to the last t = min(n, MINOR_TAIL) rows on the
    matrices that can still be nonsingular, then the determinant of that
    t x t tail from its minors. A matrix leaves the batch with determinant 0
    as soon as elimination knows it is singular, which is exact whatever
    the field:
      up front, a matrix with an all-zero column (the int32 sum of a column
      of entries in [0, q) may wrap, but as a sum below 2^32 of nonnegative
      terms it wraps to 0 only when every term is 0);
      at each pivot column before the tail, a matrix whose trailing column
      is all zero.
    There is no row screen: a matrix with an all-zero row but no all-zero
    column is singular, so it leaves at a pivot column or its tail has
    determinant 0.
    The L survivors are gathered and laid out batch-last, in one
    C-contiguous [n, n, L] stack. The gathered copy and the layout together
    hold less than the first elimination step (the stack beside its
    [n-1, n-1, L] intp log sums and their exp gather), so the layout sets
    no peak. Each step then works on rows of L entries, one per matrix: it
    tests the pivot column on its [s, L] slice, and replaces the trailing
    block by the next, one row and one column smaller, with one exp-table
    gather, the logs of the factor column and of the pivot row being taken
    on their [s-1, L] slices and added by broadcasting into intp. A matrix
    whose top entry is 0 gets the first row with a nonzero entry added to
    its top row, which leaves the determinant unchanged; one flat take
    gathers those rows for the whole stack.
    The tail needs no pivot and drops nothing: its determinant is the xor
    of its sign-free row-by-row minors (modp.minor_det, on logs). Row r
    takes every minor of rows 0..r at once: two gathers of logs, one add
    (mul), one exp-table gather, one xor reduction and one log lookup (add).
    A matrix of at most MINOR_TAIL rows is its own tail and runs no
    elimination step.
    The pivots multiply as an intp sum of their logs, reduced mod q - 1 once
    at the end, where the tail determinant's log (the zero sentinel when it
    is 0) is added before the one exp lookup. Every log and exp index is in
    range by construction, so each lookup is a take with mode="clip": it
    never clips, and it costs less than the default mode's raise-on-error
    index check. The call returns as soon as no matrix is left.
    """
    nmats, n, _ = mats.shape
    det = np.zeros(nmats, dtype=np.int32)
    live = singular + np.flatnonzero(np.einsum("bij->bj", mats[singular:]).all(axis=1))
    if not len(live):
        return det
    # m[i, j, b] is entry (i, j) of matrix live[b]
    m = np.ascontiguousarray(mats[live].transpose(1, 2, 0))
    lsum = np.zeros(len(live), dtype=np.intp)
    log, exp = field.np_log, field.np_exp
    order = field.q - 1
    t = min(n, MINOR_TAIL)
    for _ in range(n - t):
        nz = m[:, 0] != 0
        has = nz.any(axis=0)
        if not has.all():
            keep = np.flatnonzero(has)
            if not len(keep):
                return det
            m, nz, live, lsum = m.take(keep, axis=2), nz.take(keep, axis=1), live[keep], lsum[keep]
        top = nz[0]
        if not top.all():
            # per matrix, the flat offsets in the C-contiguous m of its first
            # row with a nonzero entry in the pivot column
            first = nz.argmax(axis=0) * m[0].size + np.arange(m[0].size).reshape(m[0].shape)
            np.bitwise_xor(m[0], m.reshape(-1).take(first, mode="clip"), out=m[0], where=~top)
        lcol = log.take(m[:, 0], mode="clip")
        lsum += lcol[0]
        # order - log(piv) in [1, order] is a log of 1/piv; added to a log below
        # 2 * order, or to the zero sentinel, it stays inside the exp table
        lfac = log.take(exp.take(lcol[1:] + (order - lcol[0]), mode="clip"), mode="clip")
        lrow = log.take(m[0, 1:], mode="clip")
        block = exp.take(np.add(lfac[:, None, :], lrow[None, :, :], dtype=np.intp), mode="clip")
        block ^= m[1:, 1:]
        m = block
    # the t x t tail from its minors, in logs: a product's two logs, each
    # below 2 * order or the zero sentinel, add up to at most 4 * order:
    # inside the exp table, and in int32, which take converts faster than an
    # add into intp on these small [K, r + 1, L] sums
    def xor_sum(lprods, _r):
        return log.take(np.bitwise_xor.reduce(exp.take(lprods, mode="clip"), axis=1), mode="clip")

    lsum %= order
    lsum += minor_det(log.take(m, mode="clip"), np.add, xor_sum)
    det[live] = exp.take(lsum, mode="clip")
    return det


def subset_xor_table(rows: np.ndarray, table: np.ndarray) -> None:
    """Fill table[mask] with the xor of rows[i] over the set bits i of mask, by doubling.

    table[0], the xor of no rows, must be zero already: it is never written,
    and every other row is overwritten, so a table is refilled in place.
    """
    for i, row in enumerate(rows):
        np.bitwise_xor(table[: 1 << i], row, out=table[1 << i : 2 << i])


def _table_blocks(nb: int) -> list[tuple[int, int]]:
    """Blue positions [start, stop) of each subset table of one side.

    ceil(nb / TABLE_BLOCK) near-equal blocks: the whole side up to
    TABLE_BLOCK, its low and its high half beyond.
    """
    count = -(-nb // TABLE_BLOCK)
    cuts = [nb * i // count for i in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


@lru_cache(maxsize=None)
def _pair_plan(nb: int, chunk: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Trial-independent gather plan for the 2 * 3^(nb - 1) pairs of nb blue vertices.

    A pair code is the anchor's O bit and one base-3 digit per other blue
    position 1..nb-1 (0: I only, 1: O only, 2: both). A chunk holds every
    code with the same high digits a+1..nb-1 (its prefix): the anchor bit
    times digits 1..a, 2 * 3^a pairs, with a the largest value in
    [0, nb - 1] such that 2 * 3^a <= chunk. The anchor bit is the highest
    of the chunk's codes, so its first 3^a pairs have the anchor outside O
    and are singular for every draw (see batched_gf_det), and the last 3^a
    have it in O.

    The tables of _BatchedSieve, one per side and block of blue positions
    (_table_blocks), each hold a zero block of S * nb rows (gate 0) and
    then, per subset mask of the block, its nb xored rows (gate 1), so row
    u of a pair matrix on one table is row gate[u]*S*nb + mask*nb + u,
    where mask is the pair's selector bits on the block (O for the in side,
    I for the out side) and gate[u] says u is in I (in side) or in O and
    not the anchor (out side). That index is a sum over positions, so it
    splits into a [2 * 3^a, nb] base over the anchor and digits 1..a and a
    [3^(nb-1-a), nb] per-row offset over the prefix digits (zero when there
    is a single prefix, as for every nb <= 9 at the default STATE_CHUNK).
    Returns one (base, offset) pair per table, the in side's blocks first,
    then the out side's. The indices are uint16, since a table has at most
    BLUE_LIMIT * 2 * 2^TABLE_BLOCK rows; that keeps each cached plan a
    quarter of its intp size.
    """
    a = 0
    while a < nb - 1 and 2 * 3 ** (a + 1) <= chunk:
        a += 1

    def selectors(ncodes, first, width):
        """(isel, osel), [ncodes, nb]: base-3 digits of 0..ncodes-1 at positions first.., zero elsewhere."""
        codes = np.arange(ncodes)
        digits = codes[:, None] // 3 ** np.arange(width) % 3
        isel = np.zeros((ncodes, nb), dtype=np.uint16)
        osel = np.zeros((ncodes, nb), dtype=np.uint16)
        isel[:, first : first + width] = digits != 1
        osel[:, first : first + width] = digits != 0
        return isel, osel

    # low block: digits 1..a, and above them the anchor's O bit (the anchor is always in I)
    lo_i, lo_o = selectors(2 * 3**a, 1, a)
    lo_i[:, 0] = 1
    lo_o[:, 0] = np.arange(2 * 3**a) // 3**a
    hi_i, hi_o = selectors(3 ** (nb - 1 - a), a + 1, nb - 1 - a)
    rows = np.arange(nb, dtype=np.uint16)
    exits = rows != 0  # the anchor's exiting role is suppressed
    plan = []
    for side in ("in", "out"):
        for start, stop in _table_blocks(nb):
            size = 1 << (stop - start)
            place = np.zeros(nb, dtype=np.uint16)
            place[start:stop] = 1 << np.arange(stop - start)
            parts = []
            for isel, osel in ((lo_i, lo_o), (hi_i, hi_o)):
                gate, sel = (isel, osel) if side == "in" else (osel * exits, isel)
                parts.append(gate * (size * nb) + (sel @ place)[:, None] * nb)
            base, offset = parts
            base += rows
            base.setflags(write=False)
            offset.setflags(write=False)
            plan.append((base, offset))
    return tuple(plan)


class _BatchedSieve:
    """One detection's state for the pair sum: all of it depends on the graph and layout alone.

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
    Each xor over a selector is one row of a subset table of each block of
    blue positions (_table_blocks): one table per side up to |blue| =
    TABLE_BLOCK, two beyond. A table is laid out as [2, 2^h, |blue|,
    |blue|], a zero block for gate 0 and the subset xors for gate 1, and
    flattened to rows, so one gather per table through a _pair_plan index
    builds a chunk's gated rows.

    A detection builds once what no trial changes:
      the weight plan: which weight lands where depends only on the graph
        and the layout, so the sieve keeps it as flat indices port * arcs +
        arc into a trial's weights followed by one zero, at n * arcs, which
        every entry off the arcs reads;
      the pair plan (_pair_plan, cached per |blue| for the process) and the
        gather index of the last prefix built from it (index);
      the subset tables, zeroed once: their gate-0 halves and the empty
        mask's row stay zero, since no trial writes them;
      the gather stack and the take scratch.
    A trial (tables) appends the zero to its weights, gathers A_in's pool
    columns with one take and the ventry and vexit blocks with another,
    takes the field products once, and rewrites the gated halves of the
    tables by doubling in place.
    """

    def __init__(self, g: Digraph, layout: PortLayout):
        blue = np.array(layout.blue, dtype=np.intp)
        yellow = np.array(layout.yellow, dtype=np.intp)
        nb, ny, npool, n = len(blue), len(yellow), layout.pool_count, layout.n
        # at[port, u, v] is the flat index of the port's weight on arc u -> v, else zero
        zero = n * g.m
        at = np.full((n, n, n), zero, dtype=np.intp)
        if g.arcs:
            tails, heads = zip(*sorted(g.arcs))
            at[:, tails, heads] = np.arange(zero).reshape(n, g.m)
        # the yellow columns of A_in are products, written over per trial
        self.a_in_at = np.full((nb, nb, nb), zero, dtype=np.intp)
        self.a_in_at[:, :, :npool] = at[:npool][:, blue[:, None], blue].transpose(1, 2, 0)
        # ventry[u_i, y_i] = entry-port weight on blue[u_i] -> y, vexit the exit-port
        # weight on y -> blue[u_i]
        yi = np.arange(ny)
        self.ends_at = np.stack([at[npool + yi, blue[:, None], yellow],
                                 at[npool + ny + yi, yellow, blue[:, None]]])
        self.npool = npool
        self.plan = _pair_plan(nb, STATE_CHUNK)
        # the gather index of prefix self.prefix, one per table (see index)
        self.prefix = None
        self.gather = [np.empty_like(base) for base, _ in self.plan]
        # one [2, 2^h, nb, nb] table per side and block, in _pair_plan's order
        self.blocks = [(side, start, stop) for side in (0, 1) for start, stop in _table_blocks(nb)]
        self.subsets = [np.zeros((2, 1 << (stop - start), nb, nb), dtype=np.int32)
                        for _, start, stop in self.blocks]
        # the gather stack and the take scratch as one [2, B, nb, nb] block, not
        # two arrays: glibc raises its mmap and trim thresholds to the largest
        # block freed, so once a detection has freed this one, the next
        # detection's block and the elimination's temporaries come from heap
        # pages that stay mapped instead of pages faulted in afresh
        self.out, self.scratch = np.empty((2, len(self.plan[0][0]), nb, nb), dtype=np.int32)

    def tables(self, weights: PortWeights) -> list[np.ndarray]:
        """This trial's gated subset tables, in _pair_plan's order, as [rows, |blue|] views.

        Each is refilled in the sieve's own buffer: only the gate-1 half is
        rewritten, by doubling, so every trial returns the same buffers.
        """
        nb = len(self.a_in_at)
        flat = np.append(weights.values, np.int32(0))
        a_in = flat.take(self.a_in_at)
        ventry, vexit = flat.take(self.ends_at)
        a_in[:, :, self.npool:] = weights.field.nmul(ventry[:, None, :], vexit[None, :, :])
        a_sides = (a_in, a_in.transpose(1, 0, 2))
        for (side, start, stop), table in zip(self.blocks, self.subsets):
            subset_xor_table(a_sides[side][start:stop], table[1])
        return [table.reshape(-1, nb) for table in self.subsets]

    def index(self, h: int) -> list[np.ndarray]:
        """The gather index of prefix h, one [B, |blue|] array per table: base + offset[h].

        It is rebuilt only when h is not the last prefix built, so a
        detection whose pairs fit in one chunk (every |blue| <= 9 at the
        default STATE_CHUNK) builds it once, and one whose trials cycle
        through several prefixes builds it once a chunk.
        """
        if h != self.prefix:
            for idx, (base, offset) in zip(self.gather, self.plan):
                np.add(base, offset[h], out=idx)
            self.prefix = h
        return self.gather

    def matrices(self, tables: list[np.ndarray], index) -> np.ndarray:
        """The chunk's [B, |blue|, |blue|] pair matrices, gathered into the gather stack.

        index holds one [B, |blue|] row index per table (see _pair_plan).
        The first table is gathered straight into the stack; each other
        table is gathered into the take scratch and xored into the stack,
        so a chunk allocates no stack of its own. The plan's indices are in
        range by construction; mode="clip" only lets take write into the
        stack and the scratch without buffering.
        """
        out = tables[0].take(index[0], axis=0, out=self.out, mode="clip")
        for table, idx in zip(tables[1:], index[1:]):
            out ^= table.take(idx, axis=0, out=self.scratch, mode="clip")
        return out


def sieve_membership_pairs(sieve: _BatchedSieve, weights: PortWeights) -> int:
    """Sum det(port matrix) over all gated membership pairs: one field element.

    The sum is the xor of 2 * 3^(|blue| - 1) determinants, and is
    independent of visit order. The pairs are taken in chunks of at most
    STATE_CHUNK, one per prefix of high base-3 digits (see _pair_plan),
    each gathered from this trial's tables into the sieve's gather stack
    through the sieve's gather index for that prefix.
    Every chunk is gathered and handed to batched_gf_det whole, so the
    kernel receives every pair and pairs_per_trial counts them all; but the
    first half of a chunk, the pairs with the anchor outside O, is singular
    for every draw, so the kernel is told to skip it and eliminates only
    the anchor-in-O half.
    The sieve is the detection's own, built for the graph and layout the
    weights were drawn on, so that its trials share what it builds once
    (see _BatchedSieve). A trial redoes the tables' gated halves and, when
    there are several prefixes, the gather index of each chunk. The
    stack's contents on entry do not matter.
    """
    tables = sieve.tables(weights)
    plan = sieve.plan
    # the anchor-outside-O half of every chunk is singular (see batched_gf_det)
    singular = len(plan[0][0]) // 2
    total = 0
    for h in range(len(plan[0][1])):
        dets = batched_gf_det(weights.field, sieve.matrices(tables, sieve.index(h)), singular=singular)
        total ^= int(np.bitwise_xor.reduce(dets))
    return total


def pairs_per_trial(nb: int) -> int:
    """Membership pairs, one pair matrix each, that a trial on nb blue vertices sums: 2 * 3^(nb - 1).

    The anchor is in I and either in O or not; every other blue vertex is in
    I only, O only, or both. sieve_membership_pairs gathers all of them and
    hands every one to batched_gf_det.
    """
    return 2 * 3 ** (nb - 1)


def default_trial_count(n: int) -> int:
    """Fewest trials T with (n/2^FIELD_BITS)^T <= 2^-FAILURE_TARGET_BITS, in integers."""
    t = 1
    while n**t << FAILURE_TARGET_BITS > 1 << (FIELD_BITS * t):
        t += 1
    return t


def detect_hamiltonian_cycle(g: Digraph, trials: int | None = None, seed: int = 0) -> DetectionReport:
    """One-sided randomized test for the existence of a Hamiltonian cycle.

    A True verdict is certain. After T zero trials the graph is declared
    cycle-free, wrongly with probability at most (n/q)^T where q =
    2^FIELD_BITS is the field size; the default T makes that at most
    2^-FAILURE_TARGET_BITS (6 to 8 trials for n <= 32). Two structural
    rejections are exact: fewer than two vertices, or an independent set
    larger than n/2 (every vertex of an independent set needs a distinct
    successor outside it).

    Refuses (GuardError) n > 2 * BLUE_LIMIT before the independent-set
    search, and more than BLUE_LIMIT blue vertices before the first trial.
    Past 2 * BLUE_LIMIT vertices every graph either has too many blue
    vertices or is a structural NO that only an exponential search finds.
    """
    n = g.n
    if trials is not None and trials < 1:
        raise ValueError("need at least one trial")
    if n < 2:
        return structural(False, "fewer than two vertices")
    if n > 2 * BLUE_LIMIT:
        raise GuardError(f"detect-hc guard: n={n} > {2 * BLUE_LIMIT}")
    part = find_independent_partition(g)
    tmax = trials if trials is not None else default_trial_count(n)
    if len(part.yellow) > n // 2:
        return structural(False, "independent set larger than half the graph", tmax,
                          independent_set_size=len(part.yellow))
    if len(part.blue) > BLUE_LIMIT:
        raise GuardError(
            f"detect-hc guard: {len(part.blue)} blue vertices > {BLUE_LIMIT}, "
            f"2*3^{len(part.blue) - 1} pair determinants per trial"
        )
    layout = PortLayout.from_partition(g, part)
    field = make_binary_field(FIELD_BITS)
    key = derive_seed("hc-trial", seed)
    # one weight plan, gather index, set of tables and gather stack serve
    # every trial and every chunk, so a trial allocates nothing large
    sieve = _BatchedSieve(g, layout)

    def trial(t: int, _count: int):
        total = sieve_membership_pairs(sieve, PortWeights.draw(g, layout, field, key, t))
        return (0, total) if total else None

    # each zero trial misses a cycle with probability at most n/q
    witness, trials_run, bound = run_trials(tmax, 1, 1.0 - n / field.q, trial)
    detail = {"pairs_per_trial": pairs_per_trial(len(layout.blue)), "field_bits": field.m,
              **({} if witness is None else {"witness_value": witness}), "engine": "batched"}
    return DetectionReport(witness is not None, trials_run, tmax, bound, detail)
