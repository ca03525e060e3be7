"""Randomized detectors for spanning out-branchings with degree constraints.

Two problems share the Laplacian-determinant backbone from the matrixtree
module:

* detect_k_internal: is there a spanning out-branching with at least k
  internal (child-bearing) vertices? Arc weights are truncated polynomials
  1*zeta + t*(marker) whose degree-k slice survives only for branchings that
  put k distinct markers together. Markers are nilpotent group-algebra
  elements, so a repeated vertex squares to zero; random group elements make
  k distinct markers multiply to something nonzero with constant probability.
  Every entry lies in the span S of the t^a * x^T with |T| >= a, and
  t^a * x^T -> x^T if a = |T|, else 0, is a ring homomorphism from S onto
  the 2^k-slot ring GF(2^m)[x_1..x_k]/(x_i^2) that keeps the verdict term
  t^k * x^[k], so the determinant is taken there.

* detect_k_leaf: is there a spanning out-branching with at least k leaves?
  Equivalently one with at most n-k internal vertices. The branching
  polynomial (one monomial per branching, variable degree = child count,
  root bumped by one) is probed by the few-distinct-variables solver
  solve_nk_dv, which needs only black-box evaluations over prime fields.
  The mod-p determinants, inverses and interpolation come from modp.

Both take their determinants after factoring forced parents out (see
_forced_parent_plan), so only the vertices with a choice of parent group
are eliminated.

Both detectors are one-sided: YES answers are certain, NO answers carry an
explicit failure-probability bound in the report.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol

import numpy as np

from .algebra import random_prime_31
from .errors import GuardError
from .gf2m import BinaryField, make_binary_field
from .graph import Digraph
# count_out_branchings is not called here; it stays bound because the layer
# tracer in perfbench/layertrace.py rebinds it under this module's name
from .matrixtree import BRANCHING_COUNT_GUARD, count_out_branchings  # noqa: F401
from .modp import _centre_mod, _live_span, _tree_product, batched_modp_det, minor_plan
from .modp import interpolate_univariate, inverse_vandermonde
from .rand import counter_draw, derive_seed, make_rng
from .report import DetectionReport, run_trials

GROUP_RANK_LIMIT = 6
# detect_k_internal evaluates its trials in chunks of at most this many: one
# trial, then the trials its success floor expects to need, then full chunks
# (see report.trial_chunks)
INTERNAL_CHUNK = 34
# Bytes that detect_k_internal allows _internal_gather_bytes, its bound on the
# largest gather in _InternalSieveEngine._mul: det_batch's first rank-1
# update, which gathers at most that much
INTERNAL_GATHER_LIMIT = 1 << 28
# Entries of _InternalSieveEngine._mul's exp gather that one take call writes
INTERNAL_EXP_BLOCK = 1 << 15
# detect_k_leaf runs at most this many solver trials (4^k by default)
LEAF_BUDGET_LIMIT = 4**6
# Bytes of the largest int64 stack the k-leaf solver builds at once: one
# batched_modp_det call of BranchingLeafPolynomial, or one chunk's assignments
LEAF_STACK_LIMIT = 1 << 24
# solve_nk_dv evaluates its trials in chunks of at most this many: one trial,
# then up to 4^k, then full chunks (see report.trial_chunks)
LEAF_CHUNK = 64


# ---------------------------------------------------------------------------
# k-internal out-branchings


@lru_cache(maxsize=None)
def _pair_plan(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather/scatter plan for one ring multiplication at rank k.

    Ring elements are flat int32 vectors of length 2^k: slot T holds the
    field coefficient of the product of the markers in subset T. A product
    pairs every T1 with every T2 disjoint from it (overlapping marker
    subsets vanish by nilpotency), 3^k pairs. Returns (ia, ib, offsets)
    with pairs sorted by output slot so that bitwise_xor.reduceat
    accumulates each output in one pass.
    """
    d = 1 << k
    pairs = []
    for t1 in range(d):
        rest = (~t1) & (d - 1)
        t2 = rest
        while True:
            pairs.append((t1 | t2, t1, t2))
            if t2 == 0:
                break
            t2 = (t2 - 1) & rest
    pairs.sort()
    out = np.array([o for o, _, _ in pairs], dtype=np.int64)
    ia = np.array([a for _, a, _ in pairs], dtype=np.int64)
    ib = np.array([b for _, _, b in pairs], dtype=np.int64)
    offsets = np.searchsorted(out, np.arange(d, dtype=np.int64))
    return ia, ib, offsets


class _InternalSieveEngine:
    """Determinant of the root-bordered marker-weighted Laplacian, trial-batched.

    With w = 1 on the roots (see _forced_parent_plan) it sums every root's
    punctured determinant, whose branchings have different arc sets.

    The sieve's entries lie in GF(2^m)[t]/(t^(k+1)) (x) GF(2^m)[x_1..x_k]/(x_i^2),
    in fact in its subring S spanned by the t^a * x^T with |T| >= a, where
    the terms with |T| > a span an ideal. So t^a * x^T -> x^T if a = |T|,
    else 0, is a ring homomorphism onto R = GF(2^m)[x_1..x_k]/(x_i^2);
    determinants commute with it, and it keeps slot 0 and the verdict term
    t^k * x^[k]. The engine works in R, laid out as in _pair_plan. R is a
    local ring: the elements with a zero slot 0 form its maximal ideal M,
    and M^(k+1) = 0. So an element is a unit exactly when its slot 0 is
    nonzero, and Gaussian elimination goes through whenever each pivot
    column has an entry with a nonzero slot 0 at or below the diagonal. The
    slot-0 parts of the entries form the bordered zeta-weighted Laplacian
    over GF(2^m), and elimination acts on them as plain Gaussian
    elimination, so a draw whose slot-0 matrix is nonsingular never lacks a
    unit pivot. The rare draws that do (det_batch) add a later column with
    a unit to the pivot column, and a trailing block with no unit at all has
    determinant 0 past k rows (M^(k+1) = 0) and is expanded in its
    sign-free minors (_det_minors) up to k rows. Each batch of ring products is one pass (see
    _mul): log-table lookups of the operands' 2^k slots, a take of the 3^k
    pairs' logs, an exp-table take of their sums and one reduceat per
    output slot.

    Forced parents are factored out first (see _forced_parent_plan): each
    trial's determinant is prod D_j * det L', the ring factors D_j
    multiplied into det_batch's det L' up a pairwise tree. verts are the
    rows (and columns) of L', the heads of the plan; entries, factors and
    cells are the rest of the plan, over build_matrices' table.
    """

    def __init__(self, g: Digraph, roots: list[int], k: int, field: BinaryField):
        self.k = k
        self.f = field
        self.len = 1 << k
        self.ia, self.ib, self.offsets = _pair_plan(k)
        # build_matrices' table: arc i's weight at row i (in characteristic 2
        # it adds where it subtracts), the ring's one at row m (w on the
        # roots), zeros at row m + 1, then the cells' xor sums
        m = g.m
        self.verts, self.entries, self.factors, self.cells = _forced_parent_plan(
            g, roots, [*range(m)] * 2, [m] * g.n, m + 1
        )
        self.tails = np.array([u for u, _ in sorted(g.arcs)], dtype=np.int64)

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ring products of broadcast [..., len] stacks, gathered in the log domain.

        Each operand's 2^k slots are looked up in the log table first, so
        the 3^k-pair gathers take logs, and their sum indexes the exp table
        (the zero sentinel of BinaryField makes any pair with a zero factor
        land in its zero tail). The exp gather writes over the log sums a
        block of INTERNAL_EXP_BLOCK entries at a time: take copies each
        block's int32 indices to intp, so no temporary outgrows the int32
        pair gather. Log sums stay below the exp table's length, so the
        clip mode never clips; it only spares take a buffered out.
        """
        log = self.f.np_log
        sums = log.take(a).take(self.ia, axis=-1) + log.take(b).take(self.ib, axis=-1)
        flat = sums.reshape(-1)
        for lo in range(0, flat.size, INTERNAL_EXP_BLOCK):
            block = flat[lo : lo + INTERNAL_EXP_BLOCK]
            self.f.np_exp.take(block, out=block, mode="clip")
        return np.bitwise_xor.reduceat(sums, self.offsets, axis=-1)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """u^-1 for units u (slot 0 nonzero), [..., len].

        Write u = c + x with c = u[0] and x in M. In characteristic 2
        squaring is additive, and every marker monomial squares to zero, so
        x^2 = 0 and u^2 = c^2: the inverse is u * c^-2, with no ring product.
        Its slot logs are u's shifted by -2 log c mod q-1: a nonzero slot's
        sum stays below 2(q-1), inside the exp table's doubled period, and a
        zero slot's sentinel lands in the table's zero tail.
        """
        log = self.f.np_log
        shift = -2 * log.take(u[..., :1]) % (self.f.q - 1)
        return self.f.np_exp.take(log.take(u) + shift)

    def build_matrices(self, zeta: np.ndarray, rmul: np.ndarray, gvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Contracted root-bordered Laplacians L' for a batch of draws, [nn, nn, B, len], and the factors D_j, [F, B, len].

        The sieve's arc weight is zeta + t * zeta*rmul * (the tail's marker
        pattern, the sum of x^T over the nonempty subsets T of the tail's
        group element). Its image in R keeps only the |T| = 1 terms of the
        t part: zeta at slot 0 and zeta*rmul at each singleton slot {i} for
        the bits i of the tail's group element. The per-arc rmul factor keeps
        sibling arcs from collapsing pairwise in characteristic 2: a vertex
        with c children contributes 1 + (sum of c independent scalars)*marker,
        nonzero for any c >= 1, where a bare (1 + marker)^c would vanish for
        even c. The weights are stacked arc-major, then the ring's one (w on
        the roots) and a zero row, and each cell of _forced_parent_plan's
        sums (in characteristic 2 a minus sign changes nothing) is one
        gather, padded with the zero row, and one xor reduction into the
        rows after it. One gather of a table row per entry and per factor
        follows. The cells hold no more weights than the entries nn^2 plus
        one row per vertex and arc, times the largest in-degree.
        """
        nb, m = zeta.shape
        single = 1 << np.arange(self.k, dtype=np.int64)
        marked = (gvec.T[self.tails, :, None] & single) != 0
        table = np.zeros((m + 2 + len(self.cells), nb, self.len), dtype=np.int32)
        table[:m, :, 0] = zeta.T
        table[:m, :, single] = np.where(marked, self.f.nmul(zeta, rmul).T[:, :, None], 0)
        table[m, :, 0] = 1
        np.bitwise_xor.reduce(table[self.cells], axis=1, out=table[m + 2 :])
        nn = len(self.verts)
        return table[self.entries].reshape(nn, nn, nb, self.len), table[self.factors]

    def det_batch(self, mats: np.ndarray) -> np.ndarray:
        """Determinants [B, len] of a [nn, nn, B, len] stack, by unit-pivot elimination.

        At column j a matrix whose pivot a[j, j] is not a unit of R (slot 0
        zero) takes the first row below with a unit in column j added to row
        j, which makes the pivot a unit. When every matrix already has a
        unit on the diagonal, as in most columns of most draws, that search
        is skipped. A matrix whose column j has no unit at or below the
        diagonal first takes the first later column with a unit in rows j
        and below added to column j. Both additions keep the determinant,
        as in hamdetect.batched_gf_det and modp.batched_modp_det. One rank-1
        update with the pivot's inverse clears the column below it. That
        update is screened across the whole stack: it covers the span (see
        _live_span) of columns l > j where row j has a nonzero slot in some
        matrix and, if there are any, the span of rows i > j where column j
        has one, and only those rows take the factor a[i, j] * pivot^-1. A
        line outside its span is zero in every matrix, and the update is an
        xor, so skipping it needs no bookkeeping. The Laplacians of a chunk
        share one graph, so their zero patterns nearly coincide: on a
        k-internal NO on hubs only hub rows hold off-diagonal entries, and
        only a hub's pivot row takes an update. The last pivot is never
        inverted, so it may be a non-unit. Later additions and updates touch
        only later rows and columns, so a[j, j] keeps step j's pivot: the
        determinant is the product of the eliminated diagonal, taken once
        at the end by _tree_product. A matrix whose whole trailing s x s
        block at column j < nn - 1 holds no unit has every entry of that
        block in M, so the block's determinant is 0 for s > k (it lies in
        M^s, and M^(k+1) = 0) and otherwise _det_minors of the block. That
        value is written to a[j, j] and the rest of the block becomes the
        identity, so the matrix keeps its determinant and needs no later
        pivot search. Its row j and column j are zero off the diagonal, so
        step j's update factor for it is 0 whatever _inverse makes of its
        non-unit pivot (an element of the field's tables all the same), and
        no later step updates it. mats is left unchanged. An order-0 stack has
        determinant 1, the ring's one.
        """
        nn, _, nb, _ = mats.shape
        if not nn:
            one = np.zeros((nb, self.len), dtype=np.int32)
            one[:, 0] = 1
            return one
        a = mats.copy()
        ar = np.arange(nn)
        for j in range(nn - 1):
            if np.count_nonzero(a[j, j, :, 0]) < nb:
                unit = a[j:, j, :, 0] != 0
                lack = np.flatnonzero(~unit.any(axis=0))
                if lack.size:
                    cols = (a[j:, j + 1 :, lack, 0] != 0).any(axis=0)
                    found = cols.any(axis=0)
                    fix = lack[found]
                    src = j + 1 + np.argmax(cols[:, found], axis=0)
                    a[j:, j, fix] ^= a[j:, src, fix]
                    stuck = lack[~found]
                    if stuck.size:
                        value = self._det_minors(a[j:, j:, stuck]) if nn - j <= self.k else 0
                        a[j:, j:, stuck] = 0
                        a[ar[j:, None], ar[j:, None], stuck, 0] = 1
                        a[j, j, stuck] = value
                    unit[:, lack] = a[j:, j, lack, 0] != 0
                add = np.flatnonzero(~unit[0] & unit.any(axis=0))
                src = j + np.argmax(unit[:, add], axis=0)
                a[j, j:, add] ^= a[src, j:, add]
            right = _live_span(a[j, j + 1 :], j + 1)
            below = _live_span(a[j + 1 :, j], j + 1) if right else None
            if below:
                fac = self._mul(a[below, j], self._inverse(a[j, j])[None])
                a[below, right] ^= self._mul(fac[:, None], a[j, right][None])
        return _tree_product(a[ar, ar], self._mul)

    def _det_minors(self, mats: np.ndarray) -> np.ndarray:
        """Determinants [B, len] of a [s, s, B, len] stack, s >= 1, from its sign-free minors.

        R has characteristic 2, so modp.minor_plan applies with every sign
        +1: row r's minors are one ring product per column of each column
        set, from one gather of row r and one of the minors above it, and
        one xor reduction. It needs no unit pivot.
        """
        minors = mats[0]
        for r, (cols, rest) in enumerate(minor_plan(len(mats)), 1):
            prods = self._mul(mats[r].take(cols, axis=0), minors.take(rest, axis=0))
            minors = np.bitwise_xor.reduce(prods, axis=1)
        return minors[0]

    def run_chunk(self, zeta: np.ndarray, rmul: np.ndarray, gvec: np.ndarray) -> np.ndarray:
        """Per draw: is the verdict slot x^[k] (the image of t^k * x^[k]) of prod D_j * det L' nonzero?"""
        mats, factors = self.build_matrices(zeta, rmul, gvec)
        dets = _tree_product(np.concatenate([self.det_batch(mats)[None], factors]), self._mul)
        return dets[:, self.len - 1] != 0


def _draw_internal_chunk(
    g: Digraph, k: int, field: BinaryField, seed: int, root: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws of trials start..start+count-1: zeta and rmul [count, m], gvec [count, n].

    Trial t's values are counter_draw's words (t, 0..2m+n-1) under the key
    derive_seed("internal-sieve", seed, root), root the first spanning
    root: m zetas, m rmuls, then one group element per vertex. A group
    element is the low k bits of its word, exactly uniform on 0..2^k-1. A
    scalar is z % (q-1) + 1 for a uniform 64-bit word z, within total
    variation (q-1)/2^64 of uniform on 1..q-1, so the 2m scalars of a trial
    are jointly within 2m(q-1)/2^64 <= 2^-31 (m < 2^16 arcs and q <= 2^16
    under the field guard). That fits in the slack (q-2n)/(q(q-1)) >=
    1/(2(q-1)) >= 2^-17 between Schwartz-Zippel's (2n-1)/(q-1) for uniform
    nonzero scalars and the 2n/q of internal_sieve_success_floor wherever
    that floor is positive (n >= 3, where 2n <= q/2), so the floor holds as
    printed.
    """
    m = g.m
    words = counter_draw(derive_seed("internal-sieve", seed, root), start, count, 2 * m + g.n)
    scalars = (words[:, : 2 * m] % np.uint64(field.q - 1)).astype(np.int32) + 1
    gvec = (words[:, 2 * m :] & np.uint64((1 << k) - 1)).astype(np.int64)
    return scalars[:, :m], scalars[:, m:], gvec


def _internal_gather_bytes(n: int, k: int) -> int:
    """Bound on the bytes of the largest int32 gather that _mul makes in det_batch.

    The rank-1 update at column 0 gathers at most (nn-1)^2 products for
    each trial of a full chunk (fewer where its screens skip lines), one
    int32 slot per pair of the 3^k-pair plan, so (nn-1)^2 * 34 * 3^k * 4
    bytes, nn = n-1 with one spanning root and n with more, less the
    columns that forced parents take out. Later columns gather no more. The
    minors of a stuck block of s <= k rows (_det_minors) gather C(s, r+1) *
    (r+1) <= 60 products per trial at row r, so at most 60 * 34 * 3^k * 4
    bytes (under 6 MB), and run_chunk's tree product of det_batch's value
    and the at most nn factors D_j gathers at most (nn+1)/2 products per
    trial. The formula still counts the (k+1)(k+2)/2 * 3^k pairs of the
    truncated ring, kept so the guard accepts exactly the same inputs; so
    it bounds the n-row gather too, but at n = 2 and at n = 3, k = 1 (at
    most 1,632 bytes).
    """
    return (n - 2) ** 2 * INTERNAL_CHUNK * (k + 1) * (k + 2) // 2 * 3**k * 4


def binary_field_degree(n: int) -> int:
    """Degree m = 2 bitlen(n-1) of k-internal's field for n vertices, so 2^m >= n^2."""
    return 2 * (n - 1).bit_length()


def internal_sieve_success_floor(n: int, k: int) -> float:
    """Per-trial detection probability floor on a qualifying instance.

    k uniform group elements are linearly independent with probability
    prod(1 - 2^-j); the surviving coefficient is a nonzero polynomial of
    degree under 2n in the scalar draws, losing at most 2n/q more, where
    q = 2^binary_field_degree(n) is the order of the detector's field.
    """
    indep = 1.0
    for j in range(1, k + 1):
        indep *= 1.0 - 2.0**-j
    q = 1 << binary_field_degree(n)
    return indep * max(0.0, 1.0 - 2.0 * n / q)


def detect_k_internal(g: Digraph, k: int, trials: int = 100, seed: int = 0) -> DetectionReport:
    """One-sided test for a spanning out-branching with >= k internal vertices.

    The spanning roots reach every vertex (see _spanning_roots); k = 0 is
    answered exactly. Otherwise `trials` randomized evaluations of one
    determinant over every spanning root (see _InternalSieveEngine) run in
    report.run_trials' chunks of up to INTERNAL_CHUNK trials, stopping after
    the chunk with the first hit; a nonzero verdict slot (the degree-k slice)
    certifies YES. Reports are identical for any chunking: trial t's draws
    depend only on (seed, the first spanning root, t). Refuses trials < 1
    (ValueError) before it reads the graph, then k > GROUP_RANK_LIMIT and a
    determinant gather bound past INTERNAL_GATHER_LIMIT bytes (GuardError)
    before the roots are screened.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = g.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must be in 0..{n - 1}, got {k}")
    if k > GROUP_RANK_LIMIT:
        raise GuardError(f"k={k} exceeds the rank-{GROUP_RANK_LIMIT} marker-algebra guard")
    gather = _internal_gather_bytes(n, k)
    if gather > INTERNAL_GATHER_LIMIT:
        raise GuardError(
            f"k-internal gather of {gather} bytes at n={n}, k={k} is past the 2^28-byte guard"
        )
    roots = _spanning_roots(g)
    if not roots:
        return DetectionReport(
            verdict=False, trials_run=0, trials_max=0, failure_bound=0.0,
            detail={"reason": "no spanning out-branching from any root"},
        )
    if k == 0:
        return DetectionReport(
            verdict=True, trials_run=0, trials_max=0, failure_bound=0.0,
            detail={"reason": "spanning out-branchings exist and k = 0", "roots": roots},
        )
    field = make_binary_field(binary_field_degree(n))
    engine = _InternalSieveEngine(g, roots, k, field)

    def chunk(start: int, count: int):
        hits = engine.run_chunk(*_draw_internal_chunk(g, k, field, seed, roots[0], start, count))
        return (int(np.argmax(hits)), True) if hits.any() else None

    hit, trials_run, bound = run_trials(trials, INTERNAL_CHUNK, internal_sieve_success_floor(n, k), chunk)
    return DetectionReport(hit is not None, trials_run, trials, bound, {"engine": "batched", "roots": roots})


def _forced_parent_plan(
    g: Digraph, roots: list[int], ids: list[int], w: list[int], zero: int
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The gather plan of the root-bordered in-arc Laplacian L of (g, roots) with its forced parents factored out.

    Row r = roots[0] of the in-arc Laplacian is replaced by a vector w,
    zero off the roots. Its rows add up to the zero row, so over any
    commutative ring det L = sum_v w_v * det(L_vv), L_vv being it punctured
    at v (the all-minors matrix-tree theorem). With one root, w = w_r * e_r,
    and the Laplace expansion along row r leaves w_r * det(L_rr): L is then
    the punctured matrix, and w_r is left to the caller.

    Both detectors take determinants of L with arc weights in a commutative
    ring, and the same theorem makes them a product (Chaiken 1982). While
    some column j holds its diagonal form D_j and at most one other nonzero,
    at a row i with L[i][j] = -D_j, row j is added to row i, which clears
    column j and keeps det, and the Laplace expansion along column j takes
    D_j out as a linear factor and drops row and column j. So det L = prod
    D_j * det L' exactly. Each row of L' sums a group of L's rows:
    entry (i, l) is minus the weights of the arcs from i's group into l, and
    l's diagonal sums the arcs into l from outside its group. A merge is
    taken only if that diagonal stays a nonempty sum. With several roots, a
    root's column holds w_v and is never taken out. A directed path
    contracts to order 0, a complete digraph keeps its n-1 or n rows.

    The groups live in a union-find, and a worklist rechecks only the
    columns that a contraction can have freed: after a merge, the columns
    fed by the smaller group and the head's own; after a removal, those fed
    by the removed group. A graph where no vertex has a single in-neighbour
    pays one pass over the in-degrees for this.

    The plan reads a caller's table of rows: arc i of sorted(g.arcs) at row
    ids[i] where its weight adds, on the diagonal and in the factors, and
    at ids[m + i] where it subtracts, off the diagonal; w_v at row w[v] for
    each root v (read only with several roots); zeros at row zero; and the
    sum of cell c's rows at row zero + 1 + c. Returns (heads, entries,
    factors, cells): heads, the vertices whose rows and columns L' keeps, in
    id order; entries, the table row of each entry e = i * d + l of the
    d x d matrix L' (a term alone is read in place, no term is the zero
    row, several a cell); factors, the table row of each D_j, likewise;
    and cells, [cells, depth] rows, each padded with the zero row to the
    longest. Refuses an empty or out-of-range root list (ValueError).
    """
    if not roots or min(roots) < 0 or max(roots) >= g.n:
        raise ValueError("root out of range")
    n = g.n
    r = roots[0]
    bordered = len(roots) > 1
    ins = g.in_adj
    up = list(range(n))  # union-find over row groups: a group's rows find its head
    dead = [False] * n  # groups with no entries off the diagonal: r's and those taken out
    dead[r] = True
    live = [True] * n  # columns still in the matrix, at first all but r's with one root
    live[r] = bordered
    fixed = set(roots) if bordered else ()  # the columns that hold w
    members = {}  # a head's group, where it holds more than the head
    factors = []

    def find(u: int) -> int:
        while up[u] != u:
            up[u] = up[up[u]]
            u = up[u]
        return u

    queue = [v for v in range(n) if len(ins[v]) <= 1]
    while queue:
        j = queue.pop()
        if not live[j] or j in fixed:
            continue
        terms = [u for u in ins[j] if find(u) != j]  # D_j
        groups = {-1 if dead[h] else h for h in map(find, terms)}
        if len(groups) != 1:  # a choice of parent group, or D_j = 0
            continue
        h = groups.pop()
        if h >= 0 and all(find(u) in (h, j) for u in ins[h]):
            continue  # h's diagonal would be 0
        group = members.get(j, [j])
        if h >= 0:
            # row j joins row h: the columns fed by both groups, and h,
            # may be left with one parent group
            up[j] = h
            stay = members.get(h, [h])
            if len(group) > len(stay):
                group, stay = stay, group
            members[h] = stay + group
            queue.append(h)
        else:
            # column j is D_j alone, and row j goes with it
            dead[j] = True
        queue.extend(w for s in group for w in g.out_adj[s])
        live[j] = False
        factors.append((terms, j))

    heads = [v for v in range(n) if live[v]]
    d = len(heads)
    col = [-1] * n  # each vertex's column of L', or -1 where it is gone
    for i, v in enumerate(heads):
        col[v] = i
    # each vertex's row of L', or -1 where its group's row is gone (or is w)
    row = [col[find(u)] if u != r else -1 for u in range(n)]
    m = g.m
    arcs = sorted(g.arcs)
    sums = {}  # the table rows that each nonzero entry of L' sums
    for i, (u, v) in enumerate(arcs):
        c = col[v]
        if c < 0 or row[u] == c:  # a column taken out, or an arc inside v's group
            continue
        if v != r:  # D_v: the arcs into v from outside its group
            sums.setdefault(c * (d + 1), []).append(ids[i])
        if row[u] >= 0:
            sums.setdefault(row[u] * d + c, []).append(ids[m + i])
    if bordered:
        sums.update((col[r] * d + col[v], [w[v]]) for v in roots)
    cells = []

    def slot(rows: list[int]) -> int:
        if len(rows) == 1:
            return rows[0]
        cells.append(rows)
        return zero + len(cells)

    entries = [zero] * (d * d)
    for e, rows in sums.items():
        entries[e] = slot(rows)
    if factors:
        index = {a: i for i, a in enumerate(arcs)}
        factors = [slot([ids[index[u, j]] for u in parents]) for parents, j in factors]
    depth = max(map(len, cells), default=1)
    padded = [rows + [zero] * (depth - len(rows)) for rows in cells]
    entries, factors, padded = (np.array(rows, dtype=np.int64) for rows in (entries, factors, padded))
    return heads, entries, factors, padded.reshape(len(cells), depth)


def _spanning_roots(g: Digraph) -> list[int]:
    """The roots of g's spanning out-branchings, in id order: the vertices that reach every vertex.

    Refuses graphs past BRANCHING_COUNT_GUARD vertices (GuardError), the
    same cap as an exact branching count.
    """
    if g.n > BRANCHING_COUNT_GUARD:
        raise GuardError(f"branching count guard: n={g.n} > {BRANCHING_COUNT_GUARD}")
    everyone = (1 << g.n) - 1
    roots = []
    for r in range(g.n):
        seen = frontier = 1 << r
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= g.out_mask[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~seen
            seen |= frontier
        if seen == everyone:
            roots.append(r)
    return roots


# ---------------------------------------------------------------------------
# few-distinct-variables detection for homogeneous polynomials


class PolynomialEvaluator(Protocol):
    """Black-box homogeneous polynomial of degree n in n variables.

    Declared properties the solver relies on: homogeneity of degree n and
    nonnegative integer coefficients (so reductions mod a prime cannot
    cancel across monomials). evaluate_batch() maps a [B, n] int64 array of
    assignments to the B values mod p and must be deterministic per
    (assignments, p).
    """

    n: int

    def evaluate_batch(self, ys: np.ndarray, p: int) -> np.ndarray: ...


class BranchingLeafPolynomial:
    """The branching polynomial of (g, roots): one monomial per spanning
    out-branching rooted at one of roots, with each vertex's variable raised
    to its child count and the root's bumped by one. Homogeneous of degree n
    with coefficients that count branchings sharing a child-count profile,
    hence nonnegative. The number of distinct variables in a monomial is the
    branching's internal vertex count. It is the determinant of the in-arc
    Laplacian L(y) (arc u->v weighs y_u) bordered with w_v = y_v on the
    roots (see _forced_parent_plan): sum_v y_v * det(L_vv(y)).

    Forced parents are factored out once, when the polynomial is built:
    _forced_parent_plan's gather plan reads every entry and factor, w_v =
    y_v included, from one table row, so P(y) = prod D_j(y) * det L'(y),
    with a single root's y_r among the factors, and each evaluation
    eliminates only the vertices that have a choice. Every diagonal of L'
    is a sum of variables with coefficient 1, nonzero at the solver's
    positive points. order is the order of L'.
    """

    def __init__(self, g: Digraph, roots: list[int]):
        self.n = n = g.n
        # _table's rows: y_u at row u (w on the roots), -y_u at n + u, 0 at
        # 2n, then the cells' sums. Arc u->v weighs y_u; with one root, y_r
        # joins the factors
        tails = [u for u, _ in sorted(g.arcs)]
        heads, self._entries, factors, self._cells = _forced_parent_plan(
            g, roots, tails + [n + u for u in tails], [*range(n)], 2 * n
        )
        self.order = len(heads)
        self._factors = np.append(factors, roots[0]) if len(roots) == 1 else factors
        self._rows = 2 * n + 1 + len(self._cells)
        self._width = max(self._rows, len(self._entries), len(self._factors), self._cells.size)

    def evaluate_batch(self, ys: np.ndarray, p: int) -> np.ndarray:
        """P at each row of ys mod p: det L' times the product of the factors.

        Rows go through in parts whose largest int64 array (the table, the
        cells' gather, one batched_modp_det stack) holds at most
        LEAF_STACK_LIMIT bytes. Each part, order 0 included, is one
        batched_modp_det call. ys is left as it is; a copy reduced mod p
        stands in for it only when some entry lies outside [0, p). The
        factor rows are centred residues, as every table row is, so each
        product of the tree stays below 2^62 and lands in [0, p).
        """
        if ys.size and (ys.min() < 0 or ys.max() >= p):
            ys = ys % p
        step = max(1, LEAF_STACK_LIMIT // (8 * self._width))
        out = np.empty(ys.shape[0], dtype=np.int64)
        for lo in range(0, ys.shape[0], step):
            table = self._table(ys[lo : lo + step], p)
            dets = batched_modp_det(self._laplacians(table), p)
            factors = np.concatenate([dets[None], table[self._factors]])
            out[lo : lo + step] = _tree_product(factors, lambda a, b: a * b % p)
        return out

    def _table(self, ys: np.ndarray, p: int) -> np.ndarray:
        """The rows that L' and the factors read, [rows, B] for the B rows of ys.

        Row u holds y_u, row n + u its negation, row 2n zeros, and the rows
        after it the sums of the plan's cells: one gather of the cells,
        padded with the zero row to the longest, and one sum over its second
        axis. ys must hold residues in [0, p). Every entry is y, -y, 0 or a
        sum of at most depth of them, depth being the longest cell, so where
        2 * max(ys) * depth <= p (the solver's points 1..2n+1 against a
        31-bit prime) every row already is a centred residue, |r| <= p/2,
        and the table is returned unreduced. Past that bound a sum stays
        below n * p in magnitude, and one _centre_mod of the whole table
        leaves every row a centred residue of magnitude at most
        p * (1/2 + 2^-20).
        """
        n = self.n
        table = np.empty((self._rows, ys.shape[0]), dtype=np.int64)
        table[:n] = ys.T
        np.negative(table[:n], out=table[n : 2 * n])
        table[2 * n] = 0
        if self._cells.size:
            table[self._cells].sum(axis=1, out=table[2 * n + 1 :])
        if 2 * int(ys.max()) * self._cells.shape[1] > p:
            _centre_mod(table, p)
        return table

    def _laplacians(self, table: np.ndarray) -> np.ndarray:
        """The contracted Laplacians L' mod p from a _table, a [B, d, d] view of a batch-last [d, d, B] stack.

        One gather of a table row per entry, so every entry is a centred
        residue, as batched_modp_det requires, and the transpose back to
        [d, d, B] copies nothing.
        """
        d = self.order
        return table[self._entries].reshape(d, d, table.shape[1]).transpose(2, 0, 1)


def _draw_dv_chunk(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """Fair-coin routings of trials start..start+count-1, [count, n] bool (True: probe side).

    Coin (t, i) is the top bit of counter_draw's word (t, i) under the key
    derive_seed("dv-assignment", seed).
    """
    words = counter_draw(derive_seed("dv-assignment", seed), start, count, n)
    return (words >> np.uint64(63)).astype(bool)


def solve_nk_dv(
    P: PolynomialEvaluator, k: int, budget: int | None = None, seed: int = 0
) -> DetectionReport:
    """Does P (homogeneous degree n, nonnegative coefficients) have a
    monomial with at most n-k distinct variables?

    Each trial flips one fair coin per index and routes True indices to the
    probe side (variable at tau) and False ones to the other (variable at 1,
    companion weight tau), giving a univariate image tau^(count of False) *
    P(routed) of degree <= 2n over GF(p) for two random 31-bit primes. Any
    coefficient outside the center band [n-k+1, n+k-1] proves a qualifying
    monomial (YES is certain because nonnegative coefficients cannot
    cancel). A qualifying monomial lands outside the band with probability
    >= 2^-k * 2^-k = 4^-k per trial, so NO answers carry the bound
    (1 - 4^-k)^budget; budget defaults to 4^k trials.

    report.run_trials runs the trials in chunks of at most LEAF_CHUNK (fewer
    when a chunk's assignments would pass LEAF_STACK_LIMIT bytes): one
    trial, then up to 4^k, the trials a YES at the floor expects to need,
    then full chunks; it stops after the chunk with the first hit. Per
    chunk and prime, P is evaluated at tau = 1..2n+1 for every trial in one
    batch, and one interpolate_univariate call turns those values into
    coefficients through an inverse Vandermonde at the points 1..2n+1,
    built once per prime, when that prime first interpolates (a YES that p1
    finds in the first chunk never builds p2's). The scan order is trial,
    then p1, then p2 (p2 runs only on the trials before p1's first hit in
    the chunk), so trials_run and the hit are those of a one-trial,
    one-prime-at-a-time scan. The detail's evaluations counts the points P
    was evaluated at: every row passed to evaluate_batch, so it depends on
    the chunks.

    Any 2n+1 points distinct mod p give the same coefficients. The points
    start at 1, not 0, so that no assignment holds a zero: both primes lie
    above 2^30, so for n below 2^29 the points are distinct and nonzero
    mod p. At tau = 0 every probe-side variable would be 0, and so would
    the Laplacian diagonal of each vertex whose in-arcs all come from the
    probe side; batched_modp_det would then search for pivots and add
    rows in nearly every stack.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be positive")
    n = P.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if budget is None:
        budget = 4**k
    prime_rng = make_rng("dv-primes", seed)
    p1 = random_prime_31(prime_rng)
    p2 = random_prime_31(prime_rng)
    while p2 == p1:
        p2 = random_prime_31(prime_rng)

    npts = 2 * n + 1
    taus = np.arange(npts, dtype=np.int64)  # coefficient degrees
    points = taus + 1  # evaluation points
    vinvs = {}  # a prime's inverse Vandermonde, built when it first interpolates
    chunk_cap = max(1, LEAF_STACK_LIMIT // (8 * npts * n))  # trials whose assignments fit
    evaluations = 0

    def chunk(start: int, count: int):
        nonlocal evaluations
        bits = _draw_dv_chunk(seed, start, count, n)
        ys = np.where(bits[:, None, :], points[None, :, None], 1).reshape(count * npts, n)
        # coefficient j of P(routed) sits at index j + (count of False) of the image
        index = taus[None, :] + (n - bits.sum(axis=1))[:, None]
        outside = (index <= n - k) | (index >= n + k)
        first = count
        hit = None
        for p in (p1, p2):
            if first == 0:
                break
            values = P.evaluate_batch(ys[: first * npts], p).reshape(first, npts)
            evaluations += first * npts
            if p not in vinvs:
                vinvs[p] = inverse_vandermonde(npts, p)
            found = (interpolate_univariate(values, vinvs[p], p) != 0) & outside[:first]
            rows = np.flatnonzero(found.any(axis=1))
            if rows.size:
                first = int(rows[0])
                hit = {"trial": start + first, "prime": p,
                       "coefficient_indices": index[first][found[first]].tolist()}
        return None if hit is None else (first, hit)

    hit, trials_run, bound = run_trials(budget, min(LEAF_CHUNK, chunk_cap), 4.0**-k, chunk)
    detail = {"primes": [p1, p2], "evaluations": evaluations, **({} if hit is None else {"hit": hit})}
    return DetectionReport(hit is not None, trials_run, budget, bound, detail)


def detect_k_leaf(g: Digraph, k: int, budget: int | None = None, seed: int = 0) -> DetectionReport:
    """One-sided test for a spanning out-branching with >= k leaves.

    Wraps the branching polynomial of every spanning root at once
    (distinct-variable count = internal count, so >= k leaves means <= n-k
    distinct variables) and asks solve_nk_dv, seeded by the first root.
    YES answers are certain; the NO bound is the solver's. The budget
    defaults to 4^k. A single vertex, one leaf, is answered YES without a
    trial (its polynomial y_0 would read as NO). Refuses a budget below 1
    (ValueError) before it reads the graph, and one above LEAF_BUDGET_LIMIT
    (GuardError) before the roots are screened.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be positive")
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if budget is None:
        budget = 4**k
    if budget > LEAF_BUDGET_LIMIT:
        raise GuardError(f"k-leaf trial budget {budget} is past the 4^6 = {LEAF_BUDGET_LIMIT} guard")
    roots = _spanning_roots(g)
    if not roots:
        return DetectionReport(
            verdict=False, trials_run=0, trials_max=0, failure_bound=0.0,
            detail={"reason": "no spanning out-branching from any root"},
        )
    if n == 1:
        return DetectionReport(
            verdict=True, trials_run=0, trials_max=0, failure_bound=0.0,
            detail={"reason": "a single vertex is an out-branching with one leaf", "roots": roots},
        )
    rep = solve_nk_dv(
        BranchingLeafPolynomial(g, roots), k, budget, derive_seed("leaf-root", seed, roots[0])
    )
    return rep._replace(detail={"roots": roots})
