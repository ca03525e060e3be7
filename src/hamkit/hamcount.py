"""Hamiltonian-cycle counting: exact integer sieve, residues mod p^k, CRT.

Pipeline: split one vertex so that Hamiltonian cycles through it become
Hamiltonian s-to-t paths of the split graph; attach a weighted virtual arc
from the sink t to every other vertex; then the path count equals an
inclusion-exclusion sum, over subsets O of vertices allowed to keep their
out-arcs, of signed determinants of the punctured Laplacian with the other
tails' out-arcs zeroed. The identity holds over the integers for any
virtual-arc weights, so both passes use zero ones; the naive pass sums the
subset terms over the integers and reduces mod p^k once, and with a modulus
above the largest possible count its residue is the count itself.

Subsets without s contribute 0 for any weights: every column of their
matrix sums to zero, since s is the one tail whose arcs the diagonals count
but no row carries. So a pass visits all 2^|V_t| tail subsets, but at most
half of them reach a determinant. With zero weights t's row is diagonal as
well and joins the factored-out diagonals. Each term only has to be right
mod p^k, so a subset whose dead-row product (the product of those
diagonals) is 0 mod p^k is skipped before its minor is built; every residue
stays the same. The naive pass decides these skips for all 2^|V_t| masks
at once before it visits any (`pass_screen`: bit-sliced in-arc counts and
p-valuations on Python ints of one bit per mask), so a visit to a mask whose
term vanishes is one call and one bitmap lookup, and only the others run
the per-position scan of `_SieveCore.subset_det`.

The meet-in-the-middle evaluator runs on the same zero weights. It cuts
the tail vertices by id into a first third and the rest, and only evaluates
determinants for pairs of half-subsets that could be nonzero mod p^k: a
position (t, or a vertex of V_st) where the two half-fingerprints
(`_SieveCore.fingerprint`) agree is a dead diagonal divisible by p, so k
agreements put p^k in the dead-row product, and the naive pass skips that
subset too. So the listing evaluates exactly the naive pass's determinants,
without visiting the subsets it rejects. Only the half that holds s is
restricted to subsets containing s. One bitmask per (position, residue)
over the tabulated first-half subsets lets each second-half subset count
its agreements with all of them at once, in k bit-planes; the pairs with
fewer than k agreements are exactly the ones evaluated.

The modular route of the paper (`crt_count`) combines meet-in-the-middle
residues by CRT over all primes p up to a cutoff q, each modulo p^k with the
paper's one exponent schedule `default_k`; that gives the exact count
whenever the combined modulus exceeds a bound d^n on the count. The exact
counter `count_exact` takes no such bound: it runs the one integer pass
modulo a power of two above (n-1)!.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from functools import reduce
from operator import itemgetter, or_

from .algebra import ResidueElem, crt_combine, is_prime, primes_up_to
from .errors import GuardError
from .graph import Digraph, VertexSplit, split_vertex
from .matrixtree import det_bareiss_int

NAIVE_SUBSET_GUARD = 24
MITM_TABLE_GUARD = 30_000_000
# count_hc_mod answers mod p^k only below this modulus, in either mode
RESIDUE_MODULUS_LIMIT = 1 << 62
DEFAULT_LAMBDA = 0.01


def default_k(n: int, p: int, lam: float) -> int:
    """The paper's exponent for prime p on n vertices: max(1, floor((1 - lam) n / (3 p)))."""
    return max(1, math.floor((1.0 - lam) * n / (3 * p)))


class MitmDiagnostics(
    namedtuple(
        "MitmDiagnostics",
        "pairs_listed pairs_naive candidates_examined table_keys fallback",
        defaults=(False,),
    )
):
    __slots__ = ()

    @property
    def pruning_ratio(self) -> float:
        if self.pairs_naive == 0:
            return 0.0
        return 1.0 - self.pairs_listed / self.pairs_naive


# ---------------------------------------------------------------------------
# core subset determinant


class _SieveCore:
    """Signed subset determinants on zero virtual-arc weights, each right modulo the pass modulus q.

    `row_of[u]` is vertex u's off-diagonal Laplacian row over all split-graph
    vertices (-1 at each out-neighbour, 0 elsewhere), so a subset's minor row
    is one `itemgetter` gather over its alive columns plus its diagonal.
    `screen`, when the naive pass sets it, is the pass_screen bitmap:
    signed_contribution answers 0 for a mask outside it from one lookup, and
    sends every other mask through subset_det, which keeps all its own tests.
    """

    def __init__(self, split: VertexSplit, modulus: int):
        g = split.graph
        self.modulus = modulus
        self.s = split.s
        self.n0 = g.n - 1  # |V_t|
        # every row but s's: t, whose row is diagonal with zero weights, then
        # V_st; t comes first so that subset_det meets a zero in_t(O) at once
        self.positions = (split.t,) + tuple(u for u in range(self.n0) if u != split.s)
        self.in_mask = g.in_mask
        self.row_of = tuple(tuple(-(om >> v & 1) for v in range(g.n)) for om in g.out_mask)
        self.screen = None

    def subset_det(self, omask: int) -> int:
        """An integer ≡ the determinant of the tail-restricted punctured Laplacian mod q.

        With zero virtual-arc weights the rows of t and of the vertices
        outside O carry only their diagonal, the in-arc count from O, so the
        determinant factors into those diagonals (the dead-row product) times
        the minor on the rows of O ∩ V_st, which is what gets eliminated here.
        Column v of the restricted matrix sums to [s in O and s->v], since s
        is the one tail whose arcs the diagonals count but no row carries; so
        a subset without s has determinant 0 and no row is built for it. A
        dead-row product divisible by q makes the term vanish mod q. A zero
        diagonal on a surviving row makes it vanish outright: that vertex has
        no in-arc from O, so its column is zero. Either way it returns 0
        before the minor is built; any other term is the exact determinant.
        """
        if not omask >> self.s & 1:
            return 0
        in_mask = self.in_mask
        dead_prod = 1
        alive = []
        diag = []
        for u in self.positions:
            d = (in_mask[u] & omask).bit_count()
            if d == 0:
                return 0
            if omask >> u & 1:
                alive.append(u)
                diag.append(d)
            else:
                dead_prod *= d
        if dead_prod % self.modulus == 0:
            return 0
        # alive is never empty: t's nonzero diagonal needs an in-arc from O ∩ V_st
        if len(alive) == 1:
            rows = [diag]  # itemgetter of one index gives a bare value
        else:
            row_of = self.row_of
            gather = itemgetter(*alive)
            rows = [list(gather(row_of[u])) for u in alive]
            for i, d in enumerate(diag):
                rows[i][i] = d
        return dead_prod * det_bareiss_int(rows)

    def signed_contribution(self, omask: int) -> int:
        """The subset's inclusion-exclusion term: its determinant, negated when |V_t| - |O| is odd."""
        screen = self.screen
        if screen is not None and not screen[omask >> 3] >> (omask & 7) & 1:
            return 0
        det = self.subset_det(omask)
        return -det if (self.n0 - omask.bit_count()) & 1 else det

    def fingerprint(self, omask: int, p: int, first: bool) -> tuple[int, ...]:
        """Fingerprint of one half-subset over the positions (t, then V_st); entry p marks a vertex inside O.

        The first-half fingerprint carries the in-arc count from O1 mod p,
        the second-half one minus the in-arc count from O2, so the two agree
        at a vertex outside O exactly when its diagonal, the in-arc count
        from O1 ∪ O2, is divisible by p. t is never in O, so its entry is
        always a residue, in_t(O1) or -in_t(O2) mod p.
        """
        in_mask = self.in_mask
        sign = 1 if first else -1
        return tuple(
            p if omask >> u & 1 else sign * (in_mask[u] & omask).bit_count() % p for u in self.positions
        )


# ---------------------------------------------------------------------------
# naive sieve


def _check_subset_guard(n0: int) -> None:
    """Refuse a naive pass over 2^n0 tail subsets past 2^NAIVE_SUBSET_GUARD."""
    if n0 > NAIVE_SUBSET_GUARD:
        raise GuardError(f"naive sieve guard: 2^{n0} subsets is past 2^{NAIVE_SUBSET_GUARD}")


def _repeat(block: int, width: int, size: int) -> int:
    """The width-bit pattern block repeated up to size bits; width and size are powers of two."""
    while width < size:
        block |= block << width
        width <<= 1
    return block


def _in_count_planes(nbrs: int, n0: int) -> list[int]:
    """popcount(nbrs & O) for every mask O of n0 bits, bit-sliced: bit O of plane b is bit b of that count.

    Built by doubling over the tail vertices: the masks that hold vertex v
    are the ones below 2^v shifted up by 2^v, with their counts one higher
    where v is in nbrs. There are bitlen(|nbrs|) planes.
    """
    planes = []
    width = 1  # masks over the vertices below v
    for v in range(n0):
        high = planes
        if nbrs >> v & 1:
            carry = (1 << width) - 1
            high = []
            for plane in planes:
                high.append(plane ^ carry)
                carry &= plane
            if carry:
                planes.append(0)
                high.append(carry)
        for b, plane in enumerate(high):
            planes[b] |= plane << width
        width <<= 1
    return planes


def _valuation(c: int, p: int) -> int:
    """The exponent of p in the positive integer c."""
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def pass_screen(core: _SieveCore, p: int, k: int) -> bytes:
    """Bitmap of the masks O of one naive pass whose subset_det reaches a determinant mod p^k.

    Bit O (byte O >> 3, bit O & 7) is set exactly when O holds s, every
    position (t and V_st) has an in-arc from O, and the p-valuations of
    the dead positions' diagonals (t's, and those of the vertices outside
    O) sum to less than k, which is subset_det's dead_prod % p^k test. All
    2^n0 masks are screened at once on Python ints of 2^n0 bits, one
    position at a time: the position's in-arc counts from O as bit planes
    (_in_count_planes), their OR as its nonzero test, and for each count c
    up to its in-degree with p | c the masks at exactly c, weighted by
    v_p(c). The dead positions' valuations are summed in a bit-sliced
    binary counter of bitlen(k) planes that starts at 2^bitlen(k) - k, so
    a mask whose sum reaches k carries out of the top plane and leaves the
    screen; when the positions' largest valuations sum to less than k
    nothing can reach it, and only the zero test runs. Besides the screen
    and the counter, one position's planes and a few more ints of 2^n0 bits
    are live at a time.
    """
    n0, s, t = core.n0, core.s, core.positions[0]
    size = 1 << n0
    full = (1 << size) - 1
    nbrs = [core.in_mask[u] for u in core.positions]  # tail vertices only: t has no out-arcs
    tops = []  # per position, the largest valuation of an in-arc count
    for mask in nbrs:
        top, power = 0, p
        while power <= mask.bit_count():
            top, power = top + 1, power * p
        tops.append(top)
    if sum(tops) < k:
        tops = [0] * len(tops)
    width = k.bit_length()
    counter = [full if ((1 << width) - k) >> j & 1 else 0 for j in range(width)]

    def position(screen: int, u: int, mask: int, top: int) -> int:
        planes = _in_count_planes(mask, n0)
        screen &= reduce(or_, planes, 0)
        if not (screen and top):
            return screen
        weights = [0] * top.bit_length()  # bit i of the masks' valuation
        for c in range(p, mask.bit_count() + 1, p):
            at_c = full
            for b, plane in enumerate(planes):
                at_c &= plane if c >> b & 1 else ~plane
            v = _valuation(c, p)
            for i in range(v.bit_length()):
                if v >> i & 1:
                    weights[i] |= at_c
        del planes, at_c  # the largest ints here, not needed for the sum
        # t is never in O; a vertex of V_st is dead in the masks without it
        dead = full if u == t else _repeat((1 << (1 << u)) - 1, 2 << u, size)
        for i, weight in enumerate(weights):
            carry = weight & dead
            for j in range(i, width):
                counter[j], carry = counter[j] ^ carry, counter[j] & carry
                if not carry:
                    break
            screen &= ~carry
        return screen

    screen = _repeat((1 << (1 << s)) - 1 << (1 << s), 2 << s, size)  # the masks that hold s
    for u, mask, top in zip(core.positions, nbrs, tops):
        screen = position(screen, u, mask, top)
        if not screen:
            break
    return screen.to_bytes((size + 7) >> 3, "little")


def naive_sieve_count(split: VertexSplit, p: int, k: int) -> ResidueElem:
    """Inclusion-exclusion over all tail subsets, summed over the integers, reduced mod p^k once.

    The virtual-arc weights are zero (the identity holds for any weights, and
    zero ones make t's row diagonal and let more subsets drop out early).
    Each term is ≡ its subset's determinant mod p^k, and is 0 when the
    dead-row product is; the sum is the count mod p^k. The pass first
    screens all 2^n0 masks at once (pass_screen), so a mask whose term
    vanishes costs one signed_contribution call and one bitmap lookup; the
    others go through subset_det, which takes exactly their determinants.
    """
    n0 = split.graph.n - 1
    _check_subset_guard(n0)
    modulus = p**k
    core = _SieveCore(split, modulus)
    core.screen = pass_screen(core, p, k)
    total = sum(map(core.signed_contribution, range(1 << n0)))
    return ResidueElem(value=total % modulus, p=p, k=k)


# ---------------------------------------------------------------------------
# meet-in-the-middle sieve


def build_lookup_tables(
    core: _SieveCore, first: tuple[int, ...], p: int
) -> tuple[list[int], list[dict[int, int]]]:
    """The first-half subsets to pair, and one bitmask over their indices per (position, residue).

    The subsets are those of `first` that contain s, or all of them when s
    lies in the other half. Bit i of masks[pos][r] is set when subset i's
    fingerprint is r at position pos (r = p marks a vertex inside the
    subset), so one mask names every subset that agrees with a second-half
    fingerprint at one position. Each position keeps a dict of its nonzero
    masks only, so the tables never grow with p.
    """
    o1s = _subsets_with(first, core.s)
    masks = [{} for _ in core.positions]
    for i, o1 in enumerate(o1s):
        bit = 1 << i
        for row, r in zip(masks, core.fingerprint(o1, p, True)):
            row[r] = row.get(r, 0) | bit
    return o1s, masks


def _subsets_with(vertices: tuple[int, ...], s: int) -> list[int]:
    """Bitmasks of the subsets of `vertices` that contain s, or of all of them when s is not among them."""
    base = 1 << s if s in vertices else 0
    free = [u for u in vertices if u != s]
    return [
        base | sum(1 << u for i, u in enumerate(free) if picks >> i & 1) for picks in range(1 << len(free))
    ]


def _mitm_fallback(n0: int, p: int) -> MitmDiagnostics | None:
    """The naive fallback's diagnostics (with a warning) when block tables
    over n0 tail vertices would pass MITM_TABLE_GUARD entries, else None.

    This keeps the cutoff of the per-block tables the listing used before
    its bitmasks: the n0 - 1 positions of V_st in floor(3 log2 p) (at
    least 1) contiguous near-equal blocks, extra of them one longer than
    the rest, (p+1)^|block| keys per block, for each of the
    2^ceil((n0+1)/3) first-half subsets. So the `fallback` flag and the
    exit codes stay as they were until a work estimate replaces the rule
    (see ROADMAP.md). The decision needs only n0 and p, not the split
    graph. It leaves a first half of at most 10 vertices (checked for
    every prime below 3,000), so a listing bitmask has at most 2^10 bits.
    """
    count = max(1, math.floor(3 * math.log2(p)))
    size, extra = divmod(n0 - 1, count)
    keys = extra * (p + 1) ** (size + 1) + (count - extra) * (p + 1) ** size
    if keys << math.ceil((n0 + 1) / 3) <= MITM_TABLE_GUARD:
        return None
    warnings.warn("meet-in-the-middle tables too large, falling back to naive sieve")
    return MitmDiagnostics(
        pairs_listed=1 << n0,
        pairs_naive=1 << n0,
        candidates_examined=0,
        table_keys=0,
        fallback=True,
    )


def mitm_count_mod(split: VertexSplit, p: int, k: int) -> tuple[ResidueElem, MitmDiagnostics]:
    """Same residue as the naive sieve (the exact count mod p^k), from the same determinants.

    V_t is cut by vertex id into a first third and the rest, and the half
    holding s pairs only its subsets that contain s (the others vanish).
    Pairs (O1, O2) whose fingerprints agree in k or more positions (t
    and V_st) are skipped: each agreement is a dead diagonal divisible by p,
    so k of them put p^k in the dead-row product, and the naive pass skips
    the subset O1 ∪ O2 as well. So the determinants taken are exactly the
    naive pass's, and only the masks it would reject go unvisited. For
    each O2, bit-plane j holds the O1 with more than j agreements so far,
    and every position folds in the mask of the O1 that agree there; the
    O1 outside plane k - 1 are exactly the pairs with fewer than k
    agreements, each evaluated once. That costs 2^|second| * |positions| *
    k small-int operations plus one subset term per listed pair; a mask
    has one bit per tabulated first-half subset, at most 2^(|first| - 1)
    with s there.
    It has no fallback of its own: count_hc_mod decides the naive fallback
    (`_mitm_fallback`) before it builds the split graph.
    """
    n0 = split.graph.n - 1
    core = _SieveCore(split, p**k)
    cut = math.ceil(split.graph.n / 3)
    first, second = tuple(range(n0)[:cut]), tuple(range(n0)[cut:])
    o1s, masks = build_lookup_tables(core, first, p)
    full = (1 << len(o1s)) - 1

    o2s = _subsets_with(second, core.s)
    listed = 0
    value = 0
    for o2 in o2s:
        planes = [0] * k
        for row, r in zip(masks, core.fingerprint(o2, p, False)):
            m = row.get(r)
            if m:
                for j in range(k - 1, 0, -1):
                    planes[j] |= planes[j - 1] & m
                planes[0] |= m
        survivors = full & ~planes[-1]
        while survivors:
            low = survivors & -survivors
            survivors ^= low
            value += core.signed_contribution(o1s[low.bit_length() - 1] | o2)
            listed += 1

    diag = MitmDiagnostics(
        pairs_listed=listed,
        pairs_naive=1 << n0,
        candidates_examined=len(o1s) * len(o2s),
        table_keys=sum(map(len, masks)),
    )
    # pruned pairs vanish only mod p^k, so the sum is meaningful only as a residue
    return ResidueElem(value=value % p**k, p=p, k=k), diag


# ---------------------------------------------------------------------------
# graph-level entry points


def count_hc_mod(
    g: Digraph,
    p: int,
    k: int | None = None,
    lam: float = DEFAULT_LAMBDA,
    mode: str = "mitm",
) -> tuple[ResidueElem, MitmDiagnostics | None]:
    """Hamiltonian-cycle count of g modulo p^k, splitting at vertex 0.

    k defaults to default_k(n, p, lam), the one use of lam. The analysis
    behind the meet-in-the-middle speedup assumes 2 <= p < n, but both modes
    stay exact for any prime p, which crt_count relies on for primes past n.
    Checks its arguments first (ValueError), then refuses p^k >=
    RESIDUE_MODULUS_LIMIT (GuardError) before any work; the k test comes
    first so that p^k is never formed for a huge k. Mitm mode decides its
    naive fallback from n and p, and the naive pass checks the subset
    guard, before the split graph is built.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    if mode not in ("naive", "mitm"):
        raise ValueError(f"unknown mode {mode!r}")
    if k is None:
        k = default_k(g.n, p, lam)
    elif k < 1:
        raise ValueError("k must be at least 1")
    if k >= 62 or p**k >= RESIDUE_MODULUS_LIMIT:
        raise GuardError(f"modulus {p}^{k} exceeds the 2^62 residue guard")
    if g.n == 1:
        return ResidueElem(value=0, p=p, k=k), None
    diag = None
    if mode == "mitm":
        diag = _mitm_fallback(g.n, p)
        if diag is None:
            return mitm_count_mod(split_vertex(g, 0), p, k)
    _check_subset_guard(g.n)
    return naive_sieve_count(split_vertex(g, 0), p, k), diag


def crt_count(g: Digraph, q: int, lam: float = DEFAULT_LAMBDA) -> tuple[int, int]:
    """Hamiltonian-cycle count mod M, M the product of p^{k_p} over primes p <= q.

    Per-prime exponents follow k_p = default_k(n, p, lam); each residue
    comes from the meet-in-the-middle sieve.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    triples = []
    for p in primes_up_to(q):
        kp = default_k(g.n, p, lam)
        residue, _ = count_hc_mod(g, p, kp, lam)
        triples.append((residue.value, p, kp))
    return crt_combine(triples)


def count_exact(g: Digraph) -> int:
    """Exact Hamiltonian-cycle count of g from one naive sieve pass.

    The pass runs modulo a power of two above (n-1)!, the most cycles n
    vertices can carry, so its residue is the count itself; the subset
    guard is checked before the split graph is built.
    """
    _check_subset_guard(g.n)
    bits = math.factorial(g.n - 1).bit_length()
    return naive_sieve_count(split_vertex(g, 0), 2, bits).value
