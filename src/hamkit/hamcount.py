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
but no row carries. So a pass has 2^|V_t| tail subsets, but at most half
of them reach a determinant. With zero weights t's row is diagonal as well
and joins the factored-out diagonals. Each term only has to be right mod
p^k, so a subset whose dead-row product (the product of those diagonals)
is 0 mod p^k is skipped before its minor is built; every residue stays the
same.

Both modes list their survivors, the masks whose term can be nonzero mod
p^k, with one screen in the meet-in-the-middle shape: the low SCREEN_BITS
tail vertices are tabulated once (`build_lookup_tables`: per position, the
masks of the low part at each in-arc count), and each assignment of the
high tail vertices, a block of 2^SCREEN_BITS masks, applies subset_det's
exact rule to all its masks at once on Python ints of one bit per mask.
The naive pass visits every mask of every block, so a mask outside the
screen costs one call and one bitmap lookup; mitm mode visits only each
block's survivors. Both take exactly the same determinants.

The modular route of the paper (`crt_count`) combines meet-in-the-middle
residues by CRT over all primes p up to a cutoff q, each modulo p^k with the
paper's one exponent schedule `default_k`; that gives the exact count
whenever the combined modulus exceeds a bound d^n on the count. The exact
counter `count_exact` takes no such bound: it runs the one integer pass
modulo a power of two above (n-1)!.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import compress
from operator import itemgetter, or_

from .algebra import ResidueElem, crt_combine, is_prime, primes_up_to
from .errors import GuardError
from .graph import Digraph, VertexSplit, split_vertex
from .matrixtree import det_bareiss_int

COUNT_GUARD = 29  # every counting pass refuses more than 2^29 tail subsets
SCREEN_BITS = 16  # the low tail vertices a screen block tabulates
# count_hc_mod answers mod p^k only below this modulus, in either mode
RESIDUE_MODULUS_LIMIT = 1 << 62
DEFAULT_LAMBDA = 0.01

# the set bits of each byte value, low first: mitm reads a block's survivors byte by byte
_BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1) for x in range(256))


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
    """What a mitm pass did: the survivors it visited (each one subset term),
    the 2^|V_t| subsets of the naive pass, the masks it screened, the
    entries of its low tables, and `fallback`, always False (no fallback is
    left; the key stays in the report)."""

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
    The low `cut` tail vertices span a screen block. `screen`, when the
    naive pass sets it, is the bitmap of the block being visited:
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
        self.cut = min(self.n0, SCREEN_BITS)
        self.low = (1 << self.cut) - 1
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
        if screen is not None:
            bit = omask & self.low
            if not screen[bit >> 3] >> (bit & 7) & 1:
                return 0
        det = self.subset_det(omask)
        return -det if (self.n0 - omask.bit_count()) & 1 else det


# ---------------------------------------------------------------------------
# the blocked screen


def _check_count_guard(n0: int) -> None:
    """Refuse a counting pass over 2^n0 tail subsets past 2^COUNT_GUARD."""
    if n0 > COUNT_GUARD:
        raise GuardError(f"counting guard: 2^{n0} subsets is past 2^{COUNT_GUARD}")


def _repeat(block: int, width: int, size: int) -> int:
    """The width-bit pattern block repeated up to size bits; width and size are powers of two."""
    while width < size:
        block |= block << width
        width <<= 1
    return block


def _in_count_planes(nbrs: int, bits: int) -> list[int]:
    """popcount(nbrs & O) for every mask O of `bits` bits, bit-sliced: bit O of plane b is bit b of that count.

    Built by doubling over the tail vertices: the masks that hold vertex v
    are the ones below 2^v shifted up by 2^v, with their counts one higher
    where v is in nbrs. There are bitlen(|nbrs|) planes.
    """
    planes = []
    width = 1  # masks over the vertices below v
    for v in range(bits):
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


def build_lookup_tables(core: _SieveCore, p: int, k: int) -> list[tuple]:
    """Per position (t, then V_st), the low-part tables a screen block reads.

    The low part is the core's `cut` lowest tail vertices; a mask's in-arc
    count at position u is its low part's count plus c, the count from its
    high part, which is the same for every mask of a block. Each entry is
    (u, high, nonzero, at, plan): `high` is u's in-neighbours among the high
    tail vertices, shifted down to bit 0, and `nonzero` the low masks with
    an in-arc into u. `at[j]` holds the low masks whose count is exactly j,
    and plan[c][i] lists the j at which bit i of v_p(j + c) is set, so a
    block's valuation planes are unions of table entries. Those two are
    tabulated only where a valuation can count: `plan` is empty when the
    positions' largest valuations sum to less than k (then only the zero
    test runs) or when no count reachable at u is a multiple of p, and
    `at` keeps only the j some plan names.
    """
    cut, low = core.cut, core.low
    full = (1 << (1 << cut)) - 1
    nbrs = [core.in_mask[u] for u in core.positions]  # tail vertices only: t has no out-arcs
    tops = []  # per position, the largest valuation of an in-arc count
    for mask in nbrs:
        top, power = 0, p
        while power <= mask.bit_count():
            top, power = top + 1, power * p
        tops.append(top)
    counting = sum(tops) >= k
    if counting:  # a count of 0 fails the zero test
        vals = [0] + [_valuation(c, p) for c in range(1, core.n0 + 1)]
    tables = []
    for u, mask, top in zip(core.positions, nbrs, tops):
        planes = _in_count_planes(mask & low, cut)
        high = mask >> cut
        plan = []
        if counting and top:
            span = (mask & low).bit_count()
            plan = [
                [[j for j in range(-c % p, span + 1, p) if vals[j + c] >> i & 1] for i in range(top.bit_length())]
                for c in range(high.bit_count() + 1)
            ]
        at = {}
        for j in sorted({j for weights in plan for js in weights for j in js}):
            at_j = full
            for b, plane in enumerate(planes):
                at_j &= plane if j >> b & 1 else ~plane
            at[j] = at_j
        tables.append((u, high, reduce(or_, planes, 0), at, plan if at else []))
    return tables


def _screen_blocks(core: _SieveCore, tables: list[tuple], k: int):
    """Yield (base, bitmap) for each block of 2^cut masks; bit O - base of the bitmap is set
    exactly when O holds s, every position (t and V_st) has an in-arc from O,
    and the p-valuations of the dead positions' diagonals (t's, and those of
    the vertices outside O) sum to less than k, which is subset_det's
    dead_prod % p^k test.

    The base runs over the masks of the high tail vertices, and a block's
    masks are its base plus every low mask. The zero tests come first; then
    each dead position's valuation planes are summed in a bit-sliced binary
    counter of bitlen(k) planes that starts at 2^bitlen(k) - k, so a mask
    whose sum reaches k carries out of the top plane and leaves the screen.
    Besides the tables, a block holds a few ints of 2^cut bits.
    """
    cut, s, t = core.cut, core.s, core.positions[0]
    size = 1 << cut
    full = (1 << size) - 1
    width = k.bit_length()
    start = [full if ((1 << width) - k) >> j & 1 else 0 for j in range(width)]
    zero_tests = [(high, nonzero) for _, high, nonzero, _, _ in tables]
    # t is never in O; a low vertex of V_st is dead in the low masks without it
    valued = [(u, high, at, plan, full if u == t or u >= cut else _repeat((1 << (1 << u)) - 1, 2 << u, size))
              for u, high, _, at, plan in tables if plan]
    with_s = _repeat((1 << (1 << s)) - 1 << (1 << s), 2 << s, size) if s < cut else full
    for h in range(1 << (core.n0 - cut)):
        screen = with_s if s < cut or h >> (s - cut) & 1 else 0
        for high, nonzero in zero_tests:
            if not screen:
                break
            if not high & h:
                screen &= nonzero
        if screen and valued:
            counter = start[:]
            for u, high, at, plan, dead in valued:
                if u != t and u >= cut and h >> (u - cut) & 1:  # a high vertex of V_st alive in the whole block
                    continue
                for i, js in enumerate(plan[(high & h).bit_count()]):
                    carry = reduce(or_, map(at.__getitem__, js), 0) & dead
                    for j in range(i, width):
                        counter[j], carry = counter[j] ^ carry, counter[j] & carry
                        if not carry:
                            break
                    screen &= ~carry
                if not screen:
                    break
        yield h << cut, screen.to_bytes((size + 7) >> 3, "little")


def naive_sieve_count(split: VertexSplit, p: int, k: int) -> ResidueElem:
    """Inclusion-exclusion over all tail subsets, summed over the integers, reduced mod p^k once.

    The virtual-arc weights are zero (the identity holds for any weights, and
    zero ones make t's row diagonal and let more subsets drop out early).
    Each term is ≡ its subset's determinant mod p^k, and is 0 when the
    dead-row product is; the sum is the count mod p^k. Each block of masks
    is screened before it is visited, so a mask whose term vanishes costs
    one signed_contribution call and one bitmap lookup; the others go
    through subset_det, which takes exactly their determinants.
    """
    n0 = split.graph.n - 1
    _check_count_guard(n0)
    modulus = p**k
    core = _SieveCore(split, modulus)
    size = 1 << core.cut
    total = 0
    for base, bitmap in _screen_blocks(core, build_lookup_tables(core, p, k), k):
        core.screen = bitmap
        total += sum(map(core.signed_contribution, range(base, base + size)))
    return ResidueElem(value=total % modulus, p=p, k=k)


def mitm_count_mod(split: VertexSplit, p: int, k: int) -> tuple[ResidueElem, MitmDiagnostics]:
    """Same residue as the naive sieve (the exact count mod p^k), from the same determinants.

    The meet-in-the-middle shape of the paper's route: the low tail
    vertices are tabulated once, the high ones enumerated, and each block's
    screen names the masks whose term can be nonzero mod p^k. Only those
    survivors are visited, read byte by byte from the block's bitmap, so
    the determinants taken are exactly the naive pass's and the masks it
    would reject go unvisited.
    """
    n0 = split.graph.n - 1
    _check_count_guard(n0)
    core = _SieveCore(split, p**k)
    tables = build_lookup_tables(core, p, k)
    contribution = core.signed_contribution
    listed = 0
    value = 0
    for base, bitmap in _screen_blocks(core, tables, k):
        for i in compress(range(len(bitmap)), bitmap):
            byte_base = base | i << 3
            bits = _BYTE_BITS[bitmap[i]]
            for b in bits:
                value += contribution(byte_base | b)
            listed += len(bits)
    diag = MitmDiagnostics(
        pairs_listed=listed,
        pairs_naive=1 << n0,
        candidates_examined=1 << n0,
        table_keys=sum(1 + len(at) for _, _, _, at, _ in tables),
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
    first so that p^k is never formed for a huge k. The counting guard,
    one rule on n for both modes, is checked before the split graph is
    built.
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
    _check_count_guard(g.n)
    if mode == "mitm":
        return mitm_count_mod(split_vertex(g, 0), p, k)
    return naive_sieve_count(split_vertex(g, 0), p, k), None


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
    vertices can carry, so its residue is the count itself; the counting
    guard is checked before the split graph is built.
    """
    _check_count_guard(g.n)
    bits = math.factorial(g.n - 1).bit_length()
    return naive_sieve_count(split_vertex(g, 0), 2, bits).value
