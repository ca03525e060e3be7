"""Hamiltonian-cycle counting: exact integer sieve, residues mod p^k, CRT.

Pipeline: split one vertex so that Hamiltonian cycles through it become
Hamiltonian s-to-t paths of the split graph; attach a weighted virtual arc
from the sink t to every other vertex; then the path count equals an
inclusion-exclusion sum, over subsets O of vertices allowed to keep their
out-arcs, of signed determinants of the punctured Laplacian with the other
tails' out-arcs zeroed. The identity holds over the integers for any
virtual-arc weights, so the naive pass uses zero ones, sums all subsets
exactly and reduces mod p^k once; with a modulus above the largest possible
count its residue is the count itself.

The meet-in-the-middle evaluator draws the virtual-arc weights as random
residues mod p, splits the subset lattice into two halves and only
evaluates determinants for pairs that could be nonzero mod p^k: a vertex
whose two half-fingerprints agree contributes a row divisible by p,
and more than k such rows force the determinant to 0 mod p^k. Lookup tables
keyed by fingerprint restrictions to index blocks list the surviving pairs.

The modular route of the paper combines meet-in-the-middle residues by CRT
over all primes p up to a cutoff q; that gives the exact count whenever the
combined modulus exceeds a user-certified bound d^n on the count, and
q = ceil(e^2 d^4) makes that hold at desk scale. The capped exact counters
take this route only in mitm mode; in naive mode they run the integer pass
once, which is exact even when the certificate is wrong.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ResidueElem, crt_combine, is_prime, primes_up_to
from .errors import CapExceededError, GuardError
from .graph import Digraph, VertexSplit, split_vertex
from .matrixtree import det_bareiss_int
from .rand import make_rng

NAIVE_SUBSET_GUARD = 24
MITM_TABLE_GUARD = 30_000_000
# count_hc_mod answers mod p^k only below this modulus, in either mode
RESIDUE_MODULUS_LIMIT = 1 << 62
DEFAULT_LAMBDA = 0.01
DEFAULT_BETA = 1.0 / 6.0


@dataclass(frozen=True)
class SieveParams:
    """Parameters of one modular counting run.

    The analysis behind the meet-in-the-middle speedup assumes 2 <= p < n,
    but every mode stays exact for any prime p >= 2, which the CRT booster
    relies on for primes past n.
    """

    p: int
    k: int | None = None
    lam: float = DEFAULT_LAMBDA
    beta: float = DEFAULT_BETA
    mode: str = "mitm"
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lambda must lie in (0, 1)")
        if not (0.0 <= self.beta < 0.5):
            raise ValueError("beta must lie in [0, 1/2)")
        if self.mode not in ("naive", "mitm"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def effective_k(self, n: int) -> int:
        """The exponent actually used for an n-vertex input graph."""
        if self.k is not None:
            return self.k
        raw = math.floor((1.0 - self.lam) * (0.5 - self.beta) * n / self.p)
        return max(1, raw)


@dataclass(frozen=True)
class RandomTailWeights:
    """Weights of the virtual arcs t->u, one residue mod p per u != t."""

    p: int
    seed: int
    values: tuple[int, ...]  # indexed by vertex id of the split graph, t slot unused

    @classmethod
    def draw(cls, split: VertexSplit, p: int, seed: int) -> "RandomTailWeights":
        rng = make_rng("tail-weights", seed, p)
        vals = [0] * split.graph.n
        for u in range(split.graph.n):
            if u != split.t:
                vals[u] = rng.randrange(p)
        return cls(p=p, seed=seed, values=tuple(vals))


@dataclass(frozen=True)
class MitmDiagnostics:
    pairs_listed: int
    pairs_naive: int
    candidates_examined: int
    table_keys: int
    fallback: bool = False

    @property
    def pruning_ratio(self) -> float:
        if self.pairs_naive == 0:
            return 0.0
        return 1.0 - self.pairs_listed / self.pairs_naive


# ---------------------------------------------------------------------------
# core subset determinant


class _SieveCore:
    """Precomputed masks for fast signed subset determinants over the integers."""

    def __init__(self, split: VertexSplit, weights: tuple[int, ...]):
        g = split.graph
        self.wt = weights
        self.t = split.t
        self.n0 = g.n - 1  # |V_t|
        self.vst = tuple(u for u in range(self.n0) if u != split.s)
        self.in_mask = g.in_mask
        self.out_mask = g.out_mask

    def subset_det(self, omask: int) -> int:
        """Integer determinant of the tail-restricted punctured Laplacian.

        Rows of vertices outside O carry only their diagonal, so the
        determinant factors into those diagonals times the minor on the
        surviving rows, which is what gets eliminated here.
        """
        wt = self.wt
        in_mask = self.in_mask
        dead_prod = 1
        alive = []
        for u in self.vst:
            if omask >> u & 1:
                alive.append(u)
            else:
                d = wt[u] + (in_mask[u] & omask).bit_count()
                if d == 0:
                    return 0
                dead_prod *= d
        alive.append(self.t)
        out_mask = self.out_mask
        t = self.t
        rows = []
        for i, u in enumerate(alive):
            if u == t:
                row = [-wt[v] for v in alive]
                row[-1] = (in_mask[t] & omask).bit_count()
            else:
                om = out_mask[u]
                row = [-1 if om >> v & 1 else 0 for v in alive]
                row[i] = wt[u] + (in_mask[u] & omask).bit_count()
            rows.append(row)
        return dead_prod * det_bareiss_int(rows)

    def signed_contribution(self, omask: int) -> int:
        """The subset's inclusion-exclusion term: its determinant, negated when |V_t| - |O| is odd."""
        det = self.subset_det(omask)
        return -det if (self.n0 - omask.bit_count()) & 1 else det


# ---------------------------------------------------------------------------
# naive sieve


def naive_sieve_count(split: VertexSplit, params: SieveParams) -> ResidueElem:
    """Inclusion-exclusion over all tail subsets, summed over the integers, reduced mod p^k once.

    The virtual-arc weights are zero (the identity holds for any weights, and
    zero ones let more subsets drop out early), so the seed does not enter.
    """
    n0 = split.graph.n - 1
    if n0 > NAIVE_SUBSET_GUARD:
        raise GuardError(f"naive sieve guard: 2^{n0} subsets is past 2^{NAIVE_SUBSET_GUARD}")
    k = params.effective_k(n0)
    core = _SieveCore(split, (0,) * split.graph.n)

    def run_range(lo: int, hi: int) -> int:
        return sum(map(core.signed_contribution, range(lo, hi)))

    total_subsets = 1 << n0
    if params.threads == 1:
        total = run_range(0, total_subsets)
    else:
        bounds = _chunk_bounds(total_subsets, params.threads * 4)
        with ThreadPoolExecutor(max_workers=params.threads) as pool:
            total = sum(pool.map(lambda b: run_range(*b), bounds))
    return ResidueElem(value=total % params.p**k, p=params.p, k=k)


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    chunks = max(1, min(chunks, total)) if total else 1
    step = (total + chunks - 1) // chunks if total else 1
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)] or [(0, 0)]


# ---------------------------------------------------------------------------
# fingerprints and lookup tables for the meet-in-the-middle listing


@dataclass(frozen=True)
class SieveHalves:
    """Bipartition of the non-sink vertices V_t into two id-ordered halves."""

    first: tuple[int, ...]
    second: tuple[int, ...]
    first_mask: int
    second_mask: int

    @classmethod
    def for_split(cls, split: VertexSplit) -> "SieveHalves":
        nsplit = split.graph.n
        vt = list(range(nsplit - 1))
        cut = math.ceil(nsplit / 3)
        first = tuple(vt[:cut])
        second = tuple(vt[cut:])
        fm = sum(1 << u for u in first)
        sm = sum(1 << u for u in second)
        return cls(first=first, second=second, first_mask=fm, second_mask=sm)


@dataclass(frozen=True)
class ZVector:
    """Half-restricted row fingerprint; entry p means 'vertex inside O'."""

    side: str  # "first" or "second"
    p: int
    entries: tuple[int, ...]  # indexed by position in the sorted V_st list


def z_vector(
    split: VertexSplit,
    omask: int,
    side: str,
    wt: RandomTailWeights,
    halves: SieveHalves,
) -> ZVector:
    """Fingerprint of one half-subset over the V_st positions.

    The first-half fingerprint carries the virtual weight plus in-arc count
    from O1; the second-half one carries minus the in-arc count from O2, so
    the two agree at u exactly when row u of the restricted Laplacian is
    divisible by p.
    """
    p = wt.p
    g = split.graph
    if side == "first":
        if omask & ~halves.first_mask:
            raise ValueError("subset leaks outside the first half")
    elif side == "second":
        if omask & ~halves.second_mask:
            raise ValueError("subset leaks outside the second half")
    else:
        raise ValueError(f"unknown side {side!r}")
    vst = tuple(u for u in range(g.n - 1) if u != split.s)
    entries = []
    for u in vst:
        if omask >> u & 1:
            entries.append(p)
        elif side == "first":
            entries.append((wt.values[u] + (g.in_mask[u] & omask).bit_count()) % p)
        else:
            entries.append(-(g.in_mask[u] & omask).bit_count() % p)
    return ZVector(side=side, p=p, entries=tuple(entries))


@dataclass(frozen=True)
class LookupTables:
    """Per-block tables: fingerprint restriction -> first-half subsets.

    Block i's table, queried with any restriction g, returns every first-half
    subset whose fingerprint agrees with g in at most `threshold` positions
    of that block. Each (subset, g) pair appears exactly once.
    """

    blocks: tuple[tuple[int, ...], ...]  # position indices into the V_st order
    threshold: int
    tables: tuple[dict, ...]
    z1_by_mask: dict  # first-half subset mask -> full fingerprint tuple

    @property
    def key_count(self) -> int:
        return sum(len(t) for t in self.tables)


def block_partition(positions: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Contiguous near-equal blocks; block count floor(3 log2 p), at least 1."""
    b = max(1, math.floor(3 * math.log2(p)))
    base = positions // b
    extra = positions % b
    blocks = []
    pos = 0
    for i in range(b):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(range(pos, pos + size)))
        pos += size
    return tuple(blocks)


def build_lookup_tables(
    split: VertexSplit,
    wt: RandomTailWeights,
    k: int,
    halves: SieveHalves,
) -> LookupTables:
    p = wt.p
    g = split.graph
    vst = tuple(u for u in range(g.n - 1) if u != split.s)
    blocks = block_partition(len(vst), p)
    thr = k // len(blocks)
    first_bits = [u for u in halves.first]
    z1_by_mask: dict[int, tuple[int, ...]] = {}
    for picks in range(1 << len(first_bits)):
        omask = 0
        for i, u in enumerate(first_bits):
            if picks >> i & 1:
                omask |= 1 << u
        z1_by_mask[omask] = z_vector(split, omask, "first", wt, halves).entries
    tables = []
    for block in blocks:
        table: dict[tuple[int, ...], list[int]] = {}
        for key in _iter_keys(p, len(block)):
            bucket = []
            for omask, z1 in z1_by_mask.items():
                agree = sum(1 for j, pos in enumerate(block) if z1[pos] == key[j])
                if agree <= thr:
                    bucket.append(omask)
            if bucket:
                table[key] = bucket
        tables.append(table)
    return LookupTables(
        blocks=blocks, threshold=thr, tables=tuple(tables), z1_by_mask=z1_by_mask
    )


def _iter_keys(p: int, size: int):
    """All fingerprint restrictions over a block: values 0..p-1 plus the inf mark p."""
    if size == 0:
        yield ()
        return
    for rest in _iter_keys(p, size - 1):
        for v in range(p + 1):
            yield rest + (v,)


def mitm_table_cost(split: VertexSplit, p: int, halves: SieveHalves) -> int:
    vst_len = split.graph.n - 2
    blocks = block_partition(vst_len, p)
    return sum((p + 1) ** len(b) for b in blocks) * (1 << len(halves.first))


# ---------------------------------------------------------------------------
# meet-in-the-middle sieve


@dataclass(frozen=True)
class SieveResult:
    residue: ResidueElem
    diagnostics: MitmDiagnostics


def mitm_count_mod(split: VertexSplit, params: SieveParams) -> SieveResult:
    """Same residue as the naive sieve (the exact count mod p^k), fewer determinants.

    Pairs (O1, O2) whose fingerprints agree in more than k positions are
    skipped: each agreement marks a row divisible by p, and k+1 of those
    force the determinant to vanish mod p^k. Every pair is accepted at its
    smallest qualifying block only, and re-verified against the full
    agreement budget before its determinant is evaluated.
    """
    g = split.graph
    n0 = g.n - 1
    k = params.effective_k(n0)
    wt = RandomTailWeights.draw(split, params.p, params.seed)
    halves = SieveHalves.for_split(split)
    if mitm_table_cost(split, params.p, halves) > MITM_TABLE_GUARD:
        warnings.warn("meet-in-the-middle tables too large, falling back to naive sieve")
        residue = naive_sieve_count(split, params)
        return SieveResult(
            residue=residue,
            diagnostics=MitmDiagnostics(
                pairs_listed=1 << n0,
                pairs_naive=1 << n0,
                candidates_examined=0,
                table_keys=0,
                fallback=True,
            ),
        )
    core = _SieveCore(split, wt.values)
    tables = build_lookup_tables(split, wt, k, halves)
    blocks = tables.blocks

    second_bits = list(halves.second)
    seen: set[int] = set()
    listed = 0
    candidates = 0
    value = 0

    second_masks = []
    for picks in range(1 << len(second_bits)):
        omask = 0
        for i, u in enumerate(second_bits):
            if picks >> i & 1:
                omask |= 1 << u
        second_masks.append(omask)

    def handle_o2(o2: int) -> tuple[int, int, int, list[int]]:
        z2 = z_vector(split, o2, "second", wt, halves).entries
        local_seen: set[int] = set()
        acc = 0
        listed_local = 0
        cand_local = 0
        accepted: list[int] = []
        for bi, block in enumerate(blocks):
            key = tuple(z2[pos] for pos in block)
            bucket = tables.tables[bi].get(key)
            if not bucket:
                continue
            for o1 in bucket:
                cand_local += 1
                if o1 in local_seen:
                    continue
                local_seen.add(o1)
                z1 = tables.z1_by_mask[o1]
                agree = sum(1 for a, b in zip(z1, z2) if a == b)
                if agree > k:
                    continue
                omask = o1 | o2
                acc += core.signed_contribution(omask)
                listed_local += 1
                accepted.append(omask)
        return acc, listed_local, cand_local, accepted

    if params.threads == 1:
        results = map(handle_o2, second_masks)
    else:
        with ThreadPoolExecutor(max_workers=params.threads) as pool:
            results = pool.map(handle_o2, second_masks)
    for acc, listed_local, cand_local, accepted in results:
        value += acc
        listed += listed_local
        candidates += cand_local
        for omask in accepted:
            assert omask not in seen, "duplicate subset accepted"
            seen.add(omask)

    # pruned pairs vanish only mod p^k, so the sum is meaningful only as a residue
    residue = ResidueElem(value=value % params.p**k, p=params.p, k=k)
    diag = MitmDiagnostics(
        pairs_listed=listed,
        pairs_naive=1 << n0,
        candidates_examined=candidates,
        table_keys=tables.key_count,
    )
    return SieveResult(residue=residue, diagnostics=diag)


# ---------------------------------------------------------------------------
# graph-level entry points


def count_hc_mod(
    g: Digraph, params: SieveParams, origin: int = 0
) -> tuple[ResidueElem, MitmDiagnostics | None]:
    """Hamiltonian-cycle count of g modulo p^k, splitting at `origin`.

    Refuses p^k >= RESIDUE_MODULUS_LIMIT (GuardError) before any work; the
    k test comes first so that p^k is never formed for a huge k.
    """
    k = params.effective_k(g.n)
    if k >= 62 or params.p**k >= RESIDUE_MODULUS_LIMIT:
        raise GuardError(f"modulus {params.p}^{k} exceeds the 2^62 residue guard")
    if g.n == 1:
        return ResidueElem(value=0, p=params.p, k=k), None
    split = split_vertex(g, origin)
    if params.mode == "naive":
        return naive_sieve_count(split, params), None
    res = mitm_count_mod(split, params)
    return res.residue, res.diagnostics


def crt_count(
    g: Digraph,
    q: int,
    lam: float = DEFAULT_LAMBDA,
    seed: int = 0,
    threads: int = 1,
) -> tuple[int, int]:
    """Hamiltonian-cycle count mod M, M the product of p^{k_p} over primes p <= q.

    Per-prime exponents follow k_p = max(1, floor((1-lam) n / (3 p))); each
    residue comes from the meet-in-the-middle sieve.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    value_mod_pairs = []
    primes = primes_up_to(q)
    results = {}

    def run(p: int) -> tuple[int, int]:
        kp = max(1, math.floor((1.0 - lam) * g.n / (3 * p)))
        params = SieveParams(
            p=p, k=kp, lam=lam, mode="mitm", seed=seed, threads=1
        )
        residue, _ = count_hc_mod(g, params)
        return residue.value, kp

    if threads == 1:
        for p in primes:
            results[p] = run(p)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for p, out in zip(primes, pool.map(run, primes)):
                results[p] = out
    for p in primes:
        val, kp = results[p]
        value_mod_pairs.append((val, p, kp))
    return crt_combine(value_mod_pairs)


def count_exact_capped(
    g: Digraph,
    d,
    lam: float = DEFAULT_LAMBDA,
    seed: int = 0,
    mode: str = "naive",
    threads: int = 1,
) -> int:
    """Exact Hamiltonian-cycle count, certified whenever the count is at most d^n.

    Raises CapExceededError when the CRT modulus of q = ceil(e^2 d^4) fails
    to exceed d^n, in either mode. mode="mitm" combines meet-in-the-middle
    residues by CRT, so a count above d^n comes back reduced mod that
    modulus. mode="naive" runs the naive sieve once, modulo a power of two
    above (n-1)!, the most cycles n vertices can carry, so its answer is
    exact even past d^n, and `seed` does not enter it.
    """
    dfrac = Fraction(d)
    if dfrac <= 1:
        raise ValueError("bound base d must exceed 1")
    q = math.ceil(math.e**2 * float(dfrac) ** 4)
    modulus = 1
    for p in primes_up_to(q):
        kp = max(1, math.floor((1.0 - lam) * g.n / (3 * p)))
        modulus *= p**kp
    if modulus <= dfrac**g.n:
        raise CapExceededError(
            f"CRT modulus {modulus} does not exceed the count cap d^n"
        )
    if mode == "mitm":
        value, mod = crt_count(g, q, lam=lam, seed=seed, threads=threads)
        assert mod == modulus
        return value
    if mode != "naive":
        raise ValueError(f"unknown mode {mode!r}")
    bits = math.factorial(g.n - 1).bit_length()
    return naive_sieve_count(split_vertex(g, 0), SieveParams(p=2, k=bits, threads=threads)).value


def count_avg_degree(
    g: Digraph,
    lam: float = DEFAULT_LAMBDA,
    seed: int = 0,
    mode: str = "naive",
    threads: int = 1,
) -> int:
    """Exact count with the bound base derived from the average out-degree.

    The product of out-degrees bounds the cycle count, and by AM-GM it is at
    most (m/n)^n, so d = max(m/n, 9/8) certifies the cap on its own.
    """
    d = max(Fraction(g.m, g.n), Fraction(9, 8))
    return count_exact_capped(g, d, lam=lam, seed=seed, mode=mode, threads=threads)
