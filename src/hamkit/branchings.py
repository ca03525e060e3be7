"""Randomized detectors for spanning out-branchings with degree constraints.

Two problems share the Laplacian-determinant backbone from the matrixtree
module:

* detect_k_internal: is there a spanning out-branching with at least k
  internal (child-bearing) vertices? Arc weights are truncated polynomials
  1*zeta + t*(marker) whose degree-k slice survives only for branchings that
  put k distinct markers together. Markers are nilpotent group-algebra
  elements, so a repeated vertex squares to zero; random group elements make
  k distinct markers multiply to something nonzero with constant probability.

* detect_k_leaf: is there a spanning out-branching with at least k leaves?
  Equivalently one with at most n-k internal vertices. The branching
  polynomial (one monomial per branching, variable degree = child count,
  root bumped by one) is probed by the few-distinct-variables solver
  solve_nk_dv, which needs only black-box evaluations over prime fields.

Both detectors are one-sided: YES answers are certain, NO answers carry an
explicit failure-probability bound in the report.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Protocol, runtime_checkable

import numpy as np

from .algebra import BinaryField, make_binary_field, random_prime_31
from .errors import GuardError
from .graph import Digraph
# count_out_branchings is not called here; it stays bound because the layer
# tracer in perfbench/layertrace.py rebinds it under this module's name
from .matrixtree import BRANCHING_COUNT_GUARD, count_out_branchings  # noqa: F401
from .rand import derive_seed, make_rng
from .report import DetectionReport

GROUP_RANK_LIMIT = 6
# detect_k_internal evaluates each root's trials in chunks of 1, 2, 4, ...
# up to this many
INTERNAL_CHUNK = 34
# Bytes of the largest gather in _InternalSieveEngine._mul, det_batch's first
# rank-1 update, that detect_k_internal allows (see _internal_gather_bytes)
INTERNAL_GATHER_LIMIT = 1 << 28
# batched_modp_det multiplies two residues in int64, so p must stay below 2^31
MODP_WORD_LIMIT = 1 << 31
# detect_k_leaf runs at most this many solver trials per root (4^k by default)
LEAF_BUDGET_LIMIT = 4**6
# Bytes of the largest int64 stack the k-leaf solver builds at once: one
# batched_modp_det call of BranchingLeafPolynomial, or one chunk's assignments
LEAF_STACK_LIMIT = 1 << 24
# solve_nk_dv evaluates its trials in chunks of 1, 2, 4, ... up to this many
LEAF_CHUNK = 64


# ---------------------------------------------------------------------------
# k-internal out-branchings


@dataclass(frozen=True)
class InternalSieveConfig:
    """Knobs for detect_k_internal. Randomness depends only on (seed, root, trial)."""

    trials: int = 100
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")


@lru_cache(maxsize=None)
def _pair_plan(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather/scatter plan for one ring multiplication at rank k.

    Ring elements are flat int32 vectors of length (k+1)*2^k: slot i*2^k + T
    holds the field coefficient of t^i times the product of the markers in
    subset T. A product pairs every (i1, T1) with (i2, T2) having i1+i2 <= k
    and T1, T2 disjoint (overlapping marker subsets vanish by nilpotency).
    Returns (ia, ib, offsets) with pairs sorted by output slot so that
    bitwise_xor.reduceat accumulates each output in one pass.
    """
    d = 1 << k
    pairs = []
    for i1 in range(k + 1):
        for i2 in range(k + 1 - i1):
            for t1 in range(d):
                rest = (~t1) & (d - 1)
                t2 = rest
                while True:
                    pairs.append(((i1 + i2) * d + (t1 | t2), i1 * d + t1, i2 * d + t2))
                    if t2 == 0:
                        break
                    t2 = (t2 - 1) & rest
    pairs.sort()
    out = np.array([o for o, _, _ in pairs], dtype=np.int64)
    ia = np.array([a for _, a, _ in pairs], dtype=np.int64)
    ib = np.array([b for _, _, b in pairs], dtype=np.int64)
    offsets = np.searchsorted(out, np.arange((k + 1) * d, dtype=np.int64))
    return ia, ib, offsets


class _InternalSieveEngine:
    """Determinant of the marker-weighted Laplacian, trial-batched.

    Entries live in R = GF(2^m)[t]/(t^(k+1)) (x) GF(2^m)[x_1..x_k]/(x_i^2),
    flat vectors laid out as in _pair_plan. R is a local ring: the elements
    with a zero constant slot (slot 0) form its maximal ideal M, generated by
    t and the markers, and M^(2k+1) = 0 (a nonzero monomial has t-degree at
    most k and at most k markers). So an element is a unit exactly when its
    slot 0 is nonzero, and Gaussian elimination goes through whenever each
    pivot column has an entry with a nonzero slot 0 at or below the
    diagonal. The slot-0 parts of the entries form the zeta-weighted
    Laplacian over GF(2^m), and elimination acts on them as plain Gaussian
    elimination, so a draw whose slot-0 Laplacian is nonsingular never
    lacks a unit pivot. The rare draws that do (det_batch) take the
    division-free Berkowitz recurrence instead. All per-entry ring products
    across the trial batch are fused into single gather/table-lookup/reduceat
    passes.
    """

    def __init__(self, g: Digraph, root: int, k: int, field: BinaryField):
        self.g = g
        self.root = root
        self.k = k
        self.f = field
        self.d = 1 << k
        self.len = (k + 1) * self.d
        self.verts = [u for u in range(g.n) if u != root]
        self.pos = {u: i for i, u in enumerate(self.verts)}
        self.arcs = sorted(g.arcs)
        self.ia, self.ib, self.offsets = _pair_plan(k)

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = self.f.nmul(a[..., self.ia], b[..., self.ib])
        return np.bitwise_xor.reduceat(prod, self.offsets, axis=-1)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """u^-1 for units u (slot 0 nonzero), [..., len].

        Write u = c(1 + x) with c = u[0] and x in M. In characteristic 2
        squaring is additive, so (1 + y)^2 = 1 + y^2, and
        (1 + x) * prod_{i<L} (1 + x^(2^i)) = 1 + x^(2^L). Squaring also keeps
        only the squares of x's pure t-power terms (each marker squares to
        zero), so x^(2^i) vanishes once 2^i > k: L = k.bit_length() factors,
        each the square of the one before, 2(L - 1) ring products.
        """
        cinv = self.f.ninv(u[..., :1])
        factor = self.f.nmul(u, cinv)  # 1 + x
        inv = factor
        for _ in range(self.k.bit_length() - 1):
            factor = self._mul(factor, factor)
            inv = self._mul(inv, factor)
        return self.f.nmul(inv, cinv)

    def build_matrices(self, zeta: np.ndarray, rmul: np.ndarray, gvec: np.ndarray) -> np.ndarray:
        """Punctured Laplacians for a batch of draws, shape [nn, nn, B, len].

        Arc weight: zeta at the constant slot, and at the t-slot the tail's
        marker pattern (nonempty subsets of the tail's group element) scaled
        by zeta*rmul. The per-arc rmul factor keeps sibling arcs from
        collapsing pairwise in characteristic 2: a vertex with c children
        contributes 1 + t*(sum of c independent scalars)*marker, nonzero for
        any c >= 1, where a bare (1 + t*marker)^c would vanish for even c.
        """
        f = self.f
        d = self.d
        nb = zeta.shape[0]
        tsub = np.arange(d, dtype=np.int64)
        gamma = (tsub[None, None, :] & ~gvec[:, :, None]) == 0
        gamma &= tsub[None, None, :] != 0
        w1 = f.nmul(zeta, rmul)
        nn = len(self.verts)
        mats = np.zeros((nn, nn, nb, self.len), dtype=np.int32)
        for ai, (u, v) in enumerate(self.arcs):
            x1 = np.where(gamma[:, u, :], w1[:, ai, None], 0)
            if v != self.root:
                iv = self.pos[v]
                mats[iv, iv, :, 0] ^= zeta[:, ai]
                mats[iv, iv, :, d : 2 * d] ^= x1
                if u != self.root:
                    iu = self.pos[u]
                    mats[iu, iv, :, 0] ^= zeta[:, ai]
                    mats[iu, iv, :, d : 2 * d] ^= x1
        return mats

    def det_batch(self, mats: np.ndarray) -> np.ndarray:
        """Determinants [B, len] of a [nn, nn, B, len] stack, by unit-pivot elimination.

        At column j the pivot is the first row at or below j whose slot 0 is
        nonzero, a unit of R; rows swap only in the matrices whose pivot
        moved (characteristic 2 makes swaps sign-free). The determinant takes
        the pivot as a factor, and one rank-1 update with the pivot's inverse
        clears the column below it. The last pivot is multiplied in and never
        inverted, so it may be a non-unit. A matrix with no unit in some
        column j < nn - 1 at or below the diagonal stalls: its slot-0
        Laplacian has dependent leading columns. Only the stalled matrices
        are recomputed, by _det_berkowitz. mats is left unchanged.
        """
        nn, _, nb, _ = mats.shape
        a = mats.copy()
        det = np.zeros((nb, self.len), dtype=np.int32)
        det[:, 0] = 1
        stalled = np.zeros(nb, dtype=bool)
        for j in range(nn - 1):
            unit = a[j:, j, :, 0] != 0
            stalled |= ~unit.any(axis=0)
            pidx = j + np.argmax(unit, axis=0)
            moved = np.flatnonzero(pidx != j)
            src = pidx[moved]
            rowj = a[j, j:, moved]
            a[j, j:, moved] = a[src, j:, moved]
            a[src, j:, moved] = rowj
            det = self._mul(det, a[j, j])
            fac = self._mul(a[j + 1 :, j], self._inverse(a[j, j])[None])
            a[j + 1 :, j + 1 :] ^= self._mul(fac[:, None], a[j, j + 1 :][None])
        det = self._mul(det, a[nn - 1, nn - 1])
        if stalled.any():
            det[stalled] = self._det_berkowitz(mats[:, :, stalled])
        return det

    def _det_berkowitz(self, mats: np.ndarray) -> np.ndarray:
        """Characteristic-polynomial determinants of a [nn, nn, B, len] stack.

        Uses only ring additions and multiplications, so it needs no unit
        pivot; negation-free in characteristic 2.
        """
        nn = mats.shape[0]
        nb = mats.shape[2]
        one = np.zeros((nb, self.len), dtype=np.int32)
        one[:, 0] = 1
        p = one[None]
        for r in range(1, nn + 1):
            t = [one, mats[r - 1, r - 1]]
            if r >= 2:
                sub = mats[: r - 1, : r - 1]
                rrow = mats[r - 1, : r - 1]
                u = mats[: r - 1, r - 1]
                for j in range(r - 1):
                    t.append(np.bitwise_xor.reduce(self._mul(rrow, u), axis=0))
                    if j < r - 2:
                        u = np.bitwise_xor.reduce(self._mul(sub, u[None]), axis=1)
            pn = np.zeros((r + 1, nb, self.len), dtype=np.int32)
            pn[: p.shape[0]] = p
            for j in range(1, r + 1):
                # Toeplitz matrix is (r+1) x r: conv outputs past index r drop.
                lim = min(p.shape[0], r + 1 - j)
                pn[j : j + lim] ^= self._mul(t[j][None], p[:lim])
            p = pn
        return p[nn]

    def run_chunk(self, zeta: np.ndarray, rmul: np.ndarray, gvec: np.ndarray) -> np.ndarray:
        dets = self.det_batch(self.build_matrices(zeta, rmul, gvec))
        slice_k = dets[:, self.k * self.d : (self.k + 1) * self.d]
        return np.any(slice_k != 0, axis=1)


def _draw_internal_chunk(
    g: Digraph, k: int, field: BinaryField, seed: int, root: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = g.m
    zeta = np.empty((count, m), dtype=np.int32)
    rmul = np.empty((count, m), dtype=np.int32)
    gvec = np.empty((count, g.n), dtype=np.int64)
    for i in range(count):
        rng = np.random.default_rng(derive_seed("internal-sieve", seed, root, start + i))
        zeta[i] = rng.integers(1, field.q, size=m, dtype=np.int32)
        rmul[i] = rng.integers(1, field.q, size=m, dtype=np.int32)
        gvec[i] = rng.integers(0, 1 << k, size=g.n, dtype=np.int64)
    return zeta, rmul, gvec


def _internal_gather_bytes(n: int, k: int) -> int:
    """Bytes of the largest int32 gather that _mul makes in det_batch.

    That is the rank-1 update at column 0: the n-2 entries below the first
    pivot times the n-2 entries right of it, (n-2)^2 products for each trial
    of a full chunk, one int32 slot per product pair; the pair plan at rank
    k has (k+1)(k+2)/2 * 3^k pairs (degree pairs with i1 + i2 <= k times
    disjoint marker-subset pairs). Later columns update smaller blocks, and
    the Berkowitz fallback multiplies at most (n-2)^2 entries of at most a
    chunk of stalled trials, so no gather is larger.
    """
    return (n - 2) ** 2 * INTERNAL_CHUNK * (k + 1) * (k + 2) // 2 * 3**k * 4


def internal_sieve_success_floor(n: int, k: int) -> float:
    """Per-trial detection probability floor on a qualifying instance.

    k uniform group elements are linearly independent with probability
    prod(1 - 2^-j); the surviving coefficient is a nonzero polynomial of
    degree under 2n in the scalar draws, losing at most 2n/q more.
    """
    indep = 1.0
    for j in range(1, k + 1):
        indep *= 1.0 - 2.0**-j
    q = 1 << (2 * max(1, (n - 1).bit_length()))
    return indep * max(0.0, 1.0 - 2.0 * n / q)


def detect_k_internal(g: Digraph, k: int, cfg: InternalSieveConfig | None = None) -> DetectionReport:
    """One-sided test for a spanning out-branching with >= k internal vertices.

    Roots without any spanning out-branching are discarded (see
    _spanning_roots); k = 0 is answered exactly. Otherwise each surviving root
    runs `cfg.trials` randomized determinant evaluations, in chunks of 1, 2,
    4, ... up to INTERNAL_CHUNK trials, and stops after the chunk with its
    first hit; any nonzero degree-k slice certifies YES. Reports are
    identical for any thread count and chunking: per-root trial consumption
    depends only on (seed, root, trial). Refuses k > GROUP_RANK_LIMIT and a
    determinant gather past INTERNAL_GATHER_LIMIT bytes (GuardError) before
    the roots are scanned.
    """
    cfg = cfg or InternalSieveConfig()
    n = g.n
    if n < 1:
        raise ValueError("graph is empty")
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
            verdict=False, trials_run=0, trials_max=0, seed=cfg.seed, failure_bound=0.0,
            detail={"reason": "no spanning out-branching from any root"},
        )
    if k == 0:
        return DetectionReport(
            verdict=True, trials_run=0, trials_max=0, seed=cfg.seed, failure_bound=0.0,
            detail={"reason": "spanning out-branchings exist and k = 0", "roots": roots},
        )
    field = make_binary_field(n)

    def run_root(root: int) -> tuple[int, bool]:
        engine = _InternalSieveEngine(g, root, k, field)
        done = 0
        size = 1
        while done < cfg.trials:
            b = min(size, cfg.trials - done)
            hits = engine.run_chunk(*_draw_internal_chunk(g, k, field, cfg.seed, root, done, b))
            if hits.any():
                return done + int(np.argmax(hits)) + 1, True
            done += b
            size = min(2 * size, INTERNAL_CHUNK)
        return done, False

    results = _scan_roots(roots, run_root, lambda res: res[1], cfg.threads)
    hit = any(found for _, found in results.values())
    floor = internal_sieve_success_floor(n, k)
    return DetectionReport(
        verdict=hit,
        trials_run=sum(done for done, _ in results.values()),
        trials_max=cfg.trials * len(roots),
        seed=cfg.seed,
        failure_bound=0.0 if hit else (1.0 - floor) ** cfg.trials,
        detail={
            "engine": "batched",
            "roots": list(results),
            "per_root": {str(r): {"trials": done, "hit": found} for r, (done, found) in results.items()},
        },
    )


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


def _scan_roots(roots: list[int], run_root, is_hit, threads: int) -> dict:
    """run_root's result for each root a sequential scan visits, in root order.

    The scan stops after the first root whose result is_hit. With threads > 1
    every root runs in parallel and the results past the first hit are
    dropped, so the outcome does not depend on the thread count.
    """
    if threads > 1 and len(roots) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ran = list(pool.map(run_root, roots))
    else:
        ran = []
        for root in roots:
            ran.append(run_root(root))
            if is_hit(ran[-1]):
                break
    visited = {}
    for root, res in zip(roots, ran):
        visited[root] = res
        if is_hit(res):
            break
    return visited


# ---------------------------------------------------------------------------
# few-distinct-variables detection for homogeneous polynomials


@runtime_checkable
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


def _batched_modpow(base: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(base)
    acc = base % p
    while e:
        if e & 1:
            out = out * acc % p
        acc = acc * acc % p
        e >>= 1
    return out


def batched_modp_det(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants of an int64 stack [B, d, d] mod prime p. Consumes mats.

    Entries must already lie in [0, p). Elimination is division-free: each
    row below pivot j becomes piv*row - a*row_j, which scales the determinant
    by piv once per row. Those scalings multiply to the product over j < d-1
    of the pivots 0..j, so one Fermat inverse per matrix at the end undoes
    them all. A matrix that runs out of pivots has a zero pivot product and
    determinant 0. The products are taken in int64, so p must be below
    MODP_WORD_LIMIT (2^31).
    """
    if p >= MODP_WORD_LIMIT:
        raise ValueError(f"prime {p} is past the 2^31 word-size limit of batched_modp_det")
    nmats, d, _ = mats.shape
    pivots = np.ones(nmats, dtype=np.int64)
    scale = np.ones(nmats, dtype=np.int64)
    flip = np.zeros(nmats, dtype=bool)
    for j in range(d):
        pidx = j + np.argmax(mats[:, j:, j] != 0, axis=1)
        flip ^= pidx != j
        moved = np.flatnonzero(pidx != j)
        src = pidx[moved]
        rowj = mats[moved, j, j:]
        mats[moved, j, j:] = mats[moved, src, j:]
        mats[moved, src, j:] = rowj
        pivots = pivots * mats[:, j, j] % p
        if j + 1 < d:
            scale = scale * pivots % p
            rest = mats[:, j + 1 :, j + 1 :]
            rest *= mats[:, j, j, None, None]
            rest -= mats[:, j + 1 :, j, None] * mats[:, j, None, j + 1 :]
            rest %= p
    det = pivots * _batched_modpow(scale, p - 2, p) % p
    return np.where(flip, (p - det) % p, det)


def inverse_vandermonde(xs: np.ndarray, p: int) -> np.ndarray:
    """V^-1 mod p for V[i, j] = xs[i]^j, built from the Lagrange basis.

    Column i holds the coefficients, low degree first, of L_i(X) =
    prod_{k != i} (X - x_k) / (x_i - x_k): one synthetic division of
    F = prod_k (X - x_k) by every (X - x_i) at once, then one Fermat inverse
    per denominator. The abscissae must be distinct mod p, and p below 2^31.
    """
    xs = np.asarray(xs, dtype=np.int64) % p
    npts = xs.shape[0]
    full = np.zeros(npts + 1, dtype=np.int64)  # F, low degree first
    full[0] = 1
    for x in xs.tolist():
        shifted = np.zeros_like(full)
        shifted[1:] = full[:-1]
        full = (shifted - x * full) % p
    quot = np.empty((npts, npts), dtype=np.int64)  # quot[j, i]: X^j in F / (X - x_i)
    carry = np.zeros(npts, dtype=np.int64)
    for j in range(npts, 0, -1):
        carry = (full[j] + carry * xs) % p
        quot[j - 1] = carry
    denom = np.zeros(npts, dtype=np.int64)  # (F / (X - x_i)) at x_i, by Horner
    for j in range(npts - 1, -1, -1):
        denom = (denom * xs + quot[j]) % p
    if not denom.all():
        raise ValueError("abscissae must be distinct mod p")
    return quot * _batched_modpow(denom, p - 2, p) % p


def interpolate_univariate(values: np.ndarray, vinv: np.ndarray, p: int) -> np.ndarray:
    """Coefficients, low degree first, of the polynomial through each row of values mod p.

    values is [T, N] with entries in [0, p), row t holding one polynomial's
    values at the N abscissae that vinv = inverse_vandermonde(xs, p) was
    built on; the result is [T, N], values @ vinv.T mod p. The product runs
    in int64 on the 16-bit limbs of vinv: every term is below 2^31 * 2^16 =
    2^47, so a row sum stays below 2^57 for N up to 1,025 points (n = 512)
    and the result is exact.
    """
    lo = vinv & 0xFFFF
    hi = vinv >> 16
    high = values @ hi.T % p
    return (high * 0x10000 + values @ lo.T) % p


class BranchingLeafPolynomial:
    """The branching polynomial of (g, root): one monomial per spanning
    out-branching, with each vertex's variable raised to its child count and
    the root's bumped by one. Homogeneous of degree n with coefficients that
    count branchings sharing a child-count profile, hence nonnegative. The
    number of distinct variables in a monomial is the branching's internal
    vertex count."""

    def __init__(self, g: Digraph, root: int):
        if not 0 <= root < g.n:
            raise ValueError("root out of range")
        self.g = g
        self.root = root
        self.n = g.n
        self._verts = [u for u in range(g.n) if u != root]
        self._pos = {u: i for i, u in enumerate(self._verts)}

    def evaluate_batch(self, ys: np.ndarray, p: int) -> np.ndarray:
        """P at each row of ys mod p, in batched_modp_det calls of at most LEAF_STACK_LIMIT bytes."""
        ys = ys % p
        nn = len(self._verts)
        step = max(1, LEAF_STACK_LIMIT // max(1, 8 * nn * nn))
        dets = np.empty(ys.shape[0], dtype=np.int64)
        for lo in range(0, ys.shape[0], step):
            dets[lo : lo + step] = batched_modp_det(self._laplacians(ys[lo : lo + step], p), p)
        return dets * ys[:, self.root] % p

    def _laplacians(self, ys: np.ndarray, p: int) -> np.ndarray:
        """Punctured Laplacians mod p, [B, n-1, n-1]: arc u->v weighs ys[:, u]."""
        nn = len(self._verts)
        mats = np.zeros((ys.shape[0], nn, nn), dtype=np.int64)
        for u, v in sorted(self.g.arcs):
            if v != self.root:
                iv = self._pos[v]
                mats[:, iv, iv] += ys[:, u]
                if u != self.root:
                    mats[:, self._pos[u], iv] = (p - ys[:, u]) % p
        np.mod(mats, p, out=mats)
        return mats


@dataclass(frozen=True)
class DvConfig:
    """Knobs for the few-distinct-variables solver; budget defaults to 4^k trials."""

    budget: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be positive")


def _draw_dv_chunk(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """Fair-coin routings of trials start..start+count-1, [count, n] bool (True: probe side)."""
    bits = np.empty((count, n), dtype=bool)
    for i in range(count):
        rng = make_rng("dv-assignment", seed, start + i)
        bits[i] = [rng.random() < 0.5 for _ in range(n)]
    return bits


def solve_nk_dv(P: PolynomialEvaluator, k: int, cfg: DvConfig | None = None) -> DetectionReport:
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
    (1 - 4^-k)^budget.

    Trials run in chunks of 1, 2, 4, ... up to LEAF_CHUNK (fewer when a
    chunk's assignments would pass LEAF_STACK_LIMIT bytes). Per chunk and
    prime, P is evaluated at tau = 0..2n for every trial in one batch, and
    one interpolate_univariate call turns those values into coefficients
    through an inverse Vandermonde built once per prime. The scan order is
    trial, then p1, then p2 (p2 runs only on the trials before p1's first
    hit in the chunk), so trials_run and the hit are those of a one-trial,
    one-prime-at-a-time scan.
    """
    cfg = cfg or DvConfig()
    n = P.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    budget = cfg.budget if cfg.budget is not None else 4**k
    prime_rng = make_rng("dv-primes", cfg.seed)
    p1 = random_prime_31(prime_rng)
    p2 = random_prime_31(prime_rng)
    while p2 == p1:
        p2 = random_prime_31(prime_rng)

    npts = 2 * n + 1
    taus = np.arange(npts, dtype=np.int64)
    vinvs = {p: inverse_vandermonde(taus, p) for p in (p1, p2)}
    chunk_cap = max(1, LEAF_STACK_LIMIT // (8 * npts * n))  # trials whose assignments fit
    hit_detail = None
    trials_run = 0
    size = 1
    while trials_run < budget and hit_detail is None:
        count = min(size, budget - trials_run, chunk_cap)
        bits = _draw_dv_chunk(cfg.seed, trials_run, count, n)
        ys = np.where(bits[:, None, :], taus[None, :, None], 1).reshape(count * npts, n)
        # coefficient j of P(routed) sits at index j + (count of False) of the image
        index = taus[None, :] + (n - bits.sum(axis=1))[:, None]
        outside = (index <= n - k) | (index >= n + k)
        first = count
        for p in (p1, p2):
            if first == 0:
                break
            values = P.evaluate_batch(ys[: first * npts], p).reshape(first, npts)
            found = (interpolate_univariate(values, vinvs[p], p) != 0) & outside[:first]
            rows = np.flatnonzero(found.any(axis=1))
            if rows.size:
                first = int(rows[0])
                hit_detail = {
                    "trial": trials_run + first,
                    "prime": p,
                    "coefficient_indices": index[first][found[first]].tolist(),
                }
        trials_run += count if hit_detail is None else first + 1
        size = min(2 * size, LEAF_CHUNK)

    return DetectionReport(
        verdict=hit_detail is not None,
        trials_run=trials_run,
        trials_max=budget,
        seed=cfg.seed,
        failure_bound=0.0 if hit_detail else (1.0 - 4.0**-k) ** budget,
        detail={
            "primes": [p1, p2],
            "skew": 0.5,
            "evaluations": trials_run * 2 * (2 * n + 1),
            **({"hit": hit_detail} if hit_detail else {}),
        },
    )


def detect_k_leaf(g: Digraph, k: int, cfg: DvConfig | None = None) -> DetectionReport:
    """One-sided test for a spanning out-branching with >= k leaves.

    Wraps each viable root's branching polynomial (n-distinct-variable count
    = internal count, so >= k leaves means <= n-k distinct variables) and
    asks solve_nk_dv, one root after another until the first YES. YES
    answers are certain; the NO bound is inherited from the per-root solver.
    Refuses a per-root budget above LEAF_BUDGET_LIMIT (GuardError) before
    the roots are scanned.
    """
    cfg = cfg or DvConfig()
    n = g.n
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    budget = cfg.budget if cfg.budget is not None else 4**k
    if budget > LEAF_BUDGET_LIMIT:
        raise GuardError(f"k-leaf trial budget {budget} is past the 4^6 = {LEAF_BUDGET_LIMIT} guard")
    roots = _spanning_roots(g)
    if not roots:
        return DetectionReport(
            verdict=False, trials_run=0, trials_max=0, seed=cfg.seed, failure_bound=0.0,
            detail={"reason": "no spanning out-branching from any root"},
        )

    def run_root(root: int) -> DetectionReport:
        sub = replace(cfg, seed=derive_seed("leaf-root", cfg.seed, root))
        return solve_nk_dv(BranchingLeafPolynomial(g, root), k, sub)

    results = _scan_roots(roots, run_root, lambda rep: rep.verdict, 1)
    hit = any(rep.verdict for rep in results.values())
    return DetectionReport(
        verdict=hit,
        trials_run=sum(rep.trials_run for rep in results.values()),
        trials_max=sum(rep.trials_max for rep in results.values()),
        seed=cfg.seed,
        failure_bound=0.0 if hit else max(rep.failure_bound for rep in results.values()),
        detail={
            "roots": list(results),
            "per_root": {
                str(r): {"verdict": rep.verdict, "trials": rep.trials_run}
                for r, rep in results.items()
            },
        },
    )
