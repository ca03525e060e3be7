"""Small-instance brute-force reference implementations.

These are the ground truth the randomized algorithms are tested against.
Each operation refuses instances beyond its documented size guard rather
than silently taking hours.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import GuardError
from .graph import Digraph

HELD_KARP_LIMIT = 22
BRANCHING_LIMIT = 9
MIS_LIMIT = 16


def _hamiltonian_path_ends(g: Digraph, s: int) -> dict[int, int]:
    """Held-Karp bitmask DP: end vertex v -> number of Hamiltonian paths from s to v."""
    size = 1 << g.n
    table: list[dict[int, int] | None] = [None] * size
    table[1 << s] = {s: 1}
    out_adj = g.out_adj
    for mask in range(size):
        cur = table[mask]
        if cur is None:
            continue
        for v, cnt in cur.items():
            for w in out_adj[v]:
                bit = 1 << w
                if mask & bit:
                    continue
                d = table[mask | bit]
                if d is None:
                    d = table[mask | bit] = {}
                d[w] = d.get(w, 0) + cnt
    return table[size - 1] or {}


def held_karp_count_hp(g: Digraph, s: int, t: int) -> int:
    """Exact count of Hamiltonian s-to-t paths by bitmask dynamic programming."""
    if g.n > HELD_KARP_LIMIT:
        raise GuardError(f"held_karp_count_hp guard: n={g.n} > {HELD_KARP_LIMIT}")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"endpoints {s}, {t} must be vertices 0..{g.n - 1}")
    if s == t:
        raise ValueError("endpoints must differ")
    if g.n == 1:
        return 0
    return _hamiltonian_path_ends(g, s).get(t, 0)


def held_karp_count_hc(g: Digraph) -> int:
    """Exact count of directed Hamiltonian cycles (length-2 cycles count)."""
    if g.n > HELD_KARP_LIMIT:
        raise GuardError(f"held_karp_count_hc guard: n={g.n} > {HELD_KARP_LIMIT}")
    ends = _hamiltonian_path_ends(g, 0)
    return sum(cnt for v, cnt in ends.items() if g.has_arc(v, 0))


class Branching(namedtuple("Branching", "root parents")):
    """A spanning out-branching given by the parent of every non-root vertex.

    parents[v] is the in-neighbor feeding v, -1 at the root.
    """

    __slots__ = ()

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((p, v) for v, p in enumerate(self.parents) if p >= 0)

    @property
    def internal_count(self) -> int:
        return len({p for p in self.parents if p >= 0})

    @property
    def leaf_count(self) -> int:
        return len(self.parents) - self.internal_count


def iter_out_branchings(g: Digraph, root: int):
    """Yield every spanning out-branching rooted at `root`, without a size guard."""
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    order = [v for v in range(g.n) if v != root]
    parents = [-1] * g.n

    def rec(i: int):
        if i == len(order):
            yield Branching(root, tuple(parents))
            return
        v = order[i]
        for w in g.in_adj[v]:
            # walk the assigned ancestor chain of w looking for v
            x = w
            cyc = False
            while x != -1:
                if x == v:
                    cyc = True
                    break
                x = parents[x]
            if cyc:
                continue
            parents[v] = w
            yield from rec(i + 1)
            parents[v] = -1

    yield from rec(0)


def enumerate_out_branchings(g: Digraph, root: int) -> list[Branching]:
    if g.n > BRANCHING_LIMIT:
        raise GuardError(f"enumerate_out_branchings guard: n={g.n} > {BRANCHING_LIMIT}")
    return list(iter_out_branchings(g, root))


def brute_k_internal(g: Digraph, k: int) -> bool:
    """Does some spanning out-branching have at least k internal vertices?"""
    if g.n > BRANCHING_LIMIT:
        raise GuardError(f"brute_k_internal guard: n={g.n} > {BRANCHING_LIMIT}")
    if k < 0:
        raise ValueError("k must be non-negative")
    for root in range(g.n):
        for b in iter_out_branchings(g, root):
            if b.internal_count >= k:
                return True
    return False


def brute_k_leaf(g: Digraph, k: int) -> bool:
    """Does some spanning out-branching have at least k leaves?"""
    if g.n > BRANCHING_LIMIT:
        raise GuardError(f"brute_k_leaf guard: n={g.n} > {BRANCHING_LIMIT}")
    if k < 0:
        raise ValueError("k must be non-negative")
    for root in range(g.n):
        for b in iter_out_branchings(g, root):
            if b.leaf_count >= k:
                return True
    return False


def brute_mis(g: Digraph) -> frozenset[int]:
    """Maximum independent set of the underlying graph by full enumeration."""
    if g.n > MIS_LIMIT:
        raise GuardError(f"brute_mis guard: n={g.n} > {MIS_LIMIT}")
    nbr = g.undirected_neighbor_masks()
    best = 0
    best_size = -1
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best_size:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if nbr[v] & mask & ~(1 << v):
                ok = False
                break
        if ok:
            best, best_size = mask, size
    return frozenset(v for v in range(g.n) if best & (1 << v))
