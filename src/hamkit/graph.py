"""Digraphs, parsing, the cycle-to-path vertex split, independent partitions.

Vertices are 0-based ids. Arcs are ordered pairs without self-loops and
without duplicates. The text format is a header line "n m" followed by m
lines "tail head"; lines that are blank or start with '#' are skipped.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .errors import GuardError, ParseError

# Largest vertex count parse_digraph accepts: the largest n any command
# answers (the branching count guard). Building the adjacency indexes comes
# before any command can check its own guard, and a vertex's masks are as
# wide as its largest neighbour id, so this caps each mask at 64 bytes and
# the in- and out-masks together at 64 KB.
VERTEX_LIMIT = 512


class Digraph:
    """Immutable digraph with adjacency indexes derived at construction.

    Equality and hash go by (n, arcs); the indexes follow from those two.
    """

    __slots__ = ("n", "arcs", "out_adj", "in_adj", "out_mask", "in_mask")

    def __init__(self, n: int, arcs: frozenset[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        outs: list[list[int]] = [[] for _ in range(n)]
        ins: list[list[int]] = [[] for _ in range(n)]
        omask = [0] * n
        imask = [0] * n
        for tail, head in arcs:
            if tail == head:
                raise ValueError(f"self-loop {tail}->{head} not allowed")
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc {tail}->{head} out of range for n={n}")
            outs[tail].append(head)
            ins[head].append(tail)
            omask[tail] |= 1 << head
            imask[head] |= 1 << tail
        init = object.__setattr__
        init(self, "n", n)
        init(self, "arcs", arcs)
        init(self, "out_adj", tuple(tuple(sorted(a)) for a in outs))
        init(self, "in_adj", tuple(tuple(sorted(a)) for a in ins))
        init(self, "out_mask", tuple(omask))
        init(self, "in_mask", tuple(imask))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Digraph, (self.n, self.arcs)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n!r}, arcs={self.arcs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    @property
    def m(self) -> int:
        return len(self.arcs)

    def has_arc(self, tail: int, head: int) -> bool:
        return (tail, head) in self.arcs

    def undirected_neighbor_masks(self) -> list[int]:
        """Neighbor bitmasks of the underlying undirected graph."""
        return [self.out_mask[v] | self.in_mask[v] for v in range(self.n)]


def make_digraph(n: int, arcs) -> Digraph:
    return Digraph(n, frozenset((int(a), int(b)) for a, b in arcs))


def parse_digraph(text: str) -> Digraph:
    """Parse the "n m" / "tail head" text format.

    Duplicate arcs are collapsed with a warning. Malformed lines raise
    ParseError naming the 1-based line number; a header past VERTEX_LIMIT
    vertices raises GuardError before anything is allocated.
    """
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: header must be 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: header must be two integers") from exc
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive")
            if n > VERTEX_LIMIT:
                raise GuardError(f"line {lineno}: vertex count guard: n={n} > {VERTEX_LIMIT}")
            if m < 0:
                raise ParseError(f"line {lineno}: arc count must be non-negative")
            header = (n, m)
            continue
        n, m = header
        if len(arcs) + duplicates >= m:
            raise ParseError(f"line {lineno}: more than {m} arc lines")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: arc line must be 'tail head'")
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: arc line must be two integers") from exc
        if tail == head:
            raise ParseError(f"line {lineno}: self-loop {tail}->{head}")
        if not (0 <= tail < n and 0 <= head < n):
            raise ParseError(f"line {lineno}: vertex id out of range [0, {n})")
        if (tail, head) in seen:
            duplicates += 1
            continue
        seen.add((tail, head))
        arcs.append((tail, head))
    if header is None:
        raise ParseError("empty input: missing 'n m' header")
    n, m = header
    if len(arcs) + duplicates != m:
        raise ParseError(f"expected {m} arc lines, found {len(arcs) + duplicates}")
    if duplicates:
        warnings.warn(f"{duplicates} duplicate arc(s) collapsed", stacklevel=2)
    return Digraph(n, frozenset(arcs))


class VertexSplit(namedtuple("VertexSplit", "graph s t")):
    """A digraph with one vertex pulled apart into a source and a sink.

    The source s is the split vertex itself and keeps its out-arcs, the new
    sink t receives its in-arcs. Hamiltonian s-to-t paths of the split graph
    are in bijection with Hamiltonian cycles of the original through s.
    """

    __slots__ = ()


def split_vertex(g: Digraph, u: int) -> VertexSplit:
    if not (0 <= u < g.n):
        raise ValueError(f"vertex {u} out of range")
    t = g.n
    arcs = [(a, t) if b == u else (a, b) for a, b in g.arcs]
    split = Digraph(g.n + 1, frozenset(arcs))
    assert not split.out_adj[t], "sink acquired out-arcs"
    assert not split.in_adj[u], "source kept in-arcs"
    return VertexSplit(graph=split, s=u, t=t)


class IndependentPartition(namedtuple("IndependentPartition", "blue yellow")):
    """Vertex bipartition: yellow is independent in the underlying graph."""

    __slots__ = ()


def mis_branch_and_bound(g: Digraph) -> int:
    """Maximum independent set of the underlying graph, as a bitmask."""
    nbr = g.undirected_neighbor_masks()
    best = 0
    best_size = -1

    def rec(remaining: int, chosen: int, size: int) -> None:
        nonlocal best, best_size
        if size + remaining.bit_count() <= best_size:
            return
        if not remaining:
            if size > best_size:
                best, best_size = chosen, size
            return
        # pick the remaining vertex with the most remaining neighbors
        pick = -1
        pick_deg = -1
        r = remaining
        while r:
            v = (r & -r).bit_length() - 1
            r &= r - 1
            deg = (nbr[v] & remaining).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
        if pick_deg == 0:
            # everything left is pairwise non-adjacent, take it all
            if size + remaining.bit_count() > best_size:
                best = chosen | remaining
                best_size = size + remaining.bit_count()
            return
        bit = 1 << pick
        rec(remaining & ~bit & ~nbr[pick], chosen | bit, size + 1)
        rec(remaining & ~bit, chosen, size)

    rec((1 << g.n) - 1, 0, 0)
    return best


def find_independent_partition(g: Digraph) -> IndependentPartition:
    """Split the vertex set into blue and a maximum independent yellow set."""
    mask = mis_branch_and_bound(g)
    yellow = frozenset(v for v in range(g.n) if mask & (1 << v))
    blue = frozenset(range(g.n)) - yellow
    nbr = g.undirected_neighbor_masks()
    for v in yellow:
        assert not (nbr[v] & mask & ~(1 << v)), "yellow set not independent"
    return IndependentPartition(blue=blue, yellow=yellow)
