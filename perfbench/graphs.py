"""Seeded random digraph families used by the benchmark corpus.

Every generator takes a `random.Random` and returns a sorted arc list, so a
seed fixes the graph exactly. Arc counts are fixed per family and size
rather than drawn per arc, which keeps the cost of one op at one size steady
from seed to seed.
"""

from __future__ import annotations

import random


def dense(rng: random.Random, n: int, density: float = 0.5) -> list[tuple[int, int]]:
    """Uniform digraph with exactly round(density * n(n-1)) arcs."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return sorted(rng.sample(pairs, round(density * len(pairs))))


def out_degree(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """Every vertex gets exactly d distinct out-neighbours."""
    arcs = []
    for a in range(n):
        arcs.extend((a, b) for b in rng.sample([v for v in range(n) if v != a], d))
    return sorted(arcs)


def cycle_plus(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle on a random vertex order plus `extra` random arcs."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    rest = [(a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in arcs]
    arcs.update(rng.sample(rest, extra))
    return sorted(arcs)


def bipartite(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m arcs between the even and the odd vertices, in either direction."""
    pairs = [(a, b) for a in range(n) for b in range(n) if (a - b) % 2]
    return sorted(rng.sample(pairs, m))


def rooted_hubs(rng: random.Random, n: int, h: int, m: int) -> list[tuple[int, int]]:
    """Up to m arcs, all leaving one of h hubs, that span from source 0.

    Vertex 0 is a hub with no in-arcs and reaches every vertex, so 0 is the
    only root of a spanning out-branching, and every out-branching has at
    most h internal vertices.
    """
    hub = [0, *rng.sample(range(1, n), h - 1)]
    arcs = {(0, b) for b in hub[1:]}
    arcs.update((rng.choice(hub), b) for b in range(1, n) if b not in hub)
    rest = [(a, b) for a in hub for b in range(1, n) if a != b and (a, b) not in arcs]
    arcs.update(rng.sample(rest, max(0, min(len(rest), m - len(arcs)))))
    return sorted(arcs)


def rooted_path(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A Hamiltonian path from source 0 plus `extra` arcs, none entering 0.

    Vertex 0 is the only root of a spanning out-branching.
    """
    order = [0, *rng.sample(range(1, n), n - 1)]
    arcs = {(order[i], order[i + 1]) for i in range(n - 1)}
    rest = [(a, b) for a in range(n) for b in range(1, n) if a != b and (a, b) not in arcs]
    arcs.update(rng.sample(rest, extra))
    return sorted(arcs)


def degrees_ok(n: int, arcs) -> bool:
    """Every vertex has in- and out-degree at least 1."""
    outs, ins = set(), set()
    for a, b in arcs:
        outs.add(a)
        ins.add(b)
    return len(outs) == n and len(ins) == n


def independence_number(n: int, arcs) -> int:
    """Size of a maximum independent set of the underlying undirected graph."""
    nbr = [0] * n
    for a, b in arcs:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    best = 0

    def rec(rest: int, size: int) -> None:
        nonlocal best
        if size + rest.bit_count() <= best:
            return
        if not rest:
            best = size
            return
        v = (rest & -rest).bit_length() - 1
        rec(rest & ~(1 << v) & ~nbr[v], size + 1)
        if nbr[v] & rest:
            rec(rest & ~(1 << v), size)

    rec((1 << n) - 1, 0)
    return best


def to_text(n: int, arcs) -> str:
    """The repository's graph text format: header `n m`, one arc per line."""
    return f"{n} {len(arcs)}\n" + "".join(f"{a} {b}\n" for a, b in arcs)
