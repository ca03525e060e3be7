"""Shared graph builders and a fresh-interpreter runner for the test suite."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hamkit.graph import Digraph, make_digraph

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    """Every test starts without HAMKIT_SEED, so a CLI run without --seed takes seed 0.

    monkeypatch edits os.environ, so run_fresh's interpreters start without it too.
    """
    monkeypatch.delenv("HAMKIT_SEED", raising=False)


def run_fresh(code: str, *args: str) -> str:
    """Run `code` in a new interpreter with src on PYTHONPATH; return its stdout.

    For checks on what a process imports, which the test process itself,
    having imported every module, cannot show.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def directed_cycle(n: int) -> Digraph:
    return make_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def directed_path(n: int) -> Digraph:
    return make_digraph(n, [(i, i + 1) for i in range(n - 1)])


def out_star(n: int) -> Digraph:
    return make_digraph(n, [(0, v) for v in range(1, n)])


def bidirected_star(n: int) -> Digraph:
    """Arcs 0 <-> v: every vertex is a spanning root, and every out-branching has at most 2 internal vertices."""
    return make_digraph(n, [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)])


def bidirected_path(n: int) -> Digraph:
    """Arcs i <-> i+1: every vertex is a spanning root, and every out-branching has at most 2 leaves."""
    return make_digraph(n, [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)])


def complete_digraph(n: int) -> Digraph:
    return make_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def acyclic_tournament(n: int) -> Digraph:
    return make_digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_digraph(rnd: random.Random, n: int, density: float) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rnd.random() < density
    ]
    return make_digraph(n, arcs)


def random_out_degree_graph(rnd: random.Random, n: int, d: int) -> Digraph:
    """Every vertex gets exactly d out-neighbors (or fewer when n-1 < d)."""
    arcs = []
    for u in range(n):
        others = [v for v in range(n) if v != u]
        for v in rnd.sample(others, min(d, len(others))):
            arcs.append((u, v))
    return make_digraph(n, arcs)


def rooted_hubs(rnd: random.Random, n: int, hubs: int, m: int) -> Digraph:
    """Up to m arcs, all leaving one of `hubs` hub vertices (0 among them), that span from 0.

    Vertex 0 has no in-arc and reaches every vertex, so it is the only
    spanning root, and every out-branching has at most `hubs` internal
    vertices: a k-internal NO for k > hubs. Only the hubs' Laplacian rows
    hold off-diagonal entries.
    """
    hub = [0, *rnd.sample(range(1, n), hubs - 1)]
    arcs = {(0, b) for b in hub[1:]}
    arcs.update((rnd.choice(hub), b) for b in range(1, n) if b not in hub)
    rest = [(a, b) for a in hub for b in range(1, n) if a != b and (a, b) not in arcs]
    arcs.update(rnd.sample(rest, max(0, min(len(rest), m - len(arcs)))))
    return make_digraph(n, sorted(arcs))


def rooted_path(rnd: random.Random, n: int, extra: int) -> Digraph:
    """A Hamiltonian path from 0 on a random vertex order plus `extra` arcs, none entering 0.

    Vertex 0 is the only spanning root; each Laplacian column holds one
    path arc plus the extra arcs into it.
    """
    order = [0, *rnd.sample(range(1, n), n - 1)]
    arcs = {(order[i], order[i + 1]) for i in range(n - 1)}
    rest = [(a, b) for a in range(n) for b in range(1, n) if a != b and (a, b) not in arcs]
    arcs.update(rnd.sample(rest, extra))
    return make_digraph(n, sorted(arcs))


def cycle_plus(rnd: random.Random, n: int, extra: int) -> Digraph:
    """A Hamiltonian cycle on a random vertex order plus `extra` random other arcs.

    Raises ValueError, before drawing anything, when n < 2 (no cycle without
    a self-loop) or when n + extra passes the n(n - 1) arcs a loop-free
    digraph holds.
    """
    if n < 2 or n + extra > n * (n - 1):
        raise ValueError(f"no {n}-vertex Hamiltonian digraph has {n + extra} arcs")
    order = list(range(n))
    rnd.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < n + extra:
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            arcs.add((u, v))
    return make_digraph(n, arcs)
