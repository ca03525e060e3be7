"""Workload definitions, seeded corpus generation and oracle labels.

A workload is a list of cells. A cell fixes one CLI command with its flags,
one graph family, one vertex count and, for the decision commands, the
oracle answer its graphs must have. One round holds one fresh graph per
cell, so every round has the same mix of work; a run is a fixed number of
rounds. Fixing the answer class matters because a NO answer sweeps every
trial while a YES answer stops at the first witness.

Labels come from the repository's exhaustive oracles through the CLI
`oracle` subcommand (Held-Karp, branching enumeration, brute force). They
are computed here, before any timed region starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import graphs

Arcs = list[tuple[int, int]]


@dataclass(frozen=True)
class Cell:
    label: str  # the command as the report names it, e.g. "count-mod.mitm"
    family: str
    n: int
    argv: tuple[str, ...]  # CLI words; the graph path goes after the first
    make: Callable[[random.Random], Arcs]
    oracle: tuple[str, ...] | None = None  # oracle subcommand words
    want: str | None = None  # required oracle answer class, "yes" or "no"
    alpha: int | None = None  # required independence number
    margin_oracle: tuple[str, ...] | None = None  # must also answer yes

    @property
    def key(self) -> str:
        """Names the cell in reports: command, family, size, flags, class."""
        flags = " ".join(w for w in self.argv[1:] if w not in ("--mode", "--root"))
        flags = flags if self.argv[0] in ("detect-k-internal", "detect-k-leaf") else ""
        return " ".join(x for x in (self.label, self.family, f"n={self.n}", flags,
                                    self.want or "") if x)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    warmup: tuple[Cell, ...]
    round_s: float  # wall time of one round at the commit that set it


def _count_mod(mode: str, n: int) -> Cell:
    return Cell(f"count-mod.{mode}", "dense", n,
                ("count-mod", "--p", "3", "--k", "2", "--mode", mode),
                lambda r: graphs.dense(r, n), oracle=("hc-count",))


def _count_exact(n: int) -> Cell:
    return Cell("count-exact", "deg3", n, ("count-exact", "--d", "2"),
                lambda r: graphs.out_degree(r, n, 3), oracle=("hc-count",))


def _count_avg(n: int) -> Cell:
    return Cell("count-avg-degree", "deg3", n, ("count-avg-degree",),
                lambda r: graphs.out_degree(r, n, 3), oracle=("hc-count",))


def _detect_general(n: int, m: int, alpha: int, want: str) -> Cell:
    return Cell("detect-hc", "general", n, ("detect-hc",),
                lambda r: graphs.dense(r, n, m / (n * (n - 1))),
                oracle=("hc-count",), want=want, alpha=alpha)


def _detect_bipartite(n: int, m: int, want: str) -> Cell:
    return Cell("detect-hc", "bipartite", n, ("detect-hc",),
                lambda r: graphs.bipartite(r, n, m),
                oracle=("hc-count",), want=want, alpha=n // 2)


def _count_branchings(n: int) -> Cell:
    oracle = ("branchings", "--root", "0") if n <= 9 else None
    return Cell("count-branchings", "sparse", n, ("count-branchings", "--root", "0"),
                lambda r: graphs.cycle_plus(r, n, 2 * n), oracle=oracle)


def _k_internal(n: int, k: int, want: str) -> Cell:
    if want == "yes":
        make = lambda r: graphs.cycle_plus(r, n, n)  # noqa: E731
        family = "random"
    else:
        make = lambda r: graphs.rooted_hubs(r, n, k - 1, 2 * n)  # noqa: E731
        family = "hubs"
    return Cell("detect-k-internal", family, n, ("detect-k-internal", "--k", str(k)), make,
                oracle=("k-internal", "--k", str(k)), want=want)


def _k_leaf(n: int, k: int, want: str) -> Cell:
    if want == "yes":
        # Far more leaves than asked for, so a witness turns up within a few
        # trials; the trial count of a borderline YES is geometric and would
        # swamp the round-to-round spread.
        return Cell("detect-k-leaf", "random", n, ("detect-k-leaf", "--k", str(k)),
                    lambda r: graphs.cycle_plus(r, n, 3 * n),
                    oracle=("k-leaf", "--k", str(k)), want="yes",
                    margin_oracle=("k-leaf", "--k", str(k + 2)))
    return Cell("detect-k-leaf", "rooted", n, ("detect-k-leaf", "--k", str(k)),
                lambda r: graphs.rooted_path(r, n, extra=k),
                oracle=("k-leaf", "--k", str(k)), want="no")


# Each workload has 15 cells. With C cells per round, the p50 and p90 of op
# time sit at the middle of one cell's block of samples only when 0.5 C and
# 0.9 C both end in .5, which holds for C = 15; anywhere else a percentile can
# fall between two cells and jump from run to run.
WORKLOADS = {
    "hc-count": Workload(
        "hc-count",
        cells=(
            *(_count_mod("mitm", n) for n in (11, 12, 13, 14)),
            *(_count_mod("naive", n) for n in (11, 12, 13, 14)),
            *(_count_exact(n) for n in (7, 8, 9, 10)),
            *(_count_avg(n) for n in (6, 7, 8)),
        ),
        warmup=(_count_mod("mitm", 10), _count_mod("naive", 10), _count_exact(6), _count_avg(5)),
        round_s=4.4,
    ),
    "hc-detect": Workload(
        "hc-detect",
        # Seven YES ops cheaper than the cheapest NO op, so the p50 falls on
        # the general n=10 NO cell, whose 12 trials make its cost steady; a
        # YES needs a second trial 5 % of the time, which would make a YES
        # cell at the p50 wander.
        cells=(
            _detect_general(10, 25, 4, "yes"), _detect_general(10, 25, 4, "yes"),
            _detect_general(11, 28, 4, "yes"), _detect_general(12, 30, 5, "yes"),
            _detect_bipartite(12, 30, "yes"), _detect_bipartite(12, 30, "yes"),
            _detect_bipartite(14, 36, "yes"), _detect_bipartite(16, 44, "yes"),
            _detect_general(10, 25, 4, "no"), _detect_general(11, 28, 4, "no"),
            _detect_general(11, 28, 4, "no"), _detect_general(12, 30, 5, "no"),
            _detect_bipartite(14, 36, "no"), _detect_bipartite(14, 36, "no"),
            _detect_bipartite(16, 44, "no"),
        ),
        warmup=(_detect_general(10, 25, 4, "yes"), _detect_bipartite(12, 30, "yes")),
        round_s=2.8,
    ),
    "branching": Workload(
        "branching",
        cells=(
            *(_count_branchings(n) for n in (8, 50, 100)),
            _k_internal(7, 2, "yes"), _k_internal(8, 3, "yes"), _k_internal(9, 4, "yes"),
            _k_internal(9, 3, "no"), _k_internal(8, 3, "no"), _k_internal(7, 4, "no"),
            _k_leaf(8, 2, "yes"), _k_leaf(8, 3, "yes"), _k_leaf(8, 4, "yes"),
            _k_leaf(7, 3, "no"), _k_leaf(8, 3, "no"), _k_leaf(8, 4, "no"),
        ),
        # k-internal caches a product plan per k, so each k gets a warm-up op.
        warmup=(_count_branchings(20), *(_k_internal(6, k, "yes") for k in (2, 3, 4)),
                _k_leaf(7, 2, "yes")),
        round_s=3.1,
    ),
}

# Small sizes that still reach every command, answer class and counter check.
SMOKE = {
    "hc-count": Workload(
        "hc-count",
        cells=(_count_mod("mitm", 7), _count_mod("naive", 7), _count_exact(6), _count_avg(5)),
        warmup=(_count_mod("naive", 5),),
        round_s=1.0,
    ),
    "hc-detect": Workload(
        "hc-detect",
        cells=(_detect_general(7, 14, 3, "yes"), _detect_general(7, 14, 3, "no"),
               _detect_bipartite(8, 18, "yes"), _detect_bipartite(8, 16, "no")),
        warmup=(_detect_bipartite(6, 12, "yes"),),
        round_s=1.0,
    ),
    "branching": Workload(
        "branching",
        cells=(_count_branchings(6), _count_branchings(12), _k_internal(6, 2, "yes"),
               _k_internal(6, 2, "no"), _k_leaf(6, 2, "yes"), _k_leaf(6, 2, "no")),
        warmup=(_count_branchings(5),),
        round_s=1.0,
    ),
}


@dataclass
class Op:
    id: int
    cell: Cell
    argv: list[str]
    expected: object = None  # oracle answer, None where no oracle applies
    oracle_ms: float | None = None
    arcs: Arcs = field(default_factory=list, repr=False)
    # filled in from the runner's results
    ms: float = 0.0
    out: str = ""
    rep: dict | None = None
    traced: dict | None = None


def run_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    """Call the CLI in-process; return exit code, stdout and wall ms."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue(), (time.perf_counter() - t0) * 1000.0


def _oracle(cli, words: tuple[str, ...], path: str) -> tuple[object, float]:
    argv = ["oracle", words[0], path, *words[1:]]
    rc, out, ms = run_cli(cli, argv)
    if rc != 0:
        raise RuntimeError(f"oracle {' '.join(argv)} exited {rc}")
    return json.loads(out)["answer"], ms


def _accept(cell: Cell, cli, arcs: Arcs, path: str) -> tuple[object, float] | None:
    """Oracle answer and ms when the graph fits the cell, else None."""
    if cell.want == "no" and cell.label == "detect-hc" and not graphs.degrees_ok(cell.n, arcs):
        return None
    if cell.alpha is not None and graphs.independence_number(cell.n, arcs) != cell.alpha:
        return None
    if cell.oracle is None:
        return None, None
    answer, ms = _oracle(cli, cell.oracle, path)
    if cell.want is not None:
        got = ("yes" if answer > 0 else "no") if cell.label == "detect-hc" else answer
        if got != cell.want:
            return None
    if cell.margin_oracle is not None and _oracle(cli, cell.margin_oracle, path)[0] != "yes":
        return None
    return answer, ms


def _draw(cell: Cell, cli, rng: random.Random, path: str) -> tuple[Arcs, object, float]:
    for _ in range(10_000):
        arcs = cell.make(rng)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graphs.to_text(cell.n, arcs))
        got = _accept(cell, cli, arcs, path)
        if got is not None:
            return arcs, got[0], got[1]
    raise RuntimeError(f"no graph found for cell {cell.label} {cell.family} n={cell.n}")


def build(workload: Workload, seed: int, rounds: int, workdir: str, cli) -> tuple[list[Op], list[list[Op]]]:
    """Warm-up ops and `rounds` rounds of corpus ops, all on distinct graphs."""
    def make_ops(cells, stream: str, first_id: int) -> list[Op]:
        ops = []
        for i, cell in enumerate(cells):
            oid = first_id + i
            rng = random.Random(f"{workload.name}/{stream}/{seed}/{oid}")
            path = os.path.join(workdir, f"g{oid:05d}.txt")
            arcs, expected, oracle_ms = _draw(cell, cli, rng, path)
            op_seed = rng.getrandbits(31)
            argv = [cell.argv[0], path, *cell.argv[1:], "--seed", str(op_seed), "--threads", "1"]
            ops.append(Op(oid, cell, argv, expected, oracle_ms, arcs))
        return ops

    warmup = make_ops(workload.warmup, "warmup", 0)
    base = len(warmup)
    per = len(workload.cells)
    corpus = [make_ops(workload.cells, "corpus", base + r * per) for r in range(rounds)]
    return warmup, corpus
