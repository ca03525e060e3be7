"""Acceptance gate: one test per release criterion, run at full corpus size.

Each test draws its corpus from a fixed seed, checks the criterion's
equality or bound on every instance, and enforces the stated wall-clock
budget. One pytest pass/fail line per criterion is the contract; the
prints carry corpus statistics for the log.
"""

import itertools
import json
import random
import re
import statistics
import time
import warnings

import numpy as np
import pytest

from conftest import out_star, random_digraph
from hamkit import oracle
from hamkit.algebra import crt_combine, primes_up_to
from hamkit.branchings import detect_k_internal, detect_k_leaf, solve_nk_dv
from hamkit.cli import main as cli_main
from hamkit.gf2m import make_binary_field
from hamkit.graph import find_independent_partition, make_digraph, split_vertex
from hamkit.hamcount import count_exact, count_hc_mod, crt_count, naive_sieve_count
from hamkit.hamdetect import (
    FIELD_BITS,
    PortLayout,
    PortWeights,
    _BatchedSieve,
    detect_hamiltonian_cycle,
    sieve_membership_pairs,
)
from hamkit.matrixtree import count_out_branchings
from hamkit.modp import interpolate_univariate, inverse_vandermonde
from reference import (
    GroupAlgebra,
    MonomialListPolynomial,
    PrimeField,
    ScalarBinaryField,
    brute_min_distinct_vars,
    build_port_matrix,
)


def weakly_connected(n: int, arcs) -> bool:
    if n <= 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in arcs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(x) for x in range(n)}) == 1


def random_connected(rnd, n, lo=0.2, hi=0.6):
    while True:
        g = random_digraph(rnd, n, rnd.uniform(lo, hi))
        if weakly_connected(n, g.arcs):
            return g


def finish(num: int, label: str, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {num} ({label}): PASS, {detail}, {elapsed:.1f}s")


def test_criterion_1_branching_count_equivalence():
    # determinant count vs explicit enumeration, for every root of every
    # instance: exhaustive through n=4 (3,892 connected digraphs), seeded
    # samples fill the 5,000-instance budget at n=5 and 6, plus 200 at n=7
    t0 = time.perf_counter()
    rnd = random.Random(1001)
    corpus = []
    for n in (1, 2, 3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if weakly_connected(n, arcs):
                corpus.append(make_digraph(n, arcs))
    assert len(corpus) == 3892
    for n in (5, 6):
        for _ in range(554):
            corpus.append(random_connected(rnd, n))
    assert len(corpus) == 5000
    for _ in range(200):
        corpus.append(random_connected(rnd, 7, 0.2, 0.5))

    checked = 0
    for g in corpus:
        for r in range(g.n):
            want = len(oracle.enumerate_out_branchings(g, r))
            assert count_out_branchings(g, r) == want, (g.arcs, r)
            checked += 1
    finish(1, "branching count equivalence", t0, 60.0, f"{len(corpus)} graphs, {checked} root checks")


def sieve_corpus(max_n: int, seed: int):
    rnd = random.Random(seed)
    combos = list(itertools.product((2, 3, 5, 7), (1, 2, 3)))
    out = []
    for i in range(100):
        n = rnd.randint(2, max_n)
        g = random_digraph(rnd, n, rnd.uniform(0.2, 0.8))
        p, k = combos[i % len(combos)]
        out.append((g, p, k))
    return out


def test_criterion_2_path_sieve_identity():
    t0 = time.perf_counter()
    runs = 0
    for g, p, k in sieve_corpus(12, 1002):
        split = split_vertex(g, 0)
        want = oracle.held_karp_count_hp(split.graph, split.s, split.t)
        got = naive_sieve_count(split, p, k)
        assert got.value == want % p**k, (g.arcs, p, k)
        runs += 1
    finish(2, "path sieve identity", t0, 120.0, f"{runs} sieve runs")


def test_criterion_3_mitm_equals_naive():
    # same corpus recipe as criterion 2 with the size cap raised to 14; both
    # modes share the sieve core, so the naive residue is also pinned to
    # Held-Karp on the split graph, as in criterion 2
    t0 = time.perf_counter()
    runs = 0
    for g, p, k in sieve_corpus(14, 1002):
        split = split_vertex(g, 0)
        want = oracle.held_karp_count_hp(split.graph, split.s, split.t)
        a, _ = count_hc_mod(g, p, k, mode="naive")
        assert a.value == want % p**k, (g.arcs, p, k)
        b, _ = count_hc_mod(g, p, k, mode="mitm")
        assert (a.value, a.p, a.k) == (b.value, b.p, b.k), (g.arcs, p, k)
        runs += 1

    # soft diagnostic: listed pairs should stay below the naive subset count
    rnd = random.Random(1003)
    listed = []
    for _ in range(20):
        g = random_digraph(rnd, 16, 0.75)
        _, diag = count_hc_mod(g, 2, 2, mode="mitm")
        listed.append(diag.pairs_listed)
    med = statistics.median(listed)
    if med >= 2**15:
        warnings.warn(f"median listed-pair count {med} reached the naive 2^15 scale")
    finish(3, "mitm equals naive", t0, 300.0, f"{runs} paired runs, median pairs {med:.0f} vs {2**15}")


def test_criterion_4_crt_boosting():
    # density shrinks with n, so the average out-degree stays below about 4
    t0 = time.perf_counter()
    rnd = random.Random(1004)
    for i in range(50):
        n = rnd.randint(3, 12)
        g = random_digraph(rnd, n, rnd.uniform(0.15, min(0.45, 4.0 / n)))
        hk = oracle.held_karp_count_hc(g)
        value, modulus = crt_count(g, 5)
        assert value == hk % modulus, (g.arcs, i)
        assert count_exact(g) == hk, g.arcs
    finish(4, "crt boosting", t0, 120.0, "50 graphs, 50 crt + 50 exact runs")


def trimmed_layout(g):
    # detection rejects oversized independent sets before this point, so the
    # structural checks trim to the half-size cap to stay constructible
    part = find_independent_partition(g)
    yellow = sorted(part.yellow)[: g.n // 2]
    blue = sorted(set(range(g.n)) - set(yellow))
    return PortLayout(blue=tuple(blue), yellow=tuple(yellow))


def test_criterion_5_hamiltonicity_detection():
    # sizes where the guaranteed miss bound (n/q)^10 sits below 1e-10, so a
    # single false negative is a hard failure rather than bad luck
    t0 = time.perf_counter()
    rnd = random.Random(1005)
    sizes = (5, 6, 9, 10, 11, 12)
    yes = no = 0
    for i in range(200):
        n = sizes[i % len(sizes)]
        g = random_digraph(rnd, n, rnd.uniform(0.15, 0.7))
        truth = oracle.held_karp_count_hc(g) > 0
        rep = detect_hamiltonian_cycle(g, trials=10, seed=i)
        assert rep.failure_bound < 1e-10
        assert rep.verdict == truth, (g.arcs, i)
        yes += truth
        no += not truth
    assert yes >= 30 and no >= 30, (yes, no)

    # structural: out-of-gate membership pairs leave a zero row, exhaustively
    zero_row_pairs = 0
    for n in range(2, 9):
        g = random_digraph(rnd, n, 0.6)
        layout = trimmed_layout(g)
        field = make_binary_field(FIELD_BITS)
        w = PortWeights.draw(g, layout, field, n)
        blue_mask = sum(1 << v for v in layout.blue)
        anchor_bit = 1 << layout.anchor
        subsets = []
        for bits in range(1 << len(layout.blue)):
            subsets.append(sum(1 << v for j, v in enumerate(layout.blue) if bits >> j & 1))
        for imask in subsets:
            for omask in subsets:
                if (imask | omask) == blue_mask and (imask & anchor_bit):
                    continue
                m = build_port_matrix(g, layout, w, imask, omask)
                assert any(all(x == 0 for x in row) for row in m.entries)
                zero_row_pairs += 1

    # structural: skewless identity pair has column sums zero
    for _ in range(10):
        g = random_digraph(rnd, rnd.randint(2, 8), 0.5)
        layout = trimmed_layout(g)
        field = make_binary_field(FIELD_BITS)
        w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
        blue_mask = sum(1 << v for v in layout.blue)
        m = build_port_matrix(g, layout, w, blue_mask, blue_mask, skewed=False)
        for j in range(g.n):
            col = 0
            for i in range(g.n):
                col ^= m.entries[i][j]
            assert col == 0

    # structural: the pair sum is homogeneous of degree n in the weights
    scaled_checks = 0
    while scaled_checks < 5:
        g = random_digraph(rnd, rnd.randint(3, 7), 0.6)
        if oracle.held_karp_count_hc(g) == 0:
            continue
        layout = trimmed_layout(g)
        field = make_binary_field(FIELD_BITS)
        w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
        c = rnd.randrange(2, field.q)
        scaled = PortWeights(layout, field, field.nmul(np.int32(c), w.values))
        sieve = _BatchedSieve(g, layout)
        base = sieve_membership_pairs(sieve, w)
        got = sieve_membership_pairs(sieve, scaled)
        sf = ScalarBinaryField(field)
        assert got == sf.mul(sf.pow(c, g.n), base)
        scaled_checks += 1
    finish(5, "hamiltonicity detection", t0, 300.0,
           f"200 verdicts ({yes} yes/{no} no), {zero_row_pairs} zero-row pairs")


def test_criterion_6_internal_vertex_detection():
    t0 = time.perf_counter()
    rnd = random.Random(1006)
    for i in range(100):
        n = rnd.randint(2, 8)
        g = random_digraph(rnd, n, rnd.uniform(0.2, 0.7))
        k = min(1 + i % 4, n - 1)
        want = oracle.brute_k_internal(g, k)
        rep = detect_k_internal(g, k, trials=100, seed=i)
        assert rep.verdict == want, (g.arcs, k, i)

    # constructed NO-instances: a star's only branching has one internal
    # vertex, so k=2 must stay NO across 500 trials
    for n in range(4, 9):
        rep = detect_k_internal(out_star(n), 2, trials=500, seed=n)
        assert not rep.verdict
        assert rep.trials_run == 500
    finish(6, "internal vertex detection", t0, 600.0, "100 matched verdicts + 5 star NO-instances")


def test_criterion_7_distinct_variables_and_leaves():
    t0 = time.perf_counter()
    rnd = random.Random(1007)

    # explicit monomial lists vs the exhaustive minimum of distinct variables;
    # NO answers are immune to budget (one-sided error), YES budgets make the
    # miss chance under (1 - 2^(1-n))^6000 < 1e-9
    for i in range(100):
        n = rnd.randint(2, 9)
        monos = []
        for _ in range(rnd.randint(1, 5)):
            exps = [0] * n
            for _ in range(n):
                exps[rnd.randrange(n)] += 1
            monos.append((rnd.randint(1, 9), tuple(exps)))
        P = MonomialListPolynomial(n, monos)
        k = 1 + i % n
        want = brute_min_distinct_vars(monos) <= n - k
        rep = solve_nk_dv(P, k, budget=6000 if want else 60, seed=i)
        assert rep.verdict == want, (monos, k, i)

    leaf_runs = 0
    for i in range(100):
        n = rnd.randint(3, 8)
        g = random_digraph(rnd, n, rnd.uniform(0.25, 0.75))
        k = min(2 + i % 4, min(5, n))
        want = oracle.brute_k_leaf(g, k)
        rep = detect_k_leaf(g, k, budget=4**k, seed=i)
        assert rep.verdict == want, (g.arcs, k, i)
        leaf_runs += 1
    finish(7, "distinct variables and leaves", t0, 600.0,
           f"100 polynomial instances + {leaf_runs} leaf detections")


def test_criterion_8_algebra_substrate():
    t0 = time.perf_counter()

    # field axioms, vectorized: 10,000 random triples per law, in detect-hc's field
    field = make_binary_field(FIELD_BITS)
    rng = np.random.default_rng(1008)
    a = rng.integers(0, field.q, size=10_000, dtype=np.int32)
    b = rng.integers(0, field.q, size=10_000, dtype=np.int32)
    c = rng.integers(0, field.q, size=10_000, dtype=np.int32)
    assert np.array_equal(field.nmul(field.nmul(a, b), c), field.nmul(a, field.nmul(b, c)))
    assert np.array_equal(field.nmul(a, b), field.nmul(b, a))
    assert np.array_equal(field.nmul(a, b ^ c), field.nmul(a, b) ^ field.nmul(a, c))
    # the inverse as the kernels take it: exp[(q - 1) - log a]
    nz = np.where(a == 0, np.int32(1), a)
    assert np.all(field.nmul(nz, field.np_exp[field.q - 1 - field.np_log[nz]]) == 1)
    pf = PrimeField(10007)
    rnd = random.Random(1008)
    for _ in range(2000):
        x, y, z = (rnd.randrange(10007) for _ in range(3))
        assert pf.mul(pf.mul(x, y), z) == pf.mul(x, pf.mul(y, z))
        assert pf.mul(x, pf.add(y, z)) == pf.add(pf.mul(x, y), pf.mul(x, z))
    checked_field = 4 * 10_000 + 2 * 2000

    # nilpotency: squared marker factors vanish, 10,000 random cases
    algebras = {r: GroupAlgebra(make_binary_field(6), r) for r in (2, 3, 4)}
    nil_cases = 0
    for i in range(10_000):
        ga = algebras[2 + i % 3]
        gmask = rnd.randrange(1, ga.dim)
        cscale = rnd.randrange(1, ga.field.q)
        el = [0] * ga.dim
        el[0] = cscale
        el[gmask] = cscale
        el = tuple(el)
        assert ga.mul(el, el) == ga.zero
        nil_cases += 1

    # chinese remaindering: 10,000 random reconstructions
    primes = primes_up_to(200)
    for _ in range(10_000):
        p1, p2 = rnd.sample(primes, 2)
        k1, k2 = rnd.randint(1, 3), rnd.randint(1, 3)
        modulus = p1**k1 * p2**k2
        x = rnd.randrange(modulus)
        got = crt_combine([(x % p1**k1, p1, k1), (x % p2**k2, p2, k2)])
        assert got == (x, modulus)

    # interpolation: 10,000 random polynomials recovered from their values at
    # the points 1..N by the batched kernel, the k-leaf solver's points
    p = 1_000_003
    for i in range(10_000):
        deg = 1 + i % 6
        coeffs = tuple(rnd.randrange(p) for _ in range(deg + 1))
        ys = []
        for x in range(1, deg + 2):
            y = 0
            for cf in reversed(coeffs):
                y = (y * x + cf) % p
            ys.append(y)
        vinv = inverse_vandermonde(deg + 1, p)
        got = interpolate_univariate(np.array([ys], dtype=np.int64), vinv, p)
        assert tuple(got[0].tolist()) == coeffs
    finish(8, "algebra substrate", t0, 30.0,
           f"{checked_field} field checks, {nil_cases} nilpotency, 10000 crt, 10000 interpolation")


CLI_COMMANDS = [
    ["count-branchings", "{g}", "--root", "0"],
    ["count-mod", "{g}", "--p", "3", "--k", "2", "--mode", "naive"],
    ["count-mod", "{g}", "--p", "3", "--k", "2", "--mode", "mitm"],
    ["count-exact", "{g}", "--d", "11/10"],
    ["count-avg-degree", "{g}"],
    ["detect-hc", "{g}"],
    ["detect-k-internal", "{g}", "--k", "2", "--trials", "20"],
    ["detect-k-leaf", "{g}", "--k", "2"],
    ["oracle", "hc-count", "{g}"],
    ["oracle", "hp-count", "{g}", "--s", "0", "--t", "4"],
    ["oracle", "branchings", "{g}", "--root", "0"],
    ["oracle", "mis", "{g}"],
    ["oracle", "k-internal", "{g}", "--k", "3"],
    ["oracle", "k-leaf", "{g}", "--k", "1"],
]


def test_criterion_9_cli_reproducibility(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")

    def run(argv):
        code = cli_main(argv)
        out, _ = capsys.readouterr()
        assert code == 0
        return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": _', out)

    for template in CLI_COMMANDS:
        argv = [a.replace("{g}", str(path)) for a in template] + ["--seed", "17"]
        first = run(argv + ["--threads", "1"])
        second = run(argv + ["--threads", "1"])
        assert first == second, template
        threaded = run(argv + ["--threads", "4"])
        assert threaded == first, template
        json.loads(first.strip().replace('"elapsed_ms": _', '"elapsed_ms": 0'))
    finish(9, "cli reproducibility", t0, 120.0, f"{len(CLI_COMMANDS)} commands, 3 runs each")
