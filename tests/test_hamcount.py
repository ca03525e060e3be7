"""Modular Hamiltonian-cycle counting: sieve, meet-in-the-middle, CRT caps."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    acyclic_tournament,
    complete_digraph,
    directed_cycle,
    out_star,
    random_digraph,
    random_out_degree_graph,
)
from hamkit.errors import CapExceededError, GuardError
from hamkit.graph import make_digraph, split_vertex
from hamkit.hamcount import (
    RandomTailWeights,
    SieveHalves,
    SieveParams,
    block_partition,
    build_lookup_tables,
    count_avg_degree,
    count_exact_capped,
    count_hc_mod,
    crt_count,
    default_k,
    mitm_count_mod,
    naive_sieve_count,
    z_vector,
)
from hamkit import oracle
from hamkit.algebra import primes_up_to
from reference import ResidueRing, det_division_free, restricted_laplacian

import hamkit.hamcount as hamcount_mod


class TestRestrictedLaplacian:
    def _setup(self, rnd, n):
        g = random_digraph(rnd, n, 0.5)
        split = split_vertex(g, rnd.randrange(n))
        p = rnd.choice([2, 3, 5])
        wt = RandomTailWeights.draw(split, p, rnd.randrange(1000))
        return g, split, p, wt

    def test_empty_subset_rows_are_diagonal(self):
        rnd = random.Random(51)
        for _ in range(10):
            g, split, p, wt = self._setup(rnd, 6)
            ring = ResidueRing(p, 2)
            m = restricted_laplacian(split, 0, wt, ring)
            for i, u in enumerate(m.row_labels):
                if u == split.t:
                    continue
                for j in range(len(m.col_labels)):
                    if i != j:
                        assert m.entries[i][j] == 0

    def test_rows_outside_subset_are_diagonal(self):
        rnd = random.Random(52)
        for _ in range(10):
            g, split, p, wt = self._setup(rnd, 7)
            omask = rnd.getrandbits(split.graph.n - 1)
            ring = ResidueRing(p, 1)
            m = restricted_laplacian(split, omask, wt, ring)
            for i, u in enumerate(m.row_labels):
                if u == split.t or (omask >> u & 1):
                    continue
                for j in range(len(m.col_labels)):
                    if i != j:
                        assert m.entries[i][j] == 0

    def test_full_subset_keeps_all_arcs(self):
        g = directed_cycle(4)
        split = split_vertex(g, 0)
        wt = RandomTailWeights.draw(split, 5, 3)
        full = (1 << (split.graph.n - 1)) - 1
        ring = ResidueRing(5, 1)
        m = restricted_laplacian(split, full, wt, ring)
        idx = {u: i for i, u in enumerate(m.row_labels)}
        for u, v in split.graph.arcs:
            if u != split.s and v != split.s and u != split.t:
                assert m.entries[idx[u]][idx[v]] == ring.neg(1)

    def test_matches_fast_subset_det(self):
        # the explicit matrix and the factored integer path agree mod p^k
        rnd = random.Random(53)
        for _ in range(15):
            g, split, p, wt = self._setup(rnd, 6)
            k = rnd.choice([1, 2, 3])
            ring = ResidueRing(p, k)
            core = hamcount_mod._SieveCore(split, wt.values)
            for _ in range(8):
                omask = rnd.getrandbits(split.graph.n - 1)
                m = restricted_laplacian(split, omask, wt, ring)
                assert det_division_free(m) == core.subset_det(omask) % ring.modulus


class TestNaiveSieve:
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
    def test_cycle(self, p, k):
        split = split_vertex(directed_cycle(6), 0)
        res = naive_sieve_count(split, SieveParams(p=p, k=k, seed=9))
        assert res.value == 1 % res.modulus
        assert res.modulus == p**k

    def test_k4(self):
        split = split_vertex(complete_digraph(4), 2)
        res = naive_sieve_count(split, SieveParams(p=5, k=2, seed=1))
        assert res.value == 6

    def test_matches_held_karp_any_seed(self):
        rnd = random.Random(54)
        for _ in range(12):
            n = rnd.randint(2, 8)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            u = rnd.randrange(n)
            split = split_vertex(g, u)
            want = oracle.held_karp_count_hp(split.graph, split.s, split.t)
            for seed in (0, 1, 2):
                p = rnd.choice([2, 3, 5, 7])
                k = rnd.choice([1, 2, 3])
                res = naive_sieve_count(split, SieveParams(p=p, k=k, seed=seed))
                assert res.value == want % (p**k)

    def test_guard(self):
        g = directed_cycle(27)
        with pytest.raises(GuardError):
            naive_sieve_count(split_vertex(g, 0), SieveParams(p=2))

    def test_residue_guard(self):
        # count-mod refuses p^k >= 2^62 in both modes, before any work and
        # without forming p^k for a huge k; the exact counters go past it
        g = directed_cycle(5)
        for mode in ("naive", "mitm"):
            for k in (62, 70, 10**8, 10**10):
                with pytest.raises(GuardError, match="2\\^62"):
                    count_hc_mod(g, SieveParams(p=2, k=k, mode=mode))
            with pytest.raises(GuardError, match="2\\^62"):
                count_hc_mod(make_digraph(1, []), SieveParams(p=2, k=70, mode=mode))
            assert count_hc_mod(g, SieveParams(p=2, k=61, mode=mode))[0].value == 1
        assert naive_sieve_count(split_vertex(g, 0), SieveParams(p=2, k=70)).value == 1

    def test_exact_sum_any_weights(self):
        # the identity holds over the integers, whatever the virtual-arc weights
        rnd = random.Random(57)
        for _ in range(12):
            n = rnd.randint(2, 8)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            split = split_vertex(g, rnd.randrange(n))
            want = oracle.held_karp_count_hp(split.graph, split.s, split.t)
            assert naive_sieve_count(split, SieveParams(p=2, k=64)).value == want
            drawn = RandomTailWeights.draw(split, rnd.choice([2, 3, 101]), rnd.randrange(100))
            core = hamcount_mod._SieveCore(split, drawn.values)
            assert sum(map(core.signed_contribution, range(1 << (split.graph.n - 1)))) == want


class TestFingerprints:
    def test_z1_empty_is_tail_weights(self):
        split = split_vertex(directed_cycle(5), 0)
        wt = RandomTailWeights.draw(split, 5, 7)
        halves = SieveHalves.for_split(split)
        z = z_vector(split, 0, "first", wt, halves)
        vst = [u for u in range(split.graph.n - 1) if u != split.s]
        assert z.entries == tuple(wt.values[u] % 5 for u in vst)

    def test_z2_empty_is_zero(self):
        split = split_vertex(directed_cycle(5), 0)
        wt = RandomTailWeights.draw(split, 3, 7)
        halves = SieveHalves.for_split(split)
        z = z_vector(split, 0, "second", wt, halves)
        assert z.entries == (0,) * len(z.entries)

    def test_subset_positions_marked(self):
        split = split_vertex(directed_cycle(6), 1)
        wt = RandomTailWeights.draw(split, 3, 2)
        halves = SieveHalves.for_split(split)
        o1 = 1 << halves.first[0]
        z = z_vector(split, o1, "first", wt, halves)
        vst = [u for u in range(split.graph.n - 1) if u != split.s]
        for pos, u in enumerate(vst):
            if o1 >> u & 1:
                assert z.entries[pos] == 3  # the out-of-range marker

    def test_leak_rejected(self):
        split = split_vertex(directed_cycle(6), 0)
        wt = RandomTailWeights.draw(split, 3, 2)
        halves = SieveHalves.for_split(split)
        with pytest.raises(ValueError):
            z_vector(split, halves.second_mask, "first", wt, halves)

    def test_agreement_marks_divisible_row(self):
        rnd = random.Random(56)
        for _ in range(20):
            g = random_digraph(rnd, 7, 0.5)
            split = split_vertex(g, rnd.randrange(7))
            p = rnd.choice([2, 3, 5])
            wt = RandomTailWeights.draw(split, p, rnd.randrange(100))
            halves = SieveHalves.for_split(split)
            o1 = rnd.getrandbits(split.graph.n - 1) & halves.first_mask
            o2 = rnd.getrandbits(split.graph.n - 1) & halves.second_mask
            z1 = z_vector(split, o1, "first", wt, halves).entries
            z2 = z_vector(split, o2, "second", wt, halves).entries
            ring = ResidueRing(p, 1)
            m = restricted_laplacian(split, o1 | o2, wt, ring)
            vst = [u for u in range(split.graph.n - 1) if u != split.s]
            idx = {u: i for i, u in enumerate(m.row_labels)}
            for pos, u in enumerate(vst):
                if z1[pos] == z2[pos]:
                    row = m.entries[idx[u]]
                    assert all(x % p == 0 for x in row)

    def test_block_partition_shape(self):
        for p in (2, 3, 5, 7, 11):
            for positions in range(0, 15):
                blocks = block_partition(positions, p)
                import math

                assert len(blocks) == max(1, math.floor(3 * math.log2(p)))
                flat = [i for b in blocks for i in b]
                assert flat == list(range(positions))
                sizes = [len(b) for b in blocks]
                assert max(sizes) - min(sizes) <= 1


class TestMitm:
    def test_cycle_p2k2(self):
        split = split_vertex(directed_cycle(6), 0)
        res = mitm_count_mod(split, SieveParams(p=2, k=2, seed=0))
        assert res.residue.value == 1
        assert res.residue.modulus == 4

    def test_k5_p3(self):
        split = split_vertex(complete_digraph(5), 0)
        res = mitm_count_mod(split, SieveParams(p=3, k=1, seed=0))
        assert res.residue.value == 24 % 3

    def test_matches_naive_same_seed(self):
        rnd = random.Random(57)
        for _ in range(10):
            n = rnd.randint(3, 9)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            split = split_vertex(g, rnd.randrange(n))
            p = rnd.choice([2, 3, 5])
            k = rnd.choice([1, 2])
            seed = rnd.randrange(10**6)
            params = SieveParams(p=p, k=k, seed=seed)
            assert (
                mitm_count_mod(split, params).residue
                == naive_sieve_count(split, params)
            )

    def test_listing_soundness(self):
        # every subset with a nonvanishing determinant appears in some bucket
        # and survives the full agreement re-check
        rnd = random.Random(59)
        for _ in range(6):
            n = rnd.randint(4, 8)
            g = random_digraph(rnd, n, 0.5)
            split = split_vertex(g, rnd.randrange(n))
            p = rnd.choice([2, 3])
            k = rnd.choice([1, 2])
            wt = RandomTailWeights.draw(split, p, rnd.randrange(100))
            halves = SieveHalves.for_split(split)
            tables = build_lookup_tables(split, wt, k, halves)
            ring = ResidueRing(p, k)
            n0 = split.graph.n - 1
            for omask in range(1 << n0):
                det = det_division_free(restricted_laplacian(split, omask, wt, ring))
                if det == 0:
                    continue
                o1 = omask & halves.first_mask
                o2 = omask & halves.second_mask
                z1 = tables.z1_by_mask[o1]
                z2 = z_vector(split, o2, "second", wt, halves).entries
                agree = sum(1 for a, b in zip(z1, z2) if a == b)
                assert agree <= k, "nonzero determinant but too many agreements"
                hit = False
                for bi, block in enumerate(tables.blocks):
                    key = tuple(z2[pos] for pos in block)
                    if o1 in tables.tables[bi].get(key, ()):
                        hit = True
                        break
                assert hit, "surviving subset missed by every block table"

    def test_fallback_when_tables_too_large(self, monkeypatch):
        monkeypatch.setattr(hamcount_mod, "MITM_TABLE_GUARD", 1)
        split = split_vertex(directed_cycle(6), 0)
        params = SieveParams(p=3, k=1, seed=2)
        with pytest.warns(UserWarning, match="falling back"):
            res = mitm_count_mod(split, params)
        assert res.diagnostics.fallback
        assert res.residue == naive_sieve_count(split, params)


class TestGraphLevel:
    def test_count_hc_mod_cycle(self):
        res, diag = count_hc_mod(directed_cycle(7), SieveParams(p=3, k=2, mode="mitm"))
        assert res.value == 1
        assert diag is not None

    def test_count_hc_mod_naive_no_diag(self):
        res, diag = count_hc_mod(directed_cycle(7), SieveParams(p=3, k=2, mode="naive"))
        assert res.value == 1
        assert diag is None

    def test_crt_cycle(self):
        value, modulus = crt_count(directed_cycle(8), q=5, seed=0)
        assert value == 1
        assert modulus > 1

    def test_crt_dag(self):
        value, _ = crt_count(acyclic_tournament(7), q=5, seed=0)
        assert value == 0

    def test_crt_matches_held_karp(self):
        rnd = random.Random(60)
        for _ in range(8):
            g = random_digraph(rnd, rnd.randint(3, 9), rnd.uniform(0.3, 0.7))
            want = oracle.held_karp_count_hc(g)
            value, modulus = crt_count(g, q=5, seed=rnd.randrange(100))
            assert value == want % modulus

    def test_exact_cycle_low_cap(self):
        assert count_exact_capped(directed_cycle(9), Fraction(11, 10), seed=0) == 1

    def test_exact_k4(self):
        assert count_exact_capped(complete_digraph(4), 2, seed=0) == 6

    def test_exact_matches_held_karp_sparse(self):
        rnd = random.Random(61)
        for _ in range(5):
            g = random_digraph(rnd, 9, 0.25)
            want = oracle.held_karp_count_hc(g)
            if want >= 2**9:
                continue
            assert count_exact_capped(g, 2, seed=3) == want

    def test_exact_mitm_matches_held_karp(self):
        rnd = random.Random(63)
        for _ in range(4):
            g = random_digraph(rnd, rnd.randint(4, 7), 0.4)
            want = oracle.held_karp_count_hc(g)
            assert count_exact_capped(g, 3, seed=rnd.randrange(100), mode="mitm") == want
        assert count_exact_capped(directed_cycle(6), 2, mode="mitm") == 1

    def test_invalid_certificate(self):
        # K8 has 7! = 5040 cycles, far past (11/10)^8; the primes up to
        # q = 11 give M = 2310, so only the integer pass recovers the count
        g = complete_digraph(8)
        assert count_exact_capped(g, Fraction(11, 10), seed=0) == 5040
        assert count_exact_capped(g, Fraction(11, 10), seed=0, mode="mitm") == 5040 % 2310

    def test_exact_edge_cases(self):
        single = make_digraph(1, [])
        assert count_exact_capped(single, 2, mode="naive") == 0
        assert count_exact_capped(single, 2, mode="mitm") == 0
        with pytest.raises(ValueError, match="unknown mode"):
            count_exact_capped(directed_cycle(4), 2, mode="fast")
        for lam in (1.5, float("inf"), float("nan")):
            for mode in ("naive", "mitm"):
                with pytest.raises(ValueError, match="lambda"):
                    count_exact_capped(directed_cycle(4), 2, lam=lam, mode=mode)

    def test_cap_exceeded(self):
        # with lam near 1 every exponent clamps to 1, so the modulus is the
        # primorial of q = 22 and (13/10)^62 overtakes it; the check fires
        # before any counting happens
        with pytest.raises(CapExceededError):
            count_exact_capped(directed_cycle(62), Fraction(13, 10), lam=0.999, seed=0)

    def test_cap_check_matches_full_product(self):
        # the Chebyshev shortcut and the early stop give the verdict of the
        # full product over every prime up to q, on both sides of the cap
        verdicts = set()
        for n in (2, 5, 9, 30, 62, 200, 1000, 5000):
            for d in (Fraction(11, 10), Fraction(13, 10), Fraction(3, 2), Fraction(2), Fraction(5)):
                for lam in (0.01, 0.5, 0.999):
                    q = hamcount_mod._prime_cutoff(d)
                    full = math.prod(p ** default_k(n, p, lam) for p in primes_up_to(q))
                    try:
                        hamcount_mod._check_cap(n, d, q, lam)
                        passed = True
                    except CapExceededError as exc:
                        passed = False
                        assert str(full) in str(exc)
                    assert passed == (full > d**n), (n, d, lam)
                    verdicts.add(passed)
        assert verdicts == {True, False}

    def test_avg_degree_cycle(self):
        assert count_avg_degree(directed_cycle(10), seed=0) == 1

    def test_avg_degree_star(self):
        assert count_avg_degree(out_star(6), seed=0) == 0

    def test_avg_degree_out_degree_2(self):
        rnd = random.Random(62)
        for _ in range(4):
            g = random_out_degree_graph(rnd, 9, 2)
            assert count_avg_degree(g, seed=1) == oracle.held_karp_count_hc(g)
