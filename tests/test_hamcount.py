"""Hamiltonian-cycle counting: sieve, meet-in-the-middle, CRT, exact counts."""

import math
import random
import tracemalloc

import pytest

from conftest import (
    acyclic_tournament,
    complete_digraph,
    directed_cycle,
    out_star,
    random_digraph,
    random_out_degree_graph,
)
from hamkit.errors import GuardError
from hamkit.graph import make_digraph, split_vertex
from hamkit.hamcount import (
    count_exact,
    count_hc_mod,
    crt_count,
    mitm_count_mod,
    naive_sieve_count,
)
from hamkit.matrixtree import det_bareiss_int
from hamkit import oracle
from reference import ResidueRing, det_division_free, dfs_count_hc, restricted_laplacian, tail_weights

import hamkit.hamcount as hamcount_mod


class TestRestrictedLaplacian:
    def _setup(self, rnd, n):
        g = random_digraph(rnd, n, 0.5)
        split = split_vertex(g, rnd.randrange(n))
        p = rnd.choice([2, 3, 5])
        wt = tail_weights(split, p, rnd.randrange(1000))
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
        wt = tail_weights(split, 5, 3)
        full = (1 << (split.graph.n - 1)) - 1
        ring = ResidueRing(5, 1)
        m = restricted_laplacian(split, full, wt, ring)
        idx = {u: i for i, u in enumerate(m.row_labels)}
        for u, v in split.graph.arcs:
            if u != split.s and v != split.s and u != split.t:
                assert m.entries[idx[u]][idx[v]] == ring.neg(1)

    def test_matches_fast_subset_det(self):
        # the explicit zero-weight matrix and the factored integer path agree mod p^k
        rnd = random.Random(53)
        for _ in range(15):
            g, split, p, _ = self._setup(rnd, 6)
            k = rnd.choice([1, 2, 3])
            ring = ResidueRing(p, k)
            core = hamcount_mod._SieveCore(split, ring.modulus)
            for _ in range(8):
                omask = rnd.getrandbits(split.graph.n - 1)
                m = restricted_laplacian(split, omask, (0,) * split.graph.n, ring)
                assert det_division_free(m) == core.subset_det(omask) % ring.modulus

    def test_zero_weights_match_reference_every_subset(self):
        # zero weights leave t's row diagonal, so the core folds it into the dead-row product
        rnd = random.Random(55)
        ring = ResidueRing(7, 3)
        for _ in range(10):
            g, split, _, _ = self._setup(rnd, rnd.randint(2, 6))
            wt = (0,) * split.graph.n
            core = hamcount_mod._SieveCore(split, ring.modulus)
            assert core.positions[0] == split.t
            for omask in range(1 << (split.graph.n - 1)):
                m = restricted_laplacian(split, omask, wt, ring)
                t_row = m.entries[m.row_labels.index(split.t)]
                assert sum(1 for x in t_row if x) <= 1
                assert det_division_free(m) == core.subset_det(omask) % ring.modulus

    def test_one_row_minors_match_reference_every_subset(self, monkeypatch):
        # O = {s, u} leaves a one-row minor, which is built apart from the
        # row gather (itemgetter of one index gives a bare value)
        sizes = []

        def recording(rows):
            sizes.append(len(rows))
            return det_bareiss_int(rows)

        monkeypatch.setattr(hamcount_mod, "det_bareiss_int", recording)
        rnd = random.Random(56)
        ring = ResidueRing(2, 61)  # no dead-row product reaches 2^61 here, so every term is exact
        for _ in range(12):
            g, split, _, _ = self._setup(rnd, rnd.randint(3, 6))
            core = hamcount_mod._SieveCore(split, ring.modulus)
            for omask in range(1 << (split.graph.n - 1)):
                m = restricted_laplacian(split, omask, (0,) * split.graph.n, ring)
                assert core.subset_det(omask) % ring.modulus == det_division_free(m)
        assert sizes.count(1) >= 5 and max(sizes) >= 3

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
    def test_every_subset_matches_reference_mod_q(self, p, k):
        # terms skipped for a dead-row product divisible by q are still right
        # mod q, and the signed sum is the same mod q under random weights
        rnd = random.Random(100 * p + k)
        ring = ResidueRing(p, k)
        for _ in range(4):
            g, split, _, _ = self._setup(rnd, rnd.randint(3, 7))
            drawn = tail_weights(split, p, rnd.randrange(1000))
            core = hamcount_mod._SieveCore(split, ring.modulus)
            zero_sum = drawn_sum = 0
            for omask in range(1 << (split.graph.n - 1)):
                m = restricted_laplacian(split, omask, (0,) * split.graph.n, ring)
                assert core.subset_det(omask) % ring.modulus == det_division_free(m)
                zero_sum += core.signed_contribution(omask)
                sign = -1 if (split.graph.n - 1 - omask.bit_count()) & 1 else 1
                drawn_sum += sign * det_division_free(restricted_laplacian(split, omask, drawn, ring))
            assert zero_sum % ring.modulus == drawn_sum % ring.modulus

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
    def test_dead_product_divisible_by_q_skips_elimination(self, p, k, monkeypatch):
        # the dead-row product is read off the reference matrix: the diagonals
        # of the rows outside O, and t's diagonal when the weights are zero.
        # Under random weights t's row is full, and a dead-row product
        # divisible by q still makes the determinant 0 mod q
        def refuse(rows):
            raise AssertionError("eliminated a subset whose dead-row product is 0 mod q")

        monkeypatch.setattr(hamcount_mod, "det_bareiss_int", refuse)
        rnd = random.Random(200 * p + k)
        ring = ResidueRing(p, k)
        skipped = 0
        for _ in range(4):
            g, split, _, _ = self._setup(rnd, rnd.randint(3, 7))
            core = hamcount_mod._SieveCore(split, ring.modulus)
            for wt in (tail_weights(split, p, rnd.randrange(1000)), (0,) * split.graph.n):
                for omask in range(1 << (split.graph.n - 1)):
                    m = restricted_laplacian(split, omask, wt, ring)
                    dead = 1
                    for i, u in enumerate(m.row_labels):
                        if (u != split.t and not omask >> u & 1) or (u == split.t and not any(wt)):
                            dead = dead * m.entries[i][i] % ring.modulus
                    if dead == 0:
                        assert det_division_free(m) == 0
                        if not any(wt):
                            assert core.subset_det(omask) == 0
                            skipped += omask >> split.s & 1
        assert skipped > 0

    def test_zero_diagonal_on_surviving_row_skips_elimination(self, monkeypatch):
        # a surviving vertex (t included) with weight 0 and no in-arc from O
        # has an all-zero column, so its subset is 0, and the zero-weight core
        # returns that without any elimination
        def refuse(rows):
            raise AssertionError("eliminated a minor with a zero column")

        monkeypatch.setattr(hamcount_mod, "det_bareiss_int", refuse)
        rnd = random.Random(57)
        ring = ResidueRing(7, 3)
        skipped = 0
        for _ in range(10):
            g, split, _, random_wt = self._setup(rnd, rnd.randint(3, 7))
            core = hamcount_mod._SieveCore(split, ring.modulus)
            for wt in (random_wt, (0,) * split.graph.n):
                for omask in range(1 << (split.graph.n - 1)):
                    if not omask >> split.s & 1:
                        continue
                    m = restricted_laplacian(split, omask, wt, ring)
                    if any(m.entries[i][i] == 0 for i, u in enumerate(m.row_labels)
                           if u == split.t or omask >> u & 1):
                        assert det_division_free(m) == 0
                        if not any(wt):
                            assert core.subset_det(omask) == 0
                        skipped += 1
        assert skipped > 0

    def test_subsets_without_s_have_zero_determinant(self, monkeypatch):
        # every column of the surviving minor sums to [s in O and s->v] for
        # any weights, so no elimination runs for a subset without s
        def refuse(rows):
            raise AssertionError("eliminated a subset without s")

        monkeypatch.setattr(hamcount_mod, "det_bareiss_int", refuse)
        rnd = random.Random(56)
        for _ in range(10):
            g, split, p, random_wt = self._setup(rnd, rnd.randint(2, 7))
            ring = ResidueRing(p, 2)
            core = hamcount_mod._SieveCore(split, ring.modulus)
            for omask in range(1 << (split.graph.n - 1)):
                if omask >> split.s & 1:
                    continue
                assert core.subset_det(omask) == 0
                for wt in (random_wt, (0,) * split.graph.n):
                    assert det_division_free(restricted_laplacian(split, omask, wt, ring)) == 0


class TestNaiveSieve:
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
    def test_cycle(self, p, k):
        split = split_vertex(directed_cycle(6), 0)
        res = naive_sieve_count(split, p, k)
        assert res.value == 1 % res.modulus
        assert res.modulus == p**k

    def test_k4(self):
        split = split_vertex(complete_digraph(4), 2)
        res = naive_sieve_count(split, 5, 2)
        assert res.value == 6

    def test_matches_held_karp(self):
        rnd = random.Random(54)
        for _ in range(12):
            n = rnd.randint(2, 8)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            u = rnd.randrange(n)
            split = split_vertex(g, u)
            want = oracle.held_karp_count_hp(split.graph, split.s, split.t)
            # three (p, k) draws per graph, each case run once
            cases = {(rnd.choice([2, 3, 5, 7]), rnd.choice([1, 2, 3])) for _ in range(3)}
            for p, k in sorted(cases):
                res = naive_sieve_count(split, p, k)
                assert res.value == want % (p**k)

    def test_guard(self):
        g = directed_cycle(30)
        with pytest.raises(GuardError):
            naive_sieve_count(split_vertex(g, 0), 2, 1)
        with pytest.raises(GuardError):
            mitm_count_mod(split_vertex(g, 0), 2, 1)

    def test_guard_before_split(self, monkeypatch):
        # the counting guard depends only on n, one rule for both modes and
        # the exact counter, so it fires before the split graph is built
        def refuse(*args):
            raise AssertionError("split graph built before the counting guard")

        monkeypatch.setattr(hamcount_mod, "split_vertex", refuse)
        g = directed_cycle(hamcount_mod.COUNT_GUARD + 1)
        for p in (2, 3, 2**31 - 1):
            for mode in ("naive", "mitm"):
                with pytest.raises(GuardError, match="counting guard"):
                    count_hc_mod(g, p, 1, mode=mode)
        with pytest.raises(GuardError, match="counting guard"):
            count_exact(g)
        # at the guard itself every mode reaches the split graph
        g = directed_cycle(hamcount_mod.COUNT_GUARD)
        for call in (lambda: count_hc_mod(g, 5, 1, mode="mitm"), lambda: count_hc_mod(g, 5, 1, mode="naive"),
                     lambda: count_exact(g)):
            with pytest.raises(AssertionError, match="split graph built"):
                call()

    def test_mitm_fallback_decided_before_split(self, monkeypatch, recwarn):
        # mitm has no fallback left to decide: past the counting guard it is
        # refused before the split graph is built, with no fallback warning,
        # and a table size that once fell back (n = 6 at p = 2^31 - 1) lists
        def refuse(*args):
            raise AssertionError("split graph built before the counting guard")

        monkeypatch.setattr(hamcount_mod, "split_vertex", refuse)
        with pytest.raises(GuardError, match="counting guard"):
            count_hc_mod(directed_cycle(hamcount_mod.COUNT_GUARD + 1), 2, 1, mode="mitm")
        monkeypatch.undo()
        p = 2**31 - 1
        residue, diag = count_hc_mod(directed_cycle(6), p, 1, mode="mitm")
        assert not diag.fallback and diag.pairs_naive == 1 << 6
        assert residue == naive_sieve_count(split_vertex(directed_cycle(6), 0), p, 1)
        assert not recwarn.list

    def test_residue_guard(self):
        # count-mod refuses p^k >= 2^62 in both modes, before any work and
        # without forming p^k for a huge k; the exact counters go past it
        g = directed_cycle(5)
        for mode in ("naive", "mitm"):
            for k in (62, 70, 10**8, 10**10):
                with pytest.raises(GuardError, match="2\\^62"):
                    count_hc_mod(g, 2, k, mode=mode)
            with pytest.raises(GuardError, match="2\\^62"):
                count_hc_mod(make_digraph(1, []), 2, 70, mode=mode)
            assert count_hc_mod(g, 2, 61, mode=mode)[0].value == 1
        assert naive_sieve_count(split_vertex(g, 0), 2, 70).value == 1

    def test_exact_sum_any_weights(self):
        # the identity holds over the integers, whatever the virtual-arc
        # weights: the naive pass on zero ones and the reference determinants
        # under drawn ones both sum to the count
        rnd = random.Random(57)
        ring = ResidueRing(2, 61)
        for _ in range(12):
            n = rnd.randint(2, 8)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            split = split_vertex(g, rnd.randrange(n))
            want = oracle.held_karp_count_hp(split.graph, split.s, split.t)
            assert naive_sieve_count(split, 2, 64).value == want
            drawn = tail_weights(split, rnd.choice([2, 3, 101]), rnd.randrange(100))
            total = 0
            for omask in range(1 << n):
                det = det_division_free(restricted_laplacian(split, omask, drawn, ring))
                total += -det if (n - omask.bit_count()) & 1 else det
            # at most 7! < 2^61 paths on n <= 8 vertices, so the sum mod 2^61 is the count
            assert total % ring.modulus == want


def screened_masks(core, p, k):
    """The masks the blocked screen keeps, over every block of one pass."""
    kept = set()
    for base, bitmap in hamcount_mod._screen_blocks(core, hamcount_mod.build_lookup_tables(core, p, k), k):
        kept.update(base + o for o in range(1 << core.cut) if bitmap[o >> 3] >> (o & 7) & 1)
    return kept


def masks_reaching_a_determinant(core, monkeypatch):
    """The masks on which an unscreened subset_det calls det_bareiss_int."""
    reached = set()
    current = []
    det = det_bareiss_int

    def note_det(rows):
        reached.add(current[0])
        return det(rows)

    monkeypatch.setattr(hamcount_mod, "det_bareiss_int", note_det)
    for omask in range(1 << core.n0):
        current[:] = [omask]
        core.subset_det(omask)
    monkeypatch.setattr(hamcount_mod, "det_bareiss_int", det)
    return reached


class TestPassScreen:
    @staticmethod
    def _cases(n):
        return [(2, 1), (3, 2), (5, 1), (2, math.factorial(n - 1).bit_length()), (2, 61), (3, 38), (2, 70)]

    def test_keeps_exactly_the_masks_reaching_a_determinant(self, monkeypatch):
        # the screen is the set of masks on which an unscreened subset_det
        # calls det_bareiss_int: the zero-diagonal test, and the dead
        # positions' p-valuations summed against k, both with and without
        # the counter (k past every position's largest valuation); one
        # block at n <= SCREEN_BITS, and several at a block width of 3
        rnd = random.Random(63)
        kept = 0
        for i in range(24):
            n = rnd.randint(1, 10)
            g = random_digraph(rnd, n, rnd.uniform(0.2, 0.9))
            split = split_vertex(g, rnd.randrange(n))
            monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", 16 if i % 2 else 3)
            for p, k in self._cases(n):
                core = hamcount_mod._SieveCore(split, p**k)
                reached = masks_reaching_a_determinant(core, monkeypatch)
                assert screened_masks(core, p, k) == reached, (n, p, k)
                kept += len(reached)
        assert kept > 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_match_the_determinants_and_the_reference_count(self, p, k, monkeypatch):
        # blocks of 2^4 to 2^6 masks over n0 = 8 to 12 tail vertices: the
        # screen is still exactly the determinant set, and both modes and
        # the exact counter agree with a depth-first count of the cycles
        rnd = random.Random(70 + 10 * p + k)
        blocks = 0
        for bits, n in ((4, 8), (5, 10), (6, 12), (4, 11)):
            monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", bits)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.55))
            split = split_vertex(g, 0)
            core = hamcount_mod._SieveCore(split, p**k)
            assert core.cut == bits and core.n0 == n
            assert screened_masks(core, p, k) == masks_reaching_a_determinant(core, monkeypatch), (bits, n)
            blocks += 1 << (n - bits)
            want = dfs_count_hc(g)
            naive, none = count_hc_mod(g, p, k, mode="naive")
            mitm, diag = count_hc_mod(g, p, k, mode="mitm")
            assert naive.value == mitm.value == want % p**k and none is None, (bits, n)
            assert count_exact(g) == want
        assert blocks >= 4 * 16

    def test_visits_every_mask_and_keeps_the_residue(self, monkeypatch):
        # the screened pass still calls signed_contribution once per mask,
        # in mask order across its blocks (one block, or blocks of 2^3),
        # and sums to the residue of the pass that visits every mask in full
        visits = []
        contribution = hamcount_mod._SieveCore.signed_contribution

        def record(core, omask):
            visits.append(omask)
            return contribution(core, omask)

        monkeypatch.setattr(hamcount_mod._SieveCore, "signed_contribution", record)
        rnd = random.Random(64)
        for i in range(20):
            monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", 16 if i < 10 else 3)
            n = rnd.randint(1, 10)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.9))
            split = split_vertex(g, rnd.randrange(n))
            n0 = split.graph.n - 1
            for p, k in self._cases(n):
                visits.clear()
                residue = naive_sieve_count(split, p, k)
                assert visits == list(range(1 << n0))
                core = hamcount_mod._SieveCore(split, p**k)
                assert core.screen is None
                total = sum(contribution(core, omask) for omask in range(1 << n0))
                assert residue.value == total % p**k, (n, p, k)

    def test_memory_at_n0_20(self):
        # the screen holds its low tables and a few ints of 2^16 bits per
        # block, whatever n0: at n0 = 20 its build and every block allocate
        # at most 3.5 MiB (the whole-pass screen it replaced was bounded by
        # 4 MiB here and grew as 2^n0), for the bench's count-mod on a
        # density-0.5 graph and for count-exact's p = 2, k = 57 on the
        # complete graph, where every position's valuations count
        n = 20
        for g, p, k in ((random_digraph(random.Random(65), n, 0.5), 3, 2),
                        (complete_digraph(n), 2, math.factorial(n - 1).bit_length())):
            core = hamcount_mod._SieveCore(split_vertex(g, 0), p**k)
            kept = blocks = 0
            tracemalloc.start()
            try:
                for _, bitmap in hamcount_mod._screen_blocks(core, hamcount_mod.build_lookup_tables(core, p, k), k):
                    assert len(bitmap) == 1 << 13
                    kept += int.from_bytes(bitmap, "little").bit_count()
                    blocks += 1
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * 2**20, f"{peak / 2**20:.2f} MiB"
            assert blocks == 1 << 4
            assert 0 < kept < 1 << 19


class TestLookupTables:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_tables_count_in_arcs_exactly(self, p, monkeypatch):
        # per position, `nonzero` and `at[j]` name the low masks with an
        # in-arc and with exactly j in-arcs, `high` the in-neighbours among
        # the high tail vertices, and plan[c][i] the j at which bit i of
        # v_p(j + c) is set, for every count c a high mask can add
        monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", 4)
        rnd = random.Random(80 + p)
        for _ in range(6):
            n = rnd.randint(5, 9)
            split = split_vertex(random_digraph(rnd, n, rnd.uniform(0.3, 0.9)), rnd.randrange(n))
            core = hamcount_mod._SieveCore(split, p**20)
            tables = hamcount_mod.build_lookup_tables(core, p, 20)
            assert [u for u, *_ in tables] == list(core.positions)
            for u, high, nonzero, at, plan in tables:
                assert high == core.in_mask[u] >> core.cut
                for low in range(1 << core.cut):
                    count = (core.in_mask[u] & low).bit_count()
                    assert (nonzero >> low & 1) == (count > 0)
                    for j, at_j in at.items():
                        assert (at_j >> low & 1) == (count == j)
                assert len(plan) in (0, high.bit_count() + 1)
                for c, weights in enumerate(plan):
                    span = (core.in_mask[u] & core.low).bit_count()
                    for i, js in enumerate(weights):
                        want = [j for j in range(span + 1) if j + c and hamcount_mod._valuation(j + c, p) >> i & 1]
                        assert js == want
                        assert set(js) <= set(at)

    def test_only_the_zero_test_when_valuations_cannot_reach_k(self):
        # the shortcut: when the positions' largest valuations sum to less
        # than k, no position tabulates a count, and the screen keeps every
        # mask with s and an in-arc at every position
        g = complete_digraph(7)
        core = hamcount_mod._SieveCore(split_vertex(g, 0), 2**40)
        tables = hamcount_mod.build_lookup_tables(core, 2, 40)
        assert all(not at and not plan for _, _, _, at, plan in tables)
        want = {o for o in range(1 << core.n0)
                if o >> core.s & 1 and all(core.in_mask[u] & o for u in core.positions)}
        assert screened_masks(core, 2, 40) == want


class TestMitm:
    def test_cycle_p2k2(self):
        split = split_vertex(directed_cycle(6), 0)
        residue, _ = mitm_count_mod(split, 2, 2)
        assert residue.value == 1
        assert residue.modulus == 4

    def test_k5_p3(self):
        split = split_vertex(complete_digraph(5), 0)
        residue, _ = mitm_count_mod(split, 3, 1)
        assert residue.value == 24 % 3

    def test_matches_naive(self):
        rnd = random.Random(57)
        for _ in range(10):
            n = rnd.randint(3, 9)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            split = split_vertex(g, rnd.randrange(n))
            p = rnd.choice([2, 3, 5])
            k = rnd.choice([1, 2])
            rnd.randrange(10**6)  # unused; keeps the later graphs of this fixed corpus
            assert mitm_count_mod(split, p, k)[0] == naive_sieve_count(split, p, k)

    def test_listing_soundness(self, monkeypatch):
        # the visited masks are exactly the screen's survivors, the subsets
        # whose subset_det reaches a determinant, each evaluated once, in one
        # block or in blocks of 2^4; they cover every subset whose
        # determinant is nonzero mod p^k, and pairs_listed counts them
        evaluated = []
        contribution = hamcount_mod._SieveCore.signed_contribution

        def record(core, omask):
            evaluated.append(omask)
            return contribution(core, omask)

        monkeypatch.setattr(hamcount_mod._SieveCore, "signed_contribution", record)
        rnd = random.Random(59)
        for i in range(20):
            monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", 16 if i < 10 else 4)
            n = rnd.randint(4, 8)
            g = random_digraph(rnd, n, 0.5)
            split = split_vertex(g, rnd.randrange(n))
            p = rnd.choice([2, 3, 5])
            k = rnd.choice([1, 2])
            core = hamcount_mod._SieveCore(split, p**k)
            ring = ResidueRing(p, k)
            n0 = split.graph.n - 1
            nonzero = set()
            for omask in range(1 << n0):
                m = restricted_laplacian(split, omask, (0,) * split.graph.n, ring)
                if det_division_free(m) != 0:
                    nonzero.add(omask)
            want = masks_reaching_a_determinant(core, monkeypatch)
            evaluated.clear()
            _, diag = mitm_count_mod(split, p, k)
            assert len(evaluated) == len(set(evaluated)), "a subset was evaluated twice"
            assert set(evaluated) == want
            assert nonzero <= want, "a subset with a nonzero determinant was skipped"
            assert diag.pairs_listed == len(want)

    @pytest.mark.parametrize("s_half", ["first", "second"])
    def test_evaluates_exactly_the_naive_determinants(self, s_half, monkeypatch):
        # both modes read one screen, so they take the same determinants,
        # whether s is a tabulated low vertex ("first") or an enumerated
        # high one ("second"), in blocks of 2^4 masks
        current = []
        reached = []
        subset_det = hamcount_mod._SieveCore.subset_det
        det = hamcount_mod.det_bareiss_int

        def note_subset(core, omask):
            current[:] = [omask]
            return subset_det(core, omask)

        def note_det(rows):
            reached.append(current[0])
            return det(rows)

        monkeypatch.setattr(hamcount_mod._SieveCore, "subset_det", note_subset)
        monkeypatch.setattr(hamcount_mod, "det_bareiss_int", note_det)
        monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", 4)
        rnd = random.Random(61 if s_half == "first" else 62)
        evaluated = 0
        for _ in range(24):
            n = rnd.randint(5, 10)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            split = split_vertex(g, rnd.randrange(4) if s_half == "first" else rnd.randrange(4, n))
            p, k = rnd.choice([2, 3, 5, 7]), rnd.choice([1, 2, 3])
            reached.clear()
            naive = naive_sieve_count(split, p, k)
            by_naive = sorted(reached)
            reached.clear()
            residue, diag = mitm_count_mod(split, p, k)
            assert sorted(reached) == by_naive
            assert residue == naive and not diag.fallback
            evaluated += len(by_naive)
        assert evaluated > 0

    def test_split_vertex_in_second_half(self, monkeypatch):
        # s among the enumerated high vertices: the blocks without s keep
        # nothing, so at most half the subsets are visited
        monkeypatch.setattr(hamcount_mod, "SCREEN_BITS", 4)
        residues = []
        for seed in range(4):
            g = random_digraph(random.Random(seed), 8, 0.6)
            split = split_vertex(g, 6)
            assert split.s >= hamcount_mod._SieveCore(split, 2).cut
            for p in (2, 3):
                for k in (1, 2):
                    residue, diag = mitm_count_mod(split, p, k)
                    assert residue == naive_sieve_count(split, p, k)
                    assert diag.pairs_listed <= diag.pairs_naive // 2
                    residues.append(residue.value)
        assert any(residues), "every residue is 0, so a wrong side filter could pass"

    def test_no_fallback_at_any_prime(self, recwarn):
        # one listing at every prime, including those the block-table rule
        # once sent to the naive pass (from n = 6 at p = 1,000,003, at every
        # n at p = 2^31 - 1): no warning, `fallback` is False, and the
        # diagnostics are the survivors visited, the 2^n subsets screened
        # and the low-table entries
        rnd = random.Random(66)
        for p in (2, 3, 5, 101, 2_549, 1_000_003, 2**31 - 1):
            for _ in range(3):
                n = rnd.randint(4, 9)
                g = random_digraph(rnd, n, rnd.uniform(0.3, 0.9))
                residue, diag = count_hc_mod(g, p, 1, mode="mitm")
                assert residue == count_hc_mod(g, p, 1, mode="naive")[0]
                assert residue.value == oracle.held_karp_count_hc(g) % p
                core = hamcount_mod._SieveCore(split_vertex(g, 0), p)
                tables = hamcount_mod.build_lookup_tables(core, p, 1)
                assert diag == (len(screened_masks(core, p, 1)), 1 << n, 1 << n,
                                sum(1 + len(at) for _, _, _, at, _ in tables), False)
        assert not recwarn.list


class TestGraphLevel:
    @pytest.mark.parametrize("args, kwargs, message", [
        ((4,), {}, "p=4 is not prime"),
        ((1,), {}, "p=1 is not prime"),
        ((9, 70), {}, "p=9 is not prime"),  # before the residue guard
        ((2,), {"lam": 0.0}, "lambda"),
        ((2,), {"lam": 1.0}, "lambda"),
        ((2,), {"lam": -0.5}, "lambda"),
        ((2,), {"lam": float("nan")}, "lambda"),
        ((2, 3), {"lam": 1.5}, "lambda"),  # checked even when k is given
        ((2,), {"mode": "fast"}, "unknown mode"),
        ((2, 0), {}, "k must be at least 1"),
        ((2, -1), {"mode": "naive"}, "k must be at least 1"),
    ])
    def test_arguments_checked_first(self, args, kwargs, message, monkeypatch):
        # ValueError before any graph work: a 30-cycle would otherwise meet
        # the counting guard
        def refuse(*a):
            raise AssertionError("split graph built before the arguments were checked")

        monkeypatch.setattr(hamcount_mod, "split_vertex", refuse)
        monkeypatch.setattr(hamcount_mod, "_check_count_guard", refuse)
        for g in (directed_cycle(30), make_digraph(1, []), directed_cycle(4)):
            with pytest.raises(ValueError, match=message):
                count_hc_mod(g, *args, **kwargs)

    def test_crt_checks_lambda(self):
        for lam in (0.0, 1.5):
            with pytest.raises(ValueError, match="lambda"):
                crt_count(directed_cycle(5), 5, lam)
        with pytest.raises(ValueError, match="q must be at least 2"):
            crt_count(directed_cycle(5), 1)

    def test_count_hc_mod_cycle(self):
        res, diag = count_hc_mod(directed_cycle(7), 3, 2, mode="mitm")
        assert res.value == 1
        assert diag is not None

    def test_count_hc_mod_naive_no_diag(self):
        res, diag = count_hc_mod(directed_cycle(7), 3, 2, mode="naive")
        assert res.value == 1
        assert diag is None

    def test_crt_cycle(self):
        value, modulus = crt_count(directed_cycle(8), q=5)
        assert value == 1
        assert modulus > 1

    def test_crt_dag(self):
        value, _ = crt_count(acyclic_tournament(7), q=5)
        assert value == 0

    def test_crt_matches_held_karp(self):
        rnd = random.Random(60)
        for _ in range(8):
            g = random_digraph(rnd, rnd.randint(3, 9), rnd.uniform(0.3, 0.7))
            want = oracle.held_karp_count_hc(g)
            rnd.randrange(100)  # unused; keeps the later graphs of this fixed corpus
            value, modulus = crt_count(g, q=5)
            assert value == want % modulus

    def test_exact_cycle_low_cap(self):
        assert count_exact(directed_cycle(9)) == 1

    def test_exact_k4(self):
        assert count_exact(complete_digraph(4)) == 6

    def test_exact_matches_held_karp_sparse(self):
        rnd = random.Random(61)
        for _ in range(5):
            g = random_digraph(rnd, 9, 0.25)
            assert count_exact(g) == oracle.held_karp_count_hc(g)
        rnd = random.Random(63)
        for _ in range(4):
            g = random_digraph(rnd, rnd.randint(4, 7), 0.4)
            assert count_exact(g) == oracle.held_karp_count_hc(g)
        assert count_exact(directed_cycle(6)) == 1

    def test_invalid_certificate(self):
        # K8 carries the most cycles 8 vertices can, 7! = 5040; the pass
        # modulus 2^bitlen(7!) = 8192 must exceed that, or the residue wraps
        assert count_exact(complete_digraph(8)) == 5040

    def test_exact_edge_cases(self):
        assert count_exact(make_digraph(1, [])) == 0

    def test_avg_degree_cycle(self):
        assert count_exact(directed_cycle(10)) == 1

    def test_avg_degree_star(self):
        assert count_exact(out_star(6)) == 0

    def test_avg_degree_out_degree_2(self):
        rnd = random.Random(62)
        for _ in range(4):
            g = random_out_degree_graph(rnd, 9, 2)
            assert count_exact(g) == oracle.held_karp_count_hc(g)
