"""Hamiltonian-cycle counting: sieve, meet-in-the-middle, CRT, exact counts."""

import math
import random
import tracemalloc
import warnings
from collections import Counter

import pytest

from conftest import (
    acyclic_tournament,
    complete_digraph,
    directed_cycle,
    out_star,
    random_digraph,
    random_out_degree_graph,
)
from hamkit.algebra import is_prime
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
from reference import ResidueRing, det_division_free, mitm_block_rule_falls_back, restricted_laplacian, tail_weights

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
        g = directed_cycle(27)
        with pytest.raises(GuardError):
            naive_sieve_count(split_vertex(g, 0), 2, 1)

    def test_guard_before_split(self, monkeypatch):
        # the subset guard depends only on n, so it fires before the split graph is built
        def refuse(*args):
            raise AssertionError("split graph built before the subset guard")

        monkeypatch.setattr(hamcount_mod, "split_vertex", refuse)
        g = directed_cycle(27)
        with pytest.raises(GuardError, match="naive sieve guard"):
            count_hc_mod(g, 2, mode="naive")
        with pytest.raises(GuardError, match="naive sieve guard"):
            count_exact(g)

    def test_mitm_fallback_decided_before_split(self, monkeypatch):
        # whether the MITM tables fit depends only on n and p, so a mitm call
        # past MITM_TABLE_GUARD falls back, and meets the subset guard, before
        # the split graph is built
        def refuse(*args):
            raise AssertionError("split graph built before the MITM fallback decision")

        monkeypatch.setattr(hamcount_mod, "split_vertex", refuse)
        with pytest.warns(UserWarning, match="falling back"):
            with pytest.raises(GuardError, match="naive sieve guard"):
                count_hc_mod(directed_cycle(27), 2, 1, mode="mitm")
        monkeypatch.undo()
        monkeypatch.setattr(hamcount_mod, "MITM_TABLE_GUARD", 1)
        with pytest.warns(UserWarning, match="falling back"):
            residue, diag = count_hc_mod(directed_cycle(6), 3, 1, mode="mitm")
        assert diag.fallback and diag.pairs_listed == diag.pairs_naive == 1 << 6
        assert residue == naive_sieve_count(split_vertex(directed_cycle(6), 0), 3, 1)

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


class TestPassScreen:
    @staticmethod
    def _cases(n):
        return [(2, 1), (3, 2), (5, 1), (2, math.factorial(n - 1).bit_length()), (2, 61), (3, 38), (2, 70)]

    def test_keeps_exactly_the_masks_reaching_a_determinant(self, monkeypatch):
        # the screen is the set of masks on which an unscreened subset_det
        # calls det_bareiss_int: the zero-diagonal test, and the dead
        # positions' p-valuations summed against k, both with and without
        # the counter (k past every position's largest valuation)
        current = []
        reached = set()
        det = hamcount_mod.det_bareiss_int

        def note_det(rows):
            reached.add(current[0])
            return det(rows)

        monkeypatch.setattr(hamcount_mod, "det_bareiss_int", note_det)
        rnd = random.Random(63)
        kept = 0
        for _ in range(24):
            n = rnd.randint(1, 10)
            g = random_digraph(rnd, n, rnd.uniform(0.2, 0.9))
            split = split_vertex(g, rnd.randrange(n))
            n0 = split.graph.n - 1
            for p, k in self._cases(n):
                core = hamcount_mod._SieveCore(split, p**k)
                reached.clear()
                for omask in range(1 << n0):
                    current[:] = [omask]
                    core.subset_det(omask)
                screen = hamcount_mod.pass_screen(core, p, k)
                assert len(screen) == ((1 << n0) + 7) // 8
                assert {o for o in range(1 << n0) if screen[o >> 3] >> (o & 7) & 1} == reached, (n, p, k)
                kept += len(reached)
        assert kept > 0

    def test_visits_every_mask_and_keeps_the_residue(self, monkeypatch):
        # the screened pass still calls signed_contribution once per mask,
        # and sums to the residue of the pass that visits every mask in full
        visits = []
        contribution = hamcount_mod._SieveCore.signed_contribution

        def record(core, omask):
            visits.append(omask)
            return contribution(core, omask)

        monkeypatch.setattr(hamcount_mod._SieveCore, "signed_contribution", record)
        rnd = random.Random(64)
        for _ in range(10):
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
        # 2^20 masks, 1/16 of the n0 = 24 guard: 4 MiB is the 64 MiB bound at
        # n0 = 24 scaled down, and the build allocates at most that, for the
        # bench's count-mod on a density-0.5 graph and for count-exact's
        # p = 2, k = 57 on the complete graph, where every position weighs in
        n = 20
        for g, p, k in ((random_digraph(random.Random(65), n, 0.5), 3, 2),
                        (complete_digraph(n), 2, math.factorial(n - 1).bit_length())):
            core = hamcount_mod._SieveCore(split_vertex(g, 0), p**k)
            tracemalloc.start()
            try:
                screen = hamcount_mod.pass_screen(core, p, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20, f"{peak / 2**20:.1f} MiB"
            assert len(screen) == 1 << 17
            assert 0 < int.from_bytes(screen, "little").bit_count() < 1 << 19


def first_half_mask(split) -> int:
    """Mask of the first half of V_t, the ids below ceil(|V| / 3), as mitm_count_mod cuts it."""
    return (1 << math.ceil(split.graph.n / 3)) - 1


class TestFingerprints:
    def test_z1_empty_is_zero(self):
        # zero virtual-arc weights: O1 = {} leaves every diagonal at 0
        split = split_vertex(directed_cycle(5), 0)
        z = hamcount_mod._SieveCore(split, 5).fingerprint(0, 5, True)
        assert z == (0,) * (split.graph.n - 1)

    def test_z2_empty_is_zero(self):
        split = split_vertex(directed_cycle(5), 0)
        core = hamcount_mod._SieveCore(split, 3)
        assert core.fingerprint(0, 3, False) == (0,) * (split.graph.n - 1)

    def test_subset_positions_marked(self):
        split = split_vertex(directed_cycle(6), 1)
        core = hamcount_mod._SieveCore(split, 3)
        o1 = 1  # vertex 0, the first vertex of the first half
        z = core.fingerprint(o1, 3, True)
        for pos, u in enumerate(core.positions):
            assert (z[pos] == 3) == bool(o1 >> u & 1)  # the out-of-range marker

    def test_t_entry_is_signed_in_count(self):
        # t is never in O: its entry is in_t(O1) mod p in the first half and
        # -in_t(O2) mod p in the second, so the two agree exactly when t's
        # diagonal in_t(O1 | O2) is divisible by p
        rnd = random.Random(58)
        agreed = 0
        for _ in range(40):
            g = random_digraph(rnd, 7, 0.6)
            split = split_vertex(g, rnd.randrange(7))
            p = rnd.choice([2, 3, 5])
            core = hamcount_mod._SieveCore(split, p)
            first_mask = first_half_mask(split)
            o1 = rnd.getrandbits(split.graph.n - 1) & first_mask
            o2 = rnd.getrandbits(split.graph.n - 1) & ~first_mask
            in_t = [(split.graph.in_mask[split.t] & o).bit_count() for o in (o1, o2)]
            z1 = core.fingerprint(o1, p, True)[0]
            z2 = core.fingerprint(o2, p, False)[0]
            assert (z1, z2) == (in_t[0] % p, -in_t[1] % p)
            assert (z1 == z2) == (sum(in_t) % p == 0)
            agreed += z1 == z2
        assert 0 < agreed < 40

    def test_agreement_marks_divisible_row(self):
        rnd = random.Random(56)
        for _ in range(20):
            g = random_digraph(rnd, 7, 0.5)
            split = split_vertex(g, rnd.randrange(7))
            p = rnd.choice([2, 3, 5])
            core = hamcount_mod._SieveCore(split, p)
            first_mask = first_half_mask(split)
            o1 = rnd.getrandbits(split.graph.n - 1) & first_mask
            o2 = rnd.getrandbits(split.graph.n - 1) & ~first_mask
            z1 = core.fingerprint(o1, p, True)
            z2 = core.fingerprint(o2, p, False)
            ring = ResidueRing(p, 1)
            m = restricted_laplacian(split, o1 | o2, (0,) * split.graph.n, ring)
            idx = {u: i for i, u in enumerate(m.row_labels)}
            for pos, u in enumerate(core.positions):
                if z1[pos] == z2[pos]:
                    row = m.entries[idx[u]]
                    assert all(x % p == 0 for x in row)


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
        # the listed pairs are exactly the subsets with s whose half-fingerprints
        # (t and V_st) agree in fewer than k positions, each evaluated once, and
        # they cover every subset whose determinant is nonzero mod p^k
        evaluated = []
        contribution = hamcount_mod._SieveCore.signed_contribution

        def record(core, omask):
            evaluated.append(omask)
            return contribution(core, omask)

        monkeypatch.setattr(hamcount_mod._SieveCore, "signed_contribution", record)
        rnd = random.Random(59)
        for _ in range(10):
            n = rnd.randint(4, 8)
            g = random_digraph(rnd, n, 0.5)
            split = split_vertex(g, rnd.randrange(n))
            p = rnd.choice([2, 3, 5])
            k = rnd.choice([1, 2])
            core = hamcount_mod._SieveCore(split, p**k)
            first_mask = first_half_mask(split)
            ring = ResidueRing(p, k)
            n0 = split.graph.n - 1
            want = set()
            nonzero = set()
            for omask in range(1 << n0):
                z1 = core.fingerprint(omask & first_mask, p, True)
                z2 = core.fingerprint(omask & ~first_mask, p, False)
                agree = sum(1 for a, b in zip(z1, z2) if a == b)
                if omask >> split.s & 1 and agree < k:
                    want.add(omask)
                m = restricted_laplacian(split, omask, (0,) * split.graph.n, ring)
                if det_division_free(m) != 0:
                    nonzero.add(omask)
            evaluated.clear()
            _, diag = mitm_count_mod(split, p, k)
            assert len(evaluated) == len(set(evaluated)), "a pair was evaluated twice"
            assert set(evaluated) == want
            assert nonzero <= want, "a subset with a nonzero determinant was skipped"
            assert diag.pairs_listed == len(want)

    @pytest.mark.parametrize("s_half", ["first", "second"])
    def test_evaluates_exactly_the_naive_determinants(self, s_half, monkeypatch):
        # every pair the listing drops has p^k in its dead-row product, so the
        # naive pass drops that subset too: both modes take the same determinants
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
        rnd = random.Random(61 if s_half == "first" else 62)
        evaluated = 0
        for _ in range(24):
            n = rnd.randint(4, 10)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            cut = math.ceil((n + 1) / 3)
            split = split_vertex(g, rnd.randrange(cut) if s_half == "first" else rnd.randrange(cut, n))
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

    def test_split_vertex_in_second_half(self):
        # s past the first third: the first half is tabulated whole and only
        # second-half subsets with s are scanned
        residues = []
        for seed in range(4):
            g = random_digraph(random.Random(seed), 8, 0.6)
            split = split_vertex(g, 6)
            assert split.s >= math.ceil(split.graph.n / 3)
            for p in (2, 3):
                for k in (1, 2):
                    residue, diag = mitm_count_mod(split, p, k)
                    assert residue == naive_sieve_count(split, p, k)
                    assert diag.pairs_listed <= diag.pairs_naive // 2
                    residues.append(residue.value)
        assert any(residues), "every residue is 0, so a wrong side filter could pass"

    def test_fallback_matches_block_rule(self):
        # the closed form decides as the old per-block tables did, on both
        # sides of MITM_TABLE_GUARD, for a grid of primes and tail sizes
        primes = [p for p in range(2, 1000) if is_prime(p)] + [2_549, 2**31 - 1]
        decisions = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for p in primes:
                for n0 in range(1, 65):
                    want = mitm_block_rule_falls_back(n0, p, hamcount_mod.MITM_TABLE_GUARD)
                    diag = hamcount_mod._mitm_fallback(n0, p)
                    assert (diag is not None) == want, (n0, p)
                    assert diag is None or (diag.fallback and diag.pairs_naive == 1 << n0)
                    decisions[want] += 1
        assert decisions[True] >= 100 and decisions[False] >= 100, decisions


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
        # ValueError before any graph work: a 27-cycle would otherwise fall
        # back from mitm and meet the naive subset guard
        def refuse(*a):
            raise AssertionError("split graph built before the arguments were checked")

        monkeypatch.setattr(hamcount_mod, "split_vertex", refuse)
        monkeypatch.setattr(hamcount_mod, "_mitm_fallback", refuse)
        for g in (directed_cycle(27), make_digraph(1, []), directed_cycle(4)):
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
