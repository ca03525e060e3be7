"""Port-matrix Hamiltonicity detection."""

import random

import numpy as np
import pytest

from conftest import (
    acyclic_tournament,
    complete_digraph,
    directed_cycle,
    out_star,
    random_digraph,
)
from hamkit import hamdetect
from hamkit.algebra import make_binary_field
from hamkit.graph import find_independent_partition, make_digraph
from hamkit.hamdetect import (
    PortLayout,
    PortWeights,
    batched_gf_det,
    default_trial_count,
    detect_hamiltonian_cycle,
    failure_bound,
    sieve_membership_pairs,
    subset_xor_table,
)
from hamkit import oracle
from reference import (
    ScalarBinaryField,
    build_port_matrix,
    det_gauss,
    fold_port_matrix,
    iter_membership_pairs,
    scalar_pair_sum,
    square,
)


def make_layout(g):
    """Layout from the MIS partition, trimmed to the half-size cap.

    Detection short-circuits to NO before building a layout when the
    independent set covers more than half the graph; the matrix machinery
    itself only needs yellow to be independent, so trimming keeps these
    structural tests running on sparse graphs too.
    """
    part = find_independent_partition(g)
    yellow = sorted(part.yellow)[: g.n // 2]
    blue = sorted(set(range(g.n)) - set(yellow))
    return PortLayout(blue=tuple(blue), yellow=tuple(yellow))


class TestLayout:
    def test_shapes(self):
        g = directed_cycle(6)
        layout = make_layout(g)
        assert layout.n == 6
        assert layout.pool_count == 6 - 2 * len(layout.yellow)
        assert len(layout.ports) == 6
        assert layout.anchor == min(layout.blue)

    def test_pair_enumeration_count(self):
        g = directed_cycle(6)
        layout = make_layout(g)
        pairs = list(iter_membership_pairs(layout))
        assert len(pairs) == 2 * 3 ** (len(layout.blue) - 1)
        assert len(set(pairs)) == len(pairs)
        anchor_bit = 1 << layout.anchor
        blue_mask = sum(1 << v for v in layout.blue)
        for imask, omask in pairs:
            assert imask & anchor_bit
            assert imask | omask == blue_mask

    def test_oversized_yellow_rejected(self):
        with pytest.raises(ValueError):
            PortLayout(blue=(0,), yellow=(1, 2))


class TestPortMatrix:
    def test_zero_row_outside_gate(self):
        # any pair with I union O != blue, or anchor not in I, leaves some
        # row identically zero, so its determinant contributes nothing
        rnd = random.Random(71)
        for _ in range(12):
            g = random_digraph(rnd, rnd.randint(2, 6), 0.6)
            layout = make_layout(g)
            field = make_binary_field(g.n)
            w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
            blue_mask = sum(1 << v for v in layout.blue)
            anchor_bit = 1 << layout.anchor
            nb = len(layout.blue)
            for imask_bits in range(1 << nb):
                for omask_bits in range(1 << nb):
                    imask = sum(
                        1 << v for i, v in enumerate(layout.blue) if imask_bits >> i & 1
                    )
                    omask = sum(
                        1 << v for i, v in enumerate(layout.blue) if omask_bits >> i & 1
                    )
                    if (imask | omask) == blue_mask and (imask & anchor_bit):
                        continue
                    m = build_port_matrix(g, layout, w, imask, omask)
                    assert any(
                        all(x == 0 for x in row) for row in m.entries
                    ), "expected a zero row for an out-of-gate pair"

    def test_skewless_identity_pair_columns_sum_zero(self):
        rnd = random.Random(72)
        for _ in range(15):
            g = random_digraph(rnd, rnd.randint(2, 8), 0.5)
            layout = make_layout(g)
            field = make_binary_field(g.n)
            w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
            blue_mask = sum(1 << v for v in layout.blue)
            m = build_port_matrix(g, layout, w, blue_mask, blue_mask, skewed=False)
            for j in range(g.n):
                col = 0
                for i in range(g.n):
                    col ^= m.entries[i][j]
                assert col == 0


class TestSieve:
    def test_batched_matches_scalar(self):
        # per-trial pair sums of the batched engine against one det_gauss per pair
        rnd = random.Random(73)
        for _ in range(20):
            g = random_digraph(rnd, rnd.randint(2, 8), rnd.uniform(0.2, 0.8))
            layout = make_layout(g)
            field = make_binary_field(g.n)
            w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
            assert sieve_membership_pairs(g, layout, w) == scalar_pair_sum(g, layout, w)

    def test_threads_do_not_change_sum(self, monkeypatch):
        g = random_digraph(random.Random(74), 9, 0.5)
        layout = make_layout(g)
        field = make_binary_field(g.n)
        w = PortWeights.draw(g, layout, field, 5)
        whole, _ = sieve_membership_pairs(g, layout, w)
        monkeypatch.setattr(hamdetect, "STATE_CHUNK", 7)
        t1, _ = sieve_membership_pairs(g, layout, w, threads=1)
        t4, _ = sieve_membership_pairs(g, layout, w, threads=4)
        assert t1 == t4 == whole

    def test_homogeneity_scaling(self):
        # every monomial of the pair-sum has total degree n, so scaling all
        # weights by c scales the value by c^n
        rnd = random.Random(75)
        for _ in range(10):
            g = random_digraph(rnd, rnd.randint(3, 7), 0.6)
            if oracle.held_karp_count_hc(g) == 0:
                continue
            layout = make_layout(g)
            field = make_binary_field(g.n)
            w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
            c = rnd.randrange(2, field.q)
            scaled = PortWeights(layout, field, field.nmul(np.int32(c), w.values))
            base, _ = sieve_membership_pairs(g, layout, w)
            got, _ = sieve_membership_pairs(g, layout, scaled)
            sf = ScalarBinaryField(field)
            assert got == sf.mul(sf.pow(c, g.n), base)

    def test_zero_weights_zero_sum(self):
        g = directed_cycle(5)
        layout = make_layout(g)
        field = make_binary_field(5)
        w = PortWeights(layout, field, np.zeros((5, 5, 5), dtype=np.int32))
        total, _ = sieve_membership_pairs(g, layout, w)
        assert total == 0


def random_bipartite(rnd, n, density):
    """Arcs both ways between two halves, so a yellow half leaves no pool ports."""
    left, right = range(n // 2), range(n // 2, n)
    arcs = [(a, b) for a in left for b in right if rnd.random() < density]
    arcs += [(b, a) for a in left for b in right if rnd.random() < density]
    return make_digraph(n, arcs)


class TestFoldedMatrix:
    def test_pair_determinants_match_port_matrix(self):
        # every |blue| x |blue| determinant of a trial against det of its n x n port matrix
        rnd = random.Random(79)
        graphs = [make_digraph(2, [(0, 1), (1, 0)])]
        graphs += [random_bipartite(rnd, 2 * rnd.randint(2, 4), rnd.uniform(0.3, 0.9)) for _ in range(8)]
        graphs += [random_digraph(rnd, rnd.randint(4, 8), rnd.uniform(0.3, 0.7)) for _ in range(8)]
        seen = set()
        for g in graphs:
            layout = make_layout(g)
            field = make_binary_field(g.n)
            sf = ScalarBinaryField(field)
            nb, npool = len(layout.blue), layout.pool_count
            seen.add("pool" if npool else "no pool")
            for sparse in (False, True):
                w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
                if sparse:  # zero most weights, so din = 0 and dout = 0 turn up
                    w.values[np.random.default_rng(rnd.randrange(1 << 30)).random(w.values.shape) < 0.7] = 0
                isel, osel = hamdetect._membership_chunk(nb, 0, 2 * 3 ** (nb - 1))
                mats = hamdetect._BatchedSieve(g, layout, w).matrices(isel, osel)
                assert mats.shape == (len(isel), nb, nb)
                dets = batched_gf_det(field, mats.copy())
                for row in range(len(isel)):
                    imask = sum(1 << v for i, v in enumerate(layout.blue) if isel[row, i])
                    omask = sum(1 << v for i, v in enumerate(layout.blue) if osel[row, i])
                    port = build_port_matrix(g, layout, w, imask, omask)
                    want = det_gauss(port)
                    assert det_gauss(square(sf, mats[row].tolist())) == int(dets[row]) == want
                    for yi in range(len(layout.yellow)):
                        yrow = port.entries[nb + yi]
                        if yrow[npool + yi] == 0:
                            seen.add("din = 0")
                        if yrow[npool + len(layout.yellow) + yi] == 0:
                            seen.add("dout = 0")
                    if want:
                        seen.add("nonzero det")
        assert seen == {"pool", "no pool", "din = 0", "dout = 0", "nonzero det"}


def random_with_yellow(rnd, n, nyellow, density):
    """Random digraph whose yellow set (random ids, no arcs among them) is given; its layout."""
    yellow = sorted(rnd.sample(range(n), nyellow))
    arcs = [(a, b) for a in range(n) for b in range(n)
            if a != b and not (a in yellow and b in yellow) and rnd.random() < density]
    blue = tuple(v for v in range(n) if v not in yellow)
    return make_digraph(n, arcs), PortLayout(blue=blue, yellow=tuple(yellow))


class TestSubsetTables:
    def test_doubling_matches_brute_force(self):
        rng = np.random.default_rng(81)
        for k in range(7):
            rows = rng.integers(0, 1 << 16, size=(k, 3, 4), dtype=np.int32)
            table = subset_xor_table(rows)
            assert table.shape == (1 << k, 3, 4) and table.dtype == np.int32
            for mask in range(1 << k):
                want = np.zeros((3, 4), dtype=np.int32)
                for i in range(k):
                    if mask >> i & 1:
                        want ^= rows[i]
                assert np.array_equal(table[mask], want)

    def test_pair_matrices_match_folded_port_matrix(self, monkeypatch):
        # every chunk's matrices against the port matrix with its yellow rows folded,
        # with |blue| = 1, 5, 7 (unequal table halves) and chunks starting mid-range
        rnd = random.Random(82)
        cases = [(make_digraph(1, []), PortLayout(blue=(0,), yellow=()))]
        g2 = make_digraph(2, [(0, 1), (1, 0)])
        cases.append((g2, PortLayout(blue=(1,), yellow=(0,))))
        cases.append((g2, PortLayout(blue=(0, 1), yellow=())))
        cases += [random_with_yellow(rnd, n, ny, rnd.uniform(0.3, 0.8))
                  for n, ny in [(8, 3), (10, 5), (10, 3), (12, 5), (9, 2)]]
        chunks = []
        real = hamdetect._BatchedSieve.matrices

        def record(self, isel, osel):
            mats = real(self, isel, osel)
            chunks.append((isel.copy(), osel.copy(), mats.copy()))
            return mats

        monkeypatch.setattr(hamdetect._BatchedSieve, "matrices", record)
        monkeypatch.setattr(hamdetect, "STATE_CHUNK", 97)
        seen = set()
        for g, layout in cases:
            nb = len(layout.blue)
            seen.add(nb)
            field = make_binary_field(max(g.n, 2))
            sf = ScalarBinaryField(field)
            for fill in ("arcs", "sparse", "everywhere"):
                w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
                rng = np.random.default_rng(rnd.randrange(1 << 30))
                if fill == "sparse":
                    w.values[rng.random(w.values.shape) < 0.7] = 0
                if fill == "everywhere":  # weights off the arcs must be ignored
                    w.values[...] = rng.integers(0, field.q, size=w.values.shape)
                chunks.clear()
                total, npairs = sieve_membership_pairs(g, layout, w)
                assert (total, npairs) == scalar_pair_sum(g, layout, w)
                assert [len(c[0]) for c in chunks] == [min(97, npairs - a) for a in range(0, npairs, 97)]
                isel_all, osel_all = hamdetect._membership_chunk(nb, 0, npairs)
                start = 0
                for isel, osel, mats in chunks:
                    assert np.array_equal(isel, isel_all[start : start + len(isel)])
                    assert np.array_equal(osel, osel_all[start : start + len(isel)])
                    assert mats.shape == (len(isel), nb, nb) and mats.dtype == np.int32
                    for row in range(len(isel)):
                        imask = sum(1 << v for i, v in enumerate(layout.blue) if isel[row, i])
                        omask = sum(1 << v for i, v in enumerate(layout.blue) if osel[row, i])
                        port = build_port_matrix(g, layout, w, imask, omask)
                        assert mats[row].tolist() == fold_port_matrix(layout, port)
                    start += len(isel)
        assert {1, 5, 7} <= seen


class TestBatchedDet:
    def test_matches_det_gauss(self):
        field = make_binary_field(9)
        rng = np.random.default_rng(8)
        mats = rng.integers(0, field.q, size=(40, 6, 6), dtype=np.int32)
        dets = batched_gf_det(field, mats.copy())
        for i in range(40):
            assert det_gauss(square(ScalarBinaryField(field), mats[i].tolist())) == int(dets[i])

    def test_singular_batch(self):
        field = make_binary_field(4)
        mats = np.zeros((3, 4, 4), dtype=np.int32)
        mats[1] = np.eye(4, dtype=np.int32)
        dets = batched_gf_det(field, mats)
        assert dets.tolist() == [0, 1, 0]


class TestDetect:
    def test_cycle_yes(self):
        for n in range(2, 10):
            rep = detect_hamiltonian_cycle(directed_cycle(n), seed=1)
            assert rep.verdict
            assert rep.failure_bound == 0.0

    def test_acyclic_tournament_no(self):
        rep = detect_hamiltonian_cycle(acyclic_tournament(7), seed=1)
        assert not rep.verdict
        assert 0.0 < rep.failure_bound < 1e-9

    def test_out_star_structural_no(self):
        rep = detect_hamiltonian_cycle(out_star(6), seed=0)
        assert not rep.verdict
        assert rep.failure_bound == 0.0
        assert rep.trials_run == 0
        assert "independent set" in rep.detail["reason"]

    def test_single_vertex(self):
        rep = detect_hamiltonian_cycle(make_digraph(1, []), seed=0)
        assert not rep.verdict
        assert rep.failure_bound == 0.0

    def test_two_cycle(self):
        assert detect_hamiltonian_cycle(make_digraph(2, [(0, 1), (1, 0)])).verdict

    def test_matches_oracle_random(self):
        rnd = random.Random(76)
        for _ in range(40):
            n = rnd.randint(2, 9)
            g = random_digraph(rnd, n, rnd.uniform(0.2, 0.7))
            want = oracle.held_karp_count_hc(g) > 0
            rep = detect_hamiltonian_cycle(g, trials=8, seed=rnd.randrange(100))
            assert rep.verdict == want

    def test_never_yes_on_cycle_free(self):
        rnd = random.Random(77)
        checked = 0
        while checked < 30:
            g = random_digraph(rnd, rnd.randint(3, 8), rnd.uniform(0.2, 0.5))
            if oracle.held_karp_count_hc(g) > 0:
                continue
            checked += 1
            for seed in range(3):
                assert not detect_hamiltonian_cycle(g, trials=3, seed=seed).verdict

    def test_trial_defaults_and_bound(self):
        assert default_trial_count(10) == 2 * 4 + 4
        assert failure_bound(10, 10) == (10 / 256) ** 10
        rep = detect_hamiltonian_cycle(acyclic_tournament(6), trials=5, seed=0)
        assert rep.trials_run == rep.trials_max == 5
