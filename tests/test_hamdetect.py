"""Port-matrix Hamiltonicity detection."""

import hashlib
import math
import random

import numpy as np
import pytest

from conftest import (
    acyclic_tournament,
    directed_cycle,
    out_star,
    random_digraph,
)
from hamkit import hamdetect, modp
from hamkit.gf2m import make_binary_field
from hamkit.graph import find_independent_partition, make_digraph
from hamkit.hamdetect import (
    BLUE_LIMIT,
    FAILURE_TARGET_BITS,
    FIELD_BITS,
    PortLayout,
    PortWeights,
    batched_gf_det,
    default_trial_count,
    detect_hamiltonian_cycle,
    sieve_membership_pairs,
    subset_xor_table,
)
from hamkit import oracle
from hamkit.rand import derive_seed
from reference import (
    ScalarBinaryField,
    build_port_matrix,
    det_gauss,
    fold_port_matrix,
    iter_membership_pairs,
    port_labels,
    scalar_pair_sum,
    square,
)
from test_branchings import _hit_floor


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
        ports = port_labels(layout)
        assert len(ports) == 6
        assert ports[layout.pool_count:] == tuple(
            (kind, y) for kind in ("entry", "exit") for y in layout.yellow
        )
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
            field = make_binary_field(FIELD_BITS)
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
            field = make_binary_field(FIELD_BITS)
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
            field = make_binary_field(FIELD_BITS)
            w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
            sieve = hamdetect._BatchedSieve(g, layout)
            assert sieve_membership_pairs(sieve, w) == scalar_pair_sum(g, layout, w)

    def test_chunking_does_not_change_sum(self, monkeypatch):
        g = random_digraph(random.Random(74), 9, 0.5)
        layout = make_layout(g)
        field = make_binary_field(FIELD_BITS)
        w = PortWeights.draw(g, layout, field, 5)
        whole = sieve_membership_pairs(hamdetect._BatchedSieve(g, layout), w)
        monkeypatch.setattr(hamdetect, "STATE_CHUNK", 7)
        assert sieve_membership_pairs(hamdetect._BatchedSieve(g, layout), w) == whole

    def test_homogeneity_scaling(self):
        # every monomial of the pair-sum has total degree n, so scaling all
        # weights by c scales the value by c^n
        rnd = random.Random(75)
        for _ in range(10):
            g = random_digraph(rnd, rnd.randint(3, 7), 0.6)
            if oracle.held_karp_count_hc(g) == 0:
                continue
            layout = make_layout(g)
            field = make_binary_field(FIELD_BITS)
            w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
            c = rnd.randrange(2, field.q)
            scaled = PortWeights(layout, field, field.nmul(np.int32(c), w.values))
            sieve = hamdetect._BatchedSieve(g, layout)
            base = sieve_membership_pairs(sieve, w)
            got = sieve_membership_pairs(sieve, scaled)
            sf = ScalarBinaryField(field)
            assert got == sf.mul(sf.pow(c, g.n), base)

    def test_zero_weights_zero_sum(self):
        g = directed_cycle(5)
        layout = make_layout(g)
        field = make_binary_field(FIELD_BITS)
        w = PortWeights(layout, field, np.zeros((5, g.m), dtype=np.int32))
        assert sieve_membership_pairs(hamdetect._BatchedSieve(g, layout), w) == 0
        # one row per port, and two axes
        for shape in ((4, g.m), (5,), (5, g.m, 1)):
            with pytest.raises(ValueError, match="shape mismatch"):
                PortWeights(layout, field, np.zeros(shape, dtype=np.int32))

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_detection_reuses_one_gather_stack(self, monkeypatch, chunk):
        # a NO at |blue| = 5 (an acyclic tournament has one yellow vertex):
        # 162 pairs a trial, one chunk by default and 27 chunks of 6 at STATE_CHUNK = 7
        if chunk is not None:
            monkeypatch.setattr(hamdetect, "STATE_CHUNK", chunk)
        g = acyclic_tournament(6)
        layout = PortLayout.from_partition(g, find_independent_partition(g))
        assert len(layout.blue) == 5
        stacks, passes = [], []
        real_det, real_sieve = hamdetect.batched_gf_det, hamdetect.sieve_membership_pairs

        def record_det(field, mats, *args, **kwargs):
            stacks.append(mats)
            return real_det(field, mats, *args, **kwargs)

        def record_sieve(sieve, weights):
            passes.append((weights, sieve))
            return real_sieve(sieve, weights)

        monkeypatch.setattr(hamdetect, "batched_gf_det", record_det)
        monkeypatch.setattr(hamdetect, "sieve_membership_pairs", record_sieve)
        rep = detect_hamiltonian_cycle(g, trials=3, seed=4)
        assert not rep.verdict and rep.trials_run == 3
        assert len(passes) == 3 and len(stacks) == 3 * (27 if chunk else 1)
        # every trial gets the detection's one sieve: its weight plan, pair plan and gather stack
        sieve = passes[0][1]
        assert isinstance(sieve, hamdetect._BatchedSieve)
        assert all(s is sieve for _, s in passes)
        assert sieve.plan is hamdetect._pair_plan(5, hamdetect.STATE_CHUNK)
        assert all(np.shares_memory(mats, sieve.out) for mats in stacks)
        # a pass on a fresh sieve gets the same sum as one on a used sieve,
        # with the stack's leftover contents: on this NO, and on a YES at the
        # same |blue| (a directed 10-cycle: five blue, five yellow)
        field = make_binary_field(FIELD_BITS)
        yes = directed_cycle(10)
        yes_layout = PortLayout.from_partition(yes, find_independent_partition(yes))
        assert len(yes_layout.blue) == 5
        yes_sieve = hamdetect._BatchedSieve(yes, yes_layout)
        cases = [(g, layout, sieve, w) for w, _ in passes]
        cases += [(yes, yes_layout, yes_sieve, PortWeights.draw(yes, yes_layout, field, 9, t))
                  for t in range(3)]
        for graph, lay, own, w in cases:
            alone = sieve_membership_pairs(hamdetect._BatchedSieve(graph, lay), w)
            assert (alone != 0) == (graph is yes)
            assert sieve_membership_pairs(own, w) == alone


def golden_reports():
    """(|blue|, report) of 45 seeded detections: general and bipartite graphs,
    |blue| = 1..9 five times each, 1 to 3 trials, and every fourth graph with
    a sink (a NO that runs every trial)."""
    rnd = random.Random(2033)
    for i in range(45):
        blue, bipartite = 1 + i % 9, i % 2 == 1
        while True:
            if bipartite:
                g = random_bipartite(rnd, 2 * blue, rnd.uniform(0.3, 0.9))
            else:
                g = random_digraph(rnd, rnd.randint(blue + 1, 2 * blue), rnd.uniform(0.2, 0.8))
            if i % 4 == 3:
                g = make_digraph(g.n, [(a, b) for a, b in g.arcs if a != 0])
            if len(find_independent_partition(g).blue) == blue:
                break
        yield blue, detect_hamiltonian_cycle(g, trials=1 + i // 9 % 3, seed=rnd.randrange(1 << 30))


def report_fields(rep):
    return rep.verdict, rep.trials_run, rep.trials_max, rep.failure_bound, repr(rep.detail)


def sink_graph(rnd, n):
    """A graph on n vertices where vertex 0 has no out-arc, so no Hamiltonian
    cycle, but no structural NO either: arcs both ways between the even and
    the odd vertices, some arcs among the even ones, and at most 9 blue."""
    while True:
        arcs = [(a, b) for a in range(1, n) for b in range(n) if a != b and not (a % 2 and b % 2)
                and rnd.random() < (0.6 if (a - b) % 2 else 0.4)]
        g = make_digraph(n, arcs)
        part = find_independent_partition(g)
        if len(part.yellow) <= n // 2 and len(part.blue) <= 9:
            return g


def random_bipartite(rnd, n, density):
    """Arcs both ways between two halves, so a yellow half leaves no pool ports."""
    left, right = range(n // 2), range(n // 2, n)
    arcs = [(a, b) for a in left for b in right if rnd.random() < density]
    arcs += [(b, a) for a in left for b in right if rnd.random() < density]
    return make_digraph(n, arcs)


def decode_pairs(layout, index):
    """(imask, omask) over vertex ids for each row of one chunk's plan index.

    A table's index for row u is gate*S*nb + mask*nb + u: mask is the
    pair's O bits on the table's block of blue positions (in side) or its I
    bits (out side), and gate says u is in I (in side) or in O and not the
    anchor (out side). Checks that the tables of each side agree on the gates.
    """
    nb = len(layout.blue)
    blocks = hamdetect._table_blocks(nb)
    assert len(index) == 2 * len(blocks)
    bits = {"in": 0, "out": 0}
    gates = {}
    for (side, (start, stop)), idx in zip([(s, b) for s in ("in", "out") for b in blocks], index):
        size = 1 << (stop - start)
        rest = idx.astype(np.int64) - np.arange(nb)
        assert (rest % nb == 0).all()
        gate, mask = rest // (size * nb), rest // nb % size
        assert ((gate == 0) | (gate == 1)).all() and (mask == mask[:, :1]).all()
        bits[side] = bits[side] | mask[:, 0] << start
        assert np.array_equal(gates.setdefault(side, gate), gate)
    osel = (bits["in"][:, None] >> np.arange(nb)) & 1
    isel = (bits["out"][:, None] >> np.arange(nb)) & 1
    assert np.array_equal(gates["in"], isel)
    out_gate = osel.copy()
    out_gate[:, 0] = 0  # the anchor's exiting role is suppressed
    assert np.array_equal(gates["out"], out_gate)
    ids = 1 << np.array(layout.blue, dtype=np.int64)
    return list(zip((isel @ ids).tolist(), (osel @ ids).tolist()))


def gathered_chunks(monkeypatch, g, layout, w):
    """One sieve pass: its total and, per chunk, (pairs, gathered matrices)."""
    chunks = []
    real = hamdetect._BatchedSieve.matrices

    def record(self, tables, index):
        mats = real(self, tables, index)
        chunks.append((decode_pairs(layout, index), mats.copy()))
        return mats

    monkeypatch.setattr(hamdetect._BatchedSieve, "matrices", record)
    result = sieve_membership_pairs(hamdetect._BatchedSieve(g, layout), w)
    monkeypatch.setattr(hamdetect._BatchedSieve, "matrices", real)
    return result, chunks


class TestFoldedMatrix:
    def test_pair_determinants_match_port_matrix(self, monkeypatch):
        # every |blue| x |blue| determinant of a trial against det of its n x n port matrix
        rnd = random.Random(79)
        graphs = [make_digraph(2, [(0, 1), (1, 0)])]
        graphs += [random_bipartite(rnd, 2 * rnd.randint(2, 4), rnd.uniform(0.3, 0.9)) for _ in range(8)]
        graphs += [random_digraph(rnd, rnd.randint(4, 8), rnd.uniform(0.3, 0.7)) for _ in range(8)]
        seen = set()
        for g in graphs:
            layout = make_layout(g)
            field = make_binary_field(FIELD_BITS)
            sf = ScalarBinaryField(field)
            nb, npool = len(layout.blue), layout.pool_count
            seen.add("pool" if npool else "no pool")
            for sparse in (False, True):
                w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
                if sparse:  # zero most weights, so din = 0 and dout = 0 turn up
                    w.values[np.random.default_rng(rnd.randrange(1 << 30)).random(w.values.shape) < 0.7] = 0
                _, chunks = gathered_chunks(monkeypatch, g, layout, w)
                assert len(chunks) == 1  # |blue| <= 9 is one chunk
                pairs, mats = chunks[0]
                assert mats.shape == (2 * 3 ** (nb - 1), nb, nb)
                dets = batched_gf_det(field, mats)
                for (imask, omask), mat, got in zip(pairs, mats, dets):
                    port = build_port_matrix(g, layout, w, imask, omask)
                    want = det_gauss(port)
                    assert det_gauss(square(sf, mat.tolist())) == int(got) == want
                    for yi in range(len(layout.yellow)):
                        yrow = port.entries[nb + yi]
                        if yrow[npool + yi] == 0:
                            seen.add("din = 0")
                        if yrow[npool + len(layout.yellow) + yi] == 0:
                            seen.add("dout = 0")
                    if want:
                        seen.add("nonzero det")
        assert seen == {"pool", "no pool", "din = 0", "dout = 0", "nonzero det"}


class TestAnchorOutsideO:
    def test_first_half_of_every_chunk_is_singular(self, monkeypatch):
        # the first half of each chunk holds the pairs with the anchor outside
        # O: their rows xor to zero and their port matrices are singular, for
        # every graph and draw, so batched_gf_det may skip them unread; with
        # |blue| = 1..6, pool ports and none, dense and sparse weights, and
        # chunks of 2 and 6 pairs (STATE_CHUNK = 7) or one chunk per trial
        rnd = random.Random(91)
        g2 = make_digraph(2, [(0, 1), (1, 0)])
        cases = [(g2, make_layout(g2)), (g2, PortLayout(blue=(0, 1), yellow=()))]
        for nb in range(2, 7):
            bip = random_bipartite(rnd, 2 * nb, rnd.uniform(0.4, 0.9))
            cases.append((bip, make_layout(bip)))
            cases.append(random_with_yellow(rnd, nb + nb // 2, nb // 2, rnd.uniform(0.3, 0.8)))
            cases.append(random_with_yellow(rnd, 2 * nb, nb, rnd.uniform(0.3, 0.8)))
        field = make_binary_field(FIELD_BITS)
        rng = np.random.default_rng(92)
        seen = set()
        for g, layout in cases:
            nb, ny, npool = len(layout.blue), len(layout.yellow), layout.pool_count
            anchor = 1 << layout.anchor
            seen.add((nb, "pool" if npool else "no pool"))
            for sparse in (False, True):
                w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
                if sparse:  # zero most weights, so din = 0 and dout = 0 turn up
                    w.values[rng.random(w.values.shape) < 0.7] = 0
                for chunk in (7, hamdetect.STATE_CHUNK):
                    monkeypatch.setattr(hamdetect, "STATE_CHUNK", chunk)
                    total, chunks = gathered_chunks(monkeypatch, g, layout, w)
                    assert total == scalar_pair_sum(g, layout, w)
                    for pairs, mats in chunks:
                        s = len(pairs) // 2
                        assert all(not omask & anchor for _, omask in pairs[:s])
                        assert all(omask & anchor for _, omask in pairs[s:])
                        assert not np.bitwise_xor.reduce(mats[:s], axis=1).any()
                        if chunk != 7:
                            continue
                        for imask, omask in pairs[:s]:
                            port = build_port_matrix(g, layout, w, imask, omask)
                            assert det_gauss(port) == 0
                            for yi in range(ny):
                                yrow = port.entries[nb + yi]
                                if yrow[npool + yi] == 0:
                                    seen.add("din = 0")
                                if yrow[npool + ny + yi] == 0:
                                    seen.add("dout = 0")
                        # the kernel never reads the vouched-for half: nonsingular
                        # matrices written over it change nothing
                        full = batched_gf_det(field, mats)
                        assert not full[:s].any()
                        junk = mats.copy()
                        junk[:s] = rng.integers(1, field.q, size=(s, nb, nb), dtype=np.int32)
                        assert batched_gf_det(field, junk)[:s].all()
                        before = junk.copy()
                        got = batched_gf_det(field, junk, singular=s)
                        assert np.array_equal(junk, before)
                        assert not got[:s].any() and np.array_equal(got[s:], full[s:])
                        if full[s:].any():
                            seen.add("nonzero det")
        assert {"din = 0", "dout = 0", "nonzero det"} <= seen
        assert {(nb, p) for nb in range(2, 7) for p in ("pool", "no pool")} | {(1, "no pool")} <= seen

    def test_singular_prefix_of_any_stack(self):
        # singular = 0 is the plain call, and singular = B returns all zeros
        field = make_binary_field(FIELD_BITS)
        rng = np.random.default_rng(93)
        for n in (1, 4, 7):
            mats = rng.integers(0, field.q, size=(12, n, n), dtype=np.int32)
            mats[rng.random(mats.shape) < 0.3] = 0
            full = batched_gf_det(field, mats)
            assert np.array_equal(batched_gf_det(field, mats, singular=0), full)
            for s in (1, 5, 12):
                got = batched_gf_det(field, mats, singular=s)
                assert not got[:s].any() and np.array_equal(got[s:], full[s:])
                assert got.dtype == np.int32 and got.shape == (12,)


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
        # every chunk's gathered matrices against the port matrix with its yellow
        # rows folded, with |blue| = 1, 2, 5, 7 and 8 (the largest that has one
        # 256-subset table per side) and chunks of 2, 6 and 54 pairs (many per
        # trial, nonzero offsets) or one per trial
        rnd = random.Random(82)
        cases = [(make_digraph(1, []), PortLayout(blue=(0,), yellow=()))]
        g2 = make_digraph(2, [(0, 1), (1, 0)])
        cases.append((g2, PortLayout(blue=(1,), yellow=(0,))))
        cases.append((g2, PortLayout(blue=(0, 1), yellow=())))
        cases += [random_with_yellow(rnd, n, ny, rnd.uniform(0.3, 0.8))
                  for n, ny in [(8, 3), (10, 5), (10, 3), (12, 5), (9, 2), (11, 3)]]
        seen = set()
        for g, layout in cases:
            nb = len(layout.blue)
            seen.add(nb)
            field = make_binary_field(FIELD_BITS)
            for fill in ("arcs", "sparse", "everywhere"):
                w = PortWeights.draw(g, layout, field, rnd.randrange(1 << 30))
                rng = np.random.default_rng(rnd.randrange(1 << 30))
                if fill == "sparse":
                    w.values[rng.random(w.values.shape) < 0.7] = 0
                if fill == "everywhere":  # weights off the arcs must be ignored
                    w.values[...] = rng.integers(0, field.q, size=w.values.shape)
                folded, total = {}, 0
                for pair in iter_membership_pairs(layout):
                    port = build_port_matrix(g, layout, w, *pair)
                    total ^= det_gauss(port)
                    folded[pair] = fold_port_matrix(layout, port)
                for chunk in (2, 7, 97, hamdetect.STATE_CHUNK):
                    monkeypatch.setattr(hamdetect, "STATE_CHUNK", chunk)
                    result, chunks = gathered_chunks(monkeypatch, g, layout, w)
                    assert result == total
                    size = 2 * 3 ** max([0] + [a for a in range(nb) if 2 * 3**a <= chunk])
                    assert [len(pairs) for pairs, _ in chunks] == [size] * (len(folded) // size)
                    visited = [pair for pairs, _ in chunks for pair in pairs]
                    assert sorted(visited) == sorted(folded)
                    for pairs, mats in chunks:
                        assert mats.shape == (size, nb, nb) and mats.dtype == np.int32
                        for pair, mat in zip(pairs, mats):
                            assert mat.tolist() == folded[pair]
        assert {1, 2, 5, 7, 8} <= seen

    def test_one_table_per_side_up_to_eight_blue_vertices(self):
        # 2 * ceil(nb / 8) tables: blocks of at most 8 blue positions, the whole
        # side up to 8 and its halves beyond; every index of every chunk is
        # below its table's row count and below 2^16, so uint16 holds it
        field = make_binary_field(FIELD_BITS)
        for nb in range(1, BLUE_LIMIT + 1):
            blocks = hamdetect._table_blocks(nb)
            assert blocks == ([(0, nb)] if nb <= 8 else [(0, nb // 2), (nb // 2, nb)])
            layout = PortLayout(blue=tuple(range(nb)), yellow=())
            g = make_digraph(nb, [])
            sieve = hamdetect._BatchedSieve(g, layout)
            tables = sieve.tables(PortWeights(layout, field, np.zeros((nb, g.m), dtype=np.int32)))
            assert len(sieve.plan) == len(tables) == 2 * -(-nb // 8)
            assert sieve.plan is hamdetect._pair_plan(nb, hamdetect.STATE_CHUNK)
            for (start, stop), table, (base, offset) in zip(blocks * 2, tables, sieve.plan):
                assert base.dtype == offset.dtype == np.uint16
                assert table.shape == (2 * 2 ** (stop - start) * nb, nb)
                top = base.max(axis=0).astype(np.int64) + offset.max(axis=0)
                assert top.max() < min(len(table), 1 << 16), nb

    def test_plan_chunks_cover_every_pair_once(self):
        # the decoded pairs of all chunks are the 2 * 3^(|blue| - 1) membership
        # pairs, each once, for chunk limits below, at and above a power of 3,
        # with one table per side (|blue| <= 8) and two (|blue| = 9)
        for nb in range(1, 10):
            layout = PortLayout(blue=tuple(range(nb)), yellow=())
            everything = sorted(iter_membership_pairs(layout))
            for chunk in (1, 2, 6, 7, 97, 4374, hamdetect.STATE_CHUNK):
                plan = hamdetect._pair_plan(nb, chunk)
                base, offset = plan[0]
                a = max([0] + [a for a in range(nb) if 2 * 3**a <= chunk])
                assert base.shape == (2 * 3**a, nb) and offset.shape == (3 ** (nb - 1 - a), nb)
                pairs = [pair for h in range(len(offset))
                         for pair in decode_pairs(layout, [b + o[h] for b, o in plan])]
                assert sorted(pairs) == everything, (nb, chunk)
                assert all(not b.flags.writeable and not o.flags.writeable for b, o in plan)


class TestBatchedDet:
    def test_matches_det_gauss(self):
        field = make_binary_field(FIELD_BITS)
        rng = np.random.default_rng(8)
        mats = rng.integers(0, field.q, size=(40, 6, 6), dtype=np.int32)
        dets = batched_gf_det(field, mats.copy())
        for i in range(40):
            assert det_gauss(square(ScalarBinaryField(field), mats[i].tolist())) == int(dets[i])

    def test_singular_batch(self):
        field = make_binary_field(FIELD_BITS)
        mats = np.zeros((3, 4, 4), dtype=np.int32)
        mats[1] = np.eye(4, dtype=np.int32)
        dets = batched_gf_det(field, mats)
        assert dets.tolist() == [0, 1, 0]

    # A matrix with determinant 0 ends by one of three routes: the up-front
    # screen (an all-zero column), a pivot column before the tail whose
    # trailing entries are all zero (the column is a combination of the
    # columns before it), or a zero from the minors of the last MINOR_TAIL
    # rows. Every other matrix is eliminated to the tail and kept.
    @staticmethod
    def nonsingular(field, rng, count, n):
        """Random matrices whose only zero entry is the top-left one.

        A pivot row must then be added on top at the first column; at the
        seeds used here every such matrix has a nonzero determinant.
        """
        mats = rng.integers(1, field.q, size=(count, n, n), dtype=np.int32)
        mats[:, 0, 0] = 0
        return mats

    @staticmethod
    def dependent_column(sf, mat):
        """The first column of mat in the span of the columns before it, or None.

        Elimination keeps its first k pivots nonzero exactly while columns
        0..k-1 are independent, so this is the column where it drops mat.
        """
        a = [[int(x) for x in row] for row in mat]
        n = len(a)
        for k in range(n):
            piv = next((r for r in range(k, n) if a[r][k]), None)
            if piv is None:
                return k
            a[k], a[piv] = a[piv], a[k]
            inv = sf.inv(a[k][k])
            for r in range(k + 1, n):
                f = sf.mul(a[r][k], inv)
                a[r] = [x ^ sf.mul(f, y) for x, y in zip(a[r], a[k])]
        return None

    @classmethod
    def routes(cls, field, mats):
        """Check mats matrix by matrix against det_gauss; return the routes taken."""
        before = mats.copy()
        dets = batched_gf_det(field, mats)
        assert np.array_equal(mats, before)  # the kernel leaves its input as it was
        assert dets.shape == (len(mats),)
        sf = ScalarBinaryField(field)
        taken = set()
        for mat, got in zip(before, dets):
            want = det_gauss(square(sf, mat.tolist()))
            assert int(got) == want
            k = cls.dependent_column(sf, mat)
            assert (want == 0) == (k is not None)
            if not mat.any(axis=0).all():
                taken.add("screen")
            elif k is None:
                taken.add("kept")
            else:
                taken.add("column" if k < len(mat) - hamdetect.MINOR_TAIL else "tail")
        return taken

    def test_zero_row(self):
        # n = MINOR_TAIL + 1: one elimination step; the zero row leaves the
        # last column dependent, inside the tail
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(11)
        mats = self.nonsingular(field, rng, 6, hamdetect.MINOR_TAIL + 1)
        mats[2, 3] = 0
        assert self.routes(field, mats) == {"tail", "kept"}

    def test_zero_row_without_zero_column(self):
        # no row screen: a zero row at any position, in matrices with no zero
        # column, still gives the exact determinant 0, from the tail's minors
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(18)
        for n in range(2, 8):
            mats = rng.integers(1, field.q, size=(n, n, n), dtype=np.int32)
            mats[np.arange(n), np.arange(n)] = 0  # matrix i has row i zero
            assert mats.any(axis=1).all()
            assert self.routes(field, mats) == {"tail"}

    def test_zero_column(self):
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(12)
        mats = self.nonsingular(field, rng, 6, 5)
        mats[4, :, 1] = 0
        assert self.routes(field, mats) == {"screen", "kept"}

    def test_singular_only_mid_elimination(self):
        # column 2 of matrix 3 is a multiple of column 0, so it drops at pivot
        # column 2, before the tail; matrix 1's dependent rows end in the tail
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(13)
        n = hamdetect.MINOR_TAIL + 3
        mats = self.nonsingular(field, rng, 6, n)
        mats[1, 4] = mats[1, 0] ^ field.nmul(np.int32(9), mats[1, 2])  # no zero row or column
        mats[3, :, 2] = field.nmul(mats[3, :, 0], np.int32(3))
        assert self.routes(field, mats) == {"column", "tail", "kept"}

    def test_drop_and_fix_up_at_one_column(self):
        # at pivot column 2, the last one before the tail, the first matrix
        # drops (its trailing column is all zero) while the second needs the
        # row-add fix-up (top entry 0, a nonzero below it); both have every
        # earlier pivot nonzero
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(19)
        n = hamdetect.MINOR_TAIL + 3
        upper = np.triu(rng.integers(1, field.q, size=(4, n, n), dtype=np.int32))
        drops = upper[0].copy()
        drops[2, 2] = 0  # column 2 is nonzero only in rows 0 and 1
        fixed = upper[1][[0, 1, 3, 2, *range(4, n)]]  # rows 2 and 3 swapped: a zero on top at column 2
        mats = np.stack([drops, fixed, upper[2], rng.integers(0, field.q, size=(n, n), dtype=np.int32)])
        assert self.routes(field, mats) == {"column", "kept"}
        dets = batched_gf_det(field, mats)
        diag = upper[:, np.arange(n), np.arange(n)]
        assert dets[0] == 0
        assert dets[1] == field.np_exp[field.np_log[diag[1]].sum() % (field.q - 1)] != 0

    def test_one_survivor(self):
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(20)
        mats = self.nonsingular(field, rng, 4, 6)
        mats[0, :, 5] = mats[2, :, 0] = mats[3, :, 3] = 0
        assert self.routes(field, mats) == {"screen", "kept"}
        dets = batched_gf_det(field, mats)
        assert dets[1] != 0 and not dets[[0, 2, 3]].any()

    def test_every_matrix_screened(self):
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(21)
        mats = rng.integers(1, field.q, size=(7, 5, 5), dtype=np.int32)
        mats[np.arange(7), :, np.arange(7) % 5] = 0
        assert self.routes(field, mats) == {"screen"}  # all 0, input unchanged
        assert batched_gf_det(field, mats).dtype == np.int32

    def test_all_singular(self):
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(14)
        mats = self.nonsingular(field, rng, 4, 4)
        mats[0, 1] = 0
        mats[1, :, 3] = 0
        mats[2, 3] = mats[2, 0]
        mats[3] = 0
        assert self.routes(field, mats) == {"screen", "tail"}

    def test_empty_batch(self):
        field = make_binary_field(FIELD_BITS)
        dets = batched_gf_det(field, np.zeros((0, 4, 4), dtype=np.int32))
        assert dets.shape == (0,)

    def test_one_by_one(self):
        field = make_binary_field(FIELD_BITS)
        mats = np.array([0, 1, 7, field.q - 1], dtype=np.int32).reshape(4, 1, 1)
        assert self.routes(field, mats) == {"screen", "kept"}

    def test_nothing_drops(self):
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(15)
        mats = self.nonsingular(field, rng, 30, 6)
        assert self.routes(field, mats) == {"kept"}

    def test_mixed_sparse_random(self):
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(16)
        n = hamdetect.MINOR_TAIL + 3
        mats = rng.integers(0, field.q, size=(400, n, n), dtype=np.int32)
        mats[rng.random(mats.shape) < 0.6] = 0
        assert self.routes(field, mats) == {"screen", "column", "tail", "kept"}

    def test_orders_up_to_one_step(self):
        # n <= MINOR_TAIL runs no elimination step, n = MINOR_TAIL + 1 one;
        # neither can drop at a pivot column past the screen
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(22)
        for n in range(1, hamdetect.MINOR_TAIL + 2):
            mats = rng.integers(0, field.q, size=(300, n, n), dtype=np.int32)
            mats[rng.random(mats.shape) < 0.4] = 0
            assert self.routes(field, mats) == ({"screen", "kept"} if n == 1 else {"screen", "tail", "kept"}), n

    def test_tail(self):
        # Block-diagonal matrices: elimination leaves the trailing block D as
        # it was. D is a scaled permutation with one extra entry, so nearly
        # every minor of the tail is 0 and most products take the zero
        # sentinel, yet det(D) is not 0; or D's last column is a combination
        # of its others, so the matrix is singular only in the tail.
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(23)
        t = hamdetect.MINOR_TAIL
        n = t + 4
        mats = np.zeros((12, n, n), dtype=np.int32)
        mats[:, : n - t, : n - t] = self.nonsingular(field, rng, 12, n - t)
        for i in range(12):
            perm = rng.permutation(t)
            mats[i, n - t + np.arange(t), n - t + perm] = rng.integers(1, field.q, size=t)
            mats[i, n - t, n - t + perm[1]] = rng.integers(1, field.q)
        coef = rng.integers(1, field.q, size=(6, 1, t - 1), dtype=np.int32)
        tail = mats[6:, n - t :, n - t :]
        tail[:, :, -1] = np.bitwise_xor.reduce(field.nmul(coef, tail[:, :, :-1]), axis=2)
        assert self.routes(field, mats[:6]) == {"kept"}
        assert self.routes(field, mats[6:]) == {"tail"}

    @pytest.mark.parametrize("t", range(1, 7))
    def test_minor_plan(self, t, monkeypatch):
        # the kernel with t tail rows, against det_gauss on random and sparse
        # stacks of every order up to t + 2, so that t x t blocks are finished
        # from the minors alone; the plan it uses is shared and read-only
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(30 + t)
        monkeypatch.setattr(hamdetect, "MINOR_TAIL", t)
        for n in range(1, t + 3):
            mats = rng.integers(0, field.q, size=(60, n, n), dtype=np.int32)
            mats[30:][rng.random((30, n, n)) < 0.5] = 0
            self.routes(field, mats)
        plan = modp.minor_plan(t)
        assert hamdetect.minor_plan is modp.minor_plan
        assert plan is modp.minor_plan(t) and len(plan) == t - 1
        for r, (cols, rest) in enumerate(plan, 1):
            assert cols.shape == rest.shape == (math.comb(t, r + 1), r + 1)
            assert not cols.flags.writeable and not rest.flags.writeable

    @pytest.mark.parametrize("n", [8, 12, BLUE_LIMIT])
    def test_large_stacks(self, n):
        # Three kinds of n x n matrix, up to the largest pair matrix a detection builds.
        field, rng = make_binary_field(FIELD_BITS), np.random.default_rng(17 + n)
        order = field.q - 1
        log, exp = field.np_log, field.np_exp

        # Upper triangular U with its rows rotated up by one: the top row is
        # U[1], whose first entry is 0, and only the bottom row U[0] has a
        # nonzero there. The fix-up adds U[0] on top, eliminating leaves the
        # bottom row U[1], and the trailing block is again a rotated upper
        # triangular matrix, so the fix-up runs at every column and the
        # pivots are U's diagonal. Diagonal logs in [order - 9, order - 1]
        # sum past (n - 1) * order, so the log-sum product must wrap.
        upper = np.triu(rng.integers(1, field.q, size=(10, n, n), dtype=np.int32), 1)
        diag_logs = order - rng.integers(1, 10, size=(10, n))
        upper[:, np.arange(n), np.arange(n)] = exp[diag_logs]
        rotated = np.roll(upper, -1, axis=1)
        assert (diag_logs.sum(axis=1) > (n - 1) * order).all()

        # Nonsingular leading (n-1) x (n-1) minor, last row a combination of
        # the others: every pivot column before the tail has a nonzero entry,
        # and the tail's minors give 0.
        last = rng.integers(1, field.q, size=(10, n, n), dtype=np.int32)
        coef = rng.integers(1, field.q, size=(10, n - 1), dtype=np.int32)
        last[:, -1] = np.bitwise_xor.reduce(field.nmul(coef[:, :, None], last[:, :-1]), axis=1)

        dense = rng.integers(0, field.q, size=(10, n, n), dtype=np.int32)
        mats = np.concatenate([rotated, last, dense])
        assert self.routes(field, mats) == {"tail", "kept"}

        sf = ScalarBinaryField(field)
        dets = batched_gf_det(field, mats)
        want = exp[diag_logs.sum(axis=1) % order]
        assert np.array_equal(dets[:10], want) and (want != 0).all()
        assert not dets[10:20].any()
        for mat in last:
            assert det_gauss(square(sf, mat[:-1, :-1].tolist())) != 0


# a directed 7-cycle with four chords and a bipartite 8-cycle with four arcs
# between its halves, each still with one Hamiltonian cycle
CHORDED_CYCLE = make_digraph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (2, 5), (4, 6), (5, 1)])
BIPARTITE_CYCLE = make_digraph(8, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3), (3, 7), (7, 0),
                                   (0, 6), (5, 3), (1, 7), (6, 0)])


class TestSingleTrialRate:
    @pytest.mark.parametrize(
        "g",
        [directed_cycle(n) for n in range(4, 9)] + [CHORDED_CYCLE, BIPARTITE_CYCLE],
        ids=[f"cycle-{n}" for n in range(4, 9)] + ["chorded-cycle-7", "bipartite-cycle-8"],
    )
    def test_hits_reach_the_floor(self, g):
        # the floor behind detect-hc's printed bound, 1 - n/q, measured in
        # GF(2^4), where it is 0.5-0.75 for n = 4-8: one-trial sums over 2,000
        # draws on graphs with one Hamiltonian cycle hit at least as often as
        # the floor allows, with a false alarm of at most 1e-9
        assert oracle.held_karp_count_hc(g) == 1
        field = make_binary_field(4)
        layout = PortLayout.from_partition(g, find_independent_partition(g))
        sieve = hamdetect._BatchedSieve(g, layout)
        key, trials = derive_seed("hc-trial", 0), 2000
        hits = sum(sieve_membership_pairs(sieve, PortWeights.draw(g, layout, field, key, t)) != 0
                   for t in range(trials))
        floor = _hit_floor(trials, 1 - g.n / field.q)
        assert floor >= 800 and hits >= floor, (hits, floor)


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
        # one field at every n, and the fewest trials with (n/q)^T <= 2^-84
        assert (FIELD_BITS, FAILURE_TARGET_BITS) == (16, 84)
        assert [default_trial_count(n) for n in (2, 4, 5, 10, 16, 17, 32)] == [6, 6, 7, 7, 7, 8, 8]
        for n in range(2, 33):
            t = default_trial_count(n)
            assert n**t << 84 <= 1 << (16 * t) < n ** (t - 1) << (84 + 16), n
            assert (n / 2**16) ** t <= 2.0**-84, n
        # a NO prints (n/q)^T: n/q after one trial, at every n up to 17
        rnd = random.Random(2035)
        q = make_binary_field(FIELD_BITS).q
        for n in range(2, 18):
            rep = detect_hamiltonian_cycle(sink_graph(rnd, n), trials=1, seed=n)
            assert not rep.verdict and rep.failure_bound == n / q, n
        rep = detect_hamiltonian_cycle(acyclic_tournament(6), trials=5, seed=0)
        assert rep.trials_run == rep.trials_max == 5
        assert rep.failure_bound == (6 / 65536) ** 5
        rep = detect_hamiltonian_cycle(acyclic_tournament(6), seed=0)
        assert rep.trials_run == rep.trials_max == 7
        assert rep.detail["field_bits"] == 16
        assert rep.failure_bound == (6 / 65536) ** 7 <= 2.0**-84

    def test_golden_digest(self):
        # (answer, trials, witness_value, pairs_per_trial) of the 45 seeded
        # golden runs; the digest pins every sum bit for bit across kernel
        # refactors
        runs, seen = [], set()
        for blue, rep in golden_reports():
            runs.append((rep.verdict, rep.trials_run, rep.detail.get("witness_value"),
                         rep.detail.get("pairs_per_trial")))
            seen.add((blue, rep.verdict))
        assert {(9, False), (9, True), (8, False), (8, True)} <= seen
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "87ca7b3193303cc4c772e755fd160465f386e09e90e215e008e0391dd786dd3c"

    def test_full_report_digest(self):
        # the whole report (answer, trials_run, trials_max, failure_bound and
        # the detail with its key order) of the 45 golden runs, then of
        # default-trial NOs at n = 2..17, where the default count is 6, 7 and
        # 8, and of both structural NOs: every printed float bit is pinned
        runs = [report_fields(rep) for _, rep in golden_reports()]
        rnd = random.Random(2034)
        for n in (2, 3, 4, 5, 9, 16, 17):
            g = sink_graph(rnd, n)
            rep = detect_hamiltonian_cycle(g, seed=rnd.randrange(1 << 30))
            assert not rep.verdict and rep.trials_run == rep.trials_max == default_trial_count(n)
            runs.append(report_fields(rep))
        for g in (make_digraph(1, []), out_star(6)):
            rep = detect_hamiltonian_cycle(g, seed=5)
            assert not rep.verdict and rep.failure_bound == 0.0 and "reason" in rep.detail
            runs.append(report_fields(rep))
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "18ae0416aef3b2831a9f786c195cfa900fe2421fa4b61d994381fc42c864b176"

    def test_default_bound_no_weaker_than_before(self):
        # before one field served every n, n vertices ran in GF(2^(2 bitlen(n-1)))
        # for 2 bitlen(n-1) + 4 trials; a default-trial NO prints (n/2^16)^T
        for n in range(2, 33):
            bits = 2 * (n - 1).bit_length()
            before = (n / 2**bits) ** (bits + 4)
            assert (n / 2**16) ** default_trial_count(n) <= before, n
        rnd = random.Random(2036)
        for n in (2, 5, 12, 17):
            rep = detect_hamiltonian_cycle(sink_graph(rnd, n), seed=n)
            assert not rep.verdict and rep.failure_bound == (n / 2**16) ** default_trial_count(n), n
