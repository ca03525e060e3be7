"""Branching counts and the integer determinant, plus the scalar reference kernels they are checked with."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_digraph, cycle_plus, directed_cycle, directed_path, random_digraph
from hamkit.gf2m import BinaryField
from hamkit.graph import make_digraph
from hamkit.matrixtree import count_out_branchings, det_bareiss_int
from hamkit import matrixtree, oracle
from reference import (
    INTEGERS,
    PrimeField,
    ResidueRing,
    ScalarBinaryField,
    SquareMatrix,
    build_laplacian,
    det_bareiss,
    det_division_free,
    det_gauss,
    puncture,
    square,
    unit_weights,
)


def cofactor_det(ring, rows):
    """Laplace expansion along the first row; exponential-time reference."""
    d = len(rows)
    if d == 0:
        return ring.one
    if d == 1:
        return rows[0][0]
    total = ring.zero
    for j in range(d):
        if ring.is_zero(rows[0][j]):
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = ring.mul(rows[0][j], cofactor_det(ring, minor))
        total = ring.add(total, term) if j % 2 == 0 else ring.sub(total, term)
    return total


class TestBuildLaplacian:
    def test_two_path(self):
        g = make_digraph(2, [(0, 1)])
        m = build_laplacian(g, unit_weights(g, INTEGERS), INTEGERS)
        assert m.entries == ((0, -1), (0, 1))

    def test_arcless_zero_matrix(self):
        g = make_digraph(3, [])
        m = build_laplacian(g, unit_weights(g, INTEGERS), INTEGERS)
        assert all(v == 0 for row in m.entries for v in row)

    def test_column_sums_zero_random(self):
        rnd = random.Random(21)
        f = PrimeField(101)
        for _ in range(25):
            g = random_digraph(rnd, rnd.randint(1, 8), 0.5)
            w = {a: rnd.randrange(101) for a in g.arcs}
            m = build_laplacian(g, w, f)
            for j in range(g.n):
                col = 0
                for i in range(g.n):
                    col = f.add(col, m.entries[i][j])
                assert col == 0

    def test_missing_weight(self):
        g = make_digraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="missing weight"):
            build_laplacian(g, {}, INTEGERS)


class TestPuncture:
    def test_1x1_to_empty(self):
        m = square(INTEGERS, [[5]])
        pm = puncture(m, 0)
        assert pm.entries == ()
        assert det_gauss(SquareMatrix(PrimeField(5), (), (), ())) == 1
        assert det_division_free(pm) == 1

    def test_commutes(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        m = square(INTEGERS, rows)
        a = puncture(puncture(m, 0), 2)
        b = puncture(puncture(m, 2), 0)
        assert a.entries == b.entries
        assert a.row_labels == b.row_labels == (1,)

    def test_three_cycle_unit_det(self):
        g = directed_cycle(3)
        m = build_laplacian(g, unit_weights(g, INTEGERS), INTEGERS)
        assert det_bareiss(puncture(m, 0)) == 1

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="not present"):
            puncture(square(INTEGERS, [[1]]), 7)


class TestDetKernels:
    def test_gauss_identity(self):
        f = ScalarBinaryField(BinaryField(8))
        m = square(f, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert det_gauss(m) == 1

    def test_gauss_repeated_row(self):
        f = PrimeField(13)
        m = square(f, [[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        assert det_gauss(m) == 0

    def test_gauss_vs_cofactor_gf256(self):
        f = ScalarBinaryField(BinaryField(8))
        rnd = random.Random(33)
        for _ in range(15):
            rows = [[rnd.randrange(f.q) for _ in range(6)] for _ in range(6)]
            assert det_gauss(square(f, rows)) == cofactor_det(f, rows)

    def test_division_free_identity_z4(self):
        r = ResidueRing(2, 2)
        m = square(r, [[1, 0], [0, 1]])
        assert det_division_free(m) == 1

    def test_division_free_2x2_z4(self):
        r = ResidueRing(2, 2)
        m = square(r, [[2, 2], [2, 2]])
        assert det_division_free(m) == 0

    def test_division_free_vs_bareiss_z9(self):
        r = ResidueRing(3, 2)
        rnd = random.Random(14)
        for _ in range(20):
            rows = [[rnd.randrange(-20, 20) for _ in range(5)] for _ in range(5)]
            want = det_bareiss_int([row[:] for row in rows]) % 9
            reduced = [[x % 9 for x in row] for row in rows]
            assert det_division_free(square(r, reduced)) == want

    def test_three_kernels_agree(self):
        rnd = random.Random(15)
        p = 10007
        f = PrimeField(p)
        for d in range(0, 9):
            rows = [[rnd.randrange(-9, 10) for _ in range(d)] for _ in range(d)]
            want = det_bareiss_int([row[:] for row in rows])
            gauss = det_gauss(square(f, [[x % p for x in r] for r in rows]))
            divfree = det_division_free(square(INTEGERS, rows))
            assert divfree == want
            assert gauss == want % p

    def test_bareiss_big_entries_exact(self):
        # entries big enough that float or fixed-width paths would break
        rnd = random.Random(16)
        rows = [[rnd.randrange(-(10**12), 10**12) for _ in range(6)] for _ in range(6)]
        assert det_bareiss_int([r[:] for r in rows]) == cofactor_det(INTEGERS, rows)


def unimodular(rnd, d):
    """A random d x d integer matrix of determinant +-1, and that determinant.

    A signed permutation matrix, mixed by adding +-1 times one row to another.
    """
    perm = list(range(d))
    rnd.shuffle(perm)
    rows = [[0] * d for _ in range(d)]
    det = 1
    for i, j in enumerate(perm):
        rows[i][j] = rnd.choice((1, -1))
        det *= rows[i][j]
    inversions = sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))
    det *= (-1) ** inversions
    for _ in range(3 * d if d > 1 else 0):
        a, b = rnd.sample(range(d), 2)
        c = rnd.choice((1, -1))
        rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows, det


def check_det(rows):
    """det_bareiss_int agrees with the Berkowitz and cofactor references on rows."""
    want = det_division_free(square(INTEGERS, rows))
    if len(rows) <= 6:
        assert cofactor_det(INTEGERS, rows) == want
    assert det_bareiss_int([r[:] for r in rows]) == want, rows
    return want


class TestUnitPivotDeterminant:
    """The +-1 pivot phase, the Bareiss fallback, and the hand-over between them."""

    def test_empty_and_one_by_one(self):
        assert det_bareiss_int([]) == 1
        for x in (-7, -1, 0, 1, 2):
            assert det_bareiss_int([[x]]) == x

    def test_no_unit_anywhere(self):
        # only Bareiss runs
        rnd = random.Random(40)
        for d in range(2, 8):
            for _ in range(6):
                rows = [[rnd.choice((0, 2, -2, 3, -3, 5)) for _ in range(d)] for _ in range(d)]
                check_det(rows)

    def test_all_unit_unimodular(self):
        rnd = random.Random(41)
        for d in range(1, 10):
            for _ in range(5):
                rows, det = unimodular(rnd, d)
                assert check_det(rows) == det

    def test_unit_steps_then_bareiss(self):
        # a few +-1 entries among entries that are not units: the unit phase
        # runs out partway and Bareiss finishes the Schur complement
        rnd = random.Random(42)
        for d in range(2, 9):
            for _ in range(8):
                rows = [[rnd.choice((0, 0, 2, -2, 3, -4)) for _ in range(d)] for _ in range(d)]
                for _ in range(rnd.randint(1, d)):
                    rows[rnd.randrange(d)][rnd.randrange(d)] = rnd.choice((1, -1))
                check_det(rows)

    def test_minus_one_pivot_needs_row_and_column_swap(self):
        # the only unit sits below row 0 and right of column 0
        cases = [
            [[2, 3, 0], [4, 0, -1], [0, 5, 2]],
            [[3, 2, 2], [2, 4, 2], [2, 2, -1]],
            [[0, 2, 0, 3], [2, 0, 4, 0], [0, 3, 0, -1], [5, 0, 2, 2]],
        ]
        for rows in cases:
            check_det(rows)
        # and the same with the rows and columns in every cyclic order
        for rows in cases:
            d = len(rows)
            for shift in range(1, d):
                check_det([row[shift:] + row[:shift] for row in rows[shift:] + rows[:shift]])

    def test_singular_after_unit_steps(self):
        assert det_bareiss_int([[1, 1], [1, 1]]) == 0
        assert det_bareiss_int([[1, 2, 3], [1, 2, 3], [4, 5, 7]]) == 0
        rnd = random.Random(43)
        for d in range(2, 8):
            for _ in range(6):
                rows = [[rnd.randint(-2, 2) for _ in range(d)] for _ in range(d - 1)]
                coeffs = [rnd.choice((1, -1, 0)) for _ in range(d - 1)]
                rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)])
                rnd.shuffle(rows)
                assert check_det(rows) == 0

    def test_zero_column_and_zero_row(self):
        assert det_bareiss_int([[1, 0, 2], [-1, 0, 3], [4, 0, 1]]) == 0
        assert det_bareiss_int([[1, -1, 2], [0, 0, 0], [4, 1, 1]]) == 0

    def test_zero_column_at_every_position(self):
        # no scan finds the zero column up front: the ±1 column swaps must keep
        # it in the trailing block, and Bareiss must stop on its empty pivot column
        rnd = random.Random(46)
        for d in range(1, 10):
            for entries in ((0, 0, 1, -1, 2, -3), (0, 2, -2, 3, 5), (0, 1, -1)):
                base = [[rnd.choice(entries) for _ in range(d)] for _ in range(d)]
                for col in range(d):
                    rows = [r[:col] + [0] + r[col + 1 :] for r in base]
                    assert check_det(rows) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 7).flatmap(
        lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d)))
    def test_small_entries_property(self, rows):
        check_det(rows)


class TestCountOutBranchings:
    def test_path(self):
        assert count_out_branchings(directed_path(3), 0) == 1

    def test_k3(self):
        assert count_out_branchings(complete_digraph(3), 0) == 3

    def test_unreachable(self):
        g = make_digraph(3, [(1, 2)])
        assert count_out_branchings(g, 0) == 0

    def test_in_degree_zero_nonroot(self):
        g = make_digraph(3, [(0, 1), (1, 0), (2, 0)])
        # vertex 2 has no in-arcs, so no branching rooted at 0 exists
        assert count_out_branchings(g, 0) == 0

    def test_in_degree_zero_nonroot_answers_before_elimination(self, monkeypatch):
        # the kernel has no zero-column scan, so the count must stop first
        def refuse(rows):
            raise AssertionError("eliminated a matrix with a zero column")

        rnd = random.Random(47)
        n, lone = 512, 300
        g = cycle_plus(rnd, n, 2 * n)
        g = make_digraph(n, [(u, v) for u, v in g.arcs if v != lone])
        monkeypatch.setattr(matrixtree, "det_bareiss_int", refuse)
        start = time.perf_counter()
        assert count_out_branchings(g, 0) == 0
        assert time.perf_counter() - start < 1.0

    def test_matches_enumeration(self):
        rnd = random.Random(17)
        for _ in range(25):
            n = rnd.randint(1, 6)
            g = random_digraph(rnd, n, rnd.uniform(0.2, 0.8))
            for r in range(n):
                assert count_out_branchings(g, r) == len(
                    oracle.enumerate_out_branchings(g, r)
                )

    def test_in_arc_scaling_multilinearity(self):
        # scaling all weights on arcs into u (u != root) scales det by c:
        # every branching uses exactly one in-arc of each non-root vertex
        rnd = random.Random(18)
        p = 10007
        f = PrimeField(p)
        for _ in range(10):
            g = random_digraph(rnd, 6, 0.6)
            w = {a: rnd.randrange(1, p) for a in g.arcs}
            u, c = 3, rnd.randrange(2, p)
            base = det_gauss(puncture(build_laplacian(g, w, f), 0))
            scaled_w = {
                a: (v * c % p if a[1] == u else v) for a, v in w.items()
            }
            scaled = det_gauss(puncture(build_laplacian(g, scaled_w, f), 0))
            assert scaled == base * c % p

    def test_in_degree_order_matches_id_order(self):
        # the count eliminates rows and columns in (in-degree, id) order; a
        # simultaneous permutation keeps the determinant of the id-order
        # punctured Laplacian, at every density and on the ±1 and Bareiss
        # paths alike
        rnd = random.Random(48)
        sizes = set()
        counted = 0
        for _ in range(40):
            n = rnd.randint(2, 60)
            g = random_digraph(rnd, n, rnd.uniform(0.1, 0.9))
            root = rnd.randrange(n)
            if not all(ins or u == root for u, ins in enumerate(g.in_adj)):
                continue
            rows = [[(len(g.in_adj[u]) if v == u else -((u, v) in g.arcs)) for v in range(n) if v != root]
                    for u in range(n) if u != root]
            want = det_bareiss_int(rows)
            assert count_out_branchings(g, root) == want, (n, sorted(g.arcs), root)
            sizes.add(n // 20)
            counted += want > 0
        assert {0, 1, 2} <= sizes and counted >= 20, (sizes, counted)

    def test_large_counts_match_prime_field_determinants(self):
        # hundreds of digits, checked mod two 31-bit primes by plain Gaussian elimination
        rnd = random.Random(44)
        for n in (100, 150):
            g = cycle_plus(rnd, n, 2 * n)
            root = n // 2
            count = count_out_branchings(g, root)
            assert count > 0
            for p in (2_147_483_029, 2**31 - 1):
                f = PrimeField(p)
                want = det_gauss(puncture(build_laplacian(g, unit_weights(g, f), f), root))
                assert count % p == want, (n, p)
