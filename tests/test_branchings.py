"""Detectors for out-branchings with many internal vertices or many leaves."""

import random

import numpy as np
import pytest

from conftest import (
    complete_digraph,
    directed_cycle,
    directed_path,
    out_star,
    random_digraph,
)
from hamkit import branchings
from hamkit.algebra import BinaryField
from hamkit.branchings import (
    BranchingLeafPolynomial,
    DvConfig,
    InternalSieveConfig,
    batched_modp_det,
    detect_k_internal,
    detect_k_leaf,
    internal_sieve_success_floor,
    interpolate_univariate,
    inverse_vandermonde,
    solve_nk_dv,
)
from hamkit.errors import GuardError
from hamkit.graph import make_digraph
from hamkit.matrixtree import count_out_branchings
from hamkit import oracle
from reference import (
    GroupAlgebra,
    MonomialListPolynomial,
    PrimeField,
    det_gauss,
    dv_trial,
    internal_scan,
    leaf_polynomial_value,
    scalar_solve_nk_dv,
    square,
    window_hits,
    xbasis_to_group,
)
from reference import interpolate_univariate as scalar_interpolate

MERSENNE_31 = 2**31 - 1


class TestMarkerBasis:
    def test_self_inverse(self):
        ga = GroupAlgebra(BinaryField(6), 3)
        rnd = random.Random(81)
        for _ in range(30):
            coeffs = tuple(rnd.randrange(ga.field.q) for _ in range(ga.dim))
            assert xbasis_to_group(ga, xbasis_to_group(ga, coeffs)) == coeffs

    def test_marker_expansion(self):
        # the basis change sends the delta at subset T to the group-basis
        # coordinates of prod_{i in T} (unit(e_i) + 1)
        ga = GroupAlgebra(BinaryField(4), 3)
        for t in range(ga.dim):
            delta = tuple(1 if s == t else 0 for s in range(ga.dim))
            prod = ga.one
            for i in range(3):
                if t >> i & 1:
                    prod = ga.mul(prod, ga.add(ga.unit(1 << i), ga.one))
            assert xbasis_to_group(ga, delta) == prod

    def test_products_transport(self):
        # multiplying in the marker basis with disjoint-subset convolution
        # agrees with the group-algebra product
        ga = GroupAlgebra(BinaryField(6), 3)
        rnd = random.Random(82)
        f = ga.field

        def xmul(a, b):
            out = [0] * ga.dim
            for t1 in range(ga.dim):
                if a[t1] == 0:
                    continue
                for t2 in range(ga.dim):
                    if b[t2] == 0 or t1 & t2:
                        continue
                    out[t1 | t2] ^= f.mul(a[t1], b[t2])
            return tuple(out)

        for _ in range(30):
            xa = tuple(rnd.randrange(f.q) for _ in range(ga.dim))
            xb = tuple(rnd.randrange(f.q) for _ in range(ga.dim))
            lhs = xbasis_to_group(ga, xmul(xa, xb))
            rhs = ga.mul(xbasis_to_group(ga, xa), xbasis_to_group(ga, xb))
            assert lhs == rhs


class TestSpanningRoots:
    def test_matches_branching_count(self):
        # r roots a spanning out-branching exactly when it reaches every vertex
        rnd = random.Random(91)
        graphs = [random_digraph(rnd, rnd.randint(1, 9), rnd.uniform(0.05, 0.6)) for _ in range(150)]
        for _ in range(40):  # two random parts, arcs only from the first into the second
            a, b = rnd.randint(1, 4), rnd.randint(1, 4)
            arcs = [(u, v) for u in range(a + b) for v in range(a + b) if u != v
                    and (u < a or v >= a) and rnd.random() < 0.5]
            graphs.append(make_digraph(a + b, arcs))
        graphs += [directed_path(6), out_star(5), make_digraph(5, [(0, 1), (1, 0), (2, 3), (3, 4)]),
                   make_digraph(4, [(0, 2), (1, 2), (2, 3)]), make_digraph(3, [])]
        kinds = set()
        for g in graphs:
            got = branchings._spanning_roots(g)
            assert got == [r for r in range(g.n) if count_out_branchings(g, r) > 0], g.arcs
            kinds.add("none" if not got else "all" if len(got) == g.n else "some")
        assert kinds == {"none", "some", "all"}

    def test_detectors_count_no_branchings(self, monkeypatch):
        def refuse(g, root):
            raise AssertionError("count_out_branchings called")

        monkeypatch.setattr(branchings, "count_out_branchings", refuse)
        for g in (directed_path(5), out_star(5), make_digraph(4, [(0, 1), (2, 3)])):
            for k in (0, 1, 2):
                detect_k_internal(g, k, InternalSieveConfig(trials=4))
                if k:
                    detect_k_leaf(g, k, DvConfig(seed=0, budget=4))


class TestDetectKInternal:
    def test_path_all_internal(self):
        rep = detect_k_internal(directed_path(5), 4, InternalSieveConfig(trials=20))
        assert rep.verdict
        assert rep.failure_bound == 0.0

    def test_out_star_k2_no(self):
        rep = detect_k_internal(out_star(5), 2, InternalSieveConfig(trials=30))
        assert not rep.verdict
        assert 0.0 < rep.failure_bound < 1.0

    def test_out_star_k1_yes(self):
        # the root has 4 children; an even child count must not cancel the
        # degree-1 slice
        rep = detect_k_internal(out_star(5), 1, InternalSieveConfig(trials=20))
        assert rep.verdict

    def test_k0_exact(self):
        rep = detect_k_internal(directed_path(4), 0)
        assert rep.verdict
        assert rep.failure_bound == 0.0
        assert rep.trials_run == 0

    def test_no_branching_exact_no(self):
        g = make_digraph(4, [(0, 1), (2, 3)])
        rep = detect_k_internal(g, 1)
        assert not rep.verdict
        assert rep.failure_bound == 0.0

    def test_k_range(self):
        with pytest.raises(ValueError):
            detect_k_internal(directed_path(4), 4)
        with pytest.raises(ValueError):
            detect_k_internal(directed_path(4), -1)

    def test_rank_guard(self):
        with pytest.raises(GuardError):
            detect_k_internal(directed_cycle(9), 7)

    @pytest.mark.parametrize("route", ["batched", "scalar"])
    def test_matches_brute_force(self, route):
        # "scalar" runs the same root scan on the reference ring determinant
        rnd = random.Random(83)
        for _ in range(15):
            n = rnd.randint(2, 6)
            g = random_digraph(rnd, n, rnd.uniform(0.25, 0.7))
            k = rnd.randint(1, min(4, n - 1))
            want = oracle.brute_k_internal(g, k)
            if route == "batched":
                got = detect_k_internal(g, k, InternalSieveConfig(trials=40, seed=7)).verdict
            else:
                got = any(r["hit"] for r in internal_scan(g, k, 40, 7, chunk=34).values())
            assert got == want

    def test_engines_consume_identical_trials(self, monkeypatch):
        # batched hits equal the reference's on the same draws, whatever the chunking
        monkeypatch.setattr(branchings, "INTERNAL_CHUNK", 4)
        rnd = random.Random(84)
        for _ in range(8):
            g = random_digraph(rnd, 5, 0.5)
            k = rnd.randint(1, 3)
            a = detect_k_internal(g, k, InternalSieveConfig(trials=25, seed=3))
            per_root = internal_scan(g, k, 25, 3, chunk=9)
            assert a.detail["per_root"] == per_root
            assert a.verdict == any(r["hit"] for r in per_root.values())
            assert a.trials_run == sum(r["trials"] for r in per_root.values())

    def test_threads_do_not_change_report(self):
        g = random_digraph(random.Random(85), 6, 0.4)
        a = detect_k_internal(g, 2, InternalSieveConfig(trials=20, seed=1, threads=1))
        b = detect_k_internal(g, 2, InternalSieveConfig(trials=20, seed=1, threads=4))
        assert a == b

    def test_no_false_positive_many_trials(self):
        # out-star with k=2 is a NO instance; hammer it
        rep = detect_k_internal(out_star(6), 2, InternalSieveConfig(trials=300, seed=11))
        assert not rep.verdict

    def test_success_floor_sane(self):
        floor = internal_sieve_success_floor(8, 4)
        assert 0.2 < floor < 1.0


class TestBatchedPrimeDet:
    def test_matches_fraction_free(self):
        from hamkit.matrixtree import det_bareiss_int

        rnd = np.random.default_rng(19)
        p = 2_147_483_029  # a 31-bit prime
        mats = rnd.integers(0, p, size=(25, 5, 5), dtype=np.int64)
        dets = batched_modp_det(mats.copy(), p)
        for i in range(25):
            want = det_bareiss_int([row[:] for row in mats[i].tolist()]) % p
            assert int(dets[i]) == want

    def test_zero_order(self):
        assert batched_modp_det(np.zeros((4, 0, 0), dtype=np.int64), 7).tolist() == [1] * 4

    def test_order_one(self):
        p = MERSENNE_31
        entries = [0, 1, 5, p - 1]
        mats = np.array(entries, dtype=np.int64).reshape(4, 1, 1)
        assert batched_modp_det(mats, p).tolist() == entries

    def test_entries_p_minus_one(self):
        # the largest residues: every product piv * a is just below 2^62
        p = MERSENNE_31
        field = PrimeField(p)
        rng = np.random.default_rng(21)
        mats = np.full((6, 5, 5), p - 1, dtype=np.int64)  # rank one: det 0
        mats[1:] = np.where(rng.random((5, 5, 5)) < 0.5, p - 1, rng.integers(0, p, (5, 5, 5)))
        mats[5] = np.diag([p - 1] * 5)
        dets = batched_modp_det(mats.copy(), p)
        for i in range(6):
            assert int(dets[i]) == det_gauss(square(field, mats[i].tolist())), i
        assert dets[0] == 0 and dets[5] == p - 1  # (-1)^5

    def test_zero_pivots_and_singular_stacks(self):
        p = MERSENNE_31
        field = PrimeField(p)
        rng = np.random.default_rng(22)
        mats = rng.integers(0, p, size=(40, 6, 6), dtype=np.int64)
        mats[:10, :, 0] = 0  # zero first column: singular
        mats[10:20, 3] = mats[10:20, 1]  # repeated row: singular
        mats[20:30, 0, 0] = 0  # zero leading pivot: a row swap
        mats[20:30, 2, 2] = mats[20:30, 1, 2] = 0
        for i in range(30, 40):  # permutation matrices, odd and even
            mats[i] = np.eye(6, dtype=np.int64)[rng.permutation(6)] * rng.integers(1, p)
        dets = batched_modp_det(mats.copy(), p)
        for i in range(40):
            assert int(dets[i]) == det_gauss(square(field, mats[i].tolist())), i
        assert not dets[:20].any()
        assert dets[30:].all()

    def test_word_size_guard(self):
        # int64 products of residues need p < 2^31; past it batch values would be silently wrong
        g = random_digraph(random.Random(20), 6, 0.5)
        P = BranchingLeafPolynomial(g, 0)
        ys = np.array([[3, 5, 7, 11, 13, 17]], dtype=np.int64)
        p = 2**31 - 1
        assert P.evaluate_batch(ys, p).tolist() == [leaf_polynomial_value(g, 0, ys[0].tolist(), p)]
        with pytest.raises(ValueError, match="2\\^31"):
            P.evaluate_batch(ys, 2**61 - 1)
        with pytest.raises(ValueError):
            batched_modp_det(np.zeros((1, 2, 2), dtype=np.int64), 2**31)


class TestBatchedInterpolation:
    def test_inverse_vandermonde(self):
        p = 1_000_003
        xs = np.array([0, 3, 7, 2, 999_999], dtype=np.int64)
        vinv = inverse_vandermonde(xs, p)
        vander = np.array([[pow(int(x), j, p) for j in range(5)] for x in xs], dtype=np.int64)
        assert (vander @ vinv % p).tolist() == np.eye(5, dtype=np.int64).tolist()
        with pytest.raises(ValueError, match="distinct"):
            inverse_vandermonde(np.array([1, 2, p + 1]), p)

    def test_matches_scalar_at_512_vertices(self):
        # 1,025 points over 0..2n at n = 512 and p = 2^31 - 1: the largest
        # values and vinv entries the 16-bit limbs have to carry exactly
        p = MERSENNE_31
        npts = 2 * 512 + 1
        vinv = inverse_vandermonde(np.arange(npts), p)
        values = np.full((2, npts), p - 1, dtype=np.int64)
        values[1] = np.random.default_rng(23).integers(0, p, size=npts)
        got = interpolate_univariate(values, vinv, p)
        assert got.shape == (2, npts)
        assert got[0].tolist() == [p - 1] + [0] * (npts - 1)  # the constant -1
        for row in range(2):
            points = list(enumerate(values[row].tolist()))
            assert tuple(got[row].tolist()) == scalar_interpolate(points, npts - 1, p), row

    def test_random_rows(self):
        rnd = random.Random(24)
        for npts in (1, 2, 9, 17):
            p = rnd.choice([1_000_003, 2_147_483_029, MERSENNE_31])
            vinv = inverse_vandermonde(np.arange(npts), p)
            values = np.array([[rnd.randrange(p) for _ in range(npts)] for _ in range(5)], dtype=np.int64)
            got = interpolate_univariate(values, vinv, p)
            for row in range(5):
                points = list(enumerate(values[row].tolist()))
                assert tuple(got[row].tolist()) == scalar_interpolate(points, npts - 1, p)


class TestLeafPolynomial:
    def test_all_ones_counts_branchings(self):
        rnd = random.Random(86)
        p = 1_000_003
        for _ in range(12):
            n = rnd.randint(2, 7)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            r = rnd.randrange(n)
            assert leaf_polynomial_value(g, r, [1] * n, p) == count_out_branchings(g, r) % p

    def test_batch_matches_scalar(self):
        rnd = random.Random(87)
        p = 2_147_482_763
        g = random_digraph(rnd, 6, 0.5)
        P = BranchingLeafPolynomial(g, 0)
        ys = np.array([[rnd.randrange(p) for _ in range(6)] for _ in range(10)], dtype=np.int64)
        batch = P.evaluate_batch(ys, p)
        for row, got in zip(ys.tolist(), batch.tolist()):
            assert leaf_polynomial_value(g, 0, row, p) == got

    def test_homogeneous_degree_n(self):
        rnd = random.Random(88)
        p = 1_000_003
        P = BranchingLeafPolynomial(complete_digraph(5), 1)
        ys = [rnd.randrange(1, p) for _ in range(5)]
        c = rnd.randrange(2, p)
        scaled = [y * c % p for y in ys]
        base, got = P.evaluate_batch(np.array([ys, scaled], dtype=np.int64), p).tolist()
        assert got == base * pow(c, 5, p) % p


class TestSolveNkDv:
    def test_all_distinct_no(self):
        n = 6
        P = MonomialListPolynomial(n, [(1, (1,) * n)])
        rep = solve_nk_dv(P, 1, DvConfig(budget=64, seed=0))
        assert not rep.verdict

    def test_single_variable_yes(self):
        n = 6
        P = MonomialListPolynomial(n, [(1, (n,) + (0,) * (n - 1))])
        rep = solve_nk_dv(P, n - 1, DvConfig(seed=0))
        assert rep.verdict
        assert rep.failure_bound == 0.0

    def test_matches_brute_min_distinct(self):
        # NO instances cannot false-positive at any budget (one-sided error),
        # so they get a token budget; YES instances get one large enough that
        # a miss needs worse than 2^-n per-trial luck 4000 times in a row.
        rnd = random.Random(89)
        for _ in range(18):
            n = rnd.randint(2, 7)
            monos = []
            for _ in range(rnd.randint(1, 5)):
                exps = [0] * n
                for _ in range(n):
                    exps[rnd.randrange(n)] += 1
                monos.append((rnd.randint(1, 9), tuple(exps)))
            P = MonomialListPolynomial(n, monos)
            dmin = oracle.brute_min_distinct_vars(monos)
            for k in range(1, n + 1):
                want = dmin <= n - k
                cfg = DvConfig(budget=4000 if want else 40, seed=5)
                rep = solve_nk_dv(P, k, cfg)
                assert rep.verdict == want, (monos, k)

    def test_batched_matches_scalar_scan(self):
        # verdict, trials_run, primes and hit of the chunked solver against
        # one dv_trial per (trial, prime), on explicit and branching polynomials
        rnd = random.Random(91)
        cases = []
        for i in range(12):
            n = rnd.randint(2, 6)
            monos = []
            for _ in range(rnd.randint(1, 4)):
                exps = [0] * n
                for _ in range(n):
                    exps[rnd.randrange(n)] += 1
                monos.append((rnd.randint(1, 9), tuple(exps)))
            cases.append((MonomialListPolynomial(n, monos), rnd.randint(1, n)))
            g = random_digraph(rnd, rnd.randint(3, 6), rnd.uniform(0.3, 0.8))
            root = next((r for r in range(g.n) if count_out_branchings(g, r)), None)
            if root is not None:
                cases.append((BranchingLeafPolynomial(g, root), rnd.randint(2, min(4, g.n))))
        for i, (P, k) in enumerate(cases):
            for budget in (1, 5, 100):  # 100 = 1+2+4+8+16+32+37: the last chunk is cut short
                rep = solve_nk_dv(P, k, DvConfig(budget=budget, seed=i))
                want = scalar_solve_nk_dv(P, k, budget, i)
                assert rep.verdict == want["verdict"], (i, budget)
                assert rep.trials_run == want["trials_run"], (i, budget)
                assert rep.detail["primes"] == want["primes"]
                assert rep.detail.get("hit") == want["hit"], (i, budget)

    def test_hit_on_trial_zero(self):
        P = MonomialListPolynomial(4, [(1, (4, 0, 0, 0))])
        seed = next(s for s in range(50) if scalar_solve_nk_dv(P, 3, 64, s)["trials_run"] == 1)
        rep = solve_nk_dv(P, 3, DvConfig(budget=64, seed=seed))
        assert rep.trials_run == 1
        assert rep.detail["hit"] == scalar_solve_nk_dv(P, 3, 64, seed)["hit"]

    def test_hit_only_at_second_prime(self):
        # the qualifying monomial's coefficient is p1 itself, so it vanishes
        # mod p1 and only p2 can see it; the all-distinct monomial stays in the band
        seed = 6
        p1, p2 = scalar_solve_nk_dv(MonomialListPolynomial(1, [(1, (1,))]), 1, 1, seed)["primes"]
        n = 5
        P = MonomialListPolynomial(n, [(p1, (n, 0, 0, 0, 0)), (1, (1,) * n)])
        rep = solve_nk_dv(P, n - 1, DvConfig(budget=200, seed=seed))
        want = scalar_solve_nk_dv(P, n - 1, 200, seed)
        assert rep.verdict and want["hit"]["prime"] == p2
        assert rep.trials_run == want["trials_run"] > 1
        assert rep.detail["hit"] == want["hit"]

    def test_stack_bytes_capped_on_120_path(self, monkeypatch):
        # one trial is 241 matrices of 119 x 119, 27 MB: split across calls under the cap
        shapes = []
        modp_det = branchings.batched_modp_det

        def recording(mats, p):
            shapes.append(mats.shape)
            return modp_det(mats, p)

        monkeypatch.setattr(branchings, "batched_modp_det", recording)
        P = BranchingLeafPolynomial(directed_path(120), 0)
        rep = solve_nk_dv(P, 2, DvConfig(budget=1, seed=4))
        assert not rep.verdict and rep.trials_run == 1  # a path has one leaf
        assert sum(shape[0] for shape in shapes) == 2 * 241
        assert len(shapes) > 2
        assert all(shape[0] * shape[1] * shape[2] * 8 <= branchings.LEAF_STACK_LIMIT for shape in shapes)
        shapes.clear()
        rep = solve_nk_dv(P, 1, DvConfig(budget=4, seed=4))
        assert rep.verdict
        assert all(shape[0] * shape[1] * shape[2] * 8 <= branchings.LEAF_STACK_LIMIT for shape in shapes)
        monkeypatch.setattr(branchings, "LEAF_STACK_LIMIT", 1 << 40)
        assert solve_nk_dv(P, 1, DvConfig(budget=4, seed=4)) == rep

    def test_rejects_bad_polynomials(self):
        with pytest.raises(ValueError):
            MonomialListPolynomial(3, [(1, (1, 1, 0))])  # inhomogeneous
        with pytest.raises(ValueError):
            MonomialListPolynomial(2, [(-1, (1, 1))])  # negative coefficient

    def test_dv_trial_shape(self):
        P = MonomialListPolynomial(3, [(2, (1, 1, 1)), (1, (3, 0, 0))])
        coeffs = dv_trial(P, [True, True, True], 1_000_003)
        assert len(coeffs) == 2 * 3 + 1
        # all-probe routing sends y1y2y3 to tau^3 and y1^3 to tau^3
        assert coeffs[3] == 3
        assert window_hits(coeffs, 3, 2) == []

    def test_small_prime_rejected(self):
        P = MonomialListPolynomial(3, [(1, (1, 1, 1))])
        with pytest.raises(ValueError):
            dv_trial(P, [True] * 3, 7)

    def test_k_range(self):
        P = MonomialListPolynomial(3, [(1, (1, 1, 1))])
        with pytest.raises(ValueError):
            solve_nk_dv(P, 0)
        with pytest.raises(ValueError):
            solve_nk_dv(P, 4)


class TestDetectKLeaf:
    def test_path_unique_leaf(self):
        assert detect_k_leaf(directed_path(5), 1, DvConfig(seed=0)).verdict
        assert not detect_k_leaf(directed_path(5), 2, DvConfig(seed=0)).verdict

    def test_out_star(self):
        rep = detect_k_leaf(out_star(6), 5, DvConfig(seed=0))
        assert rep.verdict

    def test_no_branching(self):
        g = make_digraph(4, [(0, 1), (2, 3)])
        rep = detect_k_leaf(g, 1, DvConfig(seed=0))
        assert not rep.verdict
        assert rep.failure_bound == 0.0

    def test_matches_brute_force(self):
        rnd = random.Random(90)
        for _ in range(12):
            n = rnd.randint(2, 7)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            k = rnd.randint(2, min(4, n))
            want = oracle.brute_k_leaf(g, k)
            rep = detect_k_leaf(g, k, DvConfig(seed=13))
            assert rep.verdict == want, (g.arcs, k)

    def test_k_range(self):
        with pytest.raises(ValueError):
            detect_k_leaf(directed_path(4), 0)
        with pytest.raises(ValueError):
            detect_k_leaf(directed_path(4), 5)
