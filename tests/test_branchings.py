"""Detectors for out-branchings with many internal vertices or many leaves."""

import hashlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    bidirected_path,
    bidirected_star,
    complete_digraph,
    directed_cycle,
    directed_path,
    out_star,
    random_digraph,
    rooted_hubs,
    rooted_path,
)
from hamkit import branchings, modp, report
from hamkit.branchings import (
    BranchingLeafPolynomial,
    binary_field_degree,
    detect_k_internal,
    detect_k_leaf,
    internal_sieve_success_floor,
    solve_nk_dv,
)
from hamkit.errors import GuardError
from hamkit.gf2m import BinaryField, make_binary_field
from hamkit.graph import make_digraph
from hamkit.matrixtree import count_out_branchings
from hamkit.modp import batched_modp_det, interpolate_univariate, inverse_vandermonde
from hamkit.report import trial_chunks
from hamkit import oracle
from reference import (
    INTEGERS,
    GroupAlgebra,
    MarkerRing,
    MonomialListPolynomial,
    PrimeField,
    ScalarBinaryField,
    brute_min_distinct_vars,
    bordered_leaf_value,
    build_laplacian,
    det_bareiss,
    det_division_free,
    det_gauss,
    dv_trial,
    internal_determinants,
    border,
    internal_detect,
    internal_root_sum,
    inverse_vandermonde_at,
    leaf_polynomial_value,
    puncture,
    root_bordered_laplacian,
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
        ring = MarkerRing(ga.field.field, 3)
        rnd = random.Random(82)
        for _ in range(30):
            xa = tuple(rnd.randrange(ga.field.q) for _ in range(ga.dim))
            xb = tuple(rnd.randrange(ga.field.q) for _ in range(ga.dim))
            lhs = xbasis_to_group(ga, ring.mul(xa, xb))
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
                detect_k_internal(g, k, trials=4)
                if k:
                    detect_k_leaf(g, k, seed=0, budget=4)


class TestTrialChunks:
    def test_literal_schedules(self):
        # the benchmark's NO cells: k-leaf at k = 2, 3, 4 (budget 4^k, floor
        # 4^-k, cap LEAF_CHUNK) and k-internal at (n, k) = (9, 3), (8, 3),
        # (7, 4) (100 trials, cap INTERNAL_CHUNK); detect-hc runs one trial a chunk
        leaf, internal = branchings.LEAF_CHUNK, branchings.INTERNAL_CHUNK
        assert list(trial_chunks(0, internal, 0.3)) == []
        assert list(trial_chunks(16, leaf, 4.0**-2)) == [1, 15]
        assert list(trial_chunks(64, leaf, 4.0**-3)) == [1, 63]
        assert list(trial_chunks(256, leaf, 4.0**-4)) == [1, 64, 64, 64, 63]
        assert list(trial_chunks(100, internal, internal_sieve_success_floor(9, 3))) == [1, 4, 34, 34, 27]
        assert list(trial_chunks(100, internal, internal_sieve_success_floor(8, 3))) == [1, 5, 34, 34, 26]
        assert list(trial_chunks(100, internal, internal_sieve_success_floor(7, 4))) == [1, 5, 34, 34, 26]
        assert list(trial_chunks(6, 1, 1.0 - 12 / 2**16)) == [1] * 6

    def test_sizes_follow_the_floor_up_to_cap(self):
        for total in (0, 1, 2, 5, 6, 21, 22, 100, 256, 341, 4096):
            for cap in (1, 3, 4, 16, 34, 64, 10**6):
                for floor in (0.0, 4.0**-6, 4.0**-3, 0.01, 0.24, 0.25, 1 / 3, 0.38, 0.5, 0.99, 1.0):
                    sizes = list(trial_chunks(total, cap, floor))
                    case = total, cap, floor
                    assert sum(sizes) == total, case
                    assert all(0 < size <= cap for size in sizes), case
                    # 1, then min(cap, ceil(1 / floor)), then cap; only the
                    # last chunk is cut short by total
                    full = [1, min(cap, math.ceil(1 / floor)) if floor else cap] + [cap] * len(sizes)
                    if sizes:
                        assert sizes[:-1] == full[: len(sizes) - 1], case
                        assert sizes[-1] <= full[len(sizes) - 1], case

    def test_edges(self):
        # floor 0 (no bound on a YES trial) goes straight to cap, floor 1 expects one trial
        assert list(trial_chunks(100, 34, 0.0)) == [1, 34, 34, 31]
        assert list(trial_chunks(100, 34, 1.0)) == [1, 1, 34, 34, 30]
        # 1 / floor overflows to inf at k-leaf's 4^-k for k = 512, n = 512
        for floor in (4.0**-512, 5e-324):
            assert list(trial_chunks(100, 64, floor)) == [1, 64, 35], floor
        for floor in (0.0, 4.0**-6, 0.5, 1.0):
            assert list(trial_chunks(7, 1, floor)) == [1] * 7, floor


class TestDetectKInternal:
    def test_path_all_internal(self):
        rep = detect_k_internal(directed_path(5), 4, trials=20)
        assert rep.verdict
        assert rep.failure_bound == 0.0

    def test_out_star_k2_no(self):
        rep = detect_k_internal(out_star(5), 2, trials=30)
        assert not rep.verdict
        assert 0.0 < rep.failure_bound < 1.0

    def test_out_star_k1_yes(self):
        # the root has 4 children; an even child count must not cancel the
        # degree-1 slice
        rep = detect_k_internal(out_star(5), 1, trials=20)
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

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_checked_first(self, trials, monkeypatch):
        # before the graph is looked at: a k out of range, the rank guard and
        # a graph without spanning roots all come later
        def refuse(g):
            raise AssertionError("roots screened before the trial count was checked")

        monkeypatch.setattr(branchings, "_spanning_roots", refuse)
        for g, k in ((make_digraph(1, []), 1), (directed_path(4), 9), (directed_cycle(9), 7),
                     (make_digraph(4, [(0, 1), (2, 3)]), 1), (directed_path(4), 2)):
            with pytest.raises(ValueError, match="at least one trial"):
                detect_k_internal(g, k, trials=trials)

    @pytest.mark.parametrize("route", ["batched", "scalar"])
    def test_matches_brute_force(self, route):
        # "scalar" sums every root's reference ring determinant on the same draws
        rnd = random.Random(83)
        for _ in range(15):
            n = rnd.randint(2, 6)
            g = random_digraph(rnd, n, rnd.uniform(0.25, 0.7))
            k = rnd.randint(1, min(4, n - 1))
            want = oracle.brute_k_internal(g, k)
            if route == "batched":
                got = detect_k_internal(g, k, trials=40, seed=7).verdict
            else:
                got = internal_detect(g, k, 40, 7, chunk=34)["hit"]
            assert got == want

    def test_engines_consume_identical_trials(self, monkeypatch):
        # batched hits equal the reference's sum of per-root determinants on
        # the same draws, whatever the chunking; multi-root graphs included
        monkeypatch.setattr(branchings, "INTERNAL_CHUNK", 4)
        rnd = random.Random(84)
        multi = 0
        for _ in range(8):
            g = random_digraph(rnd, 5, 0.5)
            k = rnd.randint(1, 3)
            a = detect_k_internal(g, k, trials=25, seed=3)
            want = internal_detect(g, k, 25, 3, chunk=9)
            assert a.detail["roots"] == want["roots"]
            assert (a.verdict, a.trials_run) == (want["hit"], want["trials"])
            assert a.trials_max == 25
            multi += len(want["roots"]) > 1
        assert multi >= 3

    def test_no_false_positive_many_trials(self):
        # out-star with k=2 is a NO instance; hammer it
        rep = detect_k_internal(out_star(6), 2, trials=300, seed=11)
        assert not rep.verdict

    def test_success_floor_sane(self):
        floor = internal_sieve_success_floor(8, 4)
        assert 0.2 < floor < 1.0

    def test_success_floor_field_order(self):
        # the 1 - 2n/q factor takes q from the field the detector draws from
        for n in range(2, 257):
            q = make_binary_field(binary_field_degree(n)).q
            assert internal_sieve_success_floor(n, 0) == max(0.0, 1.0 - 2.0 * n / q), n


# Root 4 only. With one zeta z on every arc, vertices 1 and 2 (in-arcs from
# 0 and the root) have equal slot-0 columns (z in row 0, diagonal z + z = 0),
# so column 2 has no unit once column 1 is cleared and takes column 3 added.
COLUMN_GRAPH = make_digraph(5, [(0, 1), (0, 2), (0, 3), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])


def _full_dets(engine, mats, factors):
    """prod D_j * det L' for a build_matrices pair: the determinant of the uncontracted bordered Laplacian."""
    return modp._tree_product(np.concatenate([engine.det_batch(mats)[None], factors]), engine._mul)


def _internal_determinant_cases(seed: int):
    """(graph, engine, its matrices, its factors, reference determinants) for three draws per graph, every det_batch route included."""
    rnd = random.Random(seed)
    cases = []
    for k in (1, 2, 3, 4):
        for _ in range(6 if k < 4 else 3):
            n = rnd.randint(k + 1, 8 if k < 3 else 6)
            cases.append((random_digraph(rnd, n, rnd.uniform(0.3, 0.8)), k, False))
        # complete digraph, even n, one zeta on every arc: each vertex's n-1
        # equal in-arcs sum to that zeta in characteristic 2, so every slot-0
        # entry is the same, the slot-0 Laplacian has rank one and the block
        # left after column 0 holds no unit: 0 at k = 1 (nn - 1 = 2 rows),
        # the minors at k >= 2
        cases.append((complete_digraph(4 if k < 4 else 6), k, True))
    cases.extend((COLUMN_GRAPH, k, True) for k in (1, 2, 3, 4))
    for g, k, equal_zeta in cases:
        roots = branchings._spanning_roots(g)
        if not roots:
            continue
        root = rnd.choice(roots)
        field = make_binary_field(binary_field_degree(g.n))
        zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, rnd.randrange(99), root, 0, 3)
        if equal_zeta:
            zeta[:] = zeta[:, :1]
        engine = branchings._InternalSieveEngine(g, [root], k, field)
        yield g, engine, *engine.build_matrices(zeta, rmul, gvec), internal_determinants(
            g, root, k, field, zeta, rmul, gvec
        )


@pytest.fixture
def minors_draws(monkeypatch):
    """The number of draws each _det_minors call receives, in call order."""
    routed = []
    minors = branchings._InternalSieveEngine._det_minors

    def recording(engine, mats):
        routed.append(mats.shape[2])
        return minors(engine, mats)

    monkeypatch.setattr(branchings._InternalSieveEngine, "_det_minors", recording)
    return routed


def _det_routes(engine, mats) -> list[tuple[set, set]]:
    """Per matrix of a det_batch stack, the routes its elimination takes, a subset of
    {"column", "zero", "minors"}, and the columns whose pivot search it needs
    (a non-unit on the diagonal while it is live), replayed on slot 0 alone
    over the scalar field.

    Slot 0 of every ring sum, product and inverse is the field's, and an entry
    is a unit exactly when its slot 0 is nonzero, so slot 0 of det_batch's
    elimination is this one: a column with no unit in the rows left takes
    the first later column with one added, or else ends in a trailing block
    with no unit, and a non-unit pivot takes the first row below with a
    unit added.
    """
    f = ScalarBinaryField(engine.f)
    nn = mats.shape[0]
    routes = []
    for b in range(mats.shape[2]):
        a = [[int(mats[i, j, b, 0]) for j in range(nn)] for i in range(nn)]
        seen = set()
        searched = set()
        for j in range(nn - 1):
            if not a[j][j]:
                searched.add(j)
            cols = [c for c in range(j, nn) if any(a[i][c] for i in range(j, nn))]
            if not cols:
                seen.add("zero" if nn - j > engine.k else "minors")
                break
            if cols[0] != j:
                seen.add("column")
                for row in a[j:]:
                    row[j] ^= row[cols[0]]
            if not a[j][j]:
                src = next(i for i in range(j + 1, nn) if a[i][j])
                a[j] = [x ^ y for x, y in zip(a[j], a[src])]
            inv = f.inv(a[j][j])
            for i in range(j + 1, nn):
                fac = f.mul(a[i][j], inv)
                a[i] = [x ^ f.mul(fac, y) for x, y in zip(a[i], a[j])]
        routes.append((seen, searched))
    return routes


def _route_pools(rnd: random.Random):
    """(engine, draws) pools for mixed det_batch stacks, each draw an [nn, nn, len] matrix.

    Per pool shape (nn, field degree m) and rank k: draws of the graphs
    that force a route (COLUMN_GRAPH, equal-zeta complete digraphs), and
    random ring matrices whose slot 0 is a unit everywhere except in some
    columns: none (plain), column nn-2 (a column repair), the last k+1 (a
    trailing block with no unit past k rows, determinant 0) or the last k
    (the minors, or a non-unit last pivot at k = 1). GF(2^2) draws are
    random throughout, slot 0 included.
    """
    nprng = np.random.default_rng(rnd.randrange(1 << 30))
    shapes = (
        (3, [(complete_digraph(4), True)]),
        (4, [(COLUMN_GRAPH, True), (random_digraph(rnd, 5, 0.6), False)]),
        (5, [(complete_digraph(6), True)]),
    )
    for nn, graphs in shapes:
        field = make_binary_field(binary_field_degree(nn + 1))
        for k in (1, 2, 3):
            g0 = graphs[0][0]
            engine = branchings._InternalSieveEngine(g0, branchings._spanning_roots(g0)[-1:], k, field)
            draws = []
            for g, equal_zeta in graphs:
                root = branchings._spanning_roots(g)[-1]
                zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, rnd.randrange(99), root, 0, 3)
                if equal_zeta:
                    zeta[:] = zeta[:, :1]
                mats, _ = branchings._InternalSieveEngine(g, [root], k, field).build_matrices(zeta, rmul, gvec)
                draws.extend(mats[:, :, b] for b in range(3))
            for zero_cols in ([], [nn - 2], range(max(0, nn - k - 1), nn), range(nn - k, nn)):
                for _ in range(2):
                    mat = nprng.integers(0, field.q, size=(nn, nn, engine.len), dtype=np.int32)
                    mat[:, :, 0] = nprng.integers(1, field.q, size=(nn, nn))
                    mat[:, list(zero_cols), 0] = 0
                    draws.append(mat)
            yield engine, draws
    field = make_binary_field(2)
    for k in (1, 2, 3):
        engine = branchings._InternalSieveEngine(complete_digraph(5), [0], k, field)
        yield engine, [nprng.integers(0, 4, size=(4, 4, engine.len), dtype=np.int32) for _ in range(12)]


class TestInternalDeterminant:
    """_InternalSieveEngine.det_batch against the reference ring determinant."""

    def test_matches_reference_every_slot(self, minors_draws):
        # engine slot T is the reference's t^|T| * x^T coefficient (the image
        # of the truncated ring in the 2^k-slot marker ring), on every route:
        # a column repair, a unit-free trailing block past k rows (determinant
        # 0), and one of at most k rows (its minors); each must occur
        routes = Counter()
        for g, engine, mats, factors, want in _internal_determinant_cases(86):
            got = _full_dets(engine, mats, factors)
            ga = GroupAlgebra(engine.f, engine.k)
            for b, det in enumerate(want):
                xdet = [xbasis_to_group(ga, det[a]) for a in range(engine.k + 1)]
                for t in range(engine.len):
                    assert got[b, t] == xdet[t.bit_count()][t], (g.arcs, engine.k, b, t)
            for seen, _ in _det_routes(engine, mats):
                routes.update(seen or {"plain"})
        assert min(routes[r] for r in ("plain", "column", "zero", "minors")) >= 1, routes
        assert sum(minors_draws) == routes["minors"], (minors_draws, routes)

    def test_reference_dets_live_in_graded_subring(self, minors_draws):
        # the reference determinant has no t^a * x^T term with |T| < a, on
        # every det_batch route: the kernel of the map to the marker ring is
        # an ideal of the subring these terms span
        routes = Counter()
        for _, engine, mats, _, want in _internal_determinant_cases(88):
            engine.det_batch(mats)  # counts the minors draws
            for seen, _ in _det_routes(engine, mats):
                routes.update(seen or {"plain"})
            ga = GroupAlgebra(engine.f, engine.k)
            for det in want:
                for a in range(engine.k + 1):
                    xdet = xbasis_to_group(ga, det[a])
                    assert all(xdet[t] == 0 for t in range(engine.len) if t.bit_count() < a), (engine.k, a)
        assert min(routes[r] for r in ("plain", "column", "zero", "minors")) >= 1, routes
        assert sum(minors_draws) == routes["minors"], (minors_draws, routes)

    def test_unit_inverse(self):
        rng = np.random.default_rng(87)
        field = make_binary_field(binary_field_degree(8))
        for k in range(1, branchings.GROUP_RANK_LIMIT + 1):
            engine = branchings._InternalSieveEngine(complete_digraph(8), [0], k, field)
            units = rng.integers(0, field.q, size=(40, engine.len), dtype=np.int32)
            units[:20, 1:] *= rng.random((20, engine.len - 1)) < 0.2  # sparse ones too
            units[:, 0] = rng.integers(1, field.q, size=40)
            units[0, 1:] = 0
            one = np.zeros_like(units)
            one[:, 0] = 1
            assert (engine._mul(units, engine._inverse(units)) == one).all(), k

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("m", [2, 6, 8, 16])
    def test_mul_matches_scalar_convolution(self, m, block, monkeypatch):
        # broadcast [r, 1, B, len] x [1, c, B, len] products against the
        # disjoint-subset convolution, with zero slots (the log table's zero
        # sentinel) and an all-zero operand; block 7 splits the exp gather
        # into many blocks with a ragged last one
        if block:
            monkeypatch.setattr(branchings, "INTERNAL_EXP_BLOCK", block)
        field = make_binary_field(m)
        rng = np.random.default_rng(m)
        for k in range(1, branchings.GROUP_RANK_LIMIT + 1):
            ring = MarkerRing(field, k)
            engine = branchings._InternalSieveEngine(complete_digraph(3), [0], k, field)
            nb = 3 if k < 5 else 2
            a = rng.integers(0, field.q, size=(2, 1, nb, ring.dim), dtype=np.int32)
            b = rng.integers(0, field.q, size=(1, 3, nb, ring.dim), dtype=np.int32)
            a *= rng.random(a.shape) < 0.7
            b *= rng.random(b.shape) < 0.7
            b[0, 1, 0] = 0
            got = engine._mul(a, b)
            assert got.shape == (2, 3, nb, ring.dim) and got.dtype == np.int32
            for i in range(2):
                for j in range(3):
                    for t in range(nb):
                        want = ring.mul(tuple(a[i, 0, t].tolist()), tuple(b[0, j, t].tolist()))
                        assert tuple(got[i, j, t].tolist()) == want, (m, k, i, j, t)

    def test_build_matrices_matches_per_arc_loop(self):
        # the planned gathers against the loop they replaced: each arc u->v
        # xors its weight into (v, v), and into (u, v) unless u is the root,
        # on the (graph, root) pairs with no forced parent, which keep all
        # n-1 rows and no factor (TestInternalForcedParents covers the rest)
        rnd = random.Random(89)
        kept = 0
        graphs = [complete_digraph(5), COLUMN_GRAPH, directed_cycle(4), out_star(5)]
        graphs += [random_digraph(rnd, rnd.randint(2, 8), rnd.uniform(0.2, 0.9)) for _ in range(12)]
        for g in graphs:
            field = make_binary_field(binary_field_degree(g.n))
            for k in (1, 3):
                for root in range(g.n):
                    engine = branchings._InternalSieveEngine(g, [root], k, field)
                    if len(engine.verts) < g.n - 1:
                        continue
                    kept += 1
                    pos = {u: i for i, u in enumerate(engine.verts)}
                    zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, 3, root, 0, 4)
                    single = 1 << np.arange(k)
                    want = np.zeros((g.n - 1, g.n - 1, 4, 1 << k), dtype=np.int32)
                    for ai, (u, v) in enumerate(sorted(g.arcs)):
                        if v == root:
                            continue
                        weight = np.zeros((4, 1 << k), dtype=np.int32)
                        weight[:, 0] = zeta[:, ai]
                        marked = (gvec[:, u, None] & single) != 0
                        weight[:, single] = np.where(marked, field.nmul(zeta[:, ai], rmul[:, ai])[:, None], 0)
                        want[pos[v], pos[v]] ^= weight
                        if u != root:
                            want[pos[u], pos[v]] ^= weight
                    got, factors = engine.build_matrices(zeta, rmul, gvec)
                    assert got.dtype == np.int32 and np.array_equal(got, want), (sorted(g.arcs), root, k)
                    assert factors.shape == (0, 4, 1 << k)
        assert kept >= 50, kept

    @pytest.mark.parametrize("stuck", [True, False], ids=["in-ideal", "general"])
    def test_det_minors_matches_reference(self, stuck):
        # the sign-free minor expansion against the division-free reference
        # determinant on random ring stacks of s = 1..6 rows at ranks k =
        # s..6, one draw and several at once; stuck puts every entry in M
        # (slot 0 zero), as in det_batch's unit-free blocks, where only the
        # slots T with |T| >= s can be nonzero
        rng = np.random.default_rng(92 if stuck else 93)
        field = make_binary_field(6)
        nonzero = 0
        for k in range(1, branchings.GROUP_RANK_LIMIT + 1):
            engine = branchings._InternalSieveEngine(complete_digraph(3), [0], k, field)
            ring = MarkerRing(field, k)
            for s in range(1, k + 1):
                for nb in (1, 3):
                    mats = rng.integers(0, field.q, size=(s, s, nb, engine.len), dtype=np.int32)
                    if stuck:
                        mats[..., 0] = 0
                    got = engine._det_minors(mats)
                    assert got.shape == (nb, engine.len) and got.dtype == np.int32
                    for b in range(nb):
                        rows = [[tuple(mats[i, j, b].tolist()) for j in range(s)] for i in range(s)]
                        assert tuple(got[b].tolist()) == det_division_free(square(ring, rows)), (k, s, nb, b)
                    nonzero += int(got.any(axis=1).sum())
        assert nonzero >= 40, nonzero

    def test_mixed_route_stacks(self, minors_draws, monkeypatch):
        # plain, column, zero and minors draws interleaved in one stack:
        # every row equals that draw's det_batch alone and the reference
        # determinant, the stacks reach a column whose pivot search is
        # skipped, and each stack takes one product, of the eliminated
        # diagonal, where a unit-free block left its value
        products = []
        product = branchings._tree_product

        def recording(factors, mul):
            products.append(factors.shape[:2])
            return product(factors, mul)

        monkeypatch.setattr(branchings, "_tree_product", recording)
        rnd = random.Random(90)
        routes = Counter()
        skipped = 0
        for engine, draws in _route_pools(rnd):
            ring = MarkerRing(engine.f, engine.k)
            nn = draws[0].shape[0]
            alone = []
            for draw in draws:
                got = engine.det_batch(draw[:, :, None])[0]
                rows = [[tuple(draw[i, j].tolist()) for j in range(nn)] for i in range(nn)]
                assert tuple(got.tolist()) == det_division_free(square(ring, rows)), (engine.k, draw.tolist())
                alone.append(got)
            for nb in (1, 2, 16, 34):
                order = [rnd.randrange(len(draws)) for _ in range(nb)]
                mats = np.stack([draws[i] for i in order], axis=2)
                products.clear()
                calls = len(minors_draws)
                dets = engine.det_batch(mats)
                for b, i in enumerate(order):
                    assert np.array_equal(dets[b], alone[i]), (engine.k, nb, b)
                replay = _det_routes(engine, mats)
                for seen, _ in replay:
                    routes.update(seen or {"plain"})
                assert products == [(nn, nb)]  # every draw's pivots, once
                # the draws that end in a unit-free block of at most k rows
                # take their value from _det_minors
                assert sum(minors_draws[calls:]) == sum("minors" in seen for seen, _ in replay)
                if any(seen for seen, _ in replay):
                    searched = set().union(*(cols for _, cols in replay))
                    skipped += len(set(range(nn - 1)) - searched)
        assert min(routes[r] for r in ("plain", "column", "zero", "minors")) >= 1, routes
        assert skipped >= 1


def _sparse_ring_cases(seed: int):
    """(graph, roots, k) on graphs whose Laplacian stacks are mostly zero: hubs, rooted
    paths and an out-star with their one spanning root, and bidirected paths and
    stars with every root and with one."""
    rnd = random.Random(seed)
    cases = [(rooted_hubs(rnd, n, h, 2 * n), k) for n, h, k in ((7, 2, 3), (8, 3, 4), (9, 2, 2), (6, 3, 3))]
    cases += [(rooted_path(rnd, n, extra), k) for n, extra, k in ((6, 2, 2), (8, 3, 3), (7, 0, 1))]
    cases += [(out_star(6), 2), (bidirected_path(5), 2), (bidirected_path(6), 3), (bidirected_star(6), 3)]
    for g, k in cases:
        roots = branchings._spanning_roots(g)
        yield g, roots, k
        if len(roots) > 1:
            yield g, [rnd.choice(roots)], k


@pytest.fixture
def spans(monkeypatch):
    """Per _live_span call, in call order: None if it skipped every line, else whether it skipped some.

    Recorded under both modules that call it: det_batch reads branchings'
    binding, batched_modp_det modp's.
    """
    seen = []
    live_span = modp._live_span

    def recording(lines, start):
        got = live_span(lines, start)
        seen.append(None if got is None else got.stop - got.start < len(lines))
        return got

    monkeypatch.setattr(branchings, "_live_span", recording)
    monkeypatch.setattr(modp, "_live_span", recording)
    return seen


@pytest.fixture
def update_rows(monkeypatch):
    """Rows of each block that a batched_modp_det step updates and re-centres at once, in call order."""
    seen = []
    centre_mod = modp._centre_mod

    def recording(x, p, *scratch):
        if x.ndim == 3:  # an update block; a zero pivot's row addition is [zeros, d - j]
            seen.append(x.shape[0])
        return centre_mod(x, p, *scratch)

    monkeypatch.setattr(modp, "_centre_mod", recording)
    return seen


class TestScreenedElimination:
    """det_batch and batched_modp_det skip the rows and columns that are zero in every matrix of a stack."""

    def test_ring_sparse_stacks_match_reference_every_slot(self, spans):
        # every slot of det_batch against the xor of the reference's punctured
        # ring determinants, on stacks whose screens skip lines
        sizes = Counter()
        for g, roots, k in _sparse_ring_cases(36):
            field = make_binary_field(binary_field_degree(g.n))
            zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, 7, roots[0], 0, 3)
            engine = branchings._InternalSieveEngine(g, roots, k, field)
            got = _full_dets(engine, *engine.build_matrices(zeta, rmul, gvec))
            assert got.tolist() == internal_root_sum(g, roots, k, field, zeta, rmul, gvec), (sorted(g.arcs), roots)
            sizes[len(roots) > 1] += 1
        assert min(sizes[False], sizes[True]) >= 2, sizes
        # some screens skip everything, some part of the lines, some nothing
        assert {None, True, False} <= set(spans)

    def test_hub_rows_alone_update(self, monkeypatch):
        # on a k-internal NO on hubs only hub rows hold off-diagonal entries,
        # and elimination never fills a non-hub row, so a non-hub pivot row
        # triggers no ring product; every update product follows a hub's
        # screen. The stacks keep the draws that need no pivot search, so no
        # row addition puts a hub's row into a non-hub's pivot row.
        events = []
        mul, product, live_span = branchings._InternalSieveEngine._mul, branchings._tree_product, branchings._live_span

        def recording_mul(engine, a, b):
            events.append("mul")
            return mul(engine, a, b)

        def recording_product(factors, mul):
            events.append("product")
            return product(factors, mul)

        def recording_span(lines, start):
            events.append(start - 1)  # the pivot's row
            return live_span(lines, start)

        monkeypatch.setattr(branchings._InternalSieveEngine, "_mul", recording_mul)
        monkeypatch.setattr(branchings, "_tree_product", recording_product)
        monkeypatch.setattr(branchings, "_live_span", recording_span)
        rnd = random.Random(37)
        total = 0
        for n, hubs, k in ((9, 2, 3), (8, 3, 4), (11, 3, 4), (10, 4, 5)):
            g = rooted_hubs(rnd, n, hubs, 2 * n)
            tails = {u for u, _ in g.arcs}
            roots = branchings._spanning_roots(g)
            assert roots == [0] and len(tails) <= hubs
            field = make_binary_field(binary_field_degree(n))
            engine = branchings._InternalSieveEngine(g, roots, k, field)
            draws = branchings._draw_internal_chunk(g, k, field, 3, 0, 0, branchings.INTERNAL_CHUNK)
            mats, _ = engine.build_matrices(*draws)
            mats = mats[:, :, [b for b, (_, searched) in enumerate(_det_routes(engine, mats)) if not searched]]
            assert mats.shape[2] >= 25
            events.clear()
            dets = engine.det_batch(mats)
            assert not dets[:, -1].any()  # a NO: no draw has the verdict slot
            if not engine.verts:  # two hubs leave no row once forced parents are out
                assert hubs == 2 and not events
                continue
            updates = []
            step = None
            for event in events[: events.index("product")]:
                if event == "mul":
                    updates.append(step)
                else:
                    step = event
            assert len(updates) % 2 == 0  # the factor and the update
            assert all(engine.verts[j] in tails for j in updates), (sorted(g.arcs), updates)
            total += len(updates)
        assert total >= 2  # a hub below another hub's pivot row takes an update

    @staticmethod
    def modp_stacks(p: int, rng):
        """(name, [B, d, d] stack in [0, p)) with lines that are zero in every matrix or in some."""
        def rand(*shape):
            return rng.integers(1, p, size=shape, dtype=np.int64)

        # block upper triangular, blocks {0, 1}, {2, 3}, {4, 5}: the step-0
        # screen updates row 1 alone, the step-1 screen nothing
        blocks = rand(16, 6, 6)
        blocks[:, 2:, :2] = 0
        blocks[:, 4:, :4] = 0
        blocks[:4, 0, 0] = 0  # a zero pivot: row 1 is added to row 0 at step 0
        yield "blocks", blocks
        # column 0 nonzero only in rows 0 and 1, so step 0 skips rows 2-6;
        # in half the matrices row 1 is t * row 0 in columns 0 and 1, so the
        # pivot at (1, 1) is 0 after step 0 and the unscaled row 2 is
        # added to row 1 at step 1, before the 4-row tail
        added = rand(16, 7, 7)
        added[:, 2:, 0] = 0
        t = rand(8)
        added[:8, 1, :2] = added[:8, 0, :2] * t[:, None] % p
        added[:4, 3] = added[:4, 2]  # and a repeated row: singular
        yield "added", added
        # rows zero in some matrices only, zero entries scattered, a zero
        # column in some matrices; singular ones among them
        mixed = rand(24, 7, 7) * (rng.random((24, 7, 7)) < 0.6)
        mixed[:3, 4] = 0
        mixed[3:6, :, 2] = 0
        mixed[6:12, 5:, :3] = 0
        yield "mixed", mixed
        for d, density in ((3, 0.3), (8, 0.15), (9, 0.35)):
            yield f"sparse{d}", rand(20, d, d) * (rng.random((20, d, d)) < density)

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("p", [7, 1_000_003, MERSENNE_31])
    def test_modp_sparse_stacks_match_gauss(self, p, block, spans, update_rows, monkeypatch):
        if block:
            monkeypatch.setattr(modp, "MODP_BLOCK", block)
        field = PrimeField(p)
        rng = np.random.default_rng(p % 1021)
        singular = 0
        for name, mats in self.modp_stacks(p, rng):
            want = [det_gauss(square(field, m.tolist())) for m in mats]
            if name == "added":  # the addition happens: (1, 1) cancels, (2, 1) does not
                head = mats[:8]
                assert not ((head[:, 0, 0] * head[:, 1, 1] - head[:, 1, 0] * head[:, 0, 1]) % p).any()
                assert head[:, 2, 1].all()
                assert any(want[4:8]) and not any(want[:4])
            assert batched_modp_det(mats.copy(), p).tolist() == want, name
            singular += want.count(0)
        assert singular >= 10
        assert {None, True, False} <= set(spans)
        assert max(update_rows) == 1 if block else max(update_rows) > 1


def _random_root_lists(seed: int, count: int, nmax: int):
    """(graph, roots) pairs, n = 2..nmax, with 1 to n distinct roots in random order (any vertices)."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(2, nmax)
        g = random_digraph(rnd, n, rnd.uniform(0.2, 0.9))
        yield g, rnd.sample(range(n), rnd.randint(1, n)), rnd


class TestRootBorder:
    """One determinant for every root: row r = roots[0] of the in-arc Laplacian replaced by w
    has determinant sum_v w_v * det(L_vv), and one root expands back to the punctured matrix."""

    def test_identity_over_integers(self):
        for g, roots, rnd in _random_root_lists(101, 60, 8):
            weights = {arc: rnd.randint(-5, 9) for arc in g.arcs}
            lap = build_laplacian(g, weights, INTEGERS)
            w = {v: rnd.randint(-5, 9) for v in roots}
            want = sum(w[v] * det_bareiss(puncture(lap, v)) for v in roots)
            assert det_bareiss(border(lap, roots[0], w)) == want, (sorted(g.arcs), roots)

    def test_engine_determinant_is_the_root_sum(self):
        # every slot of det_batch on the bordered matrix equals the xor of the
        # reference's punctured ring determinants; one root keeps n-1 rows
        sizes = Counter()
        for g, roots, rnd in _random_root_lists(102, 50, 8):
            k = rnd.randint(1, min(3, g.n - 1))
            field = make_binary_field(binary_field_degree(g.n))
            zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, rnd.randrange(99), roots[0], 0, 2)
            engine = branchings._InternalSieveEngine(g, roots, k, field)
            mats, factors = engine.build_matrices(zeta, rmul, gvec)
            assert mats.shape[0] == len(engine.verts) <= (g.n if len(roots) > 1 else g.n - 1)
            got = _full_dets(engine, mats, factors)
            want = internal_root_sum(g, roots, k, field, zeta, rmul, gvec)
            assert got.tolist() == want, (sorted(g.arcs), roots, k)
            sizes[len(roots) > 1] += 1
        assert min(sizes[False], sizes[True]) >= 5, sizes

    def test_leaf_polynomial_is_the_root_sum(self):
        # and on one root it is y_r * det(L_rr), the punctured value, to the residue
        p = 2_147_482_763
        sizes = Counter()
        for g, roots, rnd in _random_root_lists(103, 40, 8):
            ys = np.array([[rnd.randrange(p) for _ in range(g.n)] for _ in range(3)], dtype=np.int64)
            got = BranchingLeafPolynomial(g, roots).evaluate_batch(ys, p).tolist()
            for row, value in zip(ys.tolist(), got):
                assert value == sum(leaf_polynomial_value(g, v, row, p) for v in roots) % p, (roots, row)
            sizes[len(roots) > 1] += 1
        assert min(sizes[False], sizes[True]) >= 5, sizes

    def test_gather_guard_bounds_the_bordered_update(self, monkeypatch):
        # the guard's formula accepts only (n, K) whose real first rank-1
        # gather, n-row bordered matrices included, stays under the limit
        for n in range(2, 257):
            for k in range(1, min(branchings.GROUP_RANK_LIMIT, n - 1) + 1):
                if branchings._internal_gather_bytes(n, k) <= branchings.INTERNAL_GATHER_LIMIT:
                    assert (n - 1) ** 2 * branchings.INTERNAL_CHUNK * 3**k * 4 <= branchings.INTERNAL_GATHER_LIMIT
                    # and so does the largest gather of _det_minors on a stuck block of s rows
                    widest = max(math.comb(s, r + 1) * (r + 1) for s in range(1, min(k, n - 1) + 1) for r in range(s))
                    minors = widest * branchings.INTERNAL_CHUNK * 3**k * 4
                    assert minors <= 60 * branchings.INTERNAL_CHUNK * 3**k * 4
                    assert minors <= branchings.INTERNAL_GATHER_LIMIT
        # and that is the largest int32 pair gather det_batch makes on a full
        # chunk: the first update is that large where column 0 and row 0 are
        # full (a bidirected star, a complete digraph), and the screens keep
        # every update smaller on sparse graphs
        gathers = []
        mul = branchings._InternalSieveEngine._mul

        def recording(engine, a, b):
            gathers.append(np.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])) * len(engine.ia) * 4)
            return mul(engine, a, b)

        monkeypatch.setattr(branchings._InternalSieveEngine, "_mul", recording)
        cases = [(bidirected_star(6), 2, True), (complete_digraph(5), 3, True), (complete_digraph(4), 1, True),
                 (bidirected_path(5), 3, False), (out_star(6), 2, False), (directed_path(6), 2, False)]
        for g, k, dense in cases:
            roots = branchings._spanning_roots(g)
            field = make_binary_field(binary_field_degree(g.n))
            engine = branchings._InternalSieveEngine(g, roots, k, field)
            draws = branchings._draw_internal_chunk(g, k, field, 5, roots[0], 0, branchings.INTERNAL_CHUNK)
            gathers.clear()
            engine.det_batch(engine.build_matrices(*draws)[0])
            nn = g.n if len(roots) > 1 else g.n - 1
            first = (nn - 1) ** 2 * branchings.INTERNAL_CHUNK * 3**k * 4
            assert (max(gathers) == first) if dense else (max(gathers, default=0) < first), (g.arcs, k)


class TestBatchedPrimeDet:
    def test_matches_fraction_free(self):
        rnd = np.random.default_rng(19)
        p = 2_147_483_029  # a 31-bit prime
        mats = rnd.integers(0, p, size=(25, 5, 5), dtype=np.int64)
        dets = batched_modp_det(mats.copy(), p)
        for i in range(25):
            want = det_bareiss(square(INTEGERS, mats[i].tolist())) % p
            assert int(dets[i]) == want

    def test_zero_order(self):
        assert batched_modp_det(np.zeros((4, 0, 0), dtype=np.int64), 7).tolist() == [1] * 4

    def test_order_one(self):
        p = MERSENNE_31
        entries = [0, 1, 5, p - 1]
        mats = np.array(entries, dtype=np.int64).reshape(4, 1, 1)
        assert batched_modp_det(mats, p).tolist() == entries

    def test_inverse_only_after_an_update(self, monkeypatch):
        # no row is scaled where no step updates one: order 0 and 1, stacks
        # whose columns are zero below the diagonal in every matrix, and
        # MINOR_TAIL x MINOR_TAIL stacks, which are their own tail; the batch
        # inverse runs only where some row was updated
        calls = []
        batch_inverse = modp._batch_inverse

        def recording(x, p):
            calls.append(x.shape)
            return batch_inverse(x, p)

        monkeypatch.setattr(modp, "_batch_inverse", recording)
        p = 2_147_483_029
        rnd = np.random.default_rng(23)
        upper = np.triu(rnd.integers(0, p, size=(6, 7, 7)))
        full = rnd.integers(0, p, size=(6, 5, 5))
        tail = rnd.integers(0, p, size=(6, 4, 4))
        cases = [(np.zeros((3, 0, 0), dtype=np.int64), 0), (rnd.integers(0, p, size=(5, 1, 1)), 0),
                 (upper, 0), (tail, 0), (full, 1)]
        for mats, inverses in cases:
            calls.clear()
            want = [det_gauss(square(PrimeField(p), m.tolist())) for m in mats]
            assert batched_modp_det(mats.copy(), p).tolist() == want
            assert len(calls) == inverses, mats.shape

    def test_peak_memory_at_the_stack_cap(self):
        # a dense LEAF_STACK_LIMIT stack at d = 8, laid out batch-last as
        # _laplacians builds it, is eliminated in place; what the call itself
        # allocates (scratch blocks, the [d, B] diagonal and the products of
        # its powers) peaks well under one stack
        p = 2_147_483_029
        d = 8
        nmats = branchings.LEAF_STACK_LIMIT // (8 * d * d)
        buf = np.random.default_rng(29).integers(1, p, size=(d, d, nmats), dtype=np.int64)
        want = [det_gauss(square(PrimeField(p), buf[:, :, i].tolist())) for i in (0, 1, nmats - 1)]
        tracemalloc.start()
        try:
            dets = batched_modp_det(buf.transpose(2, 0, 1), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= branchings.LEAF_STACK_LIMIT // 2, f"{peak / 2**20:.1f} MiB"
        assert [int(dets[i]) for i in (0, 1, nmats - 1)] == want

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
        mats[20:30, 0, 0] = 0  # zero leading pivot: a row addition
        mats[20:30, 2, 2] = mats[20:30, 1, 2] = 0
        for i in range(30, 40):  # permutation matrices, odd and even
            mats[i] = np.eye(6, dtype=np.int64)[rng.permutation(6)] * rng.integers(1, p)
        dets = batched_modp_det(mats.copy(), p)
        for i in range(40):
            assert int(dets[i]) == det_gauss(square(field, mats[i].tolist())), i
        assert not dets[:20].any()
        assert dets[30:].all()

    @pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, 2_147_483_029, MERSENNE_31])
    def test_batch_last_view_matches_contiguous(self, p):
        # residues p-1, (p-1)/2 and (p+1)/2 everywhere, and stacks whose only
        # nonzero pivot candidate at every column j < d-1 sits in the last row
        field = PrimeField(p)
        rng = np.random.default_rng(p % 1000)
        d = 6
        edge = np.array([p - 1, (p - 1) // 2, (p + 1) // 2 % p], dtype=np.int64)
        full = edge[rng.integers(0, 3, size=(30, d, d))]
        full[:3] = edge[:, None, None]  # constant stacks: rank one
        mixed = rng.random((7, d, d)) < 0.5
        full[3:10] = np.where(mixed, full[3:10], rng.integers(0, p, (7, d, d)))
        # strictly upper triangular, a nonzero superdiagonal and a nonzero
        # corner (d-1, 0): a cyclic chain, so column j's pivot is in row d-1
        chain = edge[edge != 0]
        chains = np.triu(edge[rng.integers(0, 3, size=(30, d, d))], 1)
        chains[:, np.arange(d - 1), np.arange(1, d)] = chain[rng.integers(0, chain.size, (30, d - 1))]
        chains[:, d - 1, 0] = chain[rng.integers(0, chain.size, 30)]
        mats = np.concatenate([full, chains])
        want = [det_gauss(square(field, m.tolist())) for m in mats]
        batch_last = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert not batch_last.flags.c_contiguous
        assert batch_last.shape == mats.shape
        assert batched_modp_det(batch_last, p).tolist() == want
        assert batched_modp_det(mats.copy(), p).tolist() == want
        assert all(want[30:])  # a cyclic chain: every chain stack is nonsingular

    def test_one_row_blocks(self, update_rows, monkeypatch):
        # MODP_BLOCK = 1: every step updates its trailing rows one at a time,
        # steps 0..2 of a 7 x 7 stack, before its 4 x 4 tail
        monkeypatch.setattr(modp, "MODP_BLOCK", 1)
        p = MERSENNE_31
        field = PrimeField(p)
        rng = np.random.default_rng(25)
        mats = rng.integers(0, p, size=(20, 7, 7), dtype=np.int64)
        mats[:5, 0] = 0  # zero first row: singular
        mats[5:10, 0, 0] = 0  # zero leading pivot: a row addition
        dets = batched_modp_det(mats.copy(), p)
        assert dets.tolist() == [det_gauss(square(field, m.tolist())) for m in mats]
        assert not dets[:5].any() and dets[5:].all()
        assert len(update_rows) == 6 + 5 + 4 and max(update_rows) == 1

    @pytest.mark.parametrize("block", [None, 30])
    @pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, MERSENNE_31])
    def test_signed_minor_tail_matches_gauss(self, p, block, monkeypatch):
        # orders 0-9: up to MINOR_TAIL rows are all tail, more run d -
        # MINOR_TAIL elimination steps first. Per order: zero pivots before
        # the tail, tails that elimination leaves untouched with a zero in
        # their leading entry, a repeated or a zero row (singular), a
        # dependent row across the split, and dense draws; contiguous and
        # batch-last. MODP_BLOCK = 30 runs the tail's minors (up to 12
        # products per matrix) two matrices at a time
        if block:
            monkeypatch.setattr(modp, "MODP_BLOCK", block)
        field = PrimeField(p)
        rng = np.random.default_rng(p % 1019)
        t = modp.MINOR_TAIL
        singular = nonsingular = 0
        for d in range(10):
            s = max(0, d - t)  # the elimination steps
            mats = rng.integers(0, p, size=(25, d, d), dtype=np.int64)
            if d >= 2:
                mats[:4, 0, 0] = 0  # a zero pivot at step 0, or the tail's own leading zero
                mats[4:12, s:, :s] = 0  # the tail rows take no update
                mats[4:8, s, s] = 0
                mats[8:10, d - 1, s:] = mats[8:10, s, s:]
                mats[10:12, d - 1] = 0
                mats[16:20] *= rng.random((4, d, d)) < 0.4
            if d >= 3:
                mats[12:16, d - 1] = (mats[12:16, 0] + 2 * mats[12:16, 1]) % p
            want = [det_gauss(square(field, m.tolist())) for m in mats]
            batch_last = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
            assert batched_modp_det(mats.copy(), p).tolist() == want, d
            assert batched_modp_det(batch_last, p).tolist() == want, d
            if d >= 2:
                assert not any(want[8 : 16 if d >= 3 else 12]), d
            singular += want.count(0)
            nonsingular += len(want) - want.count(0)
        assert singular >= 60 and nonsingular >= 40, (singular, nonsingular)

    @pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, 2_147_483_029])
    def test_batch_inverse_matches_fermat(self, p):
        # zeros at both ends and in odd positions of the product tree map to 0
        rng = np.random.default_rng(p % 1009)
        for size in (1, 2, 3, 16, 17, 1088):
            dense = rng.integers(1, p, size=size)
            holes = dense.copy()
            holes[[0, -1]] = 0
            holes[1::2][::3] = 0
            for x in (dense, holes):
                before = x.copy()
                want = [pow(v, p - 2, p) if v else 0 for v in x.tolist()]
                assert modp._batch_inverse(x, p).tolist() == want, (size, x.tolist())
                assert (x == before).all()
        assert modp._batch_inverse(np.zeros(0, dtype=np.int64), p).tolist() == []

    @pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, 2_147_483_029])
    def test_singular_between_nonsingular(self, p):
        # a singular matrix's diagonal product is 0, which the batch inverse must
        # leave 0 without spoiling its neighbours' inverses in the tree
        field = PrimeField(p)
        rng = np.random.default_rng(p % 1013)
        mats = rng.integers(0, p, size=(17, 5, 5), dtype=np.int64)
        for i in (0, 16, 5):
            mats[i, 3] = mats[i, 1]  # repeated row
        for i in (1, 3, 9):
            mats[i, :, 2] = 0  # zero column
        mats[7, 4] = 0  # zero last row: only the last pivot is 0
        mats[11] = np.triu(mats[11], 1)  # zero diagonal, nilpotent
        mats[12] = np.eye(5, dtype=np.int64)[rng.permutation(5)] * rng.integers(1, p)
        want = [det_gauss(square(field, m.tolist())) for m in mats]
        assert batched_modp_det(mats.copy(), p).tolist() == want
        singular = (0, 1, 3, 5, 7, 9, 11, 16)
        assert not any(want[i] for i in singular)
        assert want[12] and any(want[i] for i in range(17) if i not in singular and i != 12)

    @pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, 2_147_483_029, MERSENNE_31])
    def test_centred_reduction_bound(self, p):
        # r = x - p * rint(x / p) in float64: r = x mod p, |r| <= p/2 + 2^-51 * |x|
        top = 2**62 - 1
        values = [top, -top]
        half = ((p - 1) // 2, (p + 1) // 2)
        for k in (0, 1, 5, 2**20, (top - p) // p, -1, -(2**33) // p, -((top - p) // p)):
            values += [k * p, k * p + 1, k * p - 1]
            values += [k * p + s * h for s in (1, -1) for h in half]
        x = np.array(values, dtype=np.int64)
        r = modp._centre_mod(x.copy(), p)
        for xi, ri in zip(values, r.tolist()):
            assert (xi - ri) % p == 0, (xi, ri)
            assert 2**51 * abs(ri) <= 2**50 * p + abs(xi), (xi, ri)
            if abs(xi) < 2**50:  # then the quotient rounds exactly: |r| <= p/2
                assert 2 * abs(ri) <= p, (xi, ri)

    def test_word_size_guard(self):
        # int64 products of residues need p < 2^31; past it batch values would be silently wrong
        g = random_digraph(random.Random(20), 6, 0.5)
        P = BranchingLeafPolynomial(g, [0])
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
        vinv = inverse_vandermonde(5, p)
        vander = np.array([[pow(x, j, p) for j in range(5)] for x in range(1, 6)], dtype=np.int64)
        assert (vander @ vinv % p).tolist() == np.eye(5, dtype=np.int64).tolist()
        # the points 1..N are distinct mod p, and their factorials invertible, up to N = p
        assert (inverse_vandermonde(7, 7) == inverse_vandermonde_at(np.arange(1, 8), 7)).all()
        for npts in (0, 8):
            with pytest.raises(ValueError, match="distinct"):
                inverse_vandermonde(npts, 7)

    def test_matches_the_general_points_builder(self):
        # the factorial denominators at the points 1..N against Horner's at any points
        for p in (2_147_483_029, 2_147_483_587, 2_147_481_629, MERSENNE_31, 1_073_741_827):
            for npts in [*range(1, 41), 121, 1025]:
                want = inverse_vandermonde_at(np.arange(1, npts + 1), p)
                assert (inverse_vandermonde(npts, p) == want).all(), (p, npts)

    def test_matches_scalar_at_512_vertices(self):
        # 1,025 points 1..2n+1 at n = 512 and p = 2^31 - 1: the largest
        # values and vinv entries the 16-bit limbs have to carry exactly
        p = MERSENNE_31
        npts = 2 * 512 + 1
        vinv = inverse_vandermonde(npts, p)
        values = np.full((2, npts), p - 1, dtype=np.int64)
        values[1] = np.random.default_rng(23).integers(0, p, size=npts)
        got = interpolate_univariate(values, vinv, p)
        assert got.shape == (2, npts)
        assert got[0].tolist() == [p - 1] + [0] * (npts - 1)  # the constant -1
        for row in range(2):
            points = list(zip(range(1, npts + 1), values[row].tolist()))
            assert tuple(got[row].tolist()) == scalar_interpolate(points, npts - 1, p), row

    def test_random_rows(self):
        # any inverse Vandermonde serves interpolate_univariate: here the
        # general builder's, at distinct random abscissae
        rnd = random.Random(24)
        for npts in (1, 2, 9, 17):
            p = rnd.choice([1_000_003, 2_147_483_029, MERSENNE_31])
            xs = rnd.sample(range(p), npts)
            vinv = inverse_vandermonde_at(xs, p)
            values = np.array([[rnd.randrange(p) for _ in range(npts)] for _ in range(5)], dtype=np.int64)
            got = interpolate_univariate(values, vinv, p)
            for row in range(5):
                points = list(zip(xs, values[row].tolist()))
                assert tuple(got[row].tolist()) == scalar_interpolate(points, npts - 1, p)
        with pytest.raises(ValueError, match="distinct"):
            inverse_vandermonde_at([1, 2, 1_000_004], 1_000_003)

    def test_shifted_abscissae(self):
        # the points 1..N that solve_nk_dv evaluates at, up to N = 1,025 (n = 512)
        rnd = random.Random(25)
        for npts in (1, 2, 9, 17, 1025):
            p = rnd.choice([1_000_003, 2_147_483_029, MERSENNE_31])
            xs = np.arange(1, npts + 1)
            vinv = inverse_vandermonde(npts, p)
            values = np.array([[rnd.randrange(p) for _ in range(npts)] for _ in range(3)], dtype=np.int64)
            values[0] = p - 1
            got = interpolate_univariate(values, vinv, p)
            assert got[0].tolist() == [p - 1] + [0] * (npts - 1)  # the constant -1
            for row in range(3):
                points = list(zip(xs.tolist(), values[row].tolist()))
                assert tuple(got[row].tolist()) == scalar_interpolate(points, npts - 1, p), (npts, row)


@pytest.fixture
def table_centrings(monkeypatch):
    """The prime of each _centre_mod call that BranchingLeafPolynomial._table makes, in call order.

    Patched under branchings only, so batched_modp_det's own reductions go unrecorded.
    """
    seen = []
    centre_mod = modp._centre_mod

    def recording(x, p, *scratch):
        seen.append(p)
        return centre_mod(x, p, *scratch)

    monkeypatch.setattr(branchings, "_centre_mod", recording)
    return seen


class TestLeafPolynomial:
    def test_all_ones_counts_branchings(self):
        rnd = random.Random(86)
        p = 1_000_003
        for _ in range(12):
            n = rnd.randint(2, 7)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            r = rnd.randrange(n)
            assert leaf_polynomial_value(g, r, [1] * n, p) == count_out_branchings(g, r) % p

    def test_batch_matches_scalar(self, table_centrings):
        rnd = random.Random(87)
        p = 2_147_482_763
        g = random_digraph(rnd, 6, 0.5)
        P = BranchingLeafPolynomial(g, [0])
        ys = np.array([[rnd.randrange(p) for _ in range(6)] for _ in range(10)], dtype=np.int64)
        batch = P.evaluate_batch(ys, p)
        for row, got in zip(ys.tolist(), batch.tolist()):
            assert leaf_polynomial_value(g, 0, row, p) == got
        assert table_centrings == [p]  # residues anywhere in [0, p) still centre the table

    @staticmethod
    def check_laplacians(roots, ys):
        # every entry must be a centred residue, as batched_modp_det's int64
        # bound needs, whether or not _table reduced it. One root punctures
        # the Laplacian; more replace row roots[0] by y on the roots
        p = MERSENNE_31
        g = complete_digraph(9)
        P = BranchingLeafPolynomial(g, roots)
        lap = P._laplacians(P._table(ys, p))
        nn = 9 if len(roots) > 1 else 8
        assert lap.shape == (12, nn, nn) and lap.transpose(1, 2, 0).flags.c_contiguous
        assert 2 * np.abs(lap).max() <= p
        for b, row in enumerate(ys.tolist()):
            full = build_laplacian(g, {(u, v): row[u] for u, v in g.arcs}, PrimeField(p))
            want = border(full, roots[0], {v: row[v] for v in roots}) if nn == 9 else puncture(full, 0)
            assert (lap[b] % p).tolist() == [list(r) for r in want.entries], b

    @staticmethod
    def large_ys():
        # in-degree 8 sums eight weights on the diagonal, each up to p - 1
        p = MERSENNE_31
        ys = np.random.default_rng(26).integers(0, p, size=(12, 9))
        ys[:4] = p - 1
        ys[4] = p // 2
        ys[5] = p // 2 + 1
        return ys

    def test_laplacians_are_centred_and_batch_last(self, table_centrings):
        self.check_laplacians([0], self.large_ys())
        assert table_centrings == [MERSENNE_31]

    def test_bordered_laplacians_are_centred_and_batch_last(self, table_centrings):
        self.check_laplacians([4, 0, 8], self.large_ys())
        assert table_centrings == [MERSENNE_31]

    def test_solver_scale_laplacians_skip_the_centring(self, table_centrings):
        # the solver's points 1..2n+1: every sum of at most eight of them is
        # already centred, so _table leaves the table as the sums made it
        ys = np.random.default_rng(27).integers(1, 2 * 9 + 2, size=(12, 9))
        ys[0] = 2 * 9 + 1
        for roots in ([0], [4, 0, 8], list(range(9))):
            self.check_laplacians(roots, ys)
        assert table_centrings == []

    def test_solver_scale_values_match_the_reference(self, table_centrings):
        rnd = random.Random(89)
        p = 2_147_482_763
        cases = [(complete_digraph(9), [0]), (complete_digraph(9), [4, 0, 8]), *_forced_parent_cases()]
        for g, roots in cases:
            P = BranchingLeafPolynomial(g, roots)
            ys = np.array([[rnd.randint(1, 2 * g.n + 1) for _ in range(g.n)] for _ in range(6)], dtype=np.int64)
            table = P._table(ys, p)
            lap = P._laplacians(table)
            assert lap.shape == (6, P.order, P.order) and lap.transpose(1, 2, 0).flags.c_contiguous
            assert 2 * np.abs(table).max() <= p
            for row, value in zip(ys.tolist(), P.evaluate_batch(ys, p).tolist()):
                assert value == bordered_leaf_value(g, roots, row, p), (sorted(g.arcs), roots, row)
                assert value == sum(leaf_polynomial_value(g, v, row, p) for v in roots) % p, (sorted(g.arcs), roots)
        assert table_centrings == []

    @pytest.mark.parametrize(
        "g, roots",
        [(directed_path(5), [0]), (out_star(5), [0]), (bidirected_path(5), list(range(5))),
         (complete_digraph(4), [0]), (complete_digraph(4), [0, 1, 2, 3]), (complete_digraph(6), [0])],
    )
    def test_centring_bound_edges(self, g, roots, table_centrings):
        # a table entry is at most max(ys) * depth; p = 2M + 1 and 2M - 1
        # (twin primes) put 2 * max(ys) * depth = 2M just below and just
        # past p, as close as an odd p lets it come
        P = BranchingLeafPolynomial(g, roots)
        depth = P._cells.shape[1]
        m = next(m for m in (6, 9, 15, 21, 30) if m % depth == 0)
        top = m // depth
        rnd = random.Random(90 + depth)
        ys = np.array([[rnd.randint(1, top) for _ in range(g.n)] for _ in range(8)], dtype=np.int64)
        ys[:, 0] = top
        ys[1] = top  # a full diagonal cell then sums to top * depth = m
        for p, centred in ((2 * m + 1, False), (2 * m - 1, True)):
            del table_centrings[:]
            got = P.evaluate_batch(ys, p).tolist()
            assert table_centrings == ([p] if centred else []), (p, depth, top)
            assert 2 * np.abs(P._table(ys, p)).max() <= p
            for row, value in zip(ys.tolist(), got):
                assert value == bordered_leaf_value(g, roots, row, p), (p, row)
                assert value == sum(leaf_polynomial_value(g, v, row, p) for v in roots) % p, (p, row)

    def test_centring_bound_met_exactly(self, table_centrings):
        # 2 * max(ys) * depth = p holds only at p = 2, on a plan with no cells:
        # every entry is then -1, 0 or 1, already centred
        g = directed_path(4)
        P = BranchingLeafPolynomial(g, [0])
        assert P._cells.shape[1] == 1
        ys = np.array([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]], dtype=np.int64)
        got = P.evaluate_batch(ys, 2).tolist()
        assert table_centrings == []
        assert got == [leaf_polynomial_value(g, 0, row, 2) for row in ys.tolist()] == [1, 0, 0]

    def test_reduces_a_copy_of_ys_only_outside_residues(self, monkeypatch):
        # entries below 0 or at least p evaluate as ys % p, from a reduced
        # copy; residues in [0, p), 0 and p - 1 included, reach _table as they are
        rnd = random.Random(91)
        p = 1_000_003
        g = random_digraph(rnd, 6, 0.5)
        P = BranchingLeafPolynomial(g, [0])
        seen = []
        table = P._table

        def recording(ys, q):
            seen.append(ys)
            return table(ys, q)

        monkeypatch.setattr(P, "_table", recording)
        inside = np.array([[rnd.randrange(p) for _ in range(6)] for _ in range(6)], dtype=np.int64)
        inside[0, :3] = 0
        inside[1, :3] = p - 1
        wide = np.array([[rnd.randrange(-3 * p, 3 * p) for _ in range(6)] for _ in range(4)], dtype=np.int64)
        for edge in (-1, p, None):
            ys = inside.copy()
            if edge is None:
                ys[2:] = wide
            else:
                ys[2, 4] = edge
            before = ys.copy()
            got = P.evaluate_batch(ys, p)
            assert (ys == before).all() and not np.shares_memory(seen[-1], ys)
            assert (got == P.evaluate_batch(ys % p, p)).all()
            assert got.tolist() == [leaf_polynomial_value(g, 0, row, p) for row in ys.tolist()]
        before = inside.copy()
        got = P.evaluate_batch(inside, p)
        assert (inside == before).all() and np.shares_memory(seen[-1], inside)
        assert got.tolist() == [leaf_polynomial_value(g, 0, row, p) for row in inside.tolist()]

    def test_homogeneous_degree_n(self):
        rnd = random.Random(88)
        p = 1_000_003
        P = BranchingLeafPolynomial(complete_digraph(5), [1])
        ys = [rnd.randrange(1, p) for _ in range(5)]
        c = rnd.randrange(2, p)
        scaled = [y * c % p for y in ys]
        base, got = P.evaluate_batch(np.array([ys, scaled], dtype=np.int64), p).tolist()
        assert got == base * pow(c, 5, p) % p


def _forced_parent_cases():
    """(graph, roots) on the shapes where columns have one parent group, each with its spanning
    roots and with each of those alone."""
    rnd = random.Random(3702)
    graphs = [
        directed_path(7), bidirected_path(6), out_star(6), directed_cycle(5),
        rooted_path(rnd, 9, 3), rooted_path(rnd, 12, 8), rooted_path(rnd, 10, 12),
        rooted_hubs(rnd, 9, 3, 16), rooted_hubs(rnd, 10, 2, 14),
        make_digraph(2, [(0, 1), (1, 0)]),  # a 2-cycle
        # 1 and 2 have the root as their only parent, 4 has both; 3 and 5 form a 2-cycle off the root
        make_digraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (5, 3)]),
        # roots 0, 1, 2: root 1's only parent is 0, root 2's is 1; 3 hangs off the cycle
        make_digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]),
        # roots 0..3 on a cycle, where root 0's only parent is 3; 4 and 5 form a 2-cycle off 1
        make_digraph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4), (4, 5), (5, 4)]),
    ]
    for g in graphs:
        roots = branchings._spanning_roots(g)
        yield g, roots
        if len(roots) > 1:
            for r in roots:
                yield g, [r]


class TestForcedParents:
    """BranchingLeafPolynomial takes forced parents out as linear factors: P = prod D_j * det L'."""

    @staticmethod
    def check(g, roots, rnd, p=2_147_482_763):
        # the contracted evaluation equals the reference's uncontracted
        # root-bordered polynomial and the sum of its one-root polynomials
        P = BranchingLeafPolynomial(g, roots)
        ys = np.array([[rnd.randrange(p) for _ in range(g.n)] for _ in range(4)], dtype=np.int64)
        ys[0] = rnd.randrange(1, 2 * g.n + 2)  # one point on the solver's scale
        got = P.evaluate_batch(ys, p).tolist()
        for row, value in zip(ys.tolist(), got):
            assert value == bordered_leaf_value(g, roots, row, p), (sorted(g.arcs), roots, row)
            assert value == sum(leaf_polynomial_value(g, v, row, p) for v in roots) % p, (sorted(g.arcs), roots)
        return P

    def test_random_sparse_digraphs_match_the_uncontracted_polynomial(self):
        rnd = random.Random(3701)
        kinds = Counter()
        for _ in range(150):
            n = rnd.randint(2, 9)
            g = random_digraph(rnd, n, rnd.uniform(0.1, 0.5))
            roots = branchings._spanning_roots(g) or [rnd.randrange(n)]
            P = self.check(g, roots, rnd)
            nn = n if len(roots) > 1 else n - 1
            kinds[len(roots) > 1, "none" if P.order == nn else "all" if P.order == 0 else "some"] += 1
        assert min(kinds[False, "all"], kinds[False, "some"], kinds[False, "none"], kinds[True, "some"]) >= 5, kinds

    def test_shapes_match_the_uncontracted_polynomial(self):
        rnd = random.Random(3703)
        contracted = 0
        for g, roots in _forced_parent_cases():
            P = self.check(g, roots, rnd)
            contracted += P.order < (g.n if len(roots) > 1 else g.n - 1)
        assert contracted >= 15, contracted

    def test_orders(self):
        assert BranchingLeafPolynomial(directed_path(9), [0]).order == 0
        assert BranchingLeafPolynomial(out_star(7), [0]).order == 0
        assert BranchingLeafPolynomial(bidirected_path(7), list(range(7))).order == 7
        for n in (3, 6):
            assert BranchingLeafPolynomial(complete_digraph(n), list(range(n))).order == n
            assert BranchingLeafPolynomial(complete_digraph(n), [1]).order == n - 1
        # a directed cycle rooted at 0 is a path: every parent is forced
        assert BranchingLeafPolynomial(directed_cycle(6), [0]).order == 0
        for roots in ([], [-1], [0, 6]):
            with pytest.raises(ValueError, match="root out of range"):
                BranchingLeafPolynomial(directed_cycle(6), roots)

    def test_diagonal_forms_are_nonzero_sums(self):
        # at y = e_u each diagonal entry of L' reads its coefficient of y_u:
        # every one is 0 or 1, and every diagonal has at least one 1, so the
        # diagonals are nonzero at the solver's positive points
        p = MERSENNE_31
        rnd = random.Random(3704)
        cases = list(_forced_parent_cases())
        for _ in range(60):
            g = random_digraph(rnd, rnd.randint(3, 9), rnd.uniform(0.15, 0.5))
            if branchings._spanning_roots(g):
                cases.append((g, branchings._spanning_roots(g)))
        checked = 0
        for g, roots in cases:
            P = BranchingLeafPolynomial(g, roots)
            units = np.eye(g.n, dtype=np.int64)
            coeffs = np.diagonal(P._laplacians(P._table(units, p)), axis1=1, axis2=2)
            assert np.isin(coeffs, (0, 1)).all(), (sorted(g.arcs), roots)
            assert coeffs.any(axis=0).all(), (sorted(g.arcs), roots)
            checked += P.order >= 2
        assert checked >= 30, checked


class TestInternalForcedParents:
    """_InternalSieveEngine takes forced parents out as ring factors: det L = prod D_j * det L', every slot."""

    @staticmethod
    def check(g, roots, k, rnd):
        field = make_binary_field(binary_field_degree(g.n))
        zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, rnd.randrange(99), roots[0], 0, 3)
        engine = branchings._InternalSieveEngine(g, roots, k, field)
        mats, factors = engine.build_matrices(zeta, rmul, gvec)
        nn = g.n if len(roots) > 1 else g.n - 1
        # each column taken out leaves one factor D_j
        assert mats.shape == (len(engine.verts),) * 2 + (3, engine.len) and len(engine.verts) + len(factors) == nn
        got = _full_dets(engine, mats, factors)
        assert got.tolist() == internal_root_sum(g, roots, k, field, zeta, rmul, gvec), (sorted(g.arcs), roots, k)
        return "none" if len(engine.verts) == nn else "all" if not engine.verts else "some"

    def test_shapes_match_the_uncontracted_reference(self):
        rnd = random.Random(3705)
        kinds = Counter()
        for g, roots in _forced_parent_cases():
            if g.n <= 10:
                kinds[len(roots) > 1, self.check(g, roots, rnd.randint(1, min(3, g.n - 1)), rnd)] += 1
        assert min(kinds[False, "all"], kinds[False, "some"], kinds[True, "some"]) >= 2, kinds

    def test_random_root_lists_match_the_uncontracted_reference(self):
        # sparse graphs, so that forced parents are common; one root and
        # several, spanning or not
        rnd = random.Random(3706)
        kinds = Counter()
        for _ in range(60):
            n = rnd.randint(2, 8)
            g = random_digraph(rnd, n, rnd.uniform(0.1, 0.5))
            roots = rnd.sample(range(n), 1 if rnd.random() < 0.5 else rnd.randint(2, n))
            kinds[len(roots) > 1, self.check(g, roots, rnd.randint(1, min(3, n - 1)), rnd)] += 1
        assert min(kinds[False, "all"], kinds[False, "some"], kinds[False, "none"],
                   kinds[True, "some"], kinds[True, "none"]) >= 3, kinds

    def test_bench_hubs_contract_to_order_zero(self):
        # every rooted_hubs(n, 2, 2n) graph, one per choice of the second
        # hub: each non-root vertex's parents are the root and that hub,
        # whose own parent is the root, so L' has order 0 and a trial is a
        # product of n - 1 ring factors; det_batch still sees the whole chunk
        for n in (8, 9):
            graphs = {rooted_hubs(random.Random(seed), n, 2, 2 * n) for seed in range(100)}
            assert len(graphs) == n - 1
            field = make_binary_field(binary_field_degree(n))
            for g in graphs:
                engine = branchings._InternalSieveEngine(g, [0], 3, field)
                draws = branchings._draw_internal_chunk(g, 3, field, 5, 0, 0, branchings.INTERNAL_CHUNK)
                mats, factors = engine.build_matrices(*draws)
                assert mats.shape == (0, 0, branchings.INTERNAL_CHUNK, 8) and len(factors) == n - 1
                one = engine.det_batch(mats)
                assert not one[:, 1:].any() and (one[:, 0] == 1).all()
                assert not engine.run_chunk(*draws).any()  # a NO: at most 2 internal vertices
                assert BranchingLeafPolynomial(g, [0]).order == 0
                assert self.check(g, [0], 3, random.Random(n)) == "all"


class TestSolveNkDv:
    def test_all_distinct_no(self):
        n = 6
        P = MonomialListPolynomial(n, [(1, (1,) * n)])
        rep = solve_nk_dv(P, 1, budget=64, seed=0)
        assert not rep.verdict

    def test_single_variable_yes(self):
        n = 6
        P = MonomialListPolynomial(n, [(1, (n,) + (0,) * (n - 1))])
        rep = solve_nk_dv(P, n - 1, seed=0)
        assert rep.verdict
        assert rep.failure_bound == 0.0

    def test_inverse_vandermonde_built_when_a_prime_first_interpolates(self, monkeypatch):
        built = []

        def recording(npts, p):
            built.append(p)
            return inverse_vandermonde(npts, p)

        monkeypatch.setattr(branchings, "inverse_vandermonde", recording)
        # p1 hits on trial 0, in the first chunk, so p2 never interpolates
        yes = solve_nk_dv(BranchingLeafPolynomial(out_star(6), [0]), 2, seed=0)
        p1, p2 = yes.detail["primes"]
        assert yes.verdict and yes.detail["hit"]["trial"] == 0 and yes.detail["hit"]["prime"] == p1
        assert built == [p1]
        built.clear()
        no = solve_nk_dv(BranchingLeafPolynomial(directed_path(5), [0]), 2, budget=100, seed=3)
        assert not no.verdict and built == no.detail["primes"]

    def test_assignments_hold_no_zero(self):
        # P is evaluated at 2n+1 distinct points, none of them 0, while the
        # hit's coefficient indices still count from tau^0
        class Recording:
            def __init__(self, P):
                self.P, self.n, self.rows = P, P.n, []

            def evaluate_batch(self, ys, p):
                self.rows.append(ys.copy())
                return self.P.evaluate_batch(ys, p)

        n, seed = 5, 2
        npts = 2 * n + 1
        P = Recording(MonomialListPolynomial(n, [(3, (n, 0, 0, 0, 0)), (1, (1,) * n)]))
        rep = solve_nk_dv(P, n - 1, budget=200, seed=seed)
        ys = np.concatenate(P.rows)
        assert ys.shape == (rep.detail["evaluations"], n) and ys.min() >= 1
        probes = 0
        for trial in ys.reshape(-1, npts, n):  # one trial at one prime
            for col in trial.T.tolist():
                assert col == [1] * npts or len(set(col)) == npts, col
                probes += col != [1] * npts
        assert probes > 0
        # y_0^n reads tau^n on the probe side and tau^0 off it, shifted by the count of False
        hit = rep.detail["hit"]
        bits = branchings._draw_dv_chunk(seed, hit["trial"], 1, n)[0]
        assert hit["coefficient_indices"] == [n * bits[0] + n - int(bits.sum())]

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
            dmin = brute_min_distinct_vars(monos)
            for k in range(1, n + 1):
                want = dmin <= n - k
                rep = solve_nk_dv(P, k, budget=4000 if want else 40, seed=5)
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
                cases.append((BranchingLeafPolynomial(g, [root]), rnd.randint(2, min(4, g.n))))
        for i, (P, k) in enumerate(cases):
            for budget in (1, 5, 100):  # 100 = 1+4+16+64+15: the last chunk is cut short
                rep = solve_nk_dv(P, k, budget=budget, seed=i)
                want = scalar_solve_nk_dv(P, k, budget, i)
                assert rep.verdict == want["verdict"], (i, budget)
                assert rep.trials_run == want["trials_run"], (i, budget)
                assert rep.detail["primes"] == want["primes"]
                assert rep.detail.get("hit") == want["hit"], (i, budget)

    def test_hit_on_trial_zero(self):
        P = MonomialListPolynomial(4, [(1, (4, 0, 0, 0))])
        seed = next(s for s in range(50) if scalar_solve_nk_dv(P, 3, 64, s)["trials_run"] == 1)
        rep = solve_nk_dv(P, 3, budget=64, seed=seed)
        assert rep.trials_run == 1
        assert rep.detail["hit"] == scalar_solve_nk_dv(P, 3, 64, seed)["hit"]

    def test_hit_only_at_second_prime(self):
        # the qualifying monomial's coefficient is p1 itself, so it vanishes
        # mod p1 and only p2 can see it; the all-distinct monomial stays in the band
        seed = 6
        p1, p2 = scalar_solve_nk_dv(MonomialListPolynomial(1, [(1, (1,))]), 1, 1, seed)["primes"]
        n = 5
        P = MonomialListPolynomial(n, [(p1, (n, 0, 0, 0, 0)), (1, (1,) * n)])
        rep = solve_nk_dv(P, n - 1, budget=200, seed=seed)
        want = scalar_solve_nk_dv(P, n - 1, 200, seed)
        assert rep.verdict and want["hit"]["prime"] == p2
        assert rep.trials_run == want["trials_run"] > 1
        assert rep.detail["hit"] == want["hit"]

    def test_stack_bytes_capped_on_120_path(self, monkeypatch):
        # one trial is 241 matrices of 120 x 120, 28 MB: split across calls
        # under the cap. Every vertex of a bidirected path is a root, so no
        # column is taken out (a directed path contracts to order 0)
        shapes = []
        modp_det = branchings.batched_modp_det

        def recording(mats, p):
            shapes.append(mats.shape)
            return modp_det(mats, p)

        monkeypatch.setattr(branchings, "batched_modp_det", recording)
        g = bidirected_path(120)
        P = BranchingLeafPolynomial(g, branchings._spanning_roots(g))
        assert P.order == 120
        rep = solve_nk_dv(P, 3, budget=1, seed=4)
        assert not rep.verdict and rep.trials_run == 1  # at most two leaves
        assert sum(shape[0] for shape in shapes) == 2 * 241
        assert len(shapes) > 2
        assert all(shape[0] * shape[1] * shape[2] * 8 <= branchings.LEAF_STACK_LIMIT for shape in shapes)
        shapes.clear()
        rep = solve_nk_dv(P, 1, budget=4, seed=4)
        assert rep.verdict
        assert all(shape[0] * shape[1] * shape[2] * 8 <= branchings.LEAF_STACK_LIMIT for shape in shapes)
        monkeypatch.setattr(branchings, "LEAF_STACK_LIMIT", 1 << 40)
        assert solve_nk_dv(P, 1, budget=4, seed=4) == rep

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

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_checked_first(self, budget):
        P = MonomialListPolynomial(3, [(1, (1, 1, 1))])
        for k in (1, 0, 4):  # before the k range, which would raise its own ValueError
            with pytest.raises(ValueError, match="budget must be positive"):
                solve_nk_dv(P, k, budget=budget)


class TestDetectKLeaf:
    def test_path_unique_leaf(self):
        assert detect_k_leaf(directed_path(5), 1, seed=0).verdict
        assert not detect_k_leaf(directed_path(5), 2, seed=0).verdict

    def test_out_star(self):
        rep = detect_k_leaf(out_star(6), 5, seed=0)
        assert rep.verdict

    def test_no_branching(self):
        g = make_digraph(4, [(0, 1), (2, 3)])
        rep = detect_k_leaf(g, 1, seed=0)
        assert not rep.verdict
        assert rep.failure_bound == 0.0

    def test_matches_brute_force(self):
        rnd = random.Random(90)
        multi = 0
        for _ in range(12):
            n = rnd.randint(2, 7)
            g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
            k = rnd.randint(2, min(4, n))
            want = oracle.brute_k_leaf(g, k)
            rep = detect_k_leaf(g, k, seed=13)
            assert rep.verdict == want, (g.arcs, k)
            multi += len(rep.detail.get("roots", [])) > 1
        assert multi >= 6  # one solver run on the sum of every root's polynomial

    def test_single_vertex_is_a_one_leaf_branching(self):
        # answered without a trial, as the oracle does; the polynomial would
        # be y_0, one distinct variable, and read as a NO
        g = make_digraph(1, [])
        assert oracle.brute_k_leaf(g, 1)
        rep = detect_k_leaf(g, 1, seed=0)
        assert rep.verdict and rep.trials_run == rep.trials_max == 0 and rep.failure_bound == 0.0
        assert rep.detail["roots"] == [0] and "reason" in rep.detail
        with pytest.raises(GuardError):
            detect_k_leaf(g, 1, budget=branchings.LEAF_BUDGET_LIMIT + 1)
        with pytest.raises(ValueError):
            detect_k_leaf(make_digraph(0, []), 1)

    def test_chunking_does_not_change_report(self, monkeypatch):
        # a trial's coins depend only on (seed, first root, trial): one-trial chunks
        # give the report of the default 1, 4, 16, ... chunks, YES and NO alike
        rnd = random.Random(93)
        cases = []
        for i in range(10):
            n = rnd.randint(3, 7)
            cases.append((random_digraph(rnd, n, rnd.uniform(0.3, 0.8)), rnd.randint(2, min(4, n)), i))
        want = [detect_k_leaf(g, k, budget=60, seed=s) for g, k, s in cases]
        assert {rep.verdict for rep in want} == {True, False}
        assert any(rep.trials_run > 1 for rep in want if rep.verdict)
        monkeypatch.setattr(branchings, "LEAF_CHUNK", 1)
        for (g, k, s), rep in zip(cases, want):
            assert detect_k_leaf(g, k, budget=60, seed=s) == rep, (g.arcs, k, s)

    def test_no_zero_diagonal_reaches_the_elimination(self, monkeypatch):
        # every y lies in 1..2n+1, so each diagonal entry of a Laplacian, a
        # sum of such values below p, is nonzero, and batched_modp_det skips
        # its pivot search; tau = 0 would zero the diagonal of every vertex
        # whose in-arcs all come from the probe side
        diagonals = []
        modp_det = branchings.batched_modp_det

        def recording(mats, p):
            diagonals.append(np.diagonal(mats, axis1=1, axis2=2) % p)
            return modp_det(mats, p)

        monkeypatch.setattr(branchings, "batched_modp_det", recording)
        rnd = random.Random(95)
        cases = [(rooted_path(rnd, 8, 4), 4), (rooted_path(rnd, 7, 3), 3), (rooted_path(rnd, 12, 2), 3),
                 (directed_path(6), 2), (directed_path(9), 3), (bidirected_path(6), 3), (bidirected_path(5), 3),
                 (rooted_path(rnd, 12, 8), 5)]
        orders = []
        for i, (g, k) in enumerate(cases):
            diagonals.clear()
            rep = detect_k_leaf(g, k, seed=i)
            order = BranchingLeafPolynomial(g, rep.detail["roots"]).order
            orders.append(order)
            assert diagonals and all(d.shape[1] == order for d in diagonals)
            if not rep.verdict:
                assert sum(d.shape[0] for d in diagonals) == 2 * (2 * g.n + 1) * rep.trials_run
            assert all(d.all() for d in diagonals), (g.arcs, k)
        # the directed and rooted paths contract to order 0, the last rooted
        # path to 7 of 11 rows, and the bidirected paths keep their n rows
        assert orders == [0, 0, 0, 0, 0, 6, 5, 7]

    def test_k_range(self):
        with pytest.raises(ValueError):
            detect_k_leaf(directed_path(4), 0)
        with pytest.raises(ValueError):
            detect_k_leaf(directed_path(4), 5)

    @pytest.mark.parametrize("budget", [0, -2])
    def test_budget_checked_first(self, budget, monkeypatch):
        # before the graph is looked at: a single vertex, a k out of range,
        # the budget guard and a graph without spanning roots all come later
        def refuse(g):
            raise AssertionError("roots screened before the budget was checked")

        monkeypatch.setattr(branchings, "_spanning_roots", refuse)
        for g, k in ((make_digraph(1, []), 1), (directed_path(4), 0), (directed_path(30), 15),
                     (make_digraph(4, [(0, 1), (2, 3)]), 1), (directed_path(4), 1)):
            with pytest.raises(ValueError, match="budget must be positive"):
                detect_k_leaf(g, k, budget=budget)


def _hit_floor(trials: int, rate: float, alarm: float = 1e-9) -> int:
    """The most hits c with P[Binomial(trials, rate) < c] <= alarm.

    A detector whose single trial hits with probability at least rate falls
    below c hits in trials independent trials with probability at most
    alarm, so fewer hits refute the rate at that false-alarm rate.
    """
    below = 0.0  # P[Binomial(trials, rate) < c]
    for c in range(trials + 1):
        log_pmf = (math.lgamma(trials + 1) - math.lgamma(c + 1) - math.lgamma(trials - c + 1)
                   + c * math.log(rate) + (trials - c) * math.log1p(-rate))
        if below + math.exp(log_pmf) > alarm:
            return c
        below += math.exp(log_pmf)
    return trials


def _broom(n: int, k: int):
    """The directed path 0 -> ... -> n-k-1 whose last vertex has the other k vertices as leaves: one out-branching, k leaves."""
    handle = n - k - 1
    return make_digraph(n, [(i, i + 1) for i in range(handle)] + [(handle, v) for v in range(handle + 1, n)])


class TestSingleTrialRates:
    """The per-trial floor behind each printed NO bound, measured: one-trial runs
    over seeds 0..trials-1 on witness-minimal YES instances hit at least as
    often as the floor allows, with a false alarm of at most 1e-9."""

    def test_hit_floor(self):
        # against exact binomial tails: the floor is the largest count whose
        # lower tail stays within the alarm
        for trials, rate in ((1000, Fraction(1, 4)), (3000, Fraction(1, 64)), (1000, Fraction(1, 16))):
            def below(c):
                return sum(math.comb(trials, i) * rate**i * (1 - rate) ** (trials - i) for i in range(c))

            c = _hit_floor(trials, float(rate))
            assert below(c) <= Fraction(1, 10**9) < below(c + 1), (trials, rate, c)
        assert _hit_floor(1000, 4.0**-4) == 0  # too few trials to refute a 4^-4 floor

    @pytest.mark.parametrize("n", [5, 7])
    def test_internal_on_directed_paths(self, n):
        # the path is the only spanning out-branching, with its n - 1 internal vertices
        trials, k = 1000, n - 1
        hits = sum(detect_k_internal(directed_path(n), k, trials=1, seed=s).verdict for s in range(trials))
        floor = _hit_floor(trials, internal_sieve_success_floor(n, k))
        assert floor >= 50 and hits >= floor, (hits, floor)

    @pytest.mark.parametrize(
        "g, k, trials",
        [(_broom(8, 3), 3, 3000), (_broom(5, 2), 2, 1000), (bidirected_path(5), 2, 1000)],
        ids=["broom-8-3", "broom-5-2", "bidirected-path-5-2"],
    )
    def test_leaf(self, g, k, trials):
        # a broom is its own only out-branching, with exactly k leaves; a
        # bidirected path's branchings have at most 2
        hits = sum(detect_k_leaf(g, k, budget=1, seed=s).verdict for s in range(trials))
        floor = _hit_floor(trials, 4.0**-k)
        assert floor >= 1 and hits >= floor, (hits, floor)


def _kernel_digest_stacks(seed: int):
    """Seeded det_batch and batched_modp_det inputs, sparse and dense, one root and several.

    Yields ("ring", engine, build_matrices' pair of the [nn, nn, B, len] stack
    and its factors) and ("modp", p, [B, d, d] stack); a ring stack's digest
    takes the uncontracted determinant, the factors multiplied in. The ring
    stacks are chunks of draws on bench-shaped NO graphs
    (hubs, a rooted path), stars, a bidirected path, a complete digraph and
    random graphs; the mod-p stacks are k-leaf Laplacians at routed points
    tau = 0..2n, not solve_nk_dv's 1..2n+1, since tau = 0 zeroes whole rows
    and columns and so drives the pivot search, and random stacks whose
    entries are zero with probability 0.2 to 0.95. The k-leaf Laplacians
    come from the reference's uncontracted root-bordered matrix (entries in
    [0, p)), so they keep all n-1 or n rows where BranchingLeafPolynomial
    would factor forced parents out.
    """
    rnd = random.Random(seed)
    ring_cases = [
        (rooted_hubs(rnd, 9, 2, 18), 3), (rooted_hubs(rnd, 7, 3, 14), 4),
        (rooted_hubs(rnd, 10, 5, 20), 6), (rooted_path(rnd, 8, 3), 2), (rooted_path(rnd, 9, 2), 3),
        (out_star(6), 2), (bidirected_star(6), 3), (bidirected_path(5), 2), (bidirected_path(6), 3),
        (complete_digraph(5), 2), (COLUMN_GRAPH, 2),
        (random_digraph(rnd, 7, 0.6), 3), (random_digraph(rnd, 8, 0.3), 2),
    ]
    for g, k in ring_cases:
        roots = branchings._spanning_roots(g)
        field = make_binary_field(binary_field_degree(g.n))
        engine = branchings._InternalSieveEngine(g, roots, k, field)
        draws = branchings._draw_internal_chunk(g, k, field, rnd.randrange(99), roots[0], 0, 6)
        yield "ring", engine, engine.build_matrices(*draws)
    p = 2_147_483_029
    for g in (rooted_path(rnd, 8, 3), rooted_path(rnd, 12, 2), bidirected_path(6), bidirected_star(5),
              rooted_hubs(rnd, 9, 3, 18), random_digraph(rnd, 7, 0.7)):
        roots = branchings._spanning_roots(g)
        taus = np.arange(2 * g.n + 1, dtype=np.int64)
        bits = np.array([[rnd.random() < 0.5 for _ in range(g.n)] for _ in range(3)])
        ys = np.where(bits[:, None, :], taus[None, :, None], 1).reshape(-1, g.n)
        mats = [root_bordered_laplacian(g, roots, row, p).entries for row in ys.tolist()]
        yield "modp", p, np.array(mats, dtype=np.int64)
    nprng = np.random.default_rng(seed)
    for q in (7, p):
        for d in (1, 3, 6, 9):
            for density in (0.05, 0.3, 0.8):
                mats = nprng.integers(0, q, size=(12, d, d), dtype=np.int64)
                yield "modp", q, mats * (nprng.random(mats.shape) < density)


class TestGoldenDigest:
    """Digests of the branching kernels' and detectors' outputs, pinned bit for bit across kernel refactors."""

    def test_kernel_digest(self):
        # every slot of det_batch and every batched_modp_det value
        h = hashlib.sha256()
        kinds = Counter()
        for kind, arg, mats in _kernel_digest_stacks(3501):
            if kind == "ring":
                dets = _full_dets(arg, *mats)
            else:
                dets = batched_modp_det(mats, arg)
            h.update(np.ascontiguousarray(dets, dtype=np.int64).tobytes())
            kinds[kind] += 1
        assert kinds == {"ring": 13, "modp": 30}, kinds
        assert h.hexdigest() == "ccacdf103a335c7d8d0d61501da1c00b85e4c344800fa402e9b9b825cbfe2338"

    def test_detector_digest(self):
        # detect_k_internal and detect_k_leaf reports, YES and NO, one root and several
        rnd, internal, leaf = _detector_digest_cases()
        runs = []
        seen = set()
        for detect, cases in ((detect_k_internal, internal), (detect_k_leaf, leaf)):
            for g, k in cases:
                k = min(k, g.n - 1) if detect is detect_k_internal else k
                rep = detect(g, k, seed=rnd.randrange(1 << 30))
                runs.append((rep.verdict, rep.trials_run, rep.trials_max, rep.failure_bound, repr(rep.detail)))
                roots = len(rep.detail.get("roots", []))
                if roots:
                    seen.add((detect.__name__, rep.verdict, roots > 1))
        assert len(seen) == 8, seen
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "788f64259ac4413ee1fd89ef6a9e25d472f4e6a23821c9ae1fc053953cac6b59"

    def test_solver_digest(self):
        # solve_nk_dv's whole report, which detect_k_leaf drops: primes,
        # evaluations and the hit's trial, prime and coefficient indices, on
        # the leaf cases above and a NO path with backward arcs at n=20, k=3.
        # The digest leaves out evaluations, which follow the trial chunks
        # (a NO evaluates trials x 2 x (2n+1) points, a YES its whole chunk
        # with the hit at p1), and the list pins them
        _, _, leaf = _detector_digest_cases()
        rnd = random.Random(3503)
        n = 20
        backward = rnd.sample([(b, a) for a in range(1, n) for b in range(a + 1, n)], n // 2)
        leaf.append((make_digraph(n, [(i, i + 1) for i in range(n - 1)] + backward), 3))
        runs = []
        evaluations = []
        for i, (g, k) in enumerate(leaf):
            roots = branchings._spanning_roots(g)
            if not roots:
                continue
            rep = solve_nk_dv(BranchingLeafPolynomial(g, roots), k, seed=i)
            evaluations.append(rep.detail["evaluations"])
            detail = {**rep.detail, "evaluations": None}
            runs.append((rep.verdict, rep.trials_run, rep.trials_max, rep.failure_bound, repr(detail)))
        assert Counter(verdict for verdict, *_ in runs) == {True: 9, False: 4}, runs
        assert evaluations == [975, 1122, 8704, 1664, 11, 923, 352, 11, 11, 15, 15, 17, 5248]
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "3715b6ce0fe4b0a9675546f5f6dc6d6e7f0d44b7ff6bd3339b2e20a99d9cf5ec"

    def test_reports_do_not_depend_on_the_chunks(self, monkeypatch):
        # every draw depends only on (seed, root, trial), so the digest cases
        # give the same reports under the chunks 1, 4, 16, ... up to cap;
        # only the solver's evaluations, the rows it evaluated, differ
        def grown_by_four(total, cap, floor):
            done, size = 0, 1
            while done < total:
                yield min(size, cap, total - done)
                done += min(size, cap, total - done)
                size *= 4

        def reports():
            _, internal, leaf = _detector_digest_cases()
            runs = [detect_k_internal(g, min(k, g.n - 1), seed=i) for i, (g, k) in enumerate(internal)]
            runs += [detect_k_leaf(g, k, seed=i) for i, (g, k) in enumerate(leaf)]
            evaluations = []
            for i, (g, k) in enumerate(leaf):
                roots = branchings._spanning_roots(g)
                if roots:
                    rep = solve_nk_dv(BranchingLeafPolynomial(g, roots), k, seed=i)
                    evaluations.append(rep.detail["evaluations"])
                    runs.append(rep._replace(detail={**rep.detail, "evaluations": None}))
            return runs, evaluations

        floor_rule, floor_evaluations = reports()
        monkeypatch.setattr(report, "trial_chunks", grown_by_four)
        runs, evaluations = reports()
        assert runs == floor_rule
        assert evaluations != floor_evaluations


def _detector_digest_cases():
    """The digest tests' seeded (graph, k) cases: k-internal, then k-leaf, and the generator after them."""
    rnd = random.Random(3502)
    internal = [
        (rooted_hubs(rnd, 9, 2, 18), 3), (rooted_hubs(rnd, 8, 2, 16), 3), (rooted_hubs(rnd, 7, 3, 14), 4),
        (bidirected_star(7), 3), (bidirected_star(5), 2), (complete_digraph(5), 3),
        (directed_path(6), 4), (out_star(6), 2),
        *((random_digraph(rnd, rnd.randint(4, 8), rnd.uniform(0.2, 0.7)), rnd.randint(1, 3)) for _ in range(6)),
    ]
    leaf = [
        (rooted_path(rnd, 7, 3), 3), (rooted_path(rnd, 8, 3), 3), (rooted_path(rnd, 8, 4), 4),
        (bidirected_path(6), 3), (bidirected_path(5), 2), (bidirected_star(6), 3),
        (directed_path(5), 2), (complete_digraph(5), 3),
        *((random_digraph(rnd, rnd.randint(4, 8), rnd.uniform(0.2, 0.7)), rnd.randint(1, 3)) for _ in range(6)),
    ]
    return rnd, internal, leaf
