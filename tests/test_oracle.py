"""Sanity checks on the brute-force reference implementations themselves."""

import itertools
import random

import pytest

from conftest import (
    acyclic_tournament,
    complete_digraph,
    directed_cycle,
    directed_path,
    out_star,
    random_digraph,
)
from hamkit.errors import GuardError
from hamkit.graph import make_digraph
from hamkit import oracle
from reference import brute_max_internal, brute_max_leaves, brute_min_distinct_vars, perm_count_hp


class TestHeldKarp:
    def test_cycle(self):
        for n in range(2, 9):
            assert oracle.held_karp_count_hc(directed_cycle(n)) == 1

    def test_dag(self):
        assert oracle.held_karp_count_hc(acyclic_tournament(6)) == 0

    def test_complete(self):
        # (n-1)! hamiltonian cycles in the complete digraph
        assert oracle.held_karp_count_hc(complete_digraph(4)) == 6
        assert oracle.held_karp_count_hc(complete_digraph(5)) == 24

    def test_hp_path_graph(self):
        g = directed_path(5)
        assert oracle.held_karp_count_hp(g, 0, 4) == 1

    def test_hp_unreachable(self):
        g = make_digraph(3, [(0, 1)])
        assert oracle.held_karp_count_hp(g, 0, 2) == 0

    def test_hp_matches_permutation_brute(self):
        rnd = random.Random(41)
        for _ in range(20):
            n = rnd.randint(2, 6)
            g = random_digraph(rnd, n, 0.5)
            s, t = rnd.sample(range(n), 2)
            assert oracle.held_karp_count_hp(g, s, t) == perm_count_hp(g, s, t)

    def test_guard(self):
        with pytest.raises(GuardError):
            oracle.held_karp_count_hc(directed_cycle(23))


class TestBranchingEnumeration:
    def test_path_rooted_at_head(self):
        listing = oracle.enumerate_out_branchings(directed_path(5), 0)
        assert len(listing) == 1
        assert listing[0].internal_count == 4
        assert listing[0].leaf_count == 1

    def test_path_rooted_elsewhere(self):
        assert oracle.enumerate_out_branchings(directed_path(5), 2) == []

    def test_out_star(self):
        listing = oracle.enumerate_out_branchings(out_star(6), 0)
        assert len(listing) == 1
        assert listing[0].internal_count == 1
        assert listing[0].leaf_count == 5

    def test_complete_cayley(self):
        # rooted at a fixed vertex of the complete digraph the count is
        # n^(n-2) by Cayley's formula
        assert len(oracle.enumerate_out_branchings(complete_digraph(4), 0)) == 16

    def test_branchings_are_valid(self):
        rnd = random.Random(42)
        for _ in range(10):
            g = random_digraph(rnd, 5, 0.5)
            for r in range(5):
                for b in oracle.enumerate_out_branchings(g, r):
                    assert b.parents[r] == -1
                    arcs = b.arcs
                    assert len(arcs) == g.n - 1
                    assert all(a in g.arcs for a in arcs)
                    # every non-root reachable from r inside the branching
                    reach = {r}
                    frontier = [r]
                    adj = {u: [v for (x, v) in arcs if x == u] for u in range(g.n)}
                    while frontier:
                        u = frontier.pop()
                        for v in adj[u]:
                            if v not in reach:
                                reach.add(v)
                                frontier.append(v)
                    assert reach == set(range(g.n))

    def test_brute_k_flags(self):
        path = directed_path(6)
        assert oracle.brute_k_internal(path, 5)
        assert not oracle.brute_k_internal(path, 6)
        assert oracle.brute_k_leaf(out_star(5), 4)
        assert not oracle.brute_k_leaf(out_star(5), 5)

    def test_max_stats(self):
        assert brute_max_internal(directed_path(4)) == 3
        assert brute_max_leaves(out_star(4)) == 3

    def test_guard(self):
        with pytest.raises(GuardError):
            oracle.enumerate_out_branchings(directed_cycle(10), 0)


class TestMis:
    def test_k5(self):
        assert len(oracle.brute_mis(complete_digraph(5))) == 1

    def test_cycle(self):
        assert len(oracle.brute_mis(directed_cycle(6))) == 3
        assert len(oracle.brute_mis(directed_cycle(7))) == 3

    def test_independence(self):
        rnd = random.Random(43)
        for _ in range(15):
            g = random_digraph(rnd, 9, 0.4)
            mis = oracle.brute_mis(g)
            for u, v in itertools.combinations(sorted(mis), 2):
                assert not g.has_arc(u, v) and not g.has_arc(v, u)


class TestMinDistinctVars:
    def test_single_monomial(self):
        assert brute_min_distinct_vars([(1, (2, 1))]) == 2

    def test_picks_minimum(self):
        monos = [(3, (1, 1, 1)), (2, (0, 5, 0)), (0, (0, 0, 0))]
        assert brute_min_distinct_vars(monos) == 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            brute_min_distinct_vars([(0, (1,))])
