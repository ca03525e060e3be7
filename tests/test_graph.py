"""Parsing, vertex splitting, independent partitions."""

import random

import pytest

from conftest import complete_digraph, cycle_plus, directed_cycle, random_digraph
from hamkit.errors import ParseError
from hamkit.graph import (
    find_independent_partition,
    make_digraph,
    parse_digraph,
    split_vertex,
)
from hamkit import oracle


class TestParse:
    def test_basic(self):
        g = parse_digraph("3 2\n0 1\n1 2\n")
        assert g.n == 3
        assert g.arcs == frozenset({(0, 1), (1, 2)})

    def test_single_vertex(self):
        g = parse_digraph("1 0")
        assert g.n == 1
        assert g.arcs == frozenset()

    def test_comments_and_blanks(self):
        g = parse_digraph("# header\n2 1\n\n# arc\n0 1\n")
        assert g.arcs == frozenset({(0, 1)})

    def test_loop_arc_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_digraph("2 1\n0 0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_digraph("2 1\n0 5\n")

    def test_malformed_line_names_lineno(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_digraph("2 1\n0 1 9\n")

    def test_duplicate_arcs_collapse_with_warning(self):
        with pytest.warns(UserWarning):
            g = parse_digraph("2 2\n0 1\n0 1\n")
        assert g.m == 1

    def test_wrong_arc_count(self):
        with pytest.raises(ParseError):
            parse_digraph("2 1\n")


class TestSplitVertex:
    def test_cycle_split_is_path_like(self):
        g = directed_cycle(3)
        sp = split_vertex(g, 0)
        assert sp.graph.n == 4
        assert oracle.held_karp_count_hp(sp.graph, sp.s, sp.t) == 1

    def test_isolated_vertex(self):
        g = make_digraph(3, [(1, 2)])
        sp = split_vertex(g, 0)
        assert sp.graph.out_adj[sp.s] == ()
        assert sp.graph.in_adj[sp.t] == ()

    def test_k4_split_path_count(self):
        # complete digraph on 4 vertices has (4-1)! = 6 hamiltonian cycles
        sp = split_vertex(complete_digraph(4), 0)
        assert oracle.held_karp_count_hp(sp.graph, sp.s, sp.t) == 6

    def test_s_no_in_arcs_t_no_out_arcs(self):
        rnd = random.Random(2)
        for _ in range(20):
            g = random_digraph(rnd, 6, 0.5)
            u = rnd.randrange(6)
            sp = split_vertex(g, u)
            assert sp.graph.in_adj[sp.s] == ()
            assert sp.graph.out_adj[sp.t] == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            split_vertex(directed_cycle(3), 3)

    def test_cycle_path_bijection_random(self):
        rnd = random.Random(7)
        for _ in range(25):
            n = rnd.randint(2, 8)
            g = random_digraph(rnd, n, 0.4)
            u = rnd.randrange(n)
            sp = split_vertex(g, u)
            assert oracle.held_karp_count_hc(g) == oracle.held_karp_count_hp(
                sp.graph, sp.s, sp.t
            )


class TestIndependentPartition:
    def test_directed_4_cycle(self):
        part = find_independent_partition(directed_cycle(4))
        assert len(part.yellow) == 2

    def test_k5(self):
        part = find_independent_partition(complete_digraph(5))
        assert len(part.yellow) == 1

    def test_yellow_is_independent(self):
        rnd = random.Random(31)
        for _ in range(25):
            g = random_digraph(rnd, rnd.randint(1, 10), rnd.uniform(0.1, 0.7))
            part = find_independent_partition(g)
            assert part.blue | part.yellow == frozenset(range(g.n))
            assert not (part.blue & part.yellow)
            for u in part.yellow:
                for v in part.yellow:
                    assert not g.has_arc(u, v)

    def test_matches_brute_mis(self):
        rnd = random.Random(5)
        for _ in range(20):
            g = random_digraph(rnd, 10, rnd.uniform(0.15, 0.6))
            part = find_independent_partition(g)
            assert len(part.yellow) == len(oracle.brute_mis(g))


class TestTestGraphs:
    @pytest.mark.parametrize("n, extra", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 5), (3, 4), (3, 9), (4, 9)])
    def test_cycle_plus_refuses_too_many_arcs(self, n, extra):
        # n + extra past the n(n - 1) loop-free arcs, or a one-vertex "cycle":
        # refused before the first draw, where the draw loop would never end
        rnd = random.Random(36)
        state = rnd.getstate()
        with pytest.raises(ValueError, match="Hamiltonian digraph"):
            cycle_plus(rnd, n, extra)
        assert rnd.getstate() == state

    @pytest.mark.parametrize("n, extra", [(2, 0), (3, 3), (4, 8), (5, 3)])
    def test_cycle_plus_at_the_limit(self, n, extra):
        g = cycle_plus(random.Random(37), n, extra)
        assert g.n == n and g.m == n + extra and oracle.held_karp_count_hc(g) >= 1
