"""The package's immutable records: field names, checks, equality, repr."""

import pickle

import pytest

from hamkit.algebra import ResidueElem
from hamkit.graph import Digraph, IndependentPartition, make_digraph, split_vertex
from hamkit.hamcount import MitmDiagnostics
from hamkit.hamdetect import PortLayout
from hamkit.oracle import Branching
from hamkit.report import DetectionReport


class TestDigraph:
    def test_equality_and_hash_go_by_n_and_arcs(self):
        g = make_digraph(3, [(0, 1), (1, 2)])
        same = Digraph(n=3, arcs=frozenset({(1, 2), (0, 1)}))
        assert g == same and hash(g) == hash(same)
        assert len({g, same}) == 1
        assert g != make_digraph(4, [(0, 1), (1, 2)])
        assert g != make_digraph(3, [(0, 1)])
        assert g != (3, g.arcs)

    def test_derived_indexes(self):
        g = make_digraph(3, [(0, 1), (0, 2), (2, 1)])
        assert g.out_adj == ((1, 2), (), (1,))
        assert g.in_adj == ((), (0, 2), (0,))
        assert g.out_mask == (0b110, 0, 0b010)
        assert g.in_mask == (0, 0b101, 0b001)
        assert g.m == 3

    @pytest.mark.parametrize("arcs", [[(1, 1)], [(0, 3)]])
    def test_bad_arcs_rejected(self, arcs):
        with pytest.raises(ValueError):
            make_digraph(3, arcs)

    def test_assignment_raises(self):
        g = make_digraph(2, [(0, 1)])
        for name in ("n", "arcs", "out_adj", "in_mask", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        with pytest.raises(AttributeError):
            del g.n
        assert g.n == 2 and g.arcs == frozenset({(0, 1)})

    def test_repr(self):
        g = make_digraph(3, [(0, 1)])
        assert repr(g) == "Digraph(n=3, arcs=frozenset({(0, 1)}))"
        assert repr(split_vertex(g, 0)) == (
            "VertexSplit(graph=Digraph(n=4, arcs=frozenset({(0, 1)})), s=0, t=3)"
        )
        part = IndependentPartition(blue=frozenset({1}), yellow=frozenset({0}))
        assert repr(part) == "IndependentPartition(blue=frozenset({1}), yellow=frozenset({0}))"

    def test_pickle_round_trip(self):
        g = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.out_adj == g.out_adj and back.in_mask == g.in_mask


class TestResidueElem:
    def test_range_check(self):
        for value in (-1, 9, 10):
            with pytest.raises(ValueError, match="out of range"):
                ResidueElem(value, 3, 2)
        assert ResidueElem(0, 3, 2).value == 0
        assert ResidueElem(8, 3, 2).value == 8

    def test_fields_and_repr(self):
        r = ResidueElem(value=4, p=3, k=2)
        assert (r.value, r.p, r.k, r.modulus) == (4, 3, 2, 9)
        assert repr(r) == "ResidueElem(value=4, p=3, k=2)"
        with pytest.raises(AttributeError):
            r.value = 5


class TestDetectionReport:
    def test_default_detail_is_not_shared(self):
        a = DetectionReport(True, 1, 2, 0.0)
        b = DetectionReport(False, 2, 2, 0.5)
        assert a.detail == b.detail == {}
        a.detail["x"] = 1
        assert b.detail == {}
        assert DetectionReport(False, 2, 2, 0.5).detail == {}

    def test_fields_and_repr(self):
        rep = DetectionReport(verdict=True, trials_run=1, trials_max=2, failure_bound=0.5)
        assert repr(rep) == (
            "DetectionReport(verdict=True, trials_run=1, trials_max=2, failure_bound=0.5, detail={})"
        )
        swapped = rep._replace(detail={"roots": [0]})
        assert swapped.detail == {"roots": [0]} and swapped.trials_run == 1
        with pytest.raises(AttributeError):
            rep.verdict = False


class TestSmallRecords:
    def test_mitm_diagnostics_dict_order(self):
        diag = MitmDiagnostics(10, 32, 16, 7)
        assert diag._asdict() == {
            "pairs_listed": 10, "pairs_naive": 32, "candidates_examined": 16,
            "table_keys": 7, "fallback": False,
        }
        assert list(diag._asdict()) == ["pairs_listed", "pairs_naive", "candidates_examined",
                                        "table_keys", "fallback"]
        assert diag.pruning_ratio == 1.0 - 10 / 32
        assert MitmDiagnostics(0, 0, 0, 0).pruning_ratio == 0.0  # nothing to prune

    def test_port_layout_checks_and_repr(self):
        with pytest.raises(ValueError, match="blue"):
            PortLayout(blue=(), yellow=())
        with pytest.raises(ValueError, match="half"):
            PortLayout(blue=(0,), yellow=(1, 2))
        with pytest.raises(ValueError, match="cover"):  # vertex 4 is in neither side
            PortLayout.from_partition(make_digraph(5, []), IndependentPartition(blue=(0, 2), yellow=(1, 3)))
        layout = PortLayout(blue=(0, 2), yellow=(1, 3))
        assert (layout.n, layout.pool_count, layout.anchor) == (4, 0, 0)
        assert repr(layout) == "PortLayout(blue=(0, 2), yellow=(1, 3))"

    def test_branching(self):
        b = Branching(root=0, parents=(-1, 0, 0, 2))
        assert b.arcs == frozenset({(0, 1), (0, 2), (2, 3)})
        assert (b.internal_count, b.leaf_count) == (2, 2)
        assert repr(b) == "Branching(root=0, parents=(-1, 0, 0, 2))"
