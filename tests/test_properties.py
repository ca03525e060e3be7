"""Hypothesis properties of the three one-sided detectors on small random digraphs.

For detect-hc, detect-k-internal and detect-k-leaf alike: a YES is also a
YES of the exhaustive oracle, and a NO reports a failure_bound no larger
than the analytic one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hamkit import oracle
from hamkit.branchings import detect_k_internal, detect_k_leaf
from hamkit.graph import make_digraph
from hamkit.hamdetect import detect_hamiltonian_cycle

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def digraph_and_k(draw, max_k):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    k = draw(st.integers(1, max_k(n)))
    return make_digraph(n, [a for a, kept in zip(pairs, keep) if kept]), k


def internal_field_order(n: int) -> int:
    # k-internal's field: GF(2^m) with m = 2 bitlen(n - 1), so q >= n^2
    return 1 << (2 * (n - 1).bit_length())


def within(bound: float, analytic: float) -> bool:
    return bound <= analytic * (1 + 1e-12)


@PROPERTY
@given(digraph_and_k(lambda n: 1))
def test_detect_hc(case):
    g, _ = case
    rep = detect_hamiltonian_cycle(g, trials=2, seed=3)
    if rep.verdict:
        assert oracle.held_karp_count_hc(g) > 0
    else:
        # each zero trial misses a cycle with probability at most n/q, q = 2^16 at every n
        assert rep.trials_max == 2
        assert within(rep.failure_bound, (g.n / 2**16) ** rep.trials_max)


@PROPERTY
@given(digraph_and_k(lambda n: min(3, n - 1)))
def test_detect_k_internal(case):
    g, k = case
    trials = 4
    rep = detect_k_internal(g, k, trials=trials, seed=3)
    if rep.verdict:
        assert oracle.brute_k_internal(g, k)
    else:
        # k random group elements are independent with probability prod(1 - 2^-j),
        # and the surviving coefficient then vanishes with probability at most 2n/q
        floor = 1.0 - 2.0 * g.n / internal_field_order(g.n)
        for j in range(1, k + 1):
            floor *= 1.0 - 2.0**-j
        assert within(rep.failure_bound, (1.0 - floor) ** trials)


@PROPERTY
@given(digraph_and_k(lambda n: min(3, n)))
def test_detect_k_leaf(case):
    g, k = case
    budget = 2
    rep = detect_k_leaf(g, k, budget=budget, seed=3)
    if rep.verdict:
        assert oracle.brute_k_leaf(g, k)
    else:
        # the coin is fair, so a trial hits with probability at least 2^-k * 2^-k
        assert within(rep.failure_bound, (1.0 - 4.0**-k) ** budget)
