"""The counter-based draw and the per-trial values the detectors map from it."""

import random

import numpy as np
import pytest

from conftest import complete_digraph
from hamkit import branchings
from hamkit.branchings import binary_field_degree
from hamkit.gf2m import make_binary_field
from hamkit.graph import find_independent_partition
from hamkit.hamdetect import FIELD_BITS, PortLayout, PortWeights
from hamkit.rand import counter_draw, derive_seed
from reference import splitmix64_words

WORD = 1 << 64


def assert_uniform(values, bins: int):
    """Chi-square of values over 0..bins-1 within five standard deviations of its mean bins-1.

    The draws are fixed by their seeds, so this is a pinned check. From 52
    bins on, the lower side also rejects draws that are too even, such as a
    plain counter mod bins.
    """
    counts = np.bincount(np.asarray(values, dtype=np.int64).ravel(), minlength=bins)
    assert counts.shape == (bins,)
    expected = counts.sum() / bins
    assert expected >= 20, expected
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = bins - 1
    assert abs(stat - df) <= 5 * (2 * df) ** 0.5, (stat, df)


class TestCounterDraw:
    def test_matches_python_splitmix64(self):
        # splitmix64 seeded with 0 starts e220a8397b1dcdaf, 6e789e6aa1b965f4, 06c45d188009454f
        assert counter_draw(0, 0, 1, 3).tolist() == [
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        ]
        rnd = random.Random(1)
        for key in (0, 1, WORD - 1, rnd.randrange(WORD), derive_seed("internal-sieve", 3, 2)):
            width = rnd.randint(1, 9)
            words = counter_draw(key, 5, 4, width)
            assert words.dtype == np.uint64 and words.shape == (4, width)
            for i in range(4):
                assert words[i].tolist() == splitmix64_words(key, 5 + i, width), key

    def test_any_split_equals_one_shot(self):
        rnd = random.Random(2)
        for _ in range(20):
            key, width = rnd.randrange(WORD), rnd.randint(1, 40)
            start, count = rnd.randrange(1000), rnd.randint(1, 70)
            whole = counter_draw(key, start, count, width)
            cuts = sorted(rnd.sample(range(1, count), min(3, count - 1))) if count > 1 else []
            bounds = [0, *cuts, count]
            parts = [counter_draw(key, start + lo, hi - lo, width) for lo, hi in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_mapped_draws_split_like_one_shot(self):
        g = complete_digraph(6)
        field = make_binary_field(binary_field_degree(g.n))
        whole = branchings._draw_internal_chunk(g, 3, field, 9, 2, 4, 30)
        for lo, hi in ((0, 1), (1, 7), (7, 30)):
            part = branchings._draw_internal_chunk(g, 3, field, 9, 2, 4 + lo, hi - lo)
            for a, b in zip(part, whole):
                assert np.array_equal(a, b[lo:hi])
        coins = branchings._draw_dv_chunk(9, 4, 30, 11)
        for lo, hi in ((0, 1), (1, 7), (7, 30)):
            assert np.array_equal(branchings._draw_dv_chunk(9, 4 + lo, hi - lo, 11), coins[lo:hi])

    def test_distinct_streams(self):
        # distinct tags, seeds and roots give keys whose streams share no word
        keys = [derive_seed(tag, seed, root) for tag in ("internal-sieve", "dv-assignment", "hc-trial")
                for seed in (0, 1, 2) for root in (0, 1)]
        keys += [derive_seed(tag, seed) for tag in ("dv-assignment", "hc-trial") for seed in (0, 1)]
        assert len(set(keys)) == len(keys)
        words = np.concatenate([counter_draw(key, 0, 8, 16).ravel() for key in keys])
        assert np.unique(words).size == words.size
        # and so do the mapped draws of two seeds, or two roots
        g = complete_digraph(7)
        field = make_binary_field(binary_field_degree(g.n))
        a = branchings._draw_internal_chunk(g, 4, field, 0, 1, 0, 5)
        for seed, root in ((1, 1), (0, 2)):
            b = branchings._draw_internal_chunk(g, 4, field, seed, root, 0, 5)
            assert not any(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(branchings._draw_dv_chunk(0, 0, 5, 40), branchings._draw_dv_chunk(1, 0, 5, 40))


class TestMappings:
    """Each detector's mapping from words to values: its range, and a pinned uniformity check."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_internal_scalars_and_group_elements(self, n):
        g = complete_digraph(n)
        k = 3
        field = make_binary_field(binary_field_degree(n))
        zeta, rmul, gvec = branchings._draw_internal_chunk(g, k, field, 5, 0, 0, 400)
        assert zeta.shape == rmul.shape == (400, g.m) and gvec.shape == (400, n)
        for scalars in (zeta, rmul):
            assert scalars.dtype == np.int32
            assert scalars.min() >= 1 and scalars.max() <= field.q - 1
            assert_uniform(scalars - 1, field.q - 1)
        assert gvec.min() >= 0 and gvec.max() < 1 << k
        assert_uniform(gvec, 1 << k)

    def test_coins(self):
        coins = branchings._draw_dv_chunk(5, 0, 300, 17)
        assert coins.dtype == bool and coins.shape == (300, 17)
        assert_uniform(coins, 2)
        # pairs of neighbouring coins are uniform over their four values too
        assert_uniform(2 * coins[:, :-1] + coins[:, 1:], 4)

    def test_port_weights(self):
        g = complete_digraph(7)
        field = make_binary_field(FIELD_BITS)
        layout = PortLayout.from_partition(g, find_independent_partition(g))
        key = derive_seed("hc-trial", 5)
        draws = [PortWeights.draw(g, layout, field, key, t).values for t in range(40)]
        values = np.stack(draws)
        assert values.shape == (40, g.n, g.m) and values.dtype == np.int32
        assert values.min() >= 0 and values.max() < field.q
        # entry (port, arc) of trial t is the top bits of word (t, port * arcs + arc)
        for t in (0, 17, 39):
            words = splitmix64_words(key, t, g.n * g.m)
            assert values[t].ravel().tolist() == [w >> (64 - FIELD_BITS) for w in words], t
        assert_uniform(values >> (FIELD_BITS - 6), 64)  # top bits
        assert_uniform(values & 63, 64)  # low bits
        # a trial's weights are those of its own counter, whatever came before
        again = PortWeights.draw(g, layout, field, key, 17).values
        assert np.array_equal(again, draws[17])
        assert not np.array_equal(draws[0], draws[1])
