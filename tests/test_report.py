"""The trial driver shared by the randomized detectors."""

import math

import pytest

from hamkit.report import run_trials, trial_chunks


def fake_chunks(hit_at=None):
    """A run_chunk that records its (start, count) calls and hits at trial hit_at, if given."""
    calls = []

    def run_chunk(start, count):
        calls.append((start, count))
        if hit_at is not None and start <= hit_at < start + count:
            return hit_at - start, f"hit {hit_at}"
        return None

    return calls, run_chunk


class TestRunTrials:
    def test_no_runs_every_chunk_and_reports_the_bound(self):
        # floor 0.25: one trial, the 4 a YES at the floor expects, then chunks of 34
        calls, run_chunk = fake_chunks()
        assert run_trials(100, 34, 0.25, run_chunk) == (None, 100, 0.75**100)
        assert calls == [(0, 1), (1, 4), (5, 34), (39, 34), (73, 27)]
        assert [count for _, count in calls] == list(trial_chunks(100, 34, 0.25))

    @pytest.mark.parametrize("hit_at, chunks", [
        (0, [(0, 1)]), (1, [(0, 1), (1, 4)]), (4, [(0, 1), (1, 4)]),
        (5, [(0, 1), (1, 4), (5, 34)]), (60, [(0, 1), (1, 4), (5, 34), (39, 34)]),
        (99, [(0, 1), (1, 4), (5, 34), (39, 34), (73, 27)]),
    ])
    def test_yes_stops_after_the_chunk_with_the_hit(self, hit_at, chunks):
        calls, run_chunk = fake_chunks(hit_at)
        hit, trials_run, bound = run_trials(100, 34, 0.25, run_chunk)
        assert calls == chunks
        assert hit == f"hit {hit_at}"
        start, _ = calls[-1]
        assert trials_run == start + (hit_at - start) + 1  # start + offset + 1
        assert bound == 0.0

    def test_one_trial_a_chunk(self):
        calls, run_chunk = fake_chunks(3)
        assert run_trials(7, 1, 0.5, run_chunk) == ("hit 3", 4, 0.0)
        assert calls == [(0, 1), (1, 1), (2, 1), (3, 1)]
        calls, run_chunk = fake_chunks()
        assert run_trials(7, 1, 0.5, run_chunk) == (None, 7, 0.5**7)
        assert calls == [(t, 1) for t in range(7)]

    def test_floors_of_zero_and_one(self):
        # floor 0 bounds nothing and goes straight to cap; floor 1 expects one trial
        calls, run_chunk = fake_chunks()
        assert run_trials(3, 4, 0.0, run_chunk) == (None, 3, 1.0)
        assert calls == [(0, 1), (1, 2)]
        calls, run_chunk = fake_chunks()
        assert run_trials(6, 4, 1.0, run_chunk) == (None, 6, 0.0)
        assert calls == [(0, 1), (1, 1), (2, 4)]

    def test_cycle_bound_is_exact(self):
        # detect-hc passes floor 1 - n/2^16; for n < 2^16 both subtractions
        # are exact, so its NO bound is (n/2^16)^t bit for bit
        for n in range(2, 33):
            for t in range(1, 101):
                assert (1.0 - (1.0 - n / 2**16)) ** t == math.pow(n / 2**16, t), (n, t)
