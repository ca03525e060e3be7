"""Result record, trial-free answers and trial driver shared by the randomized detectors."""

from __future__ import annotations

import math
from collections import namedtuple


class DetectionReport(namedtuple("DetectionReport", "verdict trials_run trials_max failure_bound detail")):
    """One-sided verdict with enough context to reproduce and assess it.

    A True verdict is always correct. A False verdict is wrong with
    probability at most `failure_bound` (0.0 when the answer is structural,
    for example when no spanning structure can exist at all). Without
    `detail`, each report gets a dict of its own.
    """

    __slots__ = ()

    def __new__(cls, verdict: bool, trials_run: int, trials_max: int, failure_bound: float,
                detail: dict | None = None):
        return super().__new__(cls, verdict, trials_run, trials_max, failure_bound,
                               {} if detail is None else detail)


def structural(verdict: bool, reason: str, trials_max: int = 0, **detail) -> DetectionReport:
    """An answer decided without a trial, so exact: no trial run and failure bound 0.0.

    The detail holds the reason first, then the given detail in order.
    """
    return DetectionReport(verdict, 0, trials_max, 0.0, {"reason": reason, **detail})


def trial_chunks(total: int, cap: int, floor: float):
    """Chunk sizes that add up to total: 1, then min(cap, ceil(1 / floor)), then cap.

    floor is a lower bound on a trial's chance to hit on a YES instance; a
    floor of at most 1 / cap, 0 included, gives cap (and 1 / floor is not
    taken, as it overflows for floors like 4^-512). A one-sided detector
    stops after the chunk with its first hit, so a first trial alone keeps
    YES answers that hit at once cheap, the second chunk holds the trials a
    YES at the floor expects to need, and a NO, which runs every trial, pays
    for few fixed-cost kernel calls after that. The sizes depend only on
    total, cap and floor, never on the draws.
    """
    second = min(cap, math.ceil(1 / floor)) if floor > 1 / cap else cap
    done = 0
    size = 1
    while done < total:
        count = min(size, total - done)
        yield count
        done += count
        size = second if done == 1 else cap


def run_trials(trials: int, cap: int, floor: float, run_chunk):
    """Run trials 0..trials-1 in trial_chunks(trials, cap, floor) up to the first hit.

    run_chunk(start, count) runs trials start..start+count-1 and returns
    None, or (offset, hit) for the first of them that hits, trial start +
    offset. Returns (hit, trials_run, failure_bound): the hit, the trials up
    to and including it, and 0.0 on a YES; None, trials and (1 - floor) **
    trials on a NO, where floor is a lower bound on a trial's chance to hit
    on a YES instance.
    """
    start = 0
    for count in trial_chunks(trials, cap, floor):
        found = run_chunk(start, count)
        if found is not None:
            offset, hit = found
            return hit, start + offset + 1, 0.0
        start += count
    return None, trials, (1.0 - floor) ** trials
