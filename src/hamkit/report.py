"""Result record shared by the randomized detectors."""

from __future__ import annotations

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
