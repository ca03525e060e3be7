"""Result record shared by the randomized detectors."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DetectionReport:
    """One-sided verdict with enough context to reproduce and assess it.

    A True verdict is always correct. A False verdict is wrong with
    probability at most `failure_bound` (0.0 when the answer is structural,
    for example when no spanning structure can exist at all).
    """

    verdict: bool
    trials_run: int
    trials_max: int
    failure_bound: float
    detail: dict = field(default_factory=dict)
