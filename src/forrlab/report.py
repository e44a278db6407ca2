"""Experiment reports and statistical verdicts.

Monte Carlo checks compare an estimate carrying a standard error against a
deterministic bound or against another estimate.  Verdicts use a 4-sigma
margin: an upper-bound check passes when the estimate does not exceed the
bound by more than 4 standard errors, a lower-bound check distinguishes
pass / fail / inconclusive depending on which side of the bound the 4-sigma
interval lies, and an equality check passes when two estimates agree within
4 combined standard errors plus an optional deterministic allowance.

Reports serialize to JSON with a stable key order so that repeated runs with
the same seed produce byte-identical output once timing fields are dropped.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# exit codes for the command line front end
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class Estimate(NamedTuple):
    """A Monte Carlo point estimate with its standard error."""

    value: float
    se: float


def mean_estimate(samples) -> Estimate:
    """Sample mean and its standard error."""
    import numpy as np

    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a one dimensional array of at least two samples")
    se = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return Estimate(float(arr.mean()), se)


def proportion_estimate(count: int, total: int) -> Estimate:
    """Binomial proportion and its standard error."""
    if total < 1 or count < 0 or count > total:
        raise ValueError("count must lie in [0, total] with total >= 1")
    p = count / total
    return Estimate(p, math.sqrt(p * (1.0 - p) / total))


def check_upper(est: Estimate, bound: float) -> str:
    """Pass iff the estimate is at most the bound plus 4 standard errors."""
    return PASS if est.value <= bound + 4.0 * est.se else FAIL


def check_lower(est: Estimate, bound: float) -> str:
    """Three-way verdict for an estimate that should be at least ``bound``.

    Pass when the 4-sigma interval lies entirely at or above the bound, fail
    when it lies entirely below, inconclusive when it straddles the bound.
    """
    if est.value - 4.0 * est.se >= bound:
        return PASS
    if est.value + 4.0 * est.se < bound:
        return FAIL
    return INCONCLUSIVE


def check_equal(a: Estimate, b: Estimate, allowance: float = 0.0) -> str:
    """Pass iff two estimates agree within 4 combined SE plus an allowance."""
    if allowance < 0.0:
        raise ValueError("allowance must be nonnegative")
    se = math.sqrt(a.se**2 + b.se**2)
    return PASS if abs(a.value - b.value) <= 4.0 * se + allowance else FAIL


def combine_verdicts(*verdicts: str) -> str:
    """Worst verdict wins: fail > inconclusive > pass."""
    if FAIL in verdicts:
        return FAIL
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return PASS


def verdict_exit_code(verdict: str) -> int:
    """Map a verdict string onto the process exit code convention."""
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict]


@dataclasses.dataclass
class ExperimentReport:
    """Outcome of one numerical experiment.

    ``payload`` holds experiment specific numbers (estimates, bounds,
    allowances); keys inside it are sorted on serialization.
    """

    name: str
    verdict: str
    samples: int
    payload: dict
    wall_time_s: float = 0.0
    timestamp: str = dataclasses.field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat()
    )

    def to_json_dict(self, no_timing: bool = False) -> dict:
        """Plain dict for JSON output; timing fields dropped when asked.

        ``no_timing`` removes both the timestamp and the wall time so that
        reruns with the same seed serialize byte-identically.
        """
        out = {
            "name": self.name,
            "verdict": self.verdict,
            "samples": self.samples,
        }
        if not no_timing:
            out["timestamp"] = self.timestamp
            out["wall_time_s"] = round(self.wall_time_s, 6)
        out.update({k: self.payload[k] for k in sorted(self.payload)})
        return out

    def to_json(self, no_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(no_timing=no_timing), indent=2, sort_keys=False)

