"""Tests for estimates, verdict helpers, and report serialization."""

import json

import numpy as np
import pytest

import forrlab.report as rep


class TestEstimates:
    def test_mean_estimate(self):
        est = rep.mean_estimate([1.0, 2.0, 3.0, 4.0])
        assert est.value == pytest.approx(2.5)
        assert est.se == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)

    def test_mean_estimate_rejects_short_input(self):
        with pytest.raises(ValueError):
            rep.mean_estimate([1.0])

    def test_proportion_estimate(self):
        est = rep.proportion_estimate(25, 100)
        assert est.value == 0.25
        assert est.se == pytest.approx((0.25 * 0.75 / 100) ** 0.5)

    def test_proportion_estimate_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            rep.proportion_estimate(5, 4)
        with pytest.raises(ValueError):
            rep.proportion_estimate(-1, 4)


class TestVerdicts:
    def test_check_upper_boundary(self):
        est = rep.Estimate(1.0, 0.1)
        assert rep.check_upper(est, 0.6) == rep.PASS
        assert rep.check_upper(est, 0.59) == rep.FAIL
        assert rep.check_upper(rep.Estimate(0.0, 0.0), 0.0) == rep.PASS

    def test_check_lower_three_way(self):
        assert rep.check_lower(rep.Estimate(1.0, 0.1), 0.6) == rep.PASS
        assert rep.check_lower(rep.Estimate(1.0, 0.1), 1.41) == rep.FAIL
        assert rep.check_lower(rep.Estimate(1.0, 0.1), 1.2) == rep.INCONCLUSIVE

    def test_check_equal_with_allowance(self):
        a = rep.Estimate(1.0, 0.01)
        b = rep.Estimate(1.06, 0.01)
        assert rep.check_equal(a, b) == rep.FAIL
        assert rep.check_equal(a, b, allowance=0.01) == rep.PASS
        assert rep.check_equal(a, rep.Estimate(1.05, 0.01)) == rep.PASS
        with pytest.raises(ValueError):
            rep.check_equal(a, b, allowance=-0.1)

    def test_combine_worst_wins(self):
        assert rep.combine_verdicts(rep.PASS, rep.PASS) == rep.PASS
        assert rep.combine_verdicts(rep.PASS, rep.INCONCLUSIVE) == rep.INCONCLUSIVE
        assert rep.combine_verdicts(rep.INCONCLUSIVE, rep.FAIL, rep.PASS) == rep.FAIL

    def test_exit_codes(self):
        assert rep.verdict_exit_code(rep.PASS) == 0
        assert rep.verdict_exit_code(rep.FAIL) == 1
        assert rep.verdict_exit_code(rep.INCONCLUSIVE) == 2


class TestExperimentReport:
    def _report(self):
        return rep.ExperimentReport(
            name="demo",
            verdict=rep.PASS,
            samples=10,
            payload={"b_key": 2.0, "a_key": 1.0},
            wall_time_s=1.23456789,
            timestamp="2026-01-01T00:00:00+00:00",
        )

    def test_payload_keys_sorted_after_fixed_fields(self):
        doc = self._report().to_json_dict()
        assert list(doc) == ["name", "verdict", "samples", "timestamp", "wall_time_s", "a_key", "b_key"]

    def test_no_timing_drops_both_fields(self):
        doc = self._report().to_json_dict(no_timing=True)
        assert "timestamp" not in doc
        assert "wall_time_s" not in doc
        assert doc["a_key"] == 1.0

    def test_json_round_trip_is_deterministic(self):
        a = self._report().to_json(no_timing=True)
        b = self._report().to_json(no_timing=True)
        assert a == b
        assert json.loads(a)["verdict"] == "pass"
