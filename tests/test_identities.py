"""Tests for the verification suite: every registered cross-check passes on
its frozen grid, reports are deterministic and well-formed, and the registry
behaves sensibly on custom inputs."""

import json
from collections import Counter

import pytest

from qpolylog import CheckReport, DomainError, contour, identities
from qpolylog.core import map_points
from qpolylog.identities import (
    CHECKS,
    CheckSpec,
    check_q_calculus,
    check_series_vs_contour,
    run_all,
)

EXPECTED_COUNTS = {
    "asymptotic": 6,
    "companion": 5,
    "difference_and_differential": 49,
    "distribution": 5,
    "h1": 8,
    "q_calculus": 34,
    "rational_hbar": 5,
    "series_vs_contour": 24,
    "shuffle": 7,
    "symmetries": 13,
}


class TestFullSuite:
    def test_every_check_passes(self, all_reports):
        failed = [r for r in all_reports if not r.passed]
        assert failed == [], "\n".join(
            f"{r.identity_name} {r.params}: residual {r.residual:.3e} "
            f"> tol {r.tolerance:.3e}"
            for r in failed
        )

    def test_report_census(self, all_reports):
        counts = Counter(r.identity_name for r in all_reports)
        assert dict(counts) == EXPECTED_COUNTS
        assert len(all_reports) == sum(EXPECTED_COUNTS.values())

    def test_registry_covers_all_identity_names(self, all_reports):
        assert {r.identity_name for r in all_reports} == set(CHECKS)

    def test_sorted_for_reproducibility(self, all_reports):
        keys = [
            (r.identity_name, sorted((str(k), str(v)) for k, v in r.params.items()))
            for r in all_reports
        ]
        assert keys == sorted(keys)

    def test_reports_are_serializable(self, all_reports):
        for r in all_reports:
            d = r.to_dict()
            assert d["pass"] in (True, False)
            assert isinstance(d["residual"], float)
            json.dumps(d)  # must not raise

    def test_residuals_consistent_with_verdict(self, all_reports):
        for r in all_reports:
            assert r.passed == (r.residual <= r.tolerance)


class TestDeterminism:
    def test_repeated_check_is_bitwise_identical(self):
        first = [r.to_dict() for r in check_q_calculus()]
        second = [r.to_dict() for r in check_q_calculus()]
        assert first == second

    def test_seed_changes_random_grid_but_not_named_points(self):
        base = check_series_vs_contour(seed=1)
        other = check_series_vs_contour(seed=2)
        assert len(base) == len(other)
        # the four named points lead both grids and are seed-independent
        assert [r.params for r in base[:4]] == [r.params for r in other[:4]]
        assert [r.params for r in base] != [r.params for r in other]
        assert all(r.passed for r in base)
        assert all(r.passed for r in other)


class TestRegistry:
    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            run_all(names=["not_a_check"])

    def test_subset_selection(self):
        reports = run_all(names=["companion"])
        assert len(reports) == EXPECTED_COUNTS["companion"]
        assert all(r.identity_name == "companion" for r in reports)
        assert all(r.passed for r in reports)

    def test_custom_spec_grid(self):
        spec = CheckSpec(
            identity_name="series_vs_contour",
            grid=({"n": (2,), "w": (-1.5,), "tol": 1e-8},),
            tolerance=1e-8,
            backends=("series", "contour"),
        )
        reports = check_series_vs_contour(spec)
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].params["n"] == [2]

    def test_reports_are_check_reports(self, all_reports):
        assert all(isinstance(r, CheckReport) for r in all_reports)


class TestBatchedStencils:
    """Points of one check that share (index, hbar, tol, pole shifts) are
    evaluated as one quad_F_batch or quad_I_batch call, and every report
    equals the report of one-point calls."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_reports_equal_one_point_calls(self, monkeypatch, seed):
        batched = run_all(seed=seed)

        def loop_F(idx, omegas, hbar, spec=None, pole_shifts=None):
            return map_points(lambda om: identities.quad_F(idx, om, hbar, spec, pole_shifts), omegas)

        def loop_I(idx, ws, hbar, spec=None):
            return map_points(lambda w: identities.quad_I(idx, w, hbar, spec), ws)

        monkeypatch.setattr(identities, "quad_F_batch", loop_F)
        monkeypatch.setattr(identities, "quad_I_batch", loop_I)
        assert run_all(seed=seed) == batched

    def test_line_integral_calls(self, monkeypatch):
        # run_all(seed=7) evaluates 284 points on the line; one-point calls
        # made 294 line integrals, the batches make at most 160
        calls = []
        line_integral = contour._line_integral

        def counting(idx, omegas, *args, **kwargs):
            calls.append(len(omegas))
            return line_integral(idx, omegas, *args, **kwargs)

        monkeypatch.setattr(contour, "_line_integral", counting)
        run_all(seed=7)
        assert len(calls) <= 160
        assert sum(calls) == 284
