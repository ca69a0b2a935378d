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
    check_asymptotic,
    check_h1,
    check_q_calculus,
    check_rational_hbar,
    check_series_vs_contour,
    check_symmetries,
    run_all,
)

H1_GOOD = {"m": 1, "a": 1, "b": 1, "n": (1,), "omega": (-1.0,)}
H1_OUTSIDE = {"m": 1, "a": 1, "b": 1, "n": (1,), "omega": (-1 + 9j,)}

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
        )
        reports = check_series_vs_contour(spec)
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].params["n"] == [2]

    def test_reports_are_check_reports(self, all_reports):
        assert all(isinstance(r, CheckReport) for r in all_reports)


class TestBatchedStencils:
    """The contour rows of one check family, at every grid point and hbar,
    are evaluated as one contour._quad_rows call per quadrature spec, and
    every report equals the report of one-point calls."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_reports_equal_one_point_calls(self, monkeypatch, seed):
        batched = run_all(seed=seed)

        def one_point(rows, spec=None):
            def alone(row):
                if row.prefixed:
                    return contour.quad_F(row.idx, row.omega, row.hbar, spec, row.pole_shifts)
                return contour.quad_zeta_hbar([v + 1 for v in row.idx.n], row.hbar, spec)

            return map_points(alone, rows)

        monkeypatch.setattr(identities, "_quad_rows", one_point)
        assert run_all(seed=seed) == batched

    def test_line_integral_calls(self, monkeypatch):
        # run_all(seed=7) evaluates 284 rows on the line: one-point calls
        # made 294 line integrals, batches of one index and hbar 155, and
        # one call per family makes 9 (q_calculus has no contour rows)
        calls = []
        line_integral = contour._line_integral

        def counting(rows, spec):
            calls.append(len(rows))
            return line_integral(rows, spec)

        monkeypatch.setattr(contour, "_line_integral", counting)
        run_all(seed=7)
        assert len(calls) <= 9
        assert sum(calls) == 284

    @pytest.mark.parametrize(
        "check,grid,error,message",
        [
            # the second point leaves the strip; the third has no omega,
            # which is found first but raised in its turn
            (check_h1, (H1_GOOD, H1_OUTSIDE, {"m": 1, "n": (1,)}),
             DomainError, r"axis 0: \|Im omega\| = 9 is not inside the convergence strip"),
            (check_h1, (H1_GOOD, {"m": 1, "n": (1,)}, H1_OUTSIDE), KeyError, "omega"),
            (check_symmetries,
             ({"relation": "decay", "a": (1,), "b": (1,), "n": (1,), "omega": (5000.0,),
               "hbar": 1.2},
              {"relation": "zeta-anchor", "s": (1,), "hbar": 1.0}),  # s = 1 is refused
             DomainError, r"the integrand overflows on the line at omega\[0\] = \(5000\+0j\)"),
            # the second point has no n, which is found first but raised in
            # its turn, after the first point's error
            (check_series_vs_contour, ({"n": (2,), "w": (-1 + 4j,)}, {"w": (-1.0,)}),
             DomainError, r"axis 0: \|Im omega\| = 4 is not inside the convergence strip"),
            (check_series_vs_contour,
             ({"n": (2,), "w": (-1.0,)}, {"n": (2,), "w": (-1 + 4j,)},
              {"n": (1, 1), "w": (-1.0,)}),
             DomainError, r"axis 0: \|Im omega\| = 4 is not inside the convergence strip"),
        ],
    )
    def test_failing_custom_grid_raises_its_first_error(self, check, grid, error, message):
        # the error that point-by-point evaluation raised first
        with pytest.raises(error, match=message):
            check(CheckSpec(check.__name__.removeprefix("check_"), grid))


def spy_on(monkeypatch, name: str) -> list:
    """Replace identities.<name> by a wrapper that records each call's
    arguments in the returned list."""
    calls, real = [], getattr(identities, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, name, spy)
    return calls


class TestSeriesValuesOncePerCheck:
    """check_h1 and check_rational_hbar evaluate each distinct closed form
    once per call, from caches that do not outlive the call, and
    check_asymptotic forms each denominator once per grid point."""

    @pytest.mark.parametrize(
        "check, distinct",
        [
            # h1: a + b = 3 twice at each n; L(2, 1) and L(2, 2) at both n
            (check_h1, {"depth1_closed_form": 4, "octant_polylog": 8}),
            # rational_hbar: r/s = 3/2 shares two shifts with 2/1 at n = 1
            (check_rational_hbar, {"depth1_closed_form": 13}),
        ],
    )
    def test_each_closed_form_once_per_call(self, monkeypatch, check, distinct):
        expected = check()
        calls = {name: spy_on(monkeypatch, name) for name in distinct}
        assert check() == expected
        assert {name: len(args) for name, args in calls.items()} == distinct
        for args in calls.values():
            assert len(set(args)) == len(args)
        first = {name: list(args) for name, args in calls.items()}
        assert check() == expected
        assert calls == {name: args * 2 for name, args in first.items()}

    @pytest.mark.parametrize("hbars", [(0.2, 0.1, 0.05), (0.2, 0.15, 0.1, 0.07, 0.05)])
    def test_asymptotic_denominators_once_per_point(self, monkeypatch, hbars):
        spec = identities.default_asymptotic_spec()
        spec = CheckSpec(spec.identity_name, tuple({**p, "hbars": hbars} for p in spec.grid),
                         spec.tolerance)
        names = ("classical_polylog", "multiple_polylog", "depth1_closed_form")
        calls = {name: spy_on(monkeypatch, name) for name in names}
        assert len(check_asymptotic(spec)) == 2 * len(spec.grid)
        # depth1: Li_2; depth1-scale: one closed form; depth2: Li_3 Li_1 and Li_(3, 1)
        assert {name: len(args) for name, args in calls.items()} == {
            "classical_polylog": 3, "multiple_polylog": 1, "depth1_closed_form": 1}


class TestRunner:
    """identities._check_points names, tolerates and takes |residual| of
    every report, and calls the contour engine only for rows."""

    def test_point_without_tol_reports_spec_tolerance(self):
        spec = CheckSpec("h1", (H1_GOOD, {**H1_GOOD, "tol": 1e-9}), tolerance=1e-5)
        without, with_tol = check_h1(spec)
        assert (without.tolerance, with_tol.tolerance) == (1e-5, 1e-9)
        assert without.identity_name == with_tol.identity_name == "h1"
        assert without.residual == with_tol.residual >= 0.0

    def test_own_tolerances_ignore_the_point_tol(self):
        spec = CheckSpec("shuffle", ({"case": "exact-partial-fraction", "k": 1, "l": 1,
                                      "tol": 1.0},), tolerance=1.0)
        (report,) = identities.check_shuffle(spec)
        assert report.tolerance == 0.0

    def test_q_calculus_makes_no_engine_call(self, monkeypatch):
        def no_rows(rows, spec=None):
            raise AssertionError("_quad_rows called")

        monkeypatch.setattr(identities, "_quad_rows", no_rows)
        assert len(check_q_calculus()) == EXPECTED_COUNTS["q_calculus"]

    @pytest.mark.parametrize("name", ["u", "v"])
    def test_shuffle_generating_names_the_non_finite_argument(self, name):
        point = {"case": "generating", "omega": (-2.0, -1.0), "hbar": 1.5, "u": 0.07, "v": 0.05}
        spec = CheckSpec("shuffle", ({**point, name: complex("nan")},))
        with pytest.raises(DomainError, match=rf"^non-finite {name}: "):
            identities.check_shuffle(spec)

    @pytest.mark.parametrize(
        "name,point",
        [
            ("distribution", {"r": 2.5, "s": 1, "n": 1, "omega": -2.0, "hbar": 1.2}),
            ("distribution", {"r": 2, "s": 1, "n": 1.5, "omega": -2.0, "hbar": 1.2}),
            ("h1", {**H1_GOOD, "b": 1.5}),
            ("shuffle", {"case": "exact-partial-fraction", "k": 1, "l": 2.5}),
            ("asymptotic", {"case": "depth1", "n": 1.5, "omega": -1.0, "hbars": (0.2, 0.1)}),
            ("asymptotic", {"case": "depth2", "n": (1, 1.5), "omega": (-1.0, -0.5),
                            "hbars": (0.2, 0.1)}),
            ("q_calculus", {"case": "difference-of-integral", "q": 0.3, "a": 1, "degree": 12.5}),
            ("q_calculus", {"case": "series-integral", "q": 0.3, "a": 2, "n": 1.5, "x": 0.2}),
            ("q_calculus", {"case": "product-log", "a": 2.5, "x": 0.3, "q": 0.35}),
            ("q_calculus", {"case": "product-recursion", "q": 0.4, "a": 1.5, "x": 0.25}),
            ("rational_hbar", {"r": 3, "s": 2.5, "n": 1, "omega": -2.0}),
        ],
    )
    def test_non_integer_grid_field_is_refused(self, name, point):
        # an integer field is read as an integer, never truncated to one
        check = getattr(identities, f"check_{name}")
        with pytest.raises(DomainError, match="entries must be integers"):
            check(CheckSpec(name, (point,)))

    @pytest.mark.parametrize("relation", ["zeta-anchor", "zeta-modular"])
    def test_zeta_relations_refuse_complex_hbar(self, relation):
        # the zeta rows are evaluated at the point's hbar, not at its real part
        spec = CheckSpec("symmetries", ({"relation": relation, "s": (2,), "hbar": 1.4 + 0.5j},))
        with pytest.raises(DomainError, match="zeta values are defined for real hbar > 0"):
            check_symmetries(spec)
