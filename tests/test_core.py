"""Core types: indices, results, reports, strips, validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolylog.contour import depth1_closed_form, quad_bernoulli_circle, quad_Li, quad_zeta_hbar
from qpolylog.core import (
    BACKENDS,
    CheckReport,
    DomainError,
    EvalResult,
    MultiIndex,
    convergence_strip,
    ensure_finite_complex,
    in_strip,
    validate_hbar,
    weight,
)
from qpolylog.series import (
    EpsilonVector,
    TruncatedSeries,
    classical_polylog,
    companion_series,
    companion_series_batch,
    companion_sum_I,
    companion_sum_I_batch,
    multiple_polylog,
    octant_polylog,
    pochhammer_psi,
    q_integral,
    q_multiple_polylog,
)


class TestMultiIndex:
    def test_basic_fields(self):
        idx = MultiIndex((1, 2), (0, 1), (3, 0))
        assert idx.depth == 2
        assert idx.a == (1, 2) and idx.b == (0, 1) and idx.n == (3, 0)
        assert weight(idx) == 3 + 0  # weight counts the n-exponents only

    def test_is_basic(self):
        assert MultiIndex((1, 1), (1, 1), (2, 5)).is_basic
        assert not MultiIndex((2,), (1,), (0,)).is_basic
        assert not MultiIndex((1,), (0,), (0,)).is_basic

    def test_concat(self):
        left = MultiIndex((1,), (2,), (3,))
        right = MultiIndex((4,), (5,), (6,))
        joined = left.concat(right)
        assert joined == MultiIndex((1, 4), (2, 5), (3, 6))

    def test_negative_exponents_rejected(self):
        with pytest.raises(DomainError):
            MultiIndex((-1,), (0,), (0,))
        with pytest.raises(DomainError):
            MultiIndex((1,), (-1,), (0,))
        # negative n is legitimate: it puts the prefix sum in the numerator
        assert MultiIndex((1,), (0,), (-2,)).n == (-2,)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DomainError):
            MultiIndex((1, 1), (0,), (0, 0))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            MultiIndex((), (), ())

    def test_hashable_and_frozen(self):
        idx = MultiIndex((1,), (1,), (1,))
        assert hash(idx) == hash(MultiIndex((1,), (1,), (1,)))
        with pytest.raises(Exception):
            idx.a = (2,)  # type: ignore[misc]


class TestValidation:
    def test_backends_tuple(self):
        assert BACKENDS == ("series", "contour", "companion", "closed_form", "exact")

    def test_ensure_finite_complex(self):
        assert ensure_finite_complex(1 + 2j) == 1 + 2j
        with pytest.raises(DomainError):
            ensure_finite_complex(complex("nan"))
        with pytest.raises(DomainError):
            ensure_finite_complex(complex("inf"))

    def test_validate_hbar_numeric(self):
        assert validate_hbar(1.5) == 1.5 + 0j
        assert validate_hbar(1 + 2j) == 1 + 2j
        with pytest.raises(DomainError):
            validate_hbar(0.0)
        with pytest.raises(DomainError):
            validate_hbar(-1.0)
        with pytest.raises(DomainError):
            validate_hbar(-0.5 + 1j)  # numeric backends need Re hbar > 0

    def test_validate_hbar_formal(self):
        # formal domain: anywhere off the closed negative real axis
        assert validate_hbar(-0.5 + 1j, numeric=False) == -0.5 + 1j
        with pytest.raises(DomainError):
            validate_hbar(-2.0, numeric=False)
        with pytest.raises(DomainError):
            validate_hbar(0.0, numeric=False)


class TestEvalResult:
    def test_fields_and_to_dict(self):
        res = EvalResult(1 + 2j, 1e-12, "series", {"terms": 3})
        data = res.to_dict()
        assert data["value"] == {"re": 1.0, "im": 2.0}
        assert data["err_estimate"] == 1e-12
        assert data["backend"] == "series"
        assert data["diagnostics"] == {"terms": 3}

    def test_rejects_nonfinite_value(self):
        with pytest.raises(DomainError):
            EvalResult(complex("nan"), 0.0, "series", {})

    def test_rejects_unknown_backend(self):
        with pytest.raises(DomainError):
            EvalResult(0j, 0.0, "sorcery", {})

    def test_diagnostics_read_only(self):
        res = EvalResult(0j, 0.0, "series", {"terms": 3})
        with pytest.raises(TypeError):
            res.diagnostics["terms"] = 4  # type: ignore[index]


PHI = (1 + 5**0.5) / 2

# Entry points that take integer exponents, each called with the exponent k
# in one slot.
EXPONENT_CALLS = {
    "multiple_polylog": lambda k: multiple_polylog((k,), (0.5,)),
    "octant_polylog": lambda k: octant_polylog((k,), (0.5,)),
    "q_multiple_polylog a": lambda k: q_multiple_polylog((k,), (1,), (0.3,), 0.5),
    "q_multiple_polylog n": lambda k: q_multiple_polylog((1,), (k,), (0.3,), 0.5),
    "companion_series": lambda k: companion_series(
        (1,), (k,), (-1.0,), EpsilonVector(("1",), PHI)),
    "companion_series_batch": lambda k: companion_series_batch(
        (k,), (1,), [(-1.0,)], EpsilonVector(("1",), PHI))[0],
    "companion_sum_I": lambda k: companion_sum_I((k,), (-1.0,), PHI),
    "companion_sum_I_batch": lambda k: companion_sum_I_batch((k,), [(-1.0,)], PHI)[0],
    "quad_Li": lambda k: quad_Li((k,), (-1.0,)),
    "quad_zeta_hbar": lambda k: quad_zeta_hbar((k,), 1.0),
    "pochhammer_psi": lambda k: pochhammer_psi(k, 0.3, 0.35),
    "classical_polylog": lambda k: classical_polylog(k, 0.5),
    "classical_polylog n <= 0": lambda k: classical_polylog(-k, 0.5),
    "depth1_closed_form a": lambda k: depth1_closed_form(k, 1, -1.0),
    "depth1_closed_form n": lambda k: depth1_closed_form(1, k, -1.0),
    "quad_bernoulli_circle a": lambda k: quad_bernoulli_circle(k, 0, 1, -1.0, 1.2),
    "quad_bernoulli_circle b": lambda k: quad_bernoulli_circle(1, k, 1, -1.0, 1.2),
    "quad_bernoulli_circle n": lambda k: quad_bernoulli_circle(1, 0, k, -1.0, 1.2),
    "q_integral": lambda k: q_integral(TruncatedSeries((0j, 1.0, 0.5j)), k, 0.3),
}


@pytest.mark.parametrize("name", list(EXPONENT_CALLS))
class TestIntegerExponents:
    def test_fraction_rejected(self, name):
        with pytest.raises(DomainError, match="must be integers"):
            EXPONENT_CALLS[name](2.5)

    def test_integral_float_is_the_integer(self, name):
        assert EXPONENT_CALLS[name](2.0) == EXPONENT_CALLS[name](2)


class TestCheckReport:
    def test_pass(self):
        rep = CheckReport("x", {"p": 1}, 1e-9, 1e-8)
        assert rep.passed and rep.residual == 1e-9

    def test_fail(self):
        rep = CheckReport("x", {}, 1e-7, 1e-8)
        assert not rep.passed

    def test_boundary_counts_as_pass(self):
        assert CheckReport("x", {}, 1e-8, 1e-8).passed

    def test_negative_or_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            CheckReport("x", {}, -1.0, 1e-8)
        with pytest.raises(DomainError):
            CheckReport("x", {}, float("nan"), 1e-8)
        with pytest.raises(DomainError):
            CheckReport("x", {}, 0.0, -1e-8)

    def test_zero_tolerance_allowed(self):
        rep = CheckReport("exact", {}, 0.0, 0.0)
        assert rep.passed

    def test_to_dict_uses_pass_key(self):
        data = CheckReport("x", {"k": 2}, 0.5, 1.0).to_dict()
        assert data["pass"] is True
        assert data["params"] == {"k": 2}

    @given(
        residual=st.floats(min_value=0, max_value=1e6),
        tolerance=st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_pass_flag_matches_comparison(self, residual, tolerance):
        rep = CheckReport("prop", {}, residual, tolerance)
        assert rep.passed == (residual <= tolerance)


class TestStrips:
    def test_half_widths(self):
        idx = MultiIndex((1, 2), (1, 0), (1, 1))
        strips = convergence_strip(idx, 1.5)
        assert strips == pytest.approx((math.pi * 2.5, math.pi * 2.0))

    def test_complex_hbar_uses_real_part(self):
        idx = MultiIndex((1,), (1,), (1,))
        strips = convergence_strip(idx, 1.5 + 10j)
        assert strips == pytest.approx((math.pi * 2.5,))

    def test_in_strip_and_margin(self):
        idx = MultiIndex((1,), (0,), (1,))
        assert in_strip(idx, (-1 + 3j,), 1.0)
        assert not in_strip(idx, (-1 + 3.2j,), 1.0)
        assert not in_strip(idx, (-1 + 3j,), 1.0, margin=0.5)

    def test_contour_rejects_bare_axis(self):
        idx = MultiIndex((0,), (0,), (2,))
        with pytest.raises(DomainError):
            convergence_strip(idx, 1.0, for_contour=True)

    def test_wrong_depth_rejected(self):
        idx = MultiIndex((1,), (1,), (1,))
        with pytest.raises(DomainError):
            in_strip(idx, (-1, -2), 1.0)
