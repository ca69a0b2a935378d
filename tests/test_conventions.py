"""Recomputes every number recorded in qpolylog.conventions.

Each frozen convention ships with calibration evidence (the frozen form
closing an identity at a reference point) and rejected alternatives (the
residual each alternative leaves at the same point).  These tests re-derive
all of those numbers from the live code so the recorded document cannot
drift away from what the package actually computes.
"""

import cmath
import itertools
import math

import pytest

from qpolylog import DomainError, conventions
from qpolylog.contour import (
    KernelParams,
    QuadratureSpec,
    kernel,
    quad_F,
    quad_I,
    quad_Li,
    quad_zeta_hbar,
)
from qpolylog.conventions import (
    ANCHOR_F100_OMEGA,
    ANCHOR_F100_VALUE,
    ASYMPTOTIC_FROZEN_GAP,
    ASYMPTOTIC_REJECTED_GAP,
    BOUNDARY_B_VALUE,
    BOUNDARY_F_VALUE,
    BOUNDARY_REJECTED_RESIDUAL,
    COMPANION_MIXED_REFERENCE,
    COMPANION_REFERENCES,
    COMPANION_REJECTED_DUAL_NOME,
    COMPANION_REJECTED_UNMIXED,
    CONVENTIONS,
    DISTRIBUTION_LHS_VALUE,
    DISTRIBUTION_REJECTED_FACTOR_SIDE,
    DISTRIBUTION_REJECTED_PRODUCT,
    H1_REFERENCE_VALUE,
    H1_REJECTED_RESIDUAL,
    KERNEL_STEP_REJECTED_RESIDUAL,
    PSI_REFERENCE_VALUE,
    PSI_REJECTED_RESIDUAL,
    QUAD_LI_REFERENCE_VALUE,
    ZETA_1_2_VALUE,
    ZETA_14_3_VALUE,
    ZETA_REJECTED_EXPONENT_RESIDUAL,
    conventions_text,
)
from qpolylog.core import MultiIndex
from qpolylog.exact import bernoulli_exact, q_poly
from qpolylog.series import (
    EpsilonVector,
    TruncatedSeries,
    classical_polylog,
    companion_series,
    companion_sum_I,
    multiple_polylog,
    pochhammer_psi,
    q_difference,
    q_integral,
)

TWO_PI_I = 2j * math.pi


def idx1(a: int, b: int, n: int) -> MultiIndex:
    return MultiIndex((a,), (b,), (n,))


# The contour certifies the default tol 1e-10; the anchors below are checked
# to 1e-12, so they ask for that much.
TIGHT = QuadratureSpec(tol=1e-14)


class TestLineOrientation:
    def test_anchor_value(self):
        closed = -math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert abs(closed - ANCHOR_F100_VALUE) <= 1e-15
        quad = quad_F(idx1(1, 0, 0), (ANCHOR_F100_OMEGA,), 1.0, TIGHT).value
        assert abs(quad - ANCHOR_F100_VALUE) <= 1e-12

    def test_rejected_flip_residual(self):
        # flipping the orientation negates the value: residual 2|anchor|
        assert 2 * abs(ANCHOR_F100_VALUE) == pytest.approx(
            0.5378828427399902, abs=1e-15
        )


class TestFiniteDifferenceStep:
    P, OMEGA, HBAR = 0.7 + 0.4j, -1.1 + 0.2j, 1.3

    def kernel_at(self, a, b, omega):
        return kernel(KernelParams(a, b, self.HBAR, omega), self.P)

    def test_half_step_closes_kernel_recursion(self):
        step = 1j * math.pi
        lhs = self.kernel_at(2, 1, self.OMEGA + step) - self.kernel_at(
            2, 1, self.OMEGA - step
        )
        rhs = self.kernel_at(1, 1, self.OMEGA)
        assert abs(lhs - rhs) <= 5e-18  # recorded 9.7e-19

    def test_forward_step_rejected(self):
        step = 1j * math.pi
        lhs = self.kernel_at(2, 1, self.OMEGA + 2 * step) - self.kernel_at(
            2, 1, self.OMEGA
        )
        rhs = self.kernel_at(1, 1, self.OMEGA)
        assert abs(lhs - rhs) == pytest.approx(
            KERNEL_STEP_REJECTED_RESIDUAL, abs=1e-12
        )


class TestBoundaryReflection:
    def test_reference_values_and_sign(self):
        idx = idx1(1, 1, 1)
        f_pos = quad_F(idx, (-1.0,), 1.3, TIGHT).value
        f_neg = quad_F(idx, (1.0,), 1.3, TIGHT).value
        b_val = bernoulli_exact(1, 1, 1).eval(-1.0, 1.3)
        assert abs(f_pos - BOUNDARY_F_VALUE) <= 1e-12
        assert abs(b_val - BOUNDARY_B_VALUE) <= 1e-14
        # frozen: F(omega) + (-1)^(a+b+n-1) F(-omega) = -B(omega)
        assert abs(f_pos + f_neg + b_val) <= 1e-12  # recorded 1.31e-16
        # rejected: the +B sign leaves ~2|B|
        assert abs(f_pos + f_neg - b_val) == pytest.approx(
            BOUNDARY_REJECTED_RESIDUAL, abs=1e-11
        )


class TestResiduePairingNormalization:
    def test_exact_anchors(self):
        assert (bernoulli_exact(1, 0, 0) - q_poly(0)).is_zero
        assert bernoulli_exact(2, 0, 1).omega_degree() == 2

    def test_rejected_index_shift(self):
        residual = abs(
            bernoulli_exact(1, 0, 1).eval(2.0) - q_poly(0).eval(2.0)
        )
        assert residual == 1.0


class TestUndeformedLimit:
    def test_two_term_form(self):
        omega = -1.0
        e = math.exp(omega)
        two_term = (
            q_poly(1).eval(omega) * classical_polylog(2, e).value
            - (2 / TWO_PI_I) * classical_polylog(3, e).value
        )
        assert abs(two_term - H1_REFERENCE_VALUE) <= 1e-13
        quad = quad_F(idx1(1, 1, 2), (omega,), 1.0).value
        assert abs(quad - two_term) <= 1e-10  # recorded 5.0e-17

    def test_rejected_single_product(self):
        omega = -1.0
        single = q_poly(1).eval(omega) * classical_polylog(2, math.exp(omega)).value
        assert abs(H1_REFERENCE_VALUE - single) == pytest.approx(
            H1_REJECTED_RESIDUAL, abs=1e-12
        )


class TestSemiclassicalIndex:
    def test_frozen_and_rejected_gaps(self):
        hbar = 0.05
        f = quad_F(idx1(1, 1, 1), (-1.0,), hbar).value
        z = -math.exp(-1.0)
        ratio_good = TWO_PI_I * hbar * f / classical_polylog(2, z).value
        ratio_bad = TWO_PI_I * hbar * f / classical_polylog(1, z).value
        assert abs(ratio_good - 1) == pytest.approx(ASYMPTOTIC_FROZEN_GAP, abs=1e-9)
        assert abs(ratio_bad - 1) == pytest.approx(ASYMPTOTIC_REJECTED_GAP, abs=1e-9)


class TestArgumentScaling:
    R, S, OMEGA, HBAR = 2, 1, -2.0, 1.2

    def scaled(self, n):
        return quad_F(
            idx1(1, 1, n), (self.R * self.OMEGA,), (self.R / self.S) * self.HBAR
        ).value

    def shift_terms(self, n):
        return [
            quad_F(
                idx1(1, 1, n),
                (self.OMEGA + TWO_PI_I * alpha / self.R,),
                self.HBAR,
            ).value
            for alpha in (-0.5, 0.5)
        ]

    def test_reference_value_and_sum_form(self):
        lhs = self.scaled(1)
        assert abs(lhs - DISTRIBUTION_LHS_VALUE) <= 1e-12
        total = sum(self.shift_terms(1))
        assert abs(lhs - self.R ** 0 * total) <= 1e-10  # recorded 2.8e-17
        lhs2 = self.scaled(2)
        total2 = sum(self.shift_terms(2))
        assert abs(lhs2 - self.R ** 1 * total2) <= 1e-10  # recorded 1.0e-16

    def test_rejected_product_over_shifts(self):
        lhs = self.scaled(1)
        t1, t2 = self.shift_terms(1)
        assert abs(lhs - t1 * t2) == pytest.approx(
            DISTRIBUTION_REJECTED_PRODUCT, abs=1e-10
        )

    def test_rejected_factor_on_scaled_side(self):
        lhs2 = self.scaled(2)
        total2 = sum(self.shift_terms(2))
        assert abs(self.R * lhs2 - total2) == pytest.approx(
            DISTRIBUTION_REJECTED_FACTOR_SIDE, abs=1e-10
        )


class TestCompanionForm:
    def test_reference_points_against_quadrature(self):
        tolerances = [1e-12, 1e-12, 1e-12]
        for (n, w, _label, hbar, value), tol in zip(COMPANION_REFERENCES, tolerances):
            cs = companion_sum_I(n, w, hbar).value
            assert abs(cs - value) <= tol
            m = len(n)
            quad = quad_I(MultiIndex((1,) * m, (1,) * m, n), w, hbar).value
            assert abs(cs - quad) <= 1e-9  # recorded residuals ~1e-16..1e-17

    def test_mixed_pattern_reference(self):
        ref = COMPANION_MIXED_REFERENCE
        eps = EpsilonVector(ref["slots"], ref["hbar"])
        cs = companion_series(ref["a"], ref["n"], ref["w"], eps).value
        assert abs(cs - ref["value"]) <= 1e-15  # recorded 6.3e-18

    def test_rejected_per_axis_exponent(self):
        # replace the mixed prefix K_c by the plain integer prefix times the
        # axis weight inside the exponential
        ref = COMPANION_MIXED_REFERENCE
        eps = EpsilonVector(ref["slots"], ref["hbar"])
        weights, q_list = eps.weights(), eps.q_values()
        a, n, w = ref["a"], ref["n"], ref["w"]
        pref = weights[0] * weights[1]
        total = 0j
        for k1, k2 in itertools.product(range(1, 90), repeat=2):
            term = (-1) ** (k1 + k2)
            term *= cmath.exp(k1 * weights[0] * w[0]) / (weights[0] * k1) ** n[0]
            term *= (
                cmath.exp((k1 + k2) * weights[1] * w[1])
                / (weights[0] * k1 + weights[1] * k2) ** n[1]
            )
            term /= (q_list[0] ** k1 - q_list[0] ** -k1) ** a[0]
            term /= (q_list[1] ** k2 - q_list[1] ** -k2) ** a[1]
            total += term
        alt = pref * total
        assert abs(alt - ref["value"]) == pytest.approx(
            COMPANION_REJECTED_UNMIXED, abs=1e-10
        )

    def test_rejected_dual_nome(self):
        # conjugating the dual nome negates the dual-pattern series, leaving
        # a residual of twice its magnitude on the depth-1 reference
        n, w, _label, hbar, _value = COMPANION_REFERENCES[0]
        eps = EpsilonVector(("1/h",), hbar)
        cs_dual = companion_series((1,), n, w, eps).value
        assert 2 * abs(cs_dual) == pytest.approx(
            COMPANION_REJECTED_DUAL_NOME, abs=1e-12
        )


class TestWeightedZeta:
    def test_unit_anchor(self):
        val = quad_zeta_hbar((2,), 1.0, TIGHT).value
        assert abs(val - 1j * math.pi / 12) <= 1e-12  # recorded 6.5e-17
        assert abs(val - ZETA_1_2_VALUE) <= 1e-12

    def test_deformed_reference(self):
        val = quad_zeta_hbar((3,), 1.4, TIGHT).value
        assert abs(val - ZETA_14_3_VALUE) <= 1e-12

    def test_reflection_exponent(self):
        z = quad_zeta_hbar((3,), 1.4).value
        zi = quad_zeta_hbar((3,), 1 / 1.4).value
        assert abs(z - 1.4 * zi) <= 1e-10  # recorded 5.98e-17

    def test_rejected_lowered_exponent(self):
        z = quad_zeta_hbar((4,), 1.4).value
        zi = quad_zeta_hbar((4,), 1 / 1.4).value
        # correct exponent at s=(4,) is 2; one power short leaves the residual
        assert abs(z - 1.4**2 * zi) <= 1e-10
        assert abs(z - 1.4 * zi) == pytest.approx(
            ZETA_REJECTED_EXPONENT_RESIDUAL, abs=1e-10
        )


class TestIteratedArgumentEvaluator:
    def test_reference_value_and_residual(self):
        res = quad_Li((1, 1), (-2.0, -1.0), TIGHT).value
        assert abs(res - QUAD_LI_REFERENCE_VALUE) <= 1e-12
        simplex = multiple_polylog(
            (1, 1), (math.exp(-2.0), -math.exp(-1.0))
        ).value
        assert abs(res - simplex) <= 1e-10  # recorded 2.28e-17


class TestInfiniteProductExponents:
    A, X, Q = 2, 0.3, 0.35

    def test_reference_value(self):
        psi = pochhammer_psi(self.A, self.X, self.Q).value
        assert abs(psi - PSI_REFERENCE_VALUE) <= 1e-13

    def test_product_vs_exp_series(self):
        psi = pochhammer_psi(self.A, self.X, self.Q).value
        s = 0j
        for k in range(1, 200):
            br = self.Q**k - self.Q**-k
            s += (-self.X) ** k / (br**self.A * k)
        assert abs(psi - cmath.exp(-s)) <= 1e-12  # recorded 1.12e-13

    def test_rejected_exponent_and_offset(self):
        # wrong sign on the exponent and the level-1 base offset
        alt = 1.0
        for k in range(0, 400):
            alt *= (1 + self.Q ** (2 * k + 1) * self.X) ** (-(k + 1))
        psi = pochhammer_psi(self.A, self.X, self.Q).value
        assert abs(alt - psi) == pytest.approx(PSI_REJECTED_RESIDUAL, abs=1e-9)


class TestBracketIntegralSign:
    def test_round_trip_residual(self):
        q = 0.45
        s = TruncatedSeries((0j, 1 + 0j, 0.5 + 0j, -0.25j, 2 + 0j))
        out = q_difference(q_integral(s, 1, q), q)
        assert (out - s.scale(-1)).max_abs() <= 1e-13  # recorded 1e-13


class TestConjugationParity:
    def test_depth_one_sign(self):
        idx = idx1(2, 1, 1)
        omega, hbar = -1.1 + 0.4j, 1.2 + 0.1j
        lhs = quad_F(idx, (omega.conjugate(),), hbar.conjugate()).value.conjugate()
        rhs = (-1) ** (2 + 1 + 1) * quad_F(idx, (omega,), hbar).value
        assert abs(lhs - rhs) <= 1e-9


class TestDeformationReflection:
    def test_depth_one_swap(self):
        a, b, n = 2, 1, 1
        omega, hbar = -1.0 + 0.3j, 1.3
        lhs = quad_F(idx1(a, b, n), (omega,), hbar).value
        rhs = hbar ** (n - 1) * quad_F(
            idx1(b, a, n), (omega / hbar,), 1 / hbar
        ).value
        assert abs(lhs - rhs) <= 1e-9


class TestRationalDeformationGuard:
    def test_rational_coupling_raises(self):
        with pytest.raises(DomainError):
            companion_sum_I((1,), (-1.0,), 2.3)


class TestDocument:
    def test_every_convention_rendered(self):
        text = conventions_text()
        assert len(CONVENTIONS) == 15
        for conv in CONVENTIONS:
            assert conv.key in text
            for label, value in conv.evidence:
                assert label in text
            for label, value in conv.rejected:
                assert label in text

    def test_every_reference_number_rendered(self):
        # each float constant as its repr, each imaginary one as repr(imag) + "i";
        # the omega of the anchor is an input, rendered as "omega=-1"
        text = conventions_text()
        numbers = {name: value for name, value in vars(conventions).items()
                   if name.isupper() and type(value) in (float, complex)}
        del numbers["ANCHOR_F100_OMEGA"]
        assert len(numbers) == 20
        for name, value in numbers.items():
            if type(value) is complex and value.real == 0:
                shown = f"{value.imag!r}i"
            else:
                shown = repr(complex(value).real)
            assert shown in text, name

    def test_keys_unique(self):
        keys = [c.key for c in CONVENTIONS]
        assert len(set(keys)) == len(keys)
