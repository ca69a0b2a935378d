"""Tests for the exact-arithmetic layer: scalars in Q[i, pi^(+-1)],
polynomials in omega and h, the Q_m family, Bernoulli-type polynomials,
and the exact shuffle partial-fraction check."""

import cmath
import math
from fractions import Fraction

import random

import pytest
from hypothesis import given, settings, strategies as st

from qpolylog import DomainError, exact
from qpolylog.contour import quad_bernoulli_circle
from qpolylog.exact import (
    ExactPoly,
    ExactScalar,
    FormalLaurent,
    bernoulli_classical,
    bernoulli_exact,
    binom_general,
    exp_series,
    q_poly,
    sh_inverse_laurent,
    shuffles,
    verify_a3,
)

I_PI = ExactScalar.i_power(1) * ExactScalar.pi_power(1)


def poly_close(p: ExactPoly, q: ExactPoly) -> bool:
    return (p - q).is_zero


# ---------------------------------------------------------------------------
# binom_general
# ---------------------------------------------------------------------------


class TestBinomGeneral:
    def test_matches_math_comb_for_nonnegative(self):
        for x in range(0, 8):
            for j in range(0, 8):
                assert binom_general(x, j) == math.comb(x, j)

    def test_negative_upper_argument(self):
        # C(-1, j) = (-1)^j and C(-2, 3) = (-2)(-3)(-4)/6 = -4
        assert binom_general(-1, 0) == 1
        assert binom_general(-1, 1) == -1
        assert binom_general(-1, 2) == 1
        assert binom_general(-2, 3) == -4

    def test_zero_cases(self):
        assert binom_general(0, 0) == 1
        assert binom_general(0, 1) == 0
        assert binom_general(3, 5) == 0
        assert binom_general(5, -1) == 0


# ---------------------------------------------------------------------------
# ExactScalar
# ---------------------------------------------------------------------------


def scalar_strategy():
    """Small random elements of Q[i, pi^(+-1)]."""
    term = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-2, max_value=2),
        st.builds(
            Fraction,
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=1, max_value=4),
        ),
    )
    return st.lists(term, max_size=3).map(
        lambda items: sum(
            (
                ExactScalar.i_power(s) * ExactScalar.pi_power(t, q)
                for s, t, q in items
            ),
            ExactScalar.zero(),
        )
    )


class TestExactScalar:
    def test_constants(self):
        assert ExactScalar.zero().is_zero
        assert not ExactScalar.one().is_zero
        assert ExactScalar.one().to_complex() == 1
        assert ExactScalar.rational(Fraction(3, 7)).to_complex() == pytest.approx(3 / 7)

    def test_i_power_reduction(self):
        assert ExactScalar.i_power(0) == ExactScalar.one()
        assert ExactScalar.i_power(2) == ExactScalar.rational(-1)
        assert ExactScalar.i_power(5) == ExactScalar.i_power(1)
        assert ExactScalar.i_power(-1) == ExactScalar.i_power(3)
        assert ExactScalar.i_power(1).to_complex() == 1j

    def test_pi_power(self):
        val = ExactScalar.pi_power(-3, Fraction(2, 3)).to_complex()
        assert val == pytest.approx((2 / 3) * math.pi**-3)
        # custom numeric stand-in for pi propagates
        assert ExactScalar.pi_power(2).to_complex(pi_val=2.0) == pytest.approx(4.0)

    def test_two_pi_i(self):
        z = ExactScalar.two_pi_i().to_complex()
        assert z == pytest.approx(2j * math.pi)
        z2 = ExactScalar.two_pi_i(2).to_complex()
        assert z2 == pytest.approx(-4 * math.pi**2)
        zm1 = ExactScalar.two_pi_i(-1).to_complex()
        assert zm1 == pytest.approx(1 / (2j * math.pi))

    def test_ring_operations_numeric(self):
        x = ExactScalar.two_pi_i() + ExactScalar.rational(Fraction(1, 2))
        y = ExactScalar.i_power(1) * ExactScalar.pi_power(-1, Fraction(3))
        assert (x * y).to_complex() == pytest.approx(x.to_complex() * y.to_complex())
        assert (x - y).to_complex() == pytest.approx(x.to_complex() - y.to_complex())
        assert (x**3).to_complex() == pytest.approx(x.to_complex() ** 3)

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises((DomainError, ValueError)):
            ExactScalar.two_pi_i() ** -1

    def test_conjugate(self):
        x = ExactScalar.two_pi_i() + ExactScalar.rational(Fraction(1, 2))
        assert x.conjugate().to_complex() == pytest.approx(
            x.to_complex().conjugate()
        )
        # conjugation is an involution
        assert x.conjugate().conjugate() == x

    def test_rational_multiple(self):
        x = ExactScalar.pi_power(1)
        assert (x * Fraction(2, 5)).to_complex() == pytest.approx(0.4 * math.pi)
        assert (3 * x).to_complex() == pytest.approx(3 * math.pi)

    @settings(derandomize=True, max_examples=40)
    @given(scalar_strategy(), scalar_strategy(), scalar_strategy())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) == (y + x)
        assert (x * y) == (y * x)
        assert ((x + y) + z) == (x + (y + z))
        assert ((x + y) * z) == (x * z + y * z)
        assert (x - x).is_zero
        assert (x * ExactScalar.one()) == x
        assert (x * ExactScalar.zero()).is_zero

    @settings(derandomize=True, max_examples=40)
    @given(scalar_strategy(), scalar_strategy())
    def test_to_complex_is_a_homomorphism(self, x, y):
        lhs = (x * y).to_complex()
        rhs = x.to_complex() * y.to_complex()
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
        lhs = (x + y).to_complex()
        rhs = x.to_complex() + y.to_complex()
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# ExactPoly
# ---------------------------------------------------------------------------


def poly_strategy():
    """Small random polynomials: omega exponents 0-3, h exponents -2..2,
    coefficients from scalar_strategy."""
    term = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-2, max_value=2),
        scalar_strategy(),
    )
    return st.lists(term, max_size=3).map(
        lambda items: sum(
            (ExactPoly.monomial(j, k, c) for j, k, c in items), ExactPoly.zero()
        )
    )


class TestExactPoly:
    OMEGA, HBAR = 0.7 - 0.3j, 1.25 + 0.1j

    @settings(derandomize=True, max_examples=40)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) == (y + x)
        assert (x * y) == (y * x)
        assert ((x + y) + z) == (x + (y + z))
        assert ((x * y) * z) == (x * (y * z))
        assert ((x + y) * z) == (x * z + y * z)
        assert (x - x).is_zero
        assert (x * ExactPoly.one()) == x
        assert (x * ExactPoly.zero()).is_zero

    @settings(derandomize=True, max_examples=40)
    @given(poly_strategy(), poly_strategy())
    def test_eval_is_a_homomorphism(self, x, y):
        def size(p: ExactPoly) -> float:
            return sum(
                abs(c.to_complex()) * abs(self.OMEGA) ** j * abs(self.HBAR) ** k
                for j, k, c in p.terms
            )

        tol = 1e-12 * (1 + size(x) * size(y) + size(x) + size(y))
        xv, yv = x.eval(self.OMEGA, self.HBAR), y.eval(self.OMEGA, self.HBAR)
        assert abs((x * y).eval(self.OMEGA, self.HBAR) - xv * yv) <= tol
        assert abs((x + y).eval(self.OMEGA, self.HBAR) - (xv + yv)) <= tol

    @settings(derandomize=True, max_examples=40)
    @given(poly_strategy())
    def test_eval_forms_its_floats_once_bit_for_bit(self, p):
        # eval and _eval_rounding convert each coefficient once per
        # polynomial, and keep the arithmetic of each term as written here
        omega, hbar = complex(self.OMEGA), complex(self.HBAR)
        want, at_two, bound = 0j, 0j, 0.0
        for j, k, c in p.terms:
            want += c.to_complex() * omega**j * hbar**k
            at_two += c.to_complex(2.0) * omega**j * hbar**k
            ops = (len(p.terms) + len(c.terms) + max(abs(t) for _, t, _ in c.terms) + 8
                   + 6 * (j.bit_length() + abs(k).bit_length()))
            size = sum(abs(float(q)) * math.pi**t for _, t, q in c.terms)
            bound += ops * size * abs(omega) ** j * abs(hbar) ** k
        for _ in range(2):  # the second call reads the formed floats
            assert p.eval(omega, hbar) == want
            assert p._eval_rounding(omega, hbar) == 2.0**-53 * bound
            assert p.eval(omega, hbar, pi_val=2.0) == at_two

    def test_constructors_and_degree(self):
        assert ExactPoly.zero().is_zero
        assert ExactPoly.zero().omega_degree() == -1
        assert ExactPoly.one().omega_degree() == 0
        assert ExactPoly.omega().omega_degree() == 1
        p = ExactPoly.monomial(3, -2, ExactScalar.one())
        assert p.omega_degree() == 3
        assert p.coefficient(3, -2) == ExactScalar.one()
        assert p.coefficient(3, 0).is_zero

    def test_negative_omega_exponent_rejected(self):
        with pytest.raises(DomainError):
            ExactPoly(((-1, 0, ExactScalar.one()),))

    def test_arithmetic_matches_numeric_eval(self):
        w = ExactPoly.omega()
        p = w * w + w * ExactScalar.two_pi_i() + ExactPoly.one()
        q = w.scale_by_h_power(1) - ExactPoly.scalar(ExactScalar.pi_power(1))
        omega, hbar = 0.7 - 0.3j, 1.25 + 0.1j
        lhs = (p * q).eval(omega, hbar)
        rhs = p.eval(omega, hbar) * q.eval(omega, hbar)
        assert lhs == pytest.approx(rhs)
        assert (p - p).is_zero
        assert (p + q).eval(omega, hbar) == pytest.approx(
            p.eval(omega, hbar) + q.eval(omega, hbar)
        )

    def test_deriv_omega(self):
        w = ExactPoly.omega()
        p = w * w * w  # omega^3
        d = p.deriv_omega()
        assert d.coefficient(2, 0) == ExactScalar.rational(3)
        assert p.deriv_omega(order=3).coefficient(0, 0) == ExactScalar.rational(6)
        assert p.deriv_omega(order=4).is_zero

    def test_shift_omega(self):
        # (omega + c)^2 = omega^2 + 2 c omega + c^2 with c = i pi
        p = ExactPoly.omega() * ExactPoly.omega()
        shifted = p.shift_omega(I_PI)
        omega = 0.3 + 0.2j
        expected = (omega + 1j * math.pi) ** 2
        assert shifted.eval(omega) == pytest.approx(expected)

    def test_shift_omega_with_h_power(self):
        p = ExactPoly.omega() * ExactPoly.omega()
        shifted = p.shift_omega(I_PI, h_exp=1)
        omega, hbar = 0.3 + 0.2j, 1.4
        expected = (omega + 1j * math.pi * hbar) ** 2
        assert shifted.eval(omega, hbar) == pytest.approx(expected)

    def test_negate_omega(self):
        p = ExactPoly.omega() + ExactPoly.one()
        n = p.negate_omega()
        assert n.eval(2.0) == pytest.approx(p.eval(-2.0))

    def test_h_substitutions(self):
        p = ExactPoly.monomial(2, 1, ExactScalar.one()) + ExactPoly.monomial(
            0, -1, ExactScalar.rational(Fraction(1, 3))
        )
        omega, hbar = 1.1 - 0.4j, 0.8 + 0.2j
        assert p.subst_h_inverse().eval(omega, hbar) == pytest.approx(
            p.eval(omega, 1 / hbar)
        )
        assert p.subst_omega_over_h().eval(omega, hbar) == pytest.approx(
            p.eval(omega / hbar, hbar)
        )
        assert p.scale_by_h_power(2).eval(omega, hbar) == pytest.approx(
            p.eval(omega, hbar) * hbar**2
        )
        assert p.subst_h_one().eval(omega, 5.0) == pytest.approx(p.eval(omega, 1.0))

    def test_h_zero_with_negative_powers_rejected(self):
        p = ExactPoly.monomial(0, -1, ExactScalar.one())
        with pytest.raises(DomainError):
            p.eval(1.0, 0.0)

    def test_conjugate_coeffs(self):
        p = ExactPoly.omega() * ExactScalar.two_pi_i() + ExactPoly.one()
        omega = 0.9
        assert p.conjugate_coeffs().eval(omega) == pytest.approx(
            p.eval(omega).conjugate()
        )

    def test_str_rendering(self):
        assert str(ExactPoly.zero()) == "0"
        assert str(q_poly(1)) == "((-1/2)*i*pi^-1)*omega"


# ---------------------------------------------------------------------------
# Formal Laurent series
# ---------------------------------------------------------------------------


def laurent_eval(ser: FormalLaurent, p: complex, hbar: complex = 1.0) -> complex:
    return sum(
        ser.coefficient(k).eval(0.0, hbar) * p**k for k in range(ser.lo, ser.hi + 1)
    )


class TestFormalLaurent:
    def test_coefficient_window(self):
        ser = FormalLaurent.from_coeffs(-1, [ExactPoly.one(), ExactPoly.omega()])
        assert ser.hi == 0
        assert ser.coefficient(-5).is_zero  # below the window is exactly zero
        with pytest.raises(DomainError):
            ser.coefficient(1)  # above the window is unknown, not zero

    def test_product_window_tracking(self):
        # (p^-1 + 1 + ?p + ...)^2: the unknown p^1 term feeds p^0, so the
        # product is exact only on [-2, -1]
        one = ExactPoly.one()
        ser = FormalLaurent.from_coeffs(-1, [one, one])
        prod = ser * ser
        assert prod.lo == -2 and prod.hi == -1
        assert prod.coefficient(-2) == one
        assert prod.coefficient(-1) == one + one
        with pytest.raises(DomainError):
            prod.coefficient(0)

    def test_exp_series_coefficients(self):
        ser = exp_series(4)
        # coefficient of p^k is (-i omega)^k / k!
        for k in range(5):
            expected = ExactScalar.i_power(-k) * Fraction(1, math.factorial(k))
            assert ser.coefficient(k) == ExactPoly.monomial(k, 0, expected)
        p, omega = 0.05, 0.7 - 0.2j
        approx = sum(ser.coefficient(k).eval(omega) * p**k for k in range(5))
        assert approx == pytest.approx(cmath.exp(-1j * p * omega), abs=1e-8)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_sh_inverse_matches_numeric(self, a):
        ser = sh_inverse_laurent("pi", a, order=6)
        assert ser.lo == -a
        p = 0.05
        sh = cmath.exp(math.pi * p) - cmath.exp(-math.pi * p)
        assert laurent_eval(ser, p) == pytest.approx(sh**-a, rel=1e-6)

    def test_sh_inverse_h_scale(self):
        hbar = 1.3
        ser = sh_inverse_laurent("pi_h", 2, order=6)
        p = 0.04
        sh = cmath.exp(math.pi * hbar * p) - cmath.exp(-math.pi * hbar * p)
        assert laurent_eval(ser, p, hbar) == pytest.approx(sh**-2, rel=1e-6)

    def test_sh_inverse_rejects_bad_args(self):
        with pytest.raises(DomainError):
            sh_inverse_laurent("tau", 1, 4)
        with pytest.raises(DomainError):
            sh_inverse_laurent("pi", 0, 4)
        with pytest.raises(DomainError):
            sh_inverse_laurent("pi", 3, 2)


# ---------------------------------------------------------------------------
# The Q_m polynomial family
# ---------------------------------------------------------------------------


class TestQPoly:
    def test_anchors(self):
        assert q_poly(0) == ExactPoly.one()
        # Q_1(omega) = omega / (2 pi i)
        expected = ExactPoly.omega() * ExactScalar.two_pi_i(-1)
        assert poly_close(q_poly(1), expected)

    def test_q2_numeric(self):
        # Q_2(omega) = (omega - i pi)(omega + i pi) / (2 (2 pi i)^2)
        omega = 0.8 - 0.5j
        expected = (omega - 1j * math.pi) * (omega + 1j * math.pi) / (
            2 * (2j * math.pi) ** 2
        )
        assert q_poly(2).eval(omega) == pytest.approx(expected)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_difference_ladder(self, m):
        # Q_m(omega + i pi) - Q_m(omega - i pi) = Q_{m-1}(omega), exactly
        assert poly_close(q_poly(m).symmetric_difference_omega(I_PI), q_poly(m - 1))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_root_recursion(self, m):
        # Q_m(omega) = (omega - i pi (m-1)) Q_{m-1}(omega + i pi) / (2 pi i m)
        root = ExactScalar.i_power(1) * ExactScalar.pi_power(1, m - 1)
        rhs = (
            (ExactPoly.omega() - ExactPoly.scalar(root))
            * q_poly(m - 1).shift_omega(I_PI)
            * (ExactScalar.two_pi_i(-1) * Fraction(1, m))
        )
        assert poly_close(q_poly(m), rhs)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
    def test_parity(self, m):
        # roots are symmetric about 0, so Q_m(-omega) = (-1)^m Q_m(omega)
        flipped = q_poly(m).negate_omega()
        signed = q_poly(m) * Fraction((-1) ** m)
        assert poly_close(flipped, signed)

    def test_degree_and_leading_coefficient(self):
        for m in range(5):
            p = q_poly(m)
            assert p.omega_degree() == m
            lead = p.coefficient(m, 0)
            assert lead == ExactScalar.two_pi_i(-m) * Fraction(1, math.factorial(m))

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            q_poly(-1)

    def test_memoized(self):
        # the result is immutable, so every caller shares one object; errors
        # are not cached, and the memo is typed, so a float m still raises
        for m in range(4):
            assert q_poly(m) is q_poly(m)
            assert q_poly(m) == q_poly.__wrapped__(m)
        for _ in range(2):
            with pytest.raises(DomainError):
                q_poly(-1)
        q_poly(2)
        for _ in range(2):
            with pytest.raises(TypeError):
                q_poly(2.0)


# ---------------------------------------------------------------------------
# Bernoulli-type polynomials
# ---------------------------------------------------------------------------


class TestBernoulliClassical:
    def test_known_polynomials(self):
        assert bernoulli_classical(0) == (Fraction(1),)
        assert bernoulli_classical(1) == (Fraction(-1, 2), Fraction(1))
        assert bernoulli_classical(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
        assert bernoulli_classical(3) == (
            Fraction(0),
            Fraction(1, 2),
            Fraction(-3, 2),
            Fraction(1),
        )

    def test_difference_property(self):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        for n in range(1, 7):
            coeffs = bernoulli_classical(n)
            x = Fraction(3, 7)
            lhs = sum(c * (x + 1) ** k for k, c in enumerate(coeffs)) - sum(
                c * x**k for k, c in enumerate(coeffs)
            )
            assert lhs == n * x ** (n - 1)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_classical(-1)


def classical_via_exact_poly(n: int) -> ExactPoly:
    """((2 pi i)^n / n!) * B_n(omega / (2 pi i) + 1/2) as an exact polynomial."""
    x = ExactPoly.omega() * ExactScalar.two_pi_i(-1) + ExactPoly.scalar(
        ExactScalar.rational(Fraction(1, 2))
    )
    acc = ExactPoly.zero()
    x_pow = ExactPoly.one()
    for k, c in enumerate(bernoulli_classical(n)):
        if c:
            acc = acc + x_pow * c
        x_pow = x_pow * x
    scale = ExactScalar.two_pi_i(n) * Fraction(1, math.factorial(n))
    return acc * scale


class TestBernoulliExact:
    def test_zero_below_pole_threshold(self):
        assert bernoulli_exact(0, 0, 0).is_zero
        assert bernoulli_exact(1, 0, -1).is_zero
        assert bernoulli_exact(0, 0, -3).is_zero

    def test_memoized(self):
        assert bernoulli_exact(2, 1, 1) is bernoulli_exact(2, 1, 1)

    def test_negative_a_b_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_exact(-1, 0, 2)
        with pytest.raises(DomainError):
            bernoulli_exact(0, -2, 1)

    def test_simplest_cases(self):
        assert poly_close(bernoulli_exact(1, 0, 0), ExactPoly.one())
        # (1,0,1) gives omega itself
        assert poly_close(bernoulli_exact(1, 0, 1), ExactPoly.omega())

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_pure_first_family_gives_q_poly(self, a):
        assert poly_close(bernoulli_exact(a, 0, 0), q_poly(a - 1))

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_first_layer_matches_classical(self, n):
        assert poly_close(bernoulli_exact(1, 0, n), classical_via_exact_poly(n))

    def test_h_second_family_mirror(self):
        # swapping the two kernel exponents is h -> 1/h, omega -> omega/h,
        # with an overall h^(n-1)
        for a, b, n in [(1, 1, 1), (2, 1, 0), (1, 2, 2), (2, 2, 1)]:
            direct = bernoulli_exact(a, b, n)
            mirrored = (
                bernoulli_exact(b, a, n)
                .subst_h_inverse()
                .subst_omega_over_h()
                .scale_by_h_power(n - 1)
            )
            assert poly_close(direct, mirrored)

    def test_h_one_collapse(self):
        for a, b, n in [(1, 1, 0), (1, 1, 2), (2, 1, 1)]:
            assert poly_close(
                bernoulli_exact(a, b, n).subst_h_one(),
                bernoulli_exact(a + b, 0, n).subst_h_one(),
            )

    def test_omega_derivative_lowers_n(self):
        for a, b, n in [(1, 0, 3), (2, 1, 2), (1, 1, 1)]:
            assert poly_close(
                bernoulli_exact(a, b, n).deriv_omega(), bernoulli_exact(a, b, n - 1)
            )

    def test_difference_steps_lower_each_exponent(self):
        # step i*pi lowers the first exponent, step i*pi*h the second
        for a, b, n in [(2, 1, 1), (1, 1, 2), (2, 2, 0)]:
            assert poly_close(
                bernoulli_exact(a, b, n).symmetric_difference_omega(I_PI),
                bernoulli_exact(a - 1, b, n),
            )
            assert poly_close(
                bernoulli_exact(a, b, n).symmetric_difference_omega(I_PI, h_exp=1),
                bernoulli_exact(a, b - 1, n),
            )

    def test_parity(self):
        # B(-omega) = (-1)^(a+b+n+1) B(omega)
        for a, b, n in [(1, 0, 1), (2, 1, 1), (1, 1, 2), (3, 0, 0)]:
            sign = (-1) ** (a + b + n + 1)
            assert poly_close(
                bernoulli_exact(a, b, n).negate_omega(),
                bernoulli_exact(a, b, n) * Fraction(sign),
            )

    def test_coefficient_conjugation(self):
        # i -> -i on coefficients multiplies by (-1)^(a+b+1)
        for a, b, n in [(1, 0, 2), (2, 0, 0), (1, 1, 1), (2, 1, 2)]:
            sign = (-1) ** (a + b + 1)
            assert poly_close(
                bernoulli_exact(a, b, n).conjugate_coeffs(),
                bernoulli_exact(a, b, n) * Fraction(sign),
            )

    # n < 0 with 1 <= a + b + n < max(a, b): the Laurent window a + b + n
    # alone lies below an sh exponent, every such triple with a, b <= 3
    @pytest.mark.parametrize(
        "a,b,n",
        [
            (0, 2, -1), (0, 3, -2), (0, 3, -1), (1, 2, -2), (1, 3, -3),
            (1, 3, -2), (2, 0, -1), (2, 1, -2), (2, 2, -3), (2, 3, -3),
            (3, 0, -2), (3, 0, -1), (3, 1, -3), (3, 1, -2), (3, 2, -3),
        ],
    )
    def test_negative_n_matches_circle(self, a, b, n):
        for omega, hbar in [(0.4, 1.3), (-0.7 + 0.2j, 1.7 + 0.3j)]:
            circle = quad_bernoulli_circle(a, b, n, omega, hbar)
            value = bernoulli_exact(a, b, n).eval(omega, hbar)
            assert abs(value - circle.value) <= circle.err_estimate

    def test_omega_degree(self):
        # degree is a + b + n - 1
        for a, b, n in [(1, 0, 1), (2, 1, 0), (1, 1, 3), (3, 2, 1)]:
            assert bernoulli_exact(a, b, n).omega_degree() == a + b + n - 1


# ---------------------------------------------------------------------------
# Shuffles and the exact partial-fraction identity
# ---------------------------------------------------------------------------


class TestShuffles:
    def test_count(self):
        for k in range(1, 5):
            for l in range(1, 5):
                assert len(shuffles(k, l)) == math.comb(k + l, k)

    def test_order_preserved(self):
        for perm in shuffles(2, 3):
            assert sorted(perm) == [1, 2, 3, 4, 5]
            left = [x for x in perm if x <= 2]
            right = [x for x in perm if x > 2]
            assert left == [1, 2]
            assert right == [3, 4, 5]

    def test_distinct(self):
        perms = shuffles(3, 2)
        assert len(set(perms)) == len(perms)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            shuffles(0, 2)
        with pytest.raises(DomainError):
            shuffles(6, 5)


class TestPartialFractionCheck:
    def test_small_case_passes_exactly(self):
        report = verify_a3(1, 1, trials=50)
        assert report.passed
        assert report.residual == 0.0
        assert report.tolerance == 0.0
        assert report.identity_name == "partial_fraction_shuffle_exact"
        assert report.params["k"] == 1 and report.params["l"] == 1

    def test_seed_recorded(self):
        report = verify_a3(2, 1, trials=10, seed=7)
        assert report.params["seed"] == 7
        assert report.params["trials"] == 10
        assert report.params["resampled"] >= 0

    def test_depth_cap(self):
        with pytest.raises(DomainError):
            verify_a3(4, 3)


def _fraction_prefix_product(values):
    acc, prod = Fraction(0), Fraction(1)
    for v in values:
        acc += v
        if acc == 0:
            return None
        prod *= acc
    return prod


def reference_a3(k, l, trials, seed, perms):
    """The identity in Fraction arithmetic, drawing the same random points
    as verify_a3: (residual of the first failing trial or 0.0, resampled)."""
    rng = random.Random(seed)
    resampled = 0

    def sample():
        num = 0
        while num == 0:
            num = rng.randint(-100, 100)
        return Fraction(num, rng.randint(1, 100))

    for _ in range(trials):
        while True:
            values = [sample() for _ in range(k + l)]
            blocks = [values[:k], values[k:]] + [[values[i - 1] for i in p] for p in perms]
            products = [_fraction_prefix_product(b) for b in blocks]
            if None not in products:
                break
            resampled += 1
        lhs = 1 / (products[0] * products[1])
        rhs = sum(1 / prod for prod in products[2:])
        if lhs != rhs:
            return float(abs(lhs - rhs)), resampled
    return 0.0, resampled


class TestPartialFractionReference:
    """verify_a3 decides the identity in integers; its reports are those of
    the Fraction arithmetic it replaced."""

    @pytest.mark.parametrize("seed", [7, 11, 99])
    @pytest.mark.parametrize(
        "k,l", [(k, l) for k in range(1, 6) for l in range(1, 7 - k)]
    )
    def test_matches_fraction_reference(self, seed, k, l):
        report = verify_a3(k, l, trials=25, seed=seed)
        residual, resampled = reference_a3(k, l, 25, seed, shuffles(k, l))
        assert report.passed and residual == 0.0
        assert report.residual == 0.0
        assert dict(report.params) == {
            "k": k, "l": l, "trials": 25, "seed": seed, "resampled": resampled
        }

    def test_resampling_is_exercised(self):
        # at seed 99 a drawn point has a vanishing prefix sum and is redrawn
        assert verify_a3(2, 2, seed=99).params["resampled"] == reference_a3(
            2, 2, 100, 99, shuffles(2, 2)
        )[1] > 0

    @pytest.mark.parametrize("seed,k,l", [(7, 1, 1), (7, 2, 2), (11, 3, 2), (99, 1, 3)])
    def test_dropped_shuffle_fails_with_reference_residual(self, monkeypatch, seed, k, l):
        perms = shuffles(k, l)[:-1]
        monkeypatch.setattr(exact, "shuffles", lambda k, l: perms)
        report = verify_a3(k, l, seed=seed)
        residual, resampled = reference_a3(k, l, 100, seed, perms)
        assert not report.passed
        assert report.residual == residual > 0.0
        assert report.params["resampled"] == resampled
