"""Exact arithmetic over the scalar ring Q[i, pi, 1/pi] and polynomial layers
built on it: the difference-equation polynomial family Q_m, formal Laurent
expansion of the integral kernel around p = 0, quantum Bernoulli polynomials
as exact polynomials in omega and h^{+-1}, classical Bernoulli polynomials,
shuffle permutations, and the exact partial-fraction identity behind the
shuffle product.

Design: scalars and polynomials share one sparse-term representation, a
sorted tuple of terms (x, y, c) with at most one term per exponent pair and
no zero coefficient, and one implementation of its ring arithmetic.  Scalars
are sums q * i^s * pi^t with rational q, s in {0, 1} (powers of i are fully
reduced so equality is decidable), and integer t; polynomials are sums
c * omega^j * h^k with scalar c.  No general symbolic engine is used.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import CheckReport, DomainError, _as_int_tuple

__all__ = [
    "ExactScalar",
    "ExactPoly",
    "FormalLaurent",
    "binom_general",
    "q_poly",
    "sh_inverse_laurent",
    "exp_series",
    "bernoulli_exact",
    "bernoulli_classical",
    "shuffles",
    "verify_a3",
]

_RationalLike = (int, Fraction)


def binom_general(x: int, j: int) -> int:
    """Binomial coefficient C(x, j) for integer x of any sign and j >= 0.

    Computed as x(x-1)...(x-j+1)/j!, which is the convention needed by the
    finite closed-form sums (for example C(-1, 0) = 1 and C(0, 1) = 0).
    """
    if j < 0:
        return 0
    num = 1
    for t in range(j):
        num *= x - t
    val = Fraction(num, math.factorial(j))
    assert val.denominator == 1
    return int(val)


# ---------------------------------------------------------------------------
# Sparse sums: the ring arithmetic that scalars and polynomials share
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SparseSum:
    """Finite sum of terms (x, y, c): a coefficient c times the monomial in
    which the subclass's two symbols carry the integer exponents x and y.

    Canonical form: at most one term per (x, y), terms sorted by (x, y), zero
    coefficients dropped; equality is therefore decidable term by term.  A
    subclass supplies the rest: ``_canon`` reduces a raw term to its key and
    coefficient, ``_is_zero_coeff`` tests a coefficient, ``_coerce`` lifts a
    plain operand of ``*`` into the ring, and ``_symbols`` names the two
    symbols for ``str``.
    """

    terms: tuple

    @classmethod
    def from_terms(cls, items: Iterable[tuple]) -> "_SparseSum":
        acc: dict = {}
        for x, y, c in items:
            key, c = cls._canon(x, y, c)
            acc[key] = acc[key] + c if key in acc else c
        is_zero = cls._is_zero_coeff
        return cls(tuple((x, y, c) for (x, y), c in sorted(acc.items()) if not is_zero(c)))

    @classmethod
    def zero(cls) -> "_SparseSum":
        return cls(())

    def __add__(self, other: "_SparseSum") -> "_SparseSum":
        return type(self).from_terms(self.terms + other.terms)

    def __neg__(self) -> "_SparseSum":
        return type(self)(tuple((x, y, -c) for x, y, c in self.terms))

    def __sub__(self, other: "_SparseSum") -> "_SparseSum":
        return self + (-other)

    def __mul__(self, other) -> "_SparseSum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self).from_terms(
            (x1 + x2, y1 + y2, c1 * c2)
            for x1, y1, c1 in self.terms
            for x2, y2, c2 in other.terms
        )

    __rmul__ = __mul__  # the ring is commutative

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        x_sym, y_sym = self._symbols
        parts = []
        for x, y, c in self.terms:
            part = f"({c})"
            if x:
                part = f"{part}*{x_sym}" if x == 1 else f"{part}*{x_sym}^{x}"
            if y:
                part = f"{part}*{y_sym}" if y == 1 else f"{part}*{y_sym}^{y}"
            parts.append(part)
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# Scalars: Q[i, pi, 1/pi]
# ---------------------------------------------------------------------------


def _reduce_i_power(s: int) -> tuple[int, int]:
    """Reduce i^s to sign * i^(s mod 2); returns (sign, s in {0,1})."""
    s %= 4
    return (1 if s < 2 else -1), s % 2


@dataclass(frozen=True)
class ExactScalar(_SparseSum):
    """Finite sum of terms (s, t, q) = q * i^s * pi^t with q rational, s in
    {0,1}, t integer: powers of i fully reduced, in the canonical form of
    every sparse sum.
    """

    _symbols = ("i", "pi")

    def __post_init__(self) -> None:
        for s, t, q in self.terms:
            if s not in (0, 1) or not isinstance(q, Fraction) or q == 0:
                raise DomainError(f"non-canonical scalar term {(s, t, q)!r}")

    @staticmethod
    def _canon(s: int, t: int, q) -> tuple[tuple[int, int], Fraction]:
        sign, s_red = _reduce_i_power(s)
        return (s_red, int(t)), sign * Fraction(q)

    @staticmethod
    def _is_zero_coeff(q: Fraction) -> bool:
        return q == 0

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, _RationalLike):
            return cls.rational(other)
        return other if isinstance(other, ExactScalar) else NotImplemented

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls.rational(1)

    @classmethod
    def rational(cls, q) -> "ExactScalar":
        q = Fraction(q)
        if q == 0:
            return cls.zero()
        return cls(((0, 0, q),))

    @classmethod
    def i_power(cls, k: int) -> "ExactScalar":
        """The scalar i^k for any integer k."""
        sign, s = _reduce_i_power(k)
        return cls(((s, 0, Fraction(sign)),))

    @classmethod
    def pi_power(cls, t: int, coeff=1) -> "ExactScalar":
        q = Fraction(coeff)
        if q == 0:
            return cls.zero()
        return cls(((0, int(t), q),))

    @classmethod
    def two_pi_i(cls, power: int = 1) -> "ExactScalar":
        """(2*pi*i)^power for any integer power."""
        sign, s = _reduce_i_power(power)
        return cls(((s, power, Fraction(sign) * Fraction(2) ** power),))

    # -- ring operations ----------------------------------------------------

    def __pow__(self, k: int) -> "ExactScalar":
        if k < 0:
            raise DomainError("negative scalar powers are not defined in the ring")
        out = ExactScalar.one()
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "ExactScalar":
        """Coefficient conjugation i -> -i (pi and rationals fixed)."""
        return ExactScalar(
            tuple((s, t, -q if s == 1 else q) for s, t, q in self.terms)
        )

    def to_complex(self, pi_val: float = math.pi) -> complex:
        total = 0j
        for s, t, q in self.terms:
            base = float(q) * pi_val**t
            total += base * (1j if s == 1 else 1.0)
        return total


# ---------------------------------------------------------------------------
# Polynomials in omega and h^{+-1} with ExactScalar coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactPoly(_SparseSum):
    """Polynomial in omega (non-negative powers) and h (integer powers,
    Laurent), with ExactScalar coefficients: terms (omega_exp, h_exp, coeff),
    in the canonical form of every sparse sum."""

    _symbols = ("omega", "h")

    def __post_init__(self) -> None:
        for j, k, c in self.terms:
            if j < 0:
                raise DomainError("omega exponents must be non-negative")
            if c.is_zero:
                raise DomainError("zero coefficient stored in ExactPoly")

    @staticmethod
    def _canon(j: int, k: int, c: ExactScalar) -> tuple[tuple[int, int], ExactScalar]:
        return (int(j), int(k)), c

    @staticmethod
    def _is_zero_coeff(c: ExactScalar) -> bool:
        return c.is_zero

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, _RationalLike):
            other = ExactScalar.rational(other)
        if isinstance(other, ExactScalar):
            return cls.scalar(other)
        return other if isinstance(other, ExactPoly) else NotImplemented

    @classmethod
    def scalar(cls, c: ExactScalar) -> "ExactPoly":
        return cls.from_terms([(0, 0, c)])

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls.scalar(ExactScalar.one())

    @classmethod
    def omega(cls) -> "ExactPoly":
        return cls.from_terms([(1, 0, ExactScalar.one())])

    @classmethod
    def monomial(cls, omega_exp: int, h_exp: int, coeff: ExactScalar) -> "ExactPoly":
        return cls.from_terms([(omega_exp, h_exp, coeff)])

    def omega_degree(self) -> int:
        """Degree in omega (-1 for the zero polynomial)."""
        return max((j for j, _, _ in self.terms), default=-1)

    def coefficient(self, omega_exp: int, h_exp: int) -> ExactScalar:
        for j, k, c in self.terms:
            if j == omega_exp and k == h_exp:
                return c
        return ExactScalar.zero()

    # -- calculus and substitutions -----------------------------------------

    def deriv_omega(self, order: int = 1) -> "ExactPoly":
        out = self
        for _ in range(order):
            out = ExactPoly.from_terms(
                (j - 1, k, c * Fraction(j)) for j, k, c in out.terms if j >= 1
            )
        return out

    def shift_omega(self, c: ExactScalar, h_exp: int = 0) -> "ExactPoly":
        """Substitute omega -> omega + c * h^h_exp."""
        items: list[tuple[int, int, ExactScalar]] = []
        for j, k, coeff in self.terms:
            c_pow = ExactScalar.one()
            for r in range(j + 1):
                # binomial expansion of (omega + c h^e)^j
                term_coeff = coeff * Fraction(math.comb(j, r)) * c_pow
                if not term_coeff.is_zero:
                    items.append((j - r, k + h_exp * r, term_coeff))
                c_pow = c_pow * c
        return ExactPoly.from_terms(items)

    def symmetric_difference_omega(self, c: ExactScalar, h_exp: int = 0) -> "ExactPoly":
        """f(omega + c h^e) - f(omega - c h^e)."""
        return self.shift_omega(c, h_exp) - self.shift_omega(-c, h_exp)

    def negate_omega(self) -> "ExactPoly":
        """Substitute omega -> -omega."""
        return ExactPoly.from_terms(
            (j, k, c if j % 2 == 0 else -c) for j, k, c in self.terms
        )

    def subst_h_inverse(self) -> "ExactPoly":
        """Substitute h -> 1/h."""
        return ExactPoly(tuple(sorted((j, -k, c) for j, k, c in self.terms)))

    def subst_omega_over_h(self) -> "ExactPoly":
        """Substitute omega -> omega / h."""
        return ExactPoly.from_terms((j, k - j, c) for j, k, c in self.terms)

    def scale_by_h_power(self, power: int) -> "ExactPoly":
        return ExactPoly(tuple(sorted((j, k + power, c) for j, k, c in self.terms)))

    def subst_h_one(self) -> "ExactPoly":
        """Collapse h -> 1."""
        return ExactPoly.from_terms((j, 0, c) for j, k, c in self.terms)

    def conjugate_coeffs(self) -> "ExactPoly":
        """Apply i -> -i on every coefficient (h treated as a formal symbol)."""
        return ExactPoly(tuple((j, k, c.conjugate()) for j, k, c in self.terms))

    def eval(self, omega: complex, hbar: complex = 1.0, pi_val: float = math.pi) -> complex:
        omega = complex(omega)
        hbar = complex(hbar)
        if hbar == 0 and any(k < 0 for _, k, _ in self.terms):
            raise DomainError("hbar = 0 with negative h-powers present")
        total = 0j
        for (j, k, c), (value, _) in zip(self.terms, self._floats):
            total += (value if pi_val == math.pi else c.to_complex(pi_val)) * omega**j * hbar**k
        return total

    def _eval_rounding(self, omega: complex, hbar: complex = 1.0) -> float:
        """A first-order bound on the rounding error of eval(omega, hbar):
        u = 2^-53 times sum |term| times its operation count, that is each
        scalar part float(q) pi^t and their sum, two integer powers by
        repeated squaring, two products and the running sum."""
        bound = 0.0
        for (j, k, _), (_, weight) in zip(self.terms, self._floats):
            bound += weight * abs(omega) ** j * abs(hbar) ** k
        return 2.0**-53 * bound

    @functools.cached_property
    def _floats(self) -> list[tuple[complex, float]]:
        """Per term, c at pi and its weight in _eval_rounding, formed once."""
        return [(c.to_complex(),
                 (len(self.terms) + len(c.terms) + max(abs(t) for _, t, _ in c.terms) + 8
                  + 6 * (j.bit_length() + abs(k).bit_length()))
                 * sum(abs(float(q)) * math.pi**t for _, t, q in c.terms))
                for j, k, c in self.terms]


# ---------------------------------------------------------------------------
# Formal Laurent series in p with ExactPoly coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalLaurent:
    """Laurent series in p over a finite order window [lo, hi].

    Coefficients above ``hi`` are unknown (truncated), not zero; products
    track the largest window on which they remain exact.
    """

    lo: int
    coeffs: tuple[ExactPoly, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise DomainError("FormalLaurent needs at least one tracked coefficient")

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, lo: int, coeffs: Sequence[ExactPoly]) -> "FormalLaurent":
        return cls(int(lo), tuple(coeffs))

    def coefficient(self, power: int) -> ExactPoly:
        if power < self.lo:
            return ExactPoly.zero()
        if power > self.hi:
            raise DomainError(f"coefficient of p^{power} outside tracked window [{self.lo}, {self.hi}]")
        return self.coeffs[power - self.lo]

    def __mul__(self, other: "FormalLaurent") -> "FormalLaurent":
        lo = self.lo + other.lo
        hi = min(self.hi + other.lo, other.hi + self.lo)
        if hi < lo:
            raise DomainError("empty window in Laurent product")
        out = [ExactPoly.zero()] * (hi - lo + 1)
        for i, c1 in enumerate(self.coeffs):
            p1 = self.lo + i
            if c1.is_zero:
                continue
            for j, c2 in enumerate(other.coeffs):
                p = p1 + other.lo + j
                if p > hi:
                    break
                out[p - lo] = out[p - lo] + c1 * c2
        return FormalLaurent(lo, tuple(out))


def exp_series(order: int) -> FormalLaurent:
    """Taylor series of exp(-i * p * omega) up to p^order.

    Coefficient of p^k is (-i omega)^k / k!, an ExactPoly in omega.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    coeffs = [
        ExactPoly.monomial(k, 0, ExactScalar.i_power(-k) * Fraction(1, math.factorial(k)))
        for k in range(order + 1)
    ]
    return FormalLaurent(0, tuple(coeffs))


def _invert_unit_series(g: list[ExactPoly], order: int) -> list[ExactPoly]:
    """Invert 1 + g_1 p + g_2 p^2 + ... to the requested order (g_0 omitted)."""
    inv = [ExactPoly.one()] + [ExactPoly.zero()] * order
    for k in range(1, order + 1):
        acc = ExactPoly.zero()
        for j in range(1, k + 1):
            gj = g[j] if j < len(g) else ExactPoly.zero()
            acc = acc + gj * inv[k - j]
        inv[k] = -acc
    return inv


def sh_inverse_laurent(scale: str, a: int, order: int) -> FormalLaurent:
    """Laurent expansion about p = 0 of sh(scale * p)^(-a), where
    sh(x) = exp(x) - exp(-x) and scale is the symbol "pi" or "pi_h".

    The window is [-a, order].  Exactness: sh(x) = sum 2 x^(2k+1)/(2k+1)!.
    """
    if scale not in ("pi", "pi_h"):
        raise DomainError("scale must be 'pi' or 'pi_h'")
    if a < 1:
        raise DomainError("a must be >= 1")
    if order < a:
        raise DomainError("order must be >= a")
    h_exp = 1 if scale == "pi_h" else 0
    inner_order = order + a  # power-series order needed after shifting by p^-a

    # sh(scale p) = 2 scale p * (1 + g(p)), g(p) = sum_{k>=1} (scale p)^{2k}/(2k+1)!
    g = [ExactPoly.zero()] * (inner_order + 1)
    for k in range(1, inner_order // 2 + 1):
        coeff = ExactScalar.pi_power(2 * k, Fraction(1, math.factorial(2 * k + 1)))
        g[2 * k] = ExactPoly.monomial(0, 2 * k * h_exp, coeff)
    inv = FormalLaurent(0, tuple(_invert_unit_series(g, inner_order)))
    # (1+g)^{-a} as a product of Laurent series (a is small in practice)
    power = math.prod([inv] * (a - 1), start=inv)

    # prefactor (2 scale)^{-a} p^{-a}
    pref = ExactPoly.monomial(0, -a * h_exp, ExactScalar.pi_power(-a, Fraction(1, 2**a)))
    return FormalLaurent(-a, tuple(pref * c for c in power.coeffs))


# ---------------------------------------------------------------------------
# The polynomial family Q_m and Bernoulli layers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256, typed=True)
def q_poly(m: int, order: int = 0) -> ExactPoly:
    """The unique degree-m polynomial Q_m with symmetric difference step i*pi:
    Q_m(omega + i pi) - Q_m(omega - i pi) = Q_{m-1}(omega), Q_0 = 1, roots in
    arithmetic progression:  Q_m(omega) = prod_j (omega - i pi (m-1-2j)) / ((2 pi i)^m m!),
    or for order > 0 its order-th omega derivative.
    Memoized like bernoulli_exact; typed, so that a float m still raises.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    if order:
        return q_poly(m).deriv_omega(order)
    poly = ExactPoly.one()
    for j in range(m):
        root = ExactScalar.i_power(1) * ExactScalar.pi_power(1, m - 1 - 2 * j)
        poly = poly * (ExactPoly.omega() - ExactPoly.scalar(root))
    scale = ExactScalar.two_pi_i(-m) * Fraction(1, math.factorial(m))
    return poly * scale


@functools.lru_cache(maxsize=256)
def bernoulli_exact(a: int, b: int, n: int) -> ExactPoly:
    """Quantum Bernoulli polynomial as an exact polynomial in omega and h^{+-1}.

    Defined as the residue at p = 0 of the kernel with an extra p^-n:
        i^(n-1) * 2 pi i * [coefficient of p^-1 in
            exp(-i p omega) * sh(pi p)^-a * sh(pi h p)^-b * p^-n].
    Returns 0 when a + b + n < 1 (the integrand is then analytic at 0).
    Memoized: the result is immutable, so every caller may share it.
    """
    if a < 0 or b < 0:
        raise DomainError("a and b must be non-negative")
    if a + b + n < 1:
        return ExactPoly.zero()
    window = max(a + b + n, a, b)  # sh_inverse_laurent needs order >= a, b
    series = exp_series(window)
    if a > 0:
        series = series * sh_inverse_laurent("pi", a, window)
    if b > 0:
        series = series * sh_inverse_laurent("pi_h", b, window)
    coeff = series.coefficient(-1 + n)  # [p^-1] of series * p^-n
    pref = ExactScalar.i_power(n) * ExactScalar.pi_power(1, 2)  # i^(n-1) * 2 pi i
    return coeff * pref


def bernoulli_classical(n: int) -> tuple[Fraction, ...]:
    """Classical Bernoulli polynomial B_n(x) as exact rational coefficients
    (ascending powers of x), with B_1(x) = x - 1/2.

    Built from the Bernoulli numbers through the standard recursion
    sum_{j<=m} C(m+1, j) b_j = 0, which encodes the generating function
    t e^{tx}/(e^t - 1).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    numbers = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * numbers[j]
        numbers.append(-acc / (m + 1))
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[k] = math.comb(n, k) * numbers[n - k]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Shuffles and the exact partial-fraction identity
# ---------------------------------------------------------------------------


def shuffles(k: int, l: int) -> list[tuple[int, ...]]:
    """All C(k+l, k) interleavings of the blocks (1..k) and (k+1..k+l),
    preserving the internal order of each block."""
    if k < 1 or l < 1:
        raise DomainError("k and l must be positive")
    if k + l > 10:
        raise DomainError("k + l capped at 10")

    def rec(left: tuple[int, ...], right: tuple[int, ...]) -> list[tuple[int, ...]]:
        if not left:
            return [right]
        if not right:
            return [left]
        return [(left[0],) + rest for rest in rec(left[1:], right)] + [
            (right[0],) + rest for rest in rec(left, right[1:])
        ]

    return rec(tuple(range(1, k + 1)), tuple(range(k + 1, k + l + 1)))


def _prefix_products(values: Sequence) -> int | Fraction | None:
    """Product of all prefix sums of ints or Fractions; None if any prefix
    sum vanishes."""
    acc = 0
    prod = 1
    for v in values:
        acc += v
        if acc == 0:
            return None
        prod *= acc
    return prod


def verify_a3(k: int, l: int, trials: int = 100, seed: int = 20260817) -> CheckReport:
    """Exact check of the partial-fraction identity underlying the shuffle
    product: with variables p_1..p_k and q_1..q_l,

        1/(prod prefix-sums of p) * 1/(prod prefix-sums of q)
          = sum over (k,l)-shuffles of 1/(prod prefix-sums of the interleaving),

    at random rational points (denominators <= 100).  A point whose prefix
    sums include a zero is drawn again, and ``resampled`` counts those draws.
    Both sides are homogeneous of degree -(k + l), so each point is scaled
    by the lcm of its denominators to integers, and with P, Q, R_j the
    integer prefix products of the two blocks and of the j-th interleaving
    and M = prod_j R_j, the identity reads M == P Q sum_j M / R_j, an
    equation in Python ints.  Passes iff it holds at every trial; the first
    failing trial ends the check, and its residual |lhs - rhs| is computed
    in Fractions at the unscaled point.
    """
    k, l, trials = _as_int_tuple((k, l, trials), "k, l and trials")
    if k + l > 6:
        raise DomainError("k + l capped at 6 for the exact check")
    rng = random.Random(seed)
    perms = shuffles(k, l)
    resampled = 0

    def sample() -> tuple[int, int]:
        num = 0
        while num == 0:
            num = rng.randint(-100, 100)
        return num, rng.randint(1, 100)

    residual = 0.0
    for _ in range(trials):
        while True:
            drawn = [sample() for _ in range(k + l)]
            scale = math.lcm(*(den for _, den in drawn))
            x = [num * (scale // den) for num, den in drawn]
            blocks = [x[:k], x[k:]] + [[x[i - 1] for i in perm] for perm in perms]
            products = [_prefix_products(block) for block in blocks]
            if None not in products:
                break
            resampled += 1
        P, Q, *R = products
        M = math.prod(R)
        if M != P * Q * sum(M // r for r in R):
            values = [Fraction(num, den) for num, den in drawn]
            lhs = 1 / (_prefix_products(values[:k]) * _prefix_products(values[k:]))
            rhs = sum(1 / _prefix_products([values[i - 1] for i in perm]) for perm in perms)
            residual = float(abs(lhs - rhs))
            break

    return CheckReport(
        "partial_fraction_shuffle_exact",
        {"k": k, "l": l, "trials": trials, "seed": seed, "resampled": resampled},
        residual,
        0.0,
    )
