"""Frozen evaluation conventions and the calibration evidence behind them.

Several of the objects computed by this package admit more than one
self-consistent set of sign, index, and normalization choices.  This module
records, in one place, the exact choices the package implements, together
with numeric calibration evidence: for every convention there is a reference
point at which the frozen form closes an identity to near machine precision
while the plausible alternative leaves an O(1e-3)..O(1) residual.

``tests/test_conventions.py`` re-computes every number recorded here, so the
conventions cannot drift silently.

Use ``qpolylog --conventions`` to print the rendered document.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Convention:
    """One frozen convention with its calibration evidence.

    ``evidence`` holds (label, value-or-residual) pairs for the frozen form;
    ``rejected`` holds (label, residual) pairs for alternatives that were
    tried at the same reference point and failed.
    """

    key: str
    statement: str
    evidence: tuple = field(default_factory=tuple)
    rejected: tuple = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Reference values shared with the test-suite.
# ---------------------------------------------------------------------------

# Depth-1 anchor: F with index (a,b,n)=(1,0,0) at omega=-1 (any hbar) equals
# -e^-1/(1+e^-1).
ANCHOR_F100_OMEGA = -1.0
ANCHOR_F100_VALUE = -0.2689414213699951

# Boundary-reflection reference: index (1,1,1), omega=-1, hbar=1.3.
BOUNDARY_F_VALUE = 0.156729998793068j
BOUNDARY_B_VALUE = -0.602936788250507j
BOUNDARY_REJECTED_RESIDUAL = 1.205873576501015

# Undeformed-limit (hbar=1) reference: index (1,1,2) at omega=-1.
H1_REFERENCE_VALUE = 0.188239734775578j
H1_REJECTED_RESIDUAL = 0.12318446943399647

# Semiclassical index calibration: depth 1, n=1, omega=-1, hbar=0.05.
ASYMPTOTIC_FROZEN_GAP = 0.0032690258343131
ASYMPTOTIC_REJECTED_GAP = 0.08457260810953593

# Argument-scaling reference: (r,s)=(2,1), index (1,1,1), omega=-2, hbar=1.2.
DISTRIBUTION_LHS_VALUE = 0.088103984482876j
DISTRIBUTION_REJECTED_PRODUCT = 0.08839107832568467
DISTRIBUTION_REJECTED_FACTOR_SIDE = 0.3325237209235209

# Weighted zeta values: couplings all (1,...,1), omega = 0.
ZETA_1_2_VALUE = 0.261799387799149j          # equals i*pi/12
ZETA_14_3_VALUE = 0.495156398425345
ZETA_REJECTED_EXPONENT_RESIDUAL = 0.2350571070239872

# Infinite-product reference: a=2, x=0.3, q=0.35.
PSI_REFERENCE_VALUE = 1.04817130749641
PSI_REJECTED_RESIDUAL = 0.17098864713736117

# Companion-series reference points (value, max residual vs quadrature).
COMPANION_REFERENCES = (
    # (n, w, hbar_label, hbar, value)
    ((2,), (-1.0,), "sqrt(2)", 2.0 ** 0.5, 0.282685240014013j),
    ((1,), (-1.5,), "golden", (1.0 + 5.0 ** 0.5) / 2.0, 0.143456610338425j),
    ((1, 1), (-2.0, -1.0), "sqrt(2)", 2.0 ** 0.5, -0.00415795795029462 + 0j),
)
COMPANION_REJECTED_UNMIXED = 0.0027031885209671163
COMPANION_REJECTED_DUAL_NOME = 1.0049720618089981
COMPANION_MIXED_REFERENCE = {
    "hbar": 2.0 ** 0.5,
    "w": (-0.9, -1.1),
    "n": (1, 2),
    "a": (1, 1),
    "slots": ("1", "1/h"),
    "value": 0.0066813159102074 + 0j,
}

# Nested-sum form of the iterated-argument evaluator at n=(1,1), w=(-2,-1).
QUAD_LI_REFERENCE_VALUE = 0.00727504647949312 + 0j

# Shift-operator calibration at the kernel level:
# p = 0.7+0.4i, omega = -1.1+0.2i, hbar = 1.3.
KERNEL_STEP_REJECTED_RESIDUAL = 0.040722495303747


CONVENTIONS: tuple = (
    Convention(
        key="line-orientation-and-normalization",
        statement=(
            "Line integrals run along Im p_k = eps > 0, oriented left to "
            "right, and carry the prefactor i^(|n|-m) where |n| is the total "
            "denominator weight and m the depth.  Anchor: the depth-1 "
            "evaluation with index (a,b,n)=(1,0,0) at omega=-1 equals "
            "-e^-1/(1+e^-1) = -0.26894142136999512."
        ),
        evidence=(
            ("value F_(1,0,0)(-1)", ANCHOR_F100_VALUE),
        ),
        rejected=(
            ("flipped orientation / sign", 0.5378828427399902),
        ),
    ),
    Convention(
        key="finite-difference-step",
        statement=(
            "The finite-difference operator is the symmetric half-step "
            "(D_c f)(omega) = f(omega + c) - f(omega - c).  With c = i*pi it "
            "lowers the first sinh exponent by one; with c = i*pi*hbar it "
            "lowers the second.  Calibrated directly on the integrand: at "
            "p=0.7+0.4i, omega=-1.1+0.2i, hbar=1.3 the half-step closes the "
            "kernel recursion to ~1e-18."
        ),
        evidence=(
            ("half-step kernel residual", 9.7e-19),
        ),
        rejected=(
            ("forward step f(omega+2c)-f(omega)", KERNEL_STEP_REJECTED_RESIDUAL),
        ),
    ),
    Convention(
        key="boundary-reflection-sign",
        statement=(
            "The reflection identity pairing a value with its argument-negated "
            "partner reads F(omega) + (-1)^(a+b+n-1) F(-omega) = -B(omega), "
            "where B is the residue-pairing polynomial of the same index.  "
            "Reference: index (1,1,1), omega=-1, hbar=1.3, where "
            f"F(omega)={BOUNDARY_F_VALUE.imag!r}i and B(omega)={BOUNDARY_B_VALUE.imag!r}i."
        ),
        evidence=(
            ("frozen residual", 1.31e-16),
        ),
        rejected=(
            ("opposite sign (+B)", BOUNDARY_REJECTED_RESIDUAL),
        ),
    ),
    Convention(
        key="residue-pairing-normalization",
        statement=(
            "The polynomial B of index (a,b,n) is i^(n-1) times the "
            "counterclockwise small-circle integral of the kernel against "
            "p^-n; equivalently i^n * 2*pi times the p^(n-1) Taylor-Laurent "
            "coefficient of the integrand.  Consequences used as anchors: "
            "B_(a,0,0) equals the factorial-normalized polynomial Q_(a-1); "
            "B_(1,0,n) equals (2*pi*i)^n/n! times the classical degree-n "
            "Bernoulli polynomial evaluated at omega/(2*pi*i) + 1/2; parity "
            "under omega -> -omega is (-1)^(a+b+n+1).  The alternative "
            "indexing that places the Q-polynomial anchor at n=1 fails: "
            "B_(2,0,1) has omega-degree 2 and cannot equal Q_1."
        ),
        evidence=(
            ("B_(1,0,0) = Q_0 = 1 (exact)", 0.0),
            ("B_(2,0,1) omega-degree", 2.0),
        ),
        rejected=(
            ("anchor at n=1: |B_(1,0,1) - Q_0| at omega=2", 1.0),
        ),
    ),
    Convention(
        key="undeformed-limit-closed-form",
        statement=(
            "At hbar=1 the depth-m basic value reduces to a multinomial "
            "combination of products of Q-polynomials (and their derivatives) "
            "with nested polylogarithms of raised weight -- not to the single "
            "product of Q-polynomials times one polylogarithm.  Depth-1 "
            "anchor: index (1,1,2) at omega=-1, where the value is "
            f"{H1_REFERENCE_VALUE.imag!r}i and the two-term form Q_1(omega)*Li_2(e^omega)"
            " - (2/(2*pi*i))*Li_3(e^omega) closes to ~5e-17."
        ),
        evidence=(
            ("frozen residual", 5.0e-17),
        ),
        rejected=(
            ("single-product form", H1_REJECTED_RESIDUAL),
        ),
    ),
    Convention(
        key="semiclassical-comparison-index",
        statement=(
            "As hbar -> 0+ the depth-1 value of denominator weight n is "
            "compared against Li_(n+1) of the same argument: "
            "2*pi*i*hbar * F(omega) / Li_(n+1)(-e^omega) -> 1.  Calibration "
            "at n=1, omega=-1, hbar=0.05."
        ),
        evidence=(
            ("|ratio - 1| with weight n+1", ASYMPTOTIC_FROZEN_GAP),
        ),
        rejected=(
            ("|ratio - 1| with weight n", ASYMPTOTIC_REJECTED_GAP),
        ),
    ),
    Convention(
        key="argument-scaling-shift-sum",
        statement=(
            "Scaling the deformation parameter by r/s and every argument by r "
            "equals r^(|n|-m) times the SUM over per-axis imaginary shifts "
            "2*pi*i*alpha_k/r + 2*pi*i*hbar*beta_k/s, with alpha_k ranging "
            "over the r symmetric half-integers (1-r)/2,...,(r-1)/2 and "
            "beta_k over the s analogous values; the scale factor multiplies "
            "the shift sum, not the left-hand side.  Reference: (r,s)=(2,1), "
            "index (1,1,1), omega=-2, hbar=1.2, where the scaled value is "
            f"{DISTRIBUTION_LHS_VALUE.imag!r}i."
        ),
        evidence=(
            ("frozen residual (n=1)", 2.8e-17),
            ("frozen residual (n=2)", 1.0e-16),
        ),
        rejected=(
            ("product over shifts instead of sum", DISTRIBUTION_REJECTED_PRODUCT),
            ("scale factor on the scaled side (n=2)", DISTRIBUTION_REJECTED_FACTOR_SIDE),
        ),
    ),
    Convention(
        key="companion-series-form",
        statement=(
            "The companion series attached to a sign pattern eps in {+1 "
            "(weight 1), dual (weight 1/hbar)}^m is (prod_j eps_j) * "
            "sum_(k>0) (-1)^(k_1+...+k_m) prod_c exp(K_c w_c) / "
            "(prod_j [k_j]_(q_j)^(a_j) * prod_c K_c^(n_c)) with MIXED prefix "
            "weights K_c = sum_(j<=c) eps_j k_j appearing in both the "
            "exponentials and the denominators.  Brackets are [k]_q = q^k - "
            "q^-k with nome q = exp(i*pi*hbar) on plain axes and the dual "
            "nome exp(+i*pi/hbar) on dual axes.  Summing over all 2^m "
            "patterns reproduces the quadrature value."
        ),
        evidence=(
            ("depth-1 n=2, w=-1, hbar=sqrt(2): residual", 1.114e-16),
            ("depth-1 n=1, w=-1.5, hbar=golden: residual", 5.607e-17),
            ("depth-2 n=(1,1), w=(-2,-1), hbar=sqrt(2): residual", 8.045e-18),
            ("mixed-pattern reference value check", 6.3e-18),
        ),
        rejected=(
            ("per-axis exponent (k_1+..+k_c)*eps_c*w_c", COMPANION_REJECTED_UNMIXED),
            ("dual nome exp(-i*pi/hbar)", COMPANION_REJECTED_DUAL_NOME),
        ),
    ),
    Convention(
        key="weighted-zeta-normalization",
        statement=(
            "The deformed zeta value at integer weights s_k >= 2 is the RAW "
            "line integral (no i-power prefactor) with all couplings "
            "(a_k,b_k)=(1,1), all arguments 0, and denominator exponents "
            "n_k = s_k - 1.  Anchors: at hbar=1, s=(2,) the value is "
            f"i*pi/12 = {ZETA_1_2_VALUE.imag!r}i; at hbar=1.4, s=(3,) the value is "
            f"{ZETA_14_3_VALUE!r}; the reflection hbar -> 1/hbar carries the "
            "factor hbar^(sum(s_k - 1) - m)."
        ),
        evidence=(
            ("zeta_1(2) vs i*pi/12", 6.5e-17),
            ("reflection residual at hbar=1.4, s=(3,)", 5.98e-17),
        ),
        rejected=(
            ("reflection exponent lowered by one (hbar=1.4, s=(4,))",
             ZETA_REJECTED_EXPONENT_RESIDUAL),
        ),
    ),
    Convention(
        key="iterated-argument-evaluator",
        statement=(
            "The iterated-argument form I(w) evaluates the line integral at "
            "omega_j = w_j + ... + w_m; with couplings (1,0) per axis and "
            "hbar irrelevant it equals the nested simplex sum "
            "Li_n(e^(w_1), ..., e^(w_(m-1)), -e^(w_m)) (sign on the last "
            "argument only; strict ordering k_1 > k_2 > ... > k_m >= 1 with "
            "the FIRST index carrying the outermost sum).  Integrability "
            "requires the transported bounds |Im(w_j + ... + w_m)| < pi."
        ),
        evidence=(
            ("value at n=(1,1), w=(-2,-1)", QUAD_LI_REFERENCE_VALUE.real),
            ("residual vs simplex sum", 2.28e-17),
        ),
        rejected=(),
    ),
    Convention(
        key="infinite-product-exponents",
        statement=(
            "The order-a product is Psi_a(x;q) = prod_(n>=0) "
            "(1 + q^(2n+a) x)^((-1)^a * C(n+a-1, a-1)) with Psi_0(x;q) = "
            "1 + x; its logarithm equals minus the depth-1 q-series "
            "sum_(k>=1) (-x)^k / ([k]_q^a * k).  Reference: a=2, x=0.3, "
            f"q=0.35, where Psi_2 = {PSI_REFERENCE_VALUE!r}."
        ),
        evidence=(
            ("product vs exp(-series) residual", 1.12e-13),
        ),
        rejected=(
            ("exponent (-1)^(a+1), base q^(2n+1)", PSI_REJECTED_RESIDUAL),
        ),
    ),
    Convention(
        key="bracket-integral-sign",
        statement=(
            "The bracket antiderivative of order a maps the coefficient c_k "
            "of x^k (k >= 1) to -c_k / [k]_q^a and rejects a nonzero "
            "constant term; order 0 is minus the identity.  Consequently the "
            "depth-m deformed series equals (-1)^m times the iterated "
            "bracket antiderivative (orders a_1..a_m applied outermost-last) "
            "of the undeformed nested sum, and log Psi_a(x) = -(depth-1 "
            "deformed series at argument -x with unit denominator weight)."
        ),
        evidence=(
            ("difference-then-integrate round trip", 1e-13),
        ),
        rejected=(),
    ),
    Convention(
        key="coefficient-conjugation-parity",
        statement=(
            "Conjugating hbar and all arguments conjugates the value up to "
            "the sign (-1)^(|a|+|b|+m): conj(F(conj args)) = "
            "(-1)^(|a|+|b|+m) F(args).  For the residue-pairing polynomial "
            "the matching statement is: conjugating the coefficients and "
            "negating omega multiplies B by (-1)^(a+b+1)."
        ),
        evidence=(),
        rejected=(),
    ),
    Convention(
        key="deformation-reflection",
        statement=(
            "Depth-1: F with couplings (a,b) at (omega, hbar) equals "
            "hbar^(n-1) times F with couplings (b,a) at (omega/hbar, "
            "1/hbar).  Depth-m basic: F(omega; hbar) = hbar^(|n|-m) "
            "F(omega/hbar; 1/hbar) with the coupling blocks swapped "
            "per axis.  The residue-pairing polynomial satisfies the same "
            "law degree-wise."
        ),
        evidence=(),
        rejected=(),
    ),
    Convention(
        key="rational-deformation-guard",
        statement=(
            "Companion series require a deformation parameter whose multiples "
            "stay away from integers: at rational hbar = r/s the bracket "
            "[s*r']_q vanishes and the series is ill-conditioned, so bracket "
            "magnitudes below 1e-6 on the unit nome circle raise a domain "
            "error instead of returning garbage.  (The quadrature backends "
            "remain valid at rational hbar.)"
        ),
        evidence=(),
        rejected=(),
    ),
)


def conventions_text() -> str:
    """Render the frozen-conventions document as plain text."""
    lines = [
        "qpolylog frozen evaluation conventions",
        "=" * 38,
        "",
        "Each convention below is locked by calibration: at the recorded",
        "reference point the frozen form closes an identity to near machine",
        "precision while each rejected alternative leaves the recorded",
        "residual.  tests/test_conventions.py re-verifies every number.",
        "",
    ]
    for idx, conv in enumerate(CONVENTIONS, start=1):
        lines.append(f"{idx}. [{conv.key}]")
        lines.append(f"   {conv.statement}")
        for label, value in conv.evidence:
            lines.append(f"   evidence: {label}: {value!r}")
        for label, value in conv.rejected:
            lines.append(f"   rejected: {label}: residual {value!r}")
        lines.append("")
    return "\n".join(lines)
