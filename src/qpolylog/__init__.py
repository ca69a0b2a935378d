"""qpolylog: deformed polylogarithm-type integrals and their relatives.

The package evaluates a family of oscillatory line integrals indexed by
per-axis coupling exponents (a_k, b_k), denominator exponents n_k, complex
arguments omega, and a deformation parameter hbar, together with the nested
series, companion q-series, exact polynomial layers, and the identity web
connecting them.  Three mutually independent backends (nested series,
oscillatory quadrature, companion series) cross-validate every value; the
identity suite in :mod:`qpolylog.identities` checks the full relation web on
frozen grids; :mod:`qpolylog.conventions` documents every sign and
normalization choice with calibration evidence.
"""

from .contour import (
    QuadratureSpec,
    depth1_closed_form,
    gen_series_depth1,
    kernel,
    KernelParams,
    quad_bernoulli_circle,
    quad_F,
    quad_F_batch,
    quad_I,
    quad_I_batch,
    quad_Li,
    quad_zeta_hbar,
)
from .conventions import CONVENTIONS, conventions_text
from .core import (
    BACKENDS,
    CheckReport,
    ConvergenceError,
    DomainError,
    EvalResult,
    MultiIndex,
    QpolylogError,
    UsageError,
    convergence_strip,
    in_strip,
    weight,
)
from .exact import (
    ExactPoly,
    ExactScalar,
    bernoulli_classical,
    bernoulli_exact,
    q_poly,
    shuffles,
    verify_a3,
)
from .identities import CHECKS, CheckSpec, DEFAULT_SEED, run_all
from .series import (
    EpsilonVector,
    SeriesParams,
    TruncatedSeries,
    classical_polylog,
    companion_series,
    companion_series_batch,
    companion_sum_I,
    companion_sum_I_batch,
    multiple_polylog,
    octant_polylog,
    pochhammer_psi,
    q_difference,
    q_integral,
    q_multiple_polylog,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BACKENDS",
    "CheckReport",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "MultiIndex",
    "QpolylogError",
    "UsageError",
    "convergence_strip",
    "in_strip",
    "weight",
    # exact layer
    "ExactPoly",
    "ExactScalar",
    "bernoulli_classical",
    "bernoulli_exact",
    "q_poly",
    "shuffles",
    "verify_a3",
    # series backends
    "EpsilonVector",
    "SeriesParams",
    "TruncatedSeries",
    "classical_polylog",
    "companion_series",
    "companion_series_batch",
    "companion_sum_I",
    "companion_sum_I_batch",
    "multiple_polylog",
    "octant_polylog",
    "pochhammer_psi",
    "q_difference",
    "q_integral",
    "q_multiple_polylog",
    # quadrature backends
    "QuadratureSpec",
    "KernelParams",
    "kernel",
    "depth1_closed_form",
    "gen_series_depth1",
    "quad_bernoulli_circle",
    "quad_F",
    "quad_F_batch",
    "quad_I",
    "quad_I_batch",
    "quad_Li",
    "quad_zeta_hbar",
    # conventions and identity suite
    "CONVENTIONS",
    "conventions_text",
    "CHECKS",
    "CheckSpec",
    "DEFAULT_SEED",
    "run_all",
]
