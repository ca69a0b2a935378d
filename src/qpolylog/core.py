"""Shared domain vocabulary: index triples, evaluation results, check reports,
and convergence-domain predicates used by every backend.

All types here are immutable values, safe to share between concurrent tasks.
Non-finite intermediate values abort an evaluation with an error instead of
propagating NaN into committed results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "BACKENDS",
    "QpolylogError",
    "DomainError",
    "ConvergenceError",
    "UsageError",
    "POINT_ERRORS",
    "map_points",
    "fail_points",
    "unwrap",
    "MultiIndex",
    "EvalResult",
    "CheckReport",
    "ensure_finite_complex",
    "validate_hbar",
    "weight",
    "convergence_strip",
    "in_strip",
    "require_in_strip",
]

#: Admissible evaluation backends.
BACKENDS = ("series", "contour", "companion", "closed_form", "exact")


class QpolylogError(Exception):
    """Base class for all library errors."""


class DomainError(QpolylogError):
    """A precondition or convergence-domain requirement was violated."""


class ConvergenceError(QpolylogError):
    """A summation or refinement failed to reach the requested tolerance."""


class UsageError(QpolylogError):
    """Invalid configuration handed to the command-line front end."""


#: Errors that fail one point of a batch without stopping the others.
POINT_ERRORS = (QpolylogError, ArithmeticError, ValueError)


def map_points(fn, items: Iterable) -> list:
    """fn(item) at each item of a batch, in order.  An item that is already an
    exception passes through, and an item whose fn raises one of
    POINT_ERRORS gets that exception in its place."""
    out = []
    for item in items:
        if not isinstance(item, Exception):
            try:
                item = fn(item)
            except POINT_ERRORS as exc:
                item = exc
        out.append(item)
    return out


def fail_points(items: Iterable, exc: Exception) -> list:
    """The batch with exc in place of every item that is not yet an exception:
    a failure that does not depend on the point fails every live point."""
    return [item if isinstance(item, Exception) else exc for item in items]


def unwrap(result):
    """One batch entry as a plain result: raises the exception it holds."""
    if isinstance(result, Exception):
        raise result
    return result


def ensure_finite_complex(value: complex, what: str = "value") -> complex:
    """Coerce to complex and reject NaN/Inf components."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite {what}: {z!r}")
    return z


def validate_hbar(hbar: complex, numeric: bool = True) -> complex:
    """Validate a deformation parameter.

    The admissible domain is the complex plane with the closed negative real
    axis (-inf, 0] removed.  Numeric backends additionally require
    Re(hbar) > 0, which keeps every pole of the scaled denominator strictly
    off the shifted integration line.
    """
    h = ensure_finite_complex(hbar, "hbar")
    if h.imag == 0.0 and h.real <= 0.0:
        raise DomainError(f"hbar must avoid the negative real axis and zero: {h!r}")
    if numeric and h.real <= 0.0:
        raise DomainError(f"numeric backends require Re(hbar) > 0: {h!r}")
    return h


def _as_int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    out = []
    for v in values:
        iv = int(v)
        if iv != v:
            raise DomainError(f"{what} entries must be integers: {v!r}")
        out.append(iv)
    return tuple(out)


@dataclass(frozen=True)
class MultiIndex:
    """Index triple (a, b, n) of equal length m >= 1.

    ``a`` and ``b`` are the non-negative denominator exponents attached to
    each integration axis; ``n`` holds the (possibly non-positive) exponents
    of the coupled partial-sum denominators.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_int_tuple(self.a, "a"))
        object.__setattr__(self, "b", _as_int_tuple(self.b, "b"))
        object.__setattr__(self, "n", _as_int_tuple(self.n, "n"))
        m = len(self.a)
        if m < 1:
            raise DomainError("index depth must be at least 1")
        if len(self.b) != m or len(self.n) != m:
            raise DomainError(
                f"a, b, n must share one length: {len(self.a)}, {len(self.b)}, {len(self.n)}"
            )
        if any(x < 0 for x in self.a) or any(x < 0 for x in self.b):
            raise DomainError("a and b entries must be non-negative")

    @property
    def depth(self) -> int:
        """Number of integration axes m."""
        return len(self.a)

    @property
    def weight(self) -> int:
        """Sum of the n-exponents."""
        return sum(self.n)

    @property
    def is_basic(self) -> bool:
        """True when every a_i and b_i equals 1."""
        return all(x == 1 for x in self.a) and all(x == 1 for x in self.b)

    def concat(self, other: "MultiIndex") -> "MultiIndex":
        """Concatenate two index triples axis-wise."""
        return MultiIndex(self.a + other.a, self.b + other.b, self.n + other.n)


def weight(idx: MultiIndex) -> int:
    """Total weight n_1 + ... + n_m of an index triple."""
    return idx.weight


def _freeze_mapping(m: Mapping[str, Any] | None) -> Mapping[str, Any]:
    return MappingProxyType(dict(m or {}))


@dataclass(frozen=True)
class EvalResult:
    """A committed numeric evaluation with an honest error estimate."""

    value: complex
    err_estimate: float
    backend: str
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", ensure_finite_complex(self.value, "result value"))
        err = float(self.err_estimate)
        if not math.isfinite(err) or err < 0.0:
            raise DomainError(f"err_estimate must be finite and >= 0: {err!r}")
        object.__setattr__(self, "err_estimate", err)
        if self.backend not in BACKENDS:
            raise DomainError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        object.__setattr__(self, "diagnostics", _freeze_mapping(self.diagnostics))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the report serializers."""
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "err_estimate": self.err_estimate,
            "backend": self.backend,
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity verification at one parameter point.

    The invariant ``passed == (residual <= tolerance)`` is enforced on
    construction; use :meth:`from_residual` to build reports.
    """

    identity_name: str
    params: Mapping[str, Any]
    residual: float
    tolerance: float
    passed: bool

    def __post_init__(self) -> None:
        res = float(self.residual)
        tol = float(self.tolerance)
        if not math.isfinite(res) or res < 0.0:
            raise DomainError(f"residual must be finite and >= 0: {res!r}")
        if not math.isfinite(tol) or tol < 0.0:
            raise DomainError(f"tolerance must be finite and >= 0: {tol!r}")
        object.__setattr__(self, "residual", res)
        object.__setattr__(self, "tolerance", tol)
        if bool(self.passed) != (res <= tol):
            raise DomainError("pass flag inconsistent with residual <= tolerance")
        object.__setattr__(self, "params", _freeze_mapping(self.params))

    @classmethod
    def from_residual(
        cls,
        identity_name: str,
        params: Mapping[str, Any],
        residual: float,
        tolerance: float,
    ) -> "CheckReport":
        residual = float(residual)
        tolerance = float(tolerance)
        return cls(identity_name, params, residual, tolerance, residual <= tolerance)

    def to_dict(self) -> dict[str, Any]:
        return {
            "identity_name": self.identity_name,
            "params": dict(self.params),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def convergence_strip(
    idx: MultiIndex, hbar: complex, for_contour: bool = False
) -> tuple[float, ...]:
    """Per-axis strip half-widths s_i = pi * (a_i + b_i * Re(hbar)).

    A point ``omega`` is inside the convergence strip iff
    ``abs(Im omega_i) < s_i`` for every axis.  With ``for_contour=True`` an
    axis with a_i = b_i = 0 is rejected, since the line integrand has no
    exponential decay there.
    """
    h = validate_hbar(hbar, numeric=True)
    if for_contour and any(ai + bi < 1 for ai, bi in zip(idx.a, idx.b)):
        raise DomainError("contour evaluation needs a_i + b_i >= 1 on every axis")
    return tuple(math.pi * (ai + bi * h.real) for ai, bi in zip(idx.a, idx.b))


def in_strip(
    idx: MultiIndex,
    omega: Sequence[complex],
    hbar: complex,
    margin: float = 0.0,
) -> bool:
    """True when omega lies inside the convergence strip with the given margin."""
    strips = convergence_strip(idx, hbar)
    if len(omega) != idx.depth:
        raise DomainError(f"omega must have {idx.depth} components, got {len(omega)}")
    return all(abs(complex(w).imag) < s - margin for w, s in zip(omega, strips))


def require_in_strip(
    idx: MultiIndex,
    omega: Sequence[complex],
    hbar: complex,
    margin: float = 0.0,
    what: str = "omega",
) -> None:
    """Raise DomainError unless omega is inside the convergence strip."""
    strips = convergence_strip(idx, hbar)
    if len(omega) != idx.depth:
        raise DomainError(f"{what} must have {idx.depth} components, got {len(omega)}")
    for i, (w, s) in enumerate(zip(omega, strips)):
        if not abs(complex(w).imag) < s - margin:
            raise DomainError(
                f"{what}[{i}] = {complex(w)!r} outside convergence strip "
                f"|Im| < {s - margin:.6g}"
            )
