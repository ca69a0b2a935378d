"""Command-line front end.

Three subcommands:

* ``qpolylog eval``   -- evaluate one function on a list of points,
* ``qpolylog verify`` -- run the identity verification suite,
* ``qpolylog table``  -- sweep one or two scalar variables and emit a table.

Output is machine-readable (canonical JSON or RFC-4180 CSV); identical
configuration and seed produce byte-identical output.  Exit codes: 0 success,
1 usage/configuration error, 2 domain/evaluation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import itertools
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .contour import (
    QuadratureSpec,
    _li_row,
    _quad_rows,
    _Row,
    _transport,
    _zeta_row,
    depth1_closed_form,
    quad_bernoulli_circle,
)
from .conventions import conventions_text
from .core import (
    BACKENDS,
    POINT_ERRORS,
    DomainError,
    EvalResult,
    MultiIndex,
    QpolylogError,
    UsageError,
    map_points,
    unwrap,
)
from .exact import bernoulli_exact, verify_a3
from .identities import CHECKS, DEFAULT_SEED, CheckSpec, run_all
from .series import (
    SeriesParams,
    companion_sum_I_batch,
    multiple_polylog,
    pochhammer_psi,
    q_multiple_polylog,
)

# Points are evaluated with no worker pool (see _eval_records).  The traced
# benchmark run (bench/tracer.py) still swaps this name out and back; drop it
# together with that patch.
ThreadPoolExecutor = None

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_VERIFY = 3

# Rows of a table: of one sweep axis and of the product of both, counted
# from the bounds before any row is built.
MAX_TABLE_ROWS = 10_000
# Shifted terms r*s of a custom `verify distribution` grid point, each one
# contour row.
MAX_DISTRIBUTION_TERMS = 64

BACKEND_CHOICES = ("auto",) + BACKENDS

# Per function: the backends it accepts ("auto" picks the first), and the
# record key of its argument points (None: it takes no point).
_FUNCTION_TABLE = {
    "F": (("contour", "companion", "closed_form"), "omega"),
    "I": (("contour", "companion"), "omega"),
    "Li": (("series", "contour"), "z"),
    "qLi": (("series",), "z"),
    "zeta": (("contour",), None),
    "bernoulli": (("exact", "contour"), "omega"),
    "psi": (("series",), "x"),
}
FUNCTIONS = tuple(_FUNCTION_TABLE)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


# The one float format of every machine-readable emitter, JSON and CSV.
_FLOAT_FORMAT = "%.17g"
_encode_str = json.encoder.encode_basestring_ascii
# Sorted keys and '{"key":' / ',"key":' prefixes of up to 256 key tuples, all
# exact str: 1, True and 1.0 are equal keys that print as "1", "True", "1.0".
# A str key prints as its value, as in json.dumps, so an equal key of a str
# subclass prints as the exact str its cached shape holds.
_KEY_SHAPES: dict = {}


def format_float(x: float) -> str:
    """Fixed float formatting used by every machine-readable emitter."""
    return _FLOAT_FORMAT % float(x)


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and %.17g float formatting.

    Parsing the output and re-serializing it reproduces the same bytes.
    """
    out: list[str] = []
    _emit_json(obj, out)
    return "".join(out)


def _emit_json(obj: Any, out: list) -> None:
    # Exact types first: nearly every value, and cheaper than the ABC chain.
    kind = type(obj)
    if kind is float:
        out.append(_FLOAT_FORMAT % obj)
    elif kind is str:
        out.append(_encode_str(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is dict:
        keys = tuple(obj)
        shape = _KEY_SHAPES.get(keys)
        if shape is None:  # sorted() is stable: keys of equal text keep their order
            texts = {key: str.__str__(key) if isinstance(key, str) else str(key)
                     for key in keys}
            shape = [(key, ("," if i else "{") + _encode_str(texts[key]) + ":")
                     for i, key in enumerate(sorted(keys, key=texts.__getitem__))]
            if len(_KEY_SHAPES) < 256 and all(type(key) is str for key in keys):
                _KEY_SHAPES[keys] = shape
        for key, prefix in shape:
            out.append(prefix)
            _emit_json(obj[key], out)
        out.append("}" if shape else "{}")
    elif kind is complex:
        out.append('{"im":' + _FLOAT_FORMAT % obj.imag + ',"re":' + _FLOAT_FORMAT % obj.real + "}")
    elif kind is list or kind is tuple:
        sep = "["
        for item in obj:
            out.append(sep)
            sep = ","
            _emit_json(item, out)
        out.append("]" if obj else "[]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(_FLOAT_FORMAT % float(obj))
    elif isinstance(obj, numbers.Complex):
        _emit_json(complex_dict(complex(obj)), out)
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, Mapping):
        _emit_json(dict(obj), out)
    elif isinstance(obj, (list, tuple)):
        _emit_json(list(obj), out)
    else:
        raise UsageError(f"cannot serialize {type(obj).__name__} to JSON")


def complex_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse a complex literal like '-1', '2i', '-2+0.5i', '1.5e-2-3i'."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise UsageError("empty complex literal")
    s = s.replace("I", "i").replace("j", "i")
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        z = complex(s)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise UsageError(f"complex number {text!r} is not finite")
    return z


def parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part.strip()) for part in str(text).split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"--{what} must be a comma-separated integer list") from exc


def parse_points(text: str) -> tuple:
    """Parse '--omega': semicolon-separated points, comma-separated components."""
    points = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append(tuple(parse_complex(part) for part in chunk.split(",")))
    if not points:
        raise UsageError("--omega lists at least one point")
    return tuple(points)


@dataclass(frozen=True)
class Sweep:
    var: str
    start: float
    stop: float
    step: float

    def count(self) -> int:
        """The number of values, from the bounds alone."""
        span = self.stop - self.start
        if self.step == 0 or (span != 0 and span * self.step < 0):
            raise UsageError(f"sweep step for {self.var} has the wrong sign")
        steps = abs(span) / abs(self.step) + 1e-9
        if steps >= MAX_TABLE_ROWS:  # also an infinite span
            raise UsageError(f"sweep over {self.var} has more than {MAX_TABLE_ROWS} values")
        return int(math.floor(steps)) + 1

    def values(self) -> tuple:
        return tuple(self.start + i * self.step for i in range(self.count()))


def parse_sweep(text: str) -> Sweep:
    try:
        var, _, rng = str(text).partition("=")
        start, stop, step = (float(v) for v in rng.split(":"))
    except ValueError as exc:
        raise UsageError(
            f"--sweep must look like VAR=START:STOP:STEP, got {text!r}"
        ) from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"--sweep bounds and step must be finite, got {text!r}")
    return Sweep(var.strip(), start, stop, step)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description echoed into every report."""

    command: str
    fn: str | None = None
    a: tuple = ()
    b: tuple = ()
    n: tuple = ()
    omega: tuple = ()  # tuple of points; each point a tuple of complex
    hbar: complex = 1.0 + 0j
    backend: str = "auto"
    tol: float | None = None
    fmt: str = "json"
    seed: int = DEFAULT_SEED
    workers: int = 1
    identity: str | None = None
    check_args: tuple = ()  # sorted (key, value) string pairs
    sweeps: tuple = ()

    def to_dict(self) -> dict:
        """The echoed config, without the flags left unset.  Values are raw:
        canonical_json prints tuples as lists and complex numbers as
        {"re", "im"}."""
        data: dict[str, Any] = {
            "command": self.command, "backend": self.backend, "format": self.fmt,
            "seed": self.seed, "workers": self.workers, "hbar": self.hbar,
        }
        optional = {
            "fn": self.fn, "a": self.a, "b": self.b, "n": self.n, "omega": self.omega,
            "tol": self.tol, "identity": self.identity, "identity_args": dict(self.check_args),
        }
        data.update((key, value) for key, value in optional.items() if value not in (None, (), {}))
        return data


# ---------------------------------------------------------------------------
# Argument parser (usage errors exit with code 1, not argparse's 2)
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Let values like "-1+4i" or "-.5" pass as arguments instead of being
        # mistaken for option flags (no option here starts with a digit).
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qpolylog",
        description="Evaluate deformed polylogarithm-type integrals, their "
        "series relatives, and exact polynomial layers; verify the identity "
        "suite; tabulate sweeps.",
    )
    parser.add_argument(
        "--conventions",
        action="store_true",
        help="print the frozen sign/normalization conventions with their "
        "calibration evidence and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p: _Parser) -> None:
        p.add_argument("--fn", choices=FUNCTIONS, help="function to evaluate")
        p.add_argument("--a", help="comma list of first coupling exponents")
        p.add_argument("--b", help="comma list of second coupling exponents")
        p.add_argument("--n", help="comma list of denominator exponents")
        p.add_argument(
            "--omega",
            help="points: semicolon-separated, components comma-separated, "
            "complex literals like -2+0.5i (arguments z for fn=Li/qLi, "
            "x for fn=psi)",
        )
        p.add_argument(
            "--hbar",
            help="deformation parameter (complex literal); the nome q for "
            "fn=qLi and fn=psi",
        )
        p.add_argument(
            "--backend",
            choices=BACKEND_CHOICES,
            help="evaluation backend (default auto)",
        )
        p.add_argument("--tol", type=float, help="tolerance override")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.add_argument("--seed", type=int, help="random seed for gridded checks")
        p.add_argument(
            "--workers",
            type=int,
            help="accepted and echoed in the output config (>= 1, default 1); "
            "points are evaluated in order",
        )
        p.add_argument("--config", help="JSON config file; explicit flags override it")

    p_eval = sub.add_parser("eval", help="evaluate a function on points")
    add_common(p_eval)

    p_verify = sub.add_parser("verify", help="run identity checks")
    add_common(p_verify)
    p_verify.add_argument(
        "identity",
        nargs="?",
        help="identity to check (default: all); 'a3' runs the exact "
        "partial-fraction shuffle",
    )
    p_verify.add_argument(
        "check_args",
        nargs="*",
        default=[],
        help="identity arguments as key=value (e.g. k=2 l=2 or r=2 s=1)",
    )

    p_table = sub.add_parser("table", help="sweep variables, emit CSV")
    add_common(p_table)
    p_table.add_argument(
        "--sweep",
        action="append",
        default=None,
        help="VAR=START:STOP:STEP with VAR in {omega, hbar}; repeat for a "
        "second axis (at most two)",
    )
    return parser


@functools.lru_cache(maxsize=1)
def _main_parser() -> _Parser:
    """The parser main parses with, built on first use.  Parsing leaves no
    state on it, so each call behaves as with a fresh build_parser()."""
    return build_parser()


def _merge_config_file(
    parser: _Parser, argv: list, args: argparse.Namespace
) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if one was given.

    Each config value the subcommand has a flag for, and the user left unset
    (every unset flag reads None), is appended to argv as that flag
    (``identity``: verify's positional argument), and argv is parsed again,
    so config values pass the same checks as flags.  Other keys are ignored.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    extra: list[str] = []
    for key, unset in vars(args).items():
        if unset is not None or key not in data:
            continue
        value = data[key]
        if key == "identity":
            extra.append(str(value))
        elif key == "sweep":
            if not isinstance(value, list):
                raise UsageError("config 'sweep' must be a list of strings")
            extra.extend(f"--sweep={v}" for v in value)
        else:
            extra.append(f"--{key}={value}")
    return parser.parse_args(argv + extra)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.workers is not None and args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.tol is not None and not (args.tol > 0 and math.isfinite(args.tol)):
        raise UsageError("--tol must be positive and finite")
    identity, check_args = getattr(args, "identity", None), getattr(args, "check_args", [])
    if identity is not None and "=" in identity:  # a key=value where the name goes
        identity, check_args = None, [identity] + check_args
    pairs = []
    for raw in check_args:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise UsageError(f"identity arguments look like key=value, got {raw!r}")
        pairs.append((key.strip(), value.strip()))
    return RunConfig(
        command=args.command,
        fn=args.fn,
        a=parse_int_list(args.a, "a") if args.a else (),
        b=parse_int_list(args.b, "b") if args.b else (),
        n=parse_int_list(args.n, "n") if args.n else (),
        omega=parse_points(args.omega) if args.omega else (),
        hbar=parse_complex(args.hbar) if args.hbar else 1.0 + 0j,
        backend=args.backend or "auto",
        tol=args.tol,
        fmt=args.format or ("csv" if args.command == "table" else "json"),
        seed=DEFAULT_SEED if args.seed is None else args.seed,
        workers=args.workers or 1,
        identity=identity,
        check_args=tuple(sorted(pairs)),
        sweeps=tuple(parse_sweep(s) for s in getattr(args, "sweep", None) or []),
    )


# ---------------------------------------------------------------------------
# Point evaluation shared by eval and table
# ---------------------------------------------------------------------------


def _resolve_backend(fn: str, backend: str) -> str:
    allowed = _FUNCTION_TABLE[fn][0]
    if backend not in ("auto",) + allowed:
        raise UsageError(
            f"backend {backend!r} does not support fn={fn}; "
            f"allowed: auto, {', '.join(allowed)}"
        )
    return allowed[0] if backend == "auto" else backend


def _index_for(config: RunConfig, m: int) -> MultiIndex:
    a = config.a or (1,) * m
    b = config.b or (1,) * m
    n = config.n
    if not n:
        raise UsageError("--n is required for this function")
    if len(a) != m or len(b) != m or len(n) != m:
        raise UsageError(
            f"index lists and point depth disagree: point depth {m}, "
            f"len(a)={len(a)}, len(b)={len(b)}, len(n)={len(n)}"
        )
    return MultiIndex(a, b, n)


def _omega_to_w(omega: Sequence[complex]) -> tuple:
    """Invert the transported-argument map: w_j = omega_j - omega_{j+1}."""
    m = len(omega)
    return tuple(
        omega[j] - (omega[j + 1] if j + 1 < m else 0j) for j in range(m)
    )


def _scalar_flag(config: RunConfig, flag: str, default: int | None = None) -> int:
    """The one value of index flag --flag (fn=bernoulli, psi), or default."""
    values = getattr(config, flag)
    if len(values) > 1:
        raise UsageError(f"--{flag} takes one value for fn={config.fn}, got {len(values)}")
    if not values and default is None:
        raise UsageError(f"--{flag} is required for fn={config.fn}")
    return values[0] if values else default


def _evaluate(config: RunConfig, points: Sequence, hbars: Sequence | None = None) -> list:
    """config.fn at every point, in order, at hbars[k] (default config.hbar):
    for each its EvalResult, or the exception raised there.  Each point gives
    its result, a contour row (all rows are then one _quad_rows call) or a
    companion point (w, hbar) (one companion_sum_I_batch call per run of equal
    hbar)."""
    fn = config.fn
    if fn is None:
        raise UsageError("--fn is required for eval/table")
    backend = _resolve_backend(fn, config.backend)
    points = [tuple(point) for point in points]
    hbars = [config.hbar] * len(points) if hbars is None else hbars
    quad_spec = QuadratureSpec(tol=config.tol) if config.tol else QuadratureSpec()
    series_params = SeriesParams(tol=config.tol) if config.tol else SeriesParams()
    facts: dict = {}  # of the one bernoulli polynomial of a call: a, b and n are fixed

    def one(point: tuple, hbar: complex) -> EvalResult | _Row | tuple:
        m = len(point)
        if fn in ("F", "I"):
            idx = _index_for(config, m)
            if backend == "contour":
                return _Row(idx, point if fn == "F" else _transport(idx, point), hbar)
            if backend == "companion":
                if idx.a != (1,) * m or idx.b != (1,) * m:
                    raise DomainError(
                        "companion backend requires the first-order index a = b = (1, ..., 1)"
                    )
                return (_omega_to_w(point) if fn == "F" else point), hbar
        if fn == "F":  # closed_form
            if m != 1:
                raise DomainError("closed_form backend is depth-1 only")
            a1, b1, n1 = idx.a[0], idx.b[0], idx.n[0]
            if b1 == 0:
                return depth1_closed_form(a1, n1, point[0], series_params)
            if complex(hbar) == 1 + 0j:
                return depth1_closed_form(a1 + b1, n1, point[0], series_params)
            raise DomainError(
                "closed_form for fn=F needs b=0 (any hbar) or hbar=1 (merged "
                "coupling)"
            )

        if fn in ("Li", "qLi"):
            n = config.n
            if not n:
                raise UsageError(f"--n is required for fn={fn}")
            if len(n) != m:
                raise UsageError(f"point depth {m} does not match len(n)={len(n)}")

        if fn == "Li":
            if backend == "series":
                return multiple_polylog(n, point, series_params)
            if any(z == 0 for z in point):
                raise DomainError("contour backend needs nonzero arguments")
            return _li_row(n, tuple(cmath.log(z) for z in point[:-1]) + (cmath.log(-point[-1]),))

        if fn == "qLi":
            a = config.a or (1,) * m
            if len(a) != m:
                raise UsageError(f"len(a)={len(a)} does not match point depth {m}")
            return q_multiple_polylog(a, n, point, hbar, series_params)

        if fn == "zeta":
            if m != 0:
                raise UsageError("fn=zeta takes no omega point; pass exponents via --n")
            if not config.n:
                raise UsageError("--n supplies the zeta exponents (all >= 2)")
            return _zeta_row(config.n, hbar)

        if fn == "bernoulli":
            if m != 1:
                raise UsageError("fn=bernoulli expects depth-1 omega points")
            a = _scalar_flag(config, "a")
            b = _scalar_flag(config, "b", 0)
            n = _scalar_flag(config, "n", 0)
            if backend == "contour":
                return quad_bernoulli_circle(a, b, n, point[0], hbar)
            poly = bernoulli_exact(a, b, n)
            if not facts:
                facts.update(polynomial=str(poly), omega_degree=poly.omega_degree())
            return EvalResult(poly.eval(point[0], hbar), poly._eval_rounding(point[0], hbar),
                              "exact", dict(facts))

        # psi
        if m != 1:
            raise UsageError("fn=psi expects scalar points")
        return pochhammer_psi(_scalar_flag(config, "a"), point[0], hbar, series_params)

    results = map_points(lambda job: one(*job), zip(points, hbars))
    rows = [k for k, res in enumerate(results) if isinstance(res, _Row)]
    if rows:  # the contour rows, as one call
        for k, res in zip(rows, _quad_rows([results[k] for k in rows], quad_spec)):
            results[k] = res
    if backend == "companion":  # every live point has depth len(n)
        live = [k for k, res in enumerate(results) if not isinstance(res, Exception)]
        for hbar, run in itertools.groupby(live, key=lambda k: results[k][1]):
            run = list(run)
            ws = [results[k][0] for k in run]
            for k, res in zip(run, companion_sum_I_batch(config.n, ws, hbar, series_params)):
                results[k] = res
    return results


def evaluate_point(config: RunConfig, point: Sequence[complex]) -> EvalResult:
    """Evaluate config.fn at one argument point."""
    return unwrap(_evaluate(config, (point,))[0])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _eval_records(config: RunConfig, points: Sequence, hbars: Sequence | None = None) -> tuple:
    """One record per point, in order, from one _evaluate call at hbars[k]
    (a table hbar sweep) or config.hbar.  A point that fails to evaluate
    gives an error record; a UsageError is a configuration problem, not a
    per-point failure, and propagates."""
    records = []
    errors = 0
    key = _FUNCTION_TABLE[config.fn][1]  # the record's input field
    for point, result in zip(points, _evaluate(config, points, hbars)):
        if isinstance(result, UsageError):
            raise result
        record = {key: point} if key else {}
        if isinstance(result, POINT_ERRORS):
            errors += 1
            record.update(
                value=None,
                err_estimate=None,
                backend=None,
                diagnostics={},
                error=f"{type(result).__name__}: {result}",
            )
        else:
            record.update(result.to_dict(), error=None)
        records.append(record)
    return records, errors


def cmd_eval(config: RunConfig, out) -> int:
    if config.fn is None:
        raise UsageError("eval requires --fn")
    points: Sequence
    if config.fn == "zeta":
        points = [()]
        if config.omega:
            raise UsageError("fn=zeta takes no omega point; pass exponents via --n")
    else:
        points = config.omega or ()
        if not points:
            raise UsageError("eval requires --omega (one or more points)")
    records, errors = _eval_records(config, points)
    payload = {
        "schema": 1,
        "command": "eval",
        "config": config.to_dict(),
        "results": records,
        "summary": {"points": len(records), "errors": errors},
    }
    if config.fmt == "json":
        out.write(canonical_json(payload) + "\n")
    else:
        _write_eval_csv(out, config, records)
    return EXIT_EVAL if errors else EXIT_OK


def _csv_complex_cols(prefix: str, count: int) -> list:
    cols = []
    for i in range(1, count + 1):
        tag = f"{prefix}{i}" if count > 1 else prefix
        cols.extend([f"{tag}_re", f"{tag}_im"])
    return cols


def _write_eval_csv(out, config: RunConfig, records: Sequence[Mapping]) -> None:
    writer = csv.writer(out)
    input_key = _FUNCTION_TABLE[config.fn][1]
    width = len(records[0][input_key]) if input_key else 0
    header = (
        (_csv_complex_cols(input_key, width) if input_key else [])
        + ["value_re", "value_im", "err_estimate", "backend", "error"]
    )
    writer.writerow(header)
    for record in records:
        row: list[str] = []
        if input_key:
            for comp in record[input_key]:
                row.extend([format_float(comp.real), format_float(comp.imag)])
        if record["error"] is None:
            row.extend(
                [
                    format_float(record["value"]["re"]),
                    format_float(record["value"]["im"]),
                    format_float(record["err_estimate"]),
                    record["backend"],
                    "",
                ]
            )
        else:
            row.extend(["", "", "", "", record["error"]])
        writer.writerow(row)


def _int_arg(args: dict, key: str, default: int) -> int:
    """Pop the integer identity argument key from args (default if absent)."""
    value = args.pop(key, default)
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"identity argument {key} must be an integer, got {value!r}") from None


def _verify_reports(config: RunConfig) -> list:
    """Resolve the verify target to a list of CheckReports."""
    name = config.identity
    args = dict(config.check_args)
    if name in (None, "all"):
        if args:
            raise UsageError("identity arguments need a named identity")
        return run_all(seed=config.seed)
    if name == "a3":
        k = _int_arg(args, "k", 2)
        l = _int_arg(args, "l", 2)
        if args:
            raise UsageError(f"unknown a3 arguments: {', '.join(sorted(args))}")
        if k < 1 or l < 1 or k + l > 6:
            raise UsageError(f"a3 needs k, l >= 1 with k + l <= 6, got k={k}, l={l}")
        return [verify_a3(k, l, seed=config.seed)]
    if name not in CHECKS:
        known = ", ".join(sorted(list(CHECKS) + ["a3", "all"]))
        raise UsageError(f"unknown identity {name!r}; known: {known}")
    check = CHECKS[name]
    if name == "distribution" and ("r" in args or "s" in args):
        r = _int_arg(args, "r", 1)
        s = _int_arg(args, "s", 1)
        if args:
            raise UsageError(f"unknown distribution arguments: {', '.join(sorted(args))}")
        if r < 1 or s < 1:
            raise UsageError(f"distribution needs r, s >= 1, got r={r}, s={s}")
        if r * s > MAX_DISTRIBUTION_TERMS:
            raise UsageError(
                f"distribution needs r*s <= {MAX_DISTRIBUTION_TERMS}, got r*s={r * s}")
        tol = config.tol if config.tol is not None else (1e-10 if r == s == 1 else 1e-6)
        grid = tuple(
            {"r": r, "s": s, "n": n, "omega": -2.0, "hbar": 1.2, "tol": tol}
            for n in (1, 2)
        )
        spec = CheckSpec("distribution", grid, tol)
        return check(spec, seed=config.seed)
    if args:
        raise UsageError(
            f"identity {name!r} takes no arguments (got {', '.join(sorted(args))})"
        )
    return check(None, seed=config.seed)


def cmd_verify(config: RunConfig, out) -> int:
    reports = _verify_reports(config)
    passed = sum(1 for r in reports if r.passed)
    failed = len(reports) - passed
    payload = {
        "schema": 1,
        "command": "verify",
        "config": config.to_dict(),
        "results": [r.to_dict() for r in reports],
        "summary": {"checks": len(reports), "passed": passed, "failed": failed},
    }
    if config.fmt == "json":
        out.write(canonical_json(payload) + "\n")
    else:
        writer = csv.writer(out)
        writer.writerow(["identity_name", "params", "residual", "tolerance", "pass"])
        for r in reports:
            writer.writerow(
                [
                    r.identity_name,
                    canonical_json(dict(r.params)),
                    format_float(r.residual),
                    format_float(r.tolerance),
                    "true" if r.passed else "false",
                ]
            )
    print(
        f"verify: {passed}/{len(reports)} checks passed, {failed} failed",
        file=sys.stderr,
    )
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_table(config: RunConfig, out) -> int:
    if config.fn is None:
        raise UsageError("table requires --fn")
    if config.fmt == "json":
        raise UsageError("table emits CSV; use --format csv (the default here)")
    sweeps = config.sweeps
    if not 1 <= len(sweeps) <= 2:
        raise UsageError("table needs one or two --sweep axes")
    for sweep in sweeps:
        if sweep.var not in ("omega", "hbar"):
            raise UsageError(f"sweep variable must be omega or hbar, got {sweep.var!r}")
    if len({s.var for s in sweeps}) != len(sweeps):
        raise UsageError("sweep variables must be distinct")
    if any(s.var == "omega" for s in sweeps) and config.fn == "zeta":
        raise UsageError("fn=zeta has no omega to sweep")

    base_point = config.omega[0] if config.omega else (0j,)
    if len(base_point) != 1 and any(s.var == "omega" for s in sweeps):
        raise UsageError("omega sweeps are depth-1 only")

    if math.prod(s.count() for s in sweeps) > MAX_TABLE_ROWS:
        raise UsageError(f"table has more than {MAX_TABLE_ROWS} rows")
    combos = list(itertools.product(*(s.values() for s in sweeps)))
    points, hbars = [], []
    for combo in combos:
        at = {s.var: complex(v) for s, v in zip(sweeps, combo)}
        hbars.append(at.get("hbar", config.hbar))
        point = (at["omega"],) if "omega" in at else base_point
        points.append(() if config.fn == "zeta" else point)
    records, errors = _eval_records(config, points, hbars)

    writer = csv.writer(out)
    writer.writerow([s.var for s in sweeps] + ["re", "im", "err"])
    for combo, record in zip(combos, records):
        if record["error"] is None:
            cells = [
                format_float(record["value"]["re"]),
                format_float(record["value"]["im"]),
                format_float(record["err_estimate"]),
            ]
        else:
            cells = ["", "", record["error"]]
        writer.writerow([format_float(v) for v in combo] + cells)
    return EXIT_EVAL if errors else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "conventions", False):
            sys.stdout.write(conventions_text())
            return EXIT_OK
        if args.command is None:
            raise UsageError("a subcommand is required: eval, verify, or table")
        args = _merge_config_file(parser, argv, args)
        config = _config_from_args(args)
        if config.command == "eval":
            return cmd_eval(config, sys.stdout)
        if config.command == "verify":
            return cmd_verify(config, sys.stdout)
        return cmd_table(config, sys.stdout)
    except UsageError as exc:
        print(f"qpolylog: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QpolylogError as exc:
        print(f"qpolylog: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
