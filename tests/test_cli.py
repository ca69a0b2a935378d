"""End-to-end and unit tests for the qpolylog command-line interface.

Every end-to-end test drives ``main(argv)`` in-process and inspects the
exit code plus captured stdout/stderr, so the tests exercise exactly the
code path a shell user hits (argument parsing, config merging, output
serialization, exit-code mapping) without spawning subprocesses.
"""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from qpolylog import (
    DomainError,
    UsageError,
    bernoulli_exact,
    multiple_polylog,
    pochhammer_psi,
    q_multiple_polylog,
    q_poly,
    quad_F,
    MultiIndex,
)
from qpolylog import cli
from qpolylog.cli import (
    EXIT_EVAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RunConfig,
    Sweep,
    canonical_json,
    complex_dict,
    format_float,
    main,
    parse_complex,
    parse_int_list,
    parse_points,
    parse_sweep,
)

# Depth-one kernel integral with trivial indices at omega = -1:
# -e^{-1} / (1 + e^{-1}).
ANCHOR = -math.exp(-1.0) / (1.0 + math.exp(-1.0))

SQRT2 = "1.4142135623730951"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_payload(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    return code, (json.loads(out) if out else None), err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


class TestParseComplex:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("-1", -1 + 0j),
            ("2.5", 2.5 + 0j),
            ("2i", 2j),
            ("i", 1j),
            ("-0.5i", -0.5j),
            ("-2+0.5i", complex(-2, 0.5)),
            ("1.5e-2-3i", complex(0.015, -3.0)),
            ("3+4j", complex(3, 4)),
            ("2I", 2j),
            (" -1 + 2i ", complex(-1, 2)),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("bad", ["", "   ", "abc", "1+", "1++2i", "2x+3i"])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_complex(bad)


class TestParseIntList:
    def test_basic(self):
        assert parse_int_list("1,2,3", "a") == (1, 2, 3)

    def test_single_and_spaces(self):
        assert parse_int_list("2", "n") == (2,)
        assert parse_int_list(" 1 , 2 ", "n") == (1, 2)

    def test_rejects_non_integers(self):
        with pytest.raises(UsageError):
            parse_int_list("1,x", "a")
        with pytest.raises(UsageError):
            parse_int_list("1.5", "a")


class TestParsePoints:
    def test_single_point(self):
        assert parse_points("-1") == ((-1 + 0j,),)

    def test_multi_component_and_multi_point(self):
        assert parse_points("-1,-2;-3,-4") == (
            (-1 + 0j, -2 + 0j),
            (-3 + 0j, -4 + 0j),
        )

    def test_complex_components(self):
        assert parse_points("-1+0.5i,2i") == ((complex(-1, 0.5), 2j),)

    def test_empty_chunks_skipped(self):
        assert parse_points("-1;;-2;") == ((-1 + 0j,), (-2 + 0j,))

    def test_all_empty_rejected(self):
        with pytest.raises(UsageError):
            parse_points(";;")


class TestSweep:
    def test_inclusive_endpoints(self):
        values = parse_sweep("omega=-3:-1:0.5").values()
        assert values == (-3.0, -2.5, -2.0, -1.5, -1.0)

    def test_stop_not_exceeded(self):
        values = parse_sweep("omega=0:1:0.3").values()
        assert values == (0.0, 0.3, 0.6, 0.8999999999999999)

    def test_descending(self):
        assert parse_sweep("hbar=-1:-3:-1").values() == (-1.0, -2.0, -3.0)

    def test_degenerate_span(self):
        assert parse_sweep("hbar=1:1:0.25").values() == (1.0,)

    def test_var_recorded(self):
        sweep = parse_sweep("hbar=1:2:0.25")
        assert sweep.var == "hbar"
        assert len(sweep.values()) == 5

    def test_zero_step_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("omega=0:1:0").values()

    def test_wrong_sign_step_rejected(self):
        with pytest.raises(UsageError):
            parse_sweep("omega=0:1:-0.5").values()

    @pytest.mark.parametrize("bad", ["omega", "omega=1:2", "omega=a:b:c", "=1:2:1"])
    def test_malformed_rejected(self, bad):
        if bad == "=1:2:1":
            # An empty variable name parses structurally; the table command
            # rejects it later because it is not omega/hbar.
            assert parse_sweep(bad).var == ""
        else:
            with pytest.raises(UsageError):
                parse_sweep(bad)


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_formatting(self):
        assert canonical_json({"x": 0.1}) == '{"x":0.10000000000000001}'
        assert format_float(2.0) == "2"

    def test_complex_encoded_as_re_im(self):
        assert canonical_json(1 + 2j) == '{"im":2,"re":1}'
        assert complex_dict(1 + 2j) == {"re": 1.0, "im": 2.0}

    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json([1, "a", False]) == '[1,"a",false]'

    def test_parse_and_reserialize_is_identity(self):
        payload = {
            "z": complex(-0.25, 1 / 3),
            "list": [1, 2.5, None, {"k": "v"}],
            "nested": {"b": [True, False], "a": 0.1},
        }
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text

    def test_unserializable_rejected(self):
        with pytest.raises(UsageError):
            canonical_json({"x": object()})


class TestRunConfig:
    def test_frozen(self):
        config = RunConfig(command="eval", fn="F")
        with pytest.raises(Exception):
            config.fn = "Li"

    def test_to_dict_is_canonical_json_ready(self):
        config = RunConfig(
            command="eval",
            fn="F",
            a=(1,),
            b=(0,),
            n=(0,),
            omega=((-1 + 0j,),),
            hbar=1.5 + 0j,
        )
        data = config.to_dict()
        text = canonical_json(data)
        assert canonical_json(json.loads(text)) == text
        assert data["fn"] == "F"
        assert data["a"] == [1]


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------


class TestEvalCommand:
    def test_anchor_point(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--omega", "-1",
        )
        assert code == EXIT_OK
        assert payload["schema"] == 1
        assert payload["command"] == "eval"
        assert payload["summary"] == {"points": 1, "errors": 0}
        record = payload["results"][0]
        assert record["omega"] == [{"im": 0.0, "re": -1.0}]
        assert record["backend"] == "contour"
        assert record["error"] is None
        assert abs(record["value"]["re"] - ANCHOR) < 1e-10
        assert abs(record["value"]["im"]) < 1e-10
        assert record["err_estimate"] < 1e-8

    def test_output_is_canonical_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--omega", "-1",
        )
        assert code == EXIT_OK
        body = out.rstrip("\n")
        assert canonical_json(json.loads(body)) == body

    def test_byte_identical_across_runs(self, capsys):
        args = (
            "eval", "--fn", "F", "--a", "1", "--b", "1", "--n", "1",
            "--omega", "-2+0.3i", "--hbar", "1.2",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys):
        base = (
            "eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "0,1",
        )
        # Same three points, serial vs pooled; records must keep input order.
        points = "--omega", "-1,-1;-2,-1;-1.5,-0.5"
        # depth-2 indices
        args = (
            "eval", "--fn", "F", "--a", "1,1", "--b", "0,0", "--n", "0,0",
            *points,
        )
        _ = base
        code1, out1, _ = run_cli(capsys, *args)
        code3, out3, _ = run_cli(capsys, *args, "--workers", "3")
        assert code1 == code3 == EXIT_OK
        payload1, payload3 = json.loads(out1), json.loads(out3)
        assert payload1["results"] == payload3["results"]

    def test_multiple_points_keep_order(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--omega", "-1;-2",
        )
        assert code == EXIT_OK
        res = payload["results"]
        assert [r["omega"][0]["re"] for r in res] == [-1.0, -2.0]
        single = quad_F(MultiIndex((1,), (0,), (0,)), (-2,), 1.0)
        assert abs(res[1]["value"]["re"] - single.value.real) < 1e-12

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--omega", "-1", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[0] == [
            "omega_re", "omega_im",
            "value_re", "value_im", "err_estimate", "backend", "error",
        ]
        assert rows[1][0] == "-1"
        assert abs(float(rows[1][2]) - ANCHOR) < 1e-10
        assert rows[1][5] == "contour"
        assert rows[1][6] == ""

    def test_csv_depth_two_headers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--fn", "Li", "--n", "1,1", "--omega", "0.3,0.2",
            "--format", "csv",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[0][:4] == ["z1_re", "z1_im", "z2_re", "z2_im"]

    def test_li_series(self, capsys):
        code, payload, _ = eval_payload(
            capsys, "eval", "--fn", "Li", "--n", "2", "--omega", "0.5",
        )
        assert code == EXIT_OK
        record = payload["results"][0]
        assert record["backend"] == "series"
        assert "z" in record
        expected = math.pi**2 / 12 - math.log(2.0) ** 2 / 2
        assert abs(record["value"]["re"] - expected) < 1e-10

    def test_li_zero_argument(self, capsys):
        code, payload, _ = eval_payload(
            capsys, "eval", "--fn", "Li", "--n", "2", "--omega", "0",
        )
        assert code == EXIT_OK
        assert payload["results"][0]["value"] == {"im": 0.0, "re": 0.0}

    def test_li_contour_backend_matches_series(self, capsys):
        # The contour route needs the innermost argument off the positive
        # real axis (it integrates against log(-z)).
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "Li", "--n", "3", "--omega", "-0.6",
            "--backend", "contour",
        )
        assert code == EXIT_OK
        record = payload["results"][0]
        assert record["backend"] == "contour"
        direct = multiple_polylog((3,), (-0.6,))
        assert abs(record["value"]["re"] - direct.value.real) < 1e-9
        assert abs(record["value"]["im"] - direct.value.imag) < 1e-9

    def test_li_depth_two_matches_library(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "Li", "--n", "2,1", "--omega", "0.4,0.3",
        )
        assert code == EXIT_OK
        direct = multiple_polylog((2, 1), (0.4, 0.3))
        assert abs(payload["results"][0]["value"]["re"] - direct.value.real) < 1e-12

    def test_qli_uses_hbar_as_nome(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "qLi", "--a", "2", "--n", "1",
            "--omega", "0.4", "--hbar", "0.3",
        )
        assert code == EXIT_OK
        direct = q_multiple_polylog((2,), (1,), (0.4,), 0.3)
        assert abs(payload["results"][0]["value"]["re"] - direct.value.real) < 1e-12
        assert abs(payload["results"][0]["value"]["im"] - direct.value.imag) < 1e-12

    def test_zeta_takes_no_point(self, capsys):
        code, payload, _ = eval_payload(
            capsys, "eval", "--fn", "zeta", "--n", "2", "--hbar", "1",
        )
        assert code == EXIT_OK
        record = payload["results"][0]
        assert abs(record["value"]["re"]) < 1e-10
        assert abs(record["value"]["im"] - math.pi / 12) < 1e-10

    def test_zeta_rejects_omega(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "zeta", "--n", "2", "--omega", "-1",
        )
        assert code == EXIT_USAGE
        assert "qpolylog: error:" in err

    def test_bernoulli_exact_polynomial_text(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "bernoulli", "--a", "2", "--b", "0", "--n", "0",
            "--omega", "1",
        )
        assert code == EXIT_OK
        record = payload["results"][0]
        assert record["backend"] == "exact"
        assert record["diagnostics"]["polynomial"] == str(q_poly(1))
        assert record["diagnostics"]["omega_degree"] == 1
        expected = q_poly(1).eval(1.0, 1.0)
        assert abs(record["value"]["re"] - expected.real) < 1e-15
        assert abs(record["value"]["im"] - expected.imag) < 1e-15

    def test_bernoulli_linear_case(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "bernoulli", "--a", "1", "--b", "0", "--n", "1",
            "--omega", "2",
        )
        assert code == EXIT_OK
        record = payload["results"][0]
        assert record["value"] == {"im": 0.0, "re": 2.0}
        assert record["err_estimate"] == 0.0

    def test_bernoulli_contour_matches_exact(self, capsys):
        args_tail = (
            "--a", "1", "--b", "1", "--n", "1",
            "--omega", "0.4", "--hbar", "1.2",
        )
        code_c, payload_c, _ = eval_payload(
            capsys, "eval", "--fn", "bernoulli", *args_tail,
            "--backend", "contour",
        )
        assert code_c == EXIT_OK
        exact = bernoulli_exact(1, 1, 1).eval(0.4, 1.2)
        value = payload_c["results"][0]["value"]
        assert abs(complex(value["re"], value["im"]) - exact) < 1e-10

    def test_psi_levels(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "psi", "--a", "0", "--omega", "0.3",
            "--hbar", "0.35",
        )
        assert code == EXIT_OK
        assert abs(payload["results"][0]["value"]["re"] - 1.3) < 1e-14

        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "psi", "--a", "2", "--omega", "0.3",
            "--hbar", "0.35",
        )
        assert code == EXIT_OK
        direct = pochhammer_psi(2, 0.3, 0.35)
        assert abs(payload["results"][0]["value"]["re"] - direct.value.real) < 1e-12

    def test_F_companion_backend(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "1", "--n", "1",
            "--omega", "-2", "--hbar", SQRT2, "--backend", "companion",
        )
        assert code == EXIT_OK
        assert payload["results"][0]["backend"] == "companion"
        quad = quad_F(MultiIndex((1,), (1,), (1,)), (-2,), math.sqrt(2.0))
        value = payload["results"][0]["value"]
        assert abs(complex(value["re"], value["im"]) - quad.value) < 1e-7

    def test_F_companion_needs_first_order_index(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--fn", "F", "--a", "2", "--b", "1", "--n", "1",
            "--omega", "-2", "--hbar", SQRT2, "--backend", "companion",
        )
        assert code == EXIT_EVAL
        assert "DomainError" in err or json

    def test_F_closed_form_backend(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "F", "--a", "2", "--b", "0", "--n", "1",
            "--omega", "-1.5", "--backend", "closed_form",
        )
        assert code == EXIT_OK
        quad = quad_F(MultiIndex((2,), (0,), (1,)), (-1.5,), 1.0)
        value = payload["results"][0]["value"]
        assert abs(complex(value["re"], value["im"]) - quad.value) < 1e-9

    def test_backend_not_allowed_for_fn(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--omega", "-1", "--backend", "series",
        )
        assert code == EXIT_USAGE
        assert "backend" in err

    def test_per_point_failure_sets_eval_exit(self, capsys):
        code, payload, _ = eval_payload(
            capsys,
            "eval", "--fn", "F", "--a", "1", "--b", "1", "--n", "1",
            "--omega", "-1;-1+4.2i", "--hbar", "0.3",
        )
        assert code == EXIT_EVAL
        good, bad = payload["results"]
        assert good["error"] is None
        assert bad["value"] is None
        assert bad["backend"] is None
        assert bad["error"].startswith("DomainError")
        assert payload["summary"]["errors"] == 1

    def test_per_point_failure_in_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--fn", "Li", "--n", "2", "--omega", "0.5;1.5",
            "--format", "csv",
        )
        assert code == EXIT_EVAL
        rows = csv_rows(out)
        assert rows[1][-1] == ""
        assert rows[2][2:5] == ["", "", ""]
        assert "DomainError" in rows[2][-1]

    def test_missing_fn(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--omega", "-1")
        assert code == EXIT_USAGE
        assert "qpolylog: error:" in err

    def test_missing_omega(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--fn", "F", "--n", "0")
        assert code == EXIT_USAGE

    def test_missing_n_for_F(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "F", "--a", "1", "--b", "0",
            "--omega", "-1",
        )
        assert code == EXIT_USAGE
        assert "--n" in err

    def test_index_depth_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--fn", "F", "--a", "1,1", "--b", "0,0", "--n", "0",
            "--omega", "-1",
        )
        assert code == EXIT_USAGE
        assert "depth" in err

    def test_unknown_fn_choice(self, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "--fn", "nope", "--omega", "-1",
        )
        assert code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_USAGE
        assert "subcommand" in err


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


class TestVerifyCommand:
    def test_exact_shuffle_defaults(self, capsys):
        code, payload, err = eval_payload(capsys, "verify", "a3")
        assert code == EXIT_OK
        assert payload["command"] == "verify"
        summary = payload["summary"]
        assert summary["failed"] == 0
        assert summary["checks"] == summary["passed"] >= 1
        for report in payload["results"]:
            assert report["pass"] is True
            assert report["residual"] == 0.0
        assert (
            f"verify: {summary['passed']}/{summary['checks']} checks passed, 0 failed"
            in err
        )

    def test_exact_shuffle_with_args(self, capsys):
        code, payload, _ = eval_payload(capsys, "verify", "a3", "k=2", "l=2")
        assert code == EXIT_OK
        assert all(r["residual"] == 0.0 for r in payload["results"])

    def test_malformed_check_arg(self, capsys):
        code, _, err = run_cli(capsys, "verify", "a3", "k2")
        assert code == EXIT_USAGE
        assert "key=value" in err

    def test_unknown_identity(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "no_such_identity")
        assert code == EXIT_USAGE

    def test_distribution_custom_grid(self, capsys):
        code, payload, _ = eval_payload(
            capsys, "verify", "distribution", "r=2", "s=1",
        )
        assert code == EXIT_OK
        assert payload["summary"]["failed"] == 0
        for report in payload["results"]:
            assert report["params"]["r"] == 2
            assert report["params"]["s"] == 1
            assert report["tolerance"] == 1e-6

    def test_impossible_tolerance_fails(self, capsys):
        code, payload, err = eval_payload(
            capsys, "verify", "distribution", "r=2", "s=1", "--tol", "1e-30",
        )
        assert code == EXIT_VERIFY
        assert payload["summary"]["failed"] >= 1
        assert "failed" in err
        assert any(not r["pass"] for r in payload["results"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "q_calculus", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[0] == ["identity_name", "params", "residual", "tolerance", "pass"]
        assert len(rows) > 1
        assert all(row[4] == "true" for row in rows[1:])

    def test_byte_identical_json(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "q_calculus", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify", "q_calculus", "--seed", "7")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2


# ---------------------------------------------------------------------------
# table subcommand
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, name):
    """Wrap cli.<name> and return the list its calls' batch sizes go to."""
    sizes = []
    inner = getattr(cli, name)

    def counting(*args, **kwargs):
        sizes.append(len(args[1]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    return sizes


class TestBatchedEval:
    """Points that share a run configuration are evaluated as one batch, with
    the records of one-point calls, in order."""

    @pytest.mark.parametrize(
        "batch_fn,args,points",
        [
            ("quad_F_batch", ["--fn", "F", "--a", "1", "--b", "1", "--n", "1", "--hbar", "1.2"],
             ["-1", "-1+2i", "-1+9i", "-0.5+3.5i", "-3"]),
            ("quad_F_batch",
             ["--fn", "F", "--a", "1,1", "--b", "1,1", "--n", "1,2", "--hbar", "1.3", "--tol", "1e-12"],
             ["-1,-0.5", "-1+2i,-0.5", "-1+7.5i,-1", "-2+1i,-1-1i"]),
            ("quad_I_batch", ["--fn", "I", "--a", "1,1", "--b", "1,1", "--n", "1,2", "--hbar", "1.3"],
             ["-1,-0.5", "-0.7+0.2i,-1.1", "-1+9i,-1"]),
            ("companion_sum_I_batch",
             ["--fn", "F", "--a", "1", "--b", "1", "--n", "2", "--hbar", "1.618", "--backend",
              "companion"],
             ["-1", "0.5", "-2", "-0.7+0.4i"]),
            ("companion_sum_I_batch",
             ["--fn", "F", "--a", "1,1", "--b", "1,1", "--n", "1,1", "--hbar", SQRT2, "--backend",
              "companion"],
             ["-2,-1", "-1.5+0.2i,-0.5", "-1,0.5"]),
        ],
    )
    def test_eval_matches_one_point_calls(self, capsys, monkeypatch, batch_fn, args, points):
        singles = [eval_payload(capsys, "eval", *args, "--omega", p) for p in points]
        sizes = count_calls(monkeypatch, batch_fn)
        code, payload, _ = eval_payload(capsys, "eval", *args, "--omega", ";".join(points))
        assert sizes == [len(points)]
        assert payload["results"] == [s[1]["results"][0] for s in singles]
        errors = sum(s[0] == EXIT_EVAL for s in singles)
        assert 0 < errors < len(points)
        assert payload["summary"]["errors"] == errors
        assert code == EXIT_EVAL

    def test_table_omega_sweep_matches_one_point_calls(self, capsys, monkeypatch):
        args = ["--fn", "F", "--a", "1", "--b", "1", "--n", "1", "--hbar", "1.618",
                "--backend", "companion"]
        omegas = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5]
        singles = [eval_payload(capsys, "eval", *args, f"--omega={w!r}")[1]["results"][0]
                   for w in omegas]
        sizes = count_calls(monkeypatch, "companion_sum_I_batch")
        code, out, _ = run_cli(capsys, "table", *args, "--sweep", "omega=-2:0.5:0.5")
        assert sizes == [len(omegas)]
        assert code == EXIT_EVAL
        rows = csv_rows(out)[1:]
        assert [float(row[0]) for row in rows] == omegas
        for row, single in zip(rows, singles):
            if single["error"] is None:
                assert row[1:] == [format_float(single["value"]["re"]),
                                   format_float(single["value"]["im"]),
                                   format_float(single["err_estimate"])]
            else:
                assert row[1:] == ["", "", single["error"]]

    def test_usage_error_in_a_batch_propagates(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--fn", "F", "--a", "1", "--b", "1", "--n", "1",
            "--backend", "companion", "--hbar", "1.618", "--omega", "-1;-1,-2",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "point depth 2" in err
        # the same for a function evaluated point by point
        code, out, err = run_cli(
            capsys, "eval", "--fn", "Li", "--n", "2", "--omega", "0.4;0.5,0.2",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "point depth 2" in err

    @pytest.mark.filterwarnings("error")
    def test_circle_overflow_fails_its_point_alone(self, capsys):
        code, payload, err = eval_payload(
            capsys, "eval", "--fn", "bernoulli", "--backend", "contour", "--a", "2",
            "--b", "1", "--n", "1", "--omega", "0.4;1e6", "--hbar", "1.2",
        )
        assert code == EXIT_EVAL
        assert err == ""
        good, bad = payload["results"]
        assert good["error"] is None
        assert bad["error"] == (
            "DomainError: the integrand overflows on the circle at omega = (1000000+0j)"
        )


class TestTableCommand:
    def test_one_dimensional_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--sweep", "omega=-3:-1:0.5",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[0] == ["omega", "re", "im", "err"]
        assert len(rows) == 6
        assert [row[0] for row in rows[1:]] == ["-3", "-2.5", "-2", "-1.5", "-1"]
        last = rows[-1]
        assert abs(float(last[1]) - ANCHOR) < 1e-10
        assert abs(float(last[2])) < 1e-10
        assert float(last[3]) < 1e-8
        assert all(row[4] == "" if len(row) > 4 else True for row in rows[1:])

    def test_two_dimensional_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1", "--b", "1", "--n", "1",
            "--sweep", "omega=-2:-1:0.5", "--sweep", "hbar=0.8:1.2:0.2",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[0] == ["omega", "hbar", "re", "im", "err"]
        assert len(rows) == 1 + 3 * 3
        # First sweep is the outer loop.
        assert [row[0] for row in rows[1:4]] == ["-2", "-2", "-2"]
        assert [row[1] for row in rows[1:4]] == [
            format_float(0.8), format_float(0.8 + 0.2), format_float(0.8 + 0.4),
        ]
        # Spot-check one cell against a direct evaluation.
        direct = quad_F(MultiIndex((1,), (1,), (1,)), (-2,), 0.8)
        assert abs(float(rows[1][2]) - direct.value.real) < 1e-10
        assert abs(float(rows[1][3]) - direct.value.imag) < 1e-10

    def test_hbar_sweep_of_zeta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--fn", "zeta", "--n", "2",
            "--sweep", "hbar=0.8:1.2:0.2",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[0] == ["hbar", "re", "im", "err"]
        assert len(rows) == 4
        middle = rows[2]
        assert middle[0] == "1"
        assert abs(float(middle[2]) - math.pi / 12) < 1e-10

    def test_error_rows_keep_going(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--fn", "Li", "--n", "2",
            "--sweep", "omega=0.5:2.5:1",
        )
        assert code == EXIT_EVAL
        rows = csv_rows(out)
        assert len(rows) == 4
        assert float(rows[1][3]) < 1e-8  # z = 0.5 evaluates fine
        assert "DomainError" in rows[2][3]
        assert "DomainError" in rows[3][3]
        assert rows[2][1:3] == ["", ""]

    def test_overflow_gives_error_cell(self, capsys):
        # eval turns the same OverflowError into an error record
        code, out, _ = run_cli(
            capsys,
            "table", "--fn", "bernoulli", "--a", "3", "--b", "1", "--n", "1",
            "--hbar", "1.2", "--sweep", "omega=1e200:1e200:1",
        )
        assert code == EXIT_EVAL
        rows = csv_rows(out)
        assert rows[0] == ["omega", "re", "im", "err"]
        assert len(rows) == 2
        assert rows[1][1:3] == ["", ""]
        assert rows[1][3].startswith("OverflowError")

    def test_usage_error_writes_nothing(self, capsys):
        # a missing --n fails every row alike: one usage error, no table
        code, out, err = run_cli(capsys, "table", "--fn", "F", "--sweep", "hbar=1:2:1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--n" in err

    def test_json_format_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--sweep", "omega=-2:-1:0.5", "--format", "json",
        )
        assert code == EXIT_USAGE
        assert "CSV" in err

    def test_zeta_omega_sweep_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--fn", "zeta", "--n", "2", "--sweep", "omega=-2:-1:0.5",
        )
        assert code == EXIT_USAGE
        assert "omega" in err

    def test_requires_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--fn", "F", "--n", "0")
        assert code == EXIT_USAGE

    def test_duplicate_sweep_vars_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--sweep", "omega=-2:-1:0.5", "--sweep", "omega=-4:-3:0.5",
        )
        assert code == EXIT_USAGE
        assert "distinct" in err

    def test_three_sweeps_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--sweep", "omega=-2:-1:0.5", "--sweep", "hbar=1:2:0.5",
            "--sweep", "omega=-4:-3:0.5",
        )
        assert code == EXIT_USAGE

    def test_unknown_sweep_var_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1", "--b", "0", "--n", "0",
            "--sweep", "tol=-2:-1:0.5",
        )
        assert code == EXIT_USAGE
        assert "omega or hbar" in err

    def test_omega_sweep_is_depth_one_only(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1,1", "--b", "0,0", "--n", "0,0",
            "--omega", "-1,-2", "--sweep", "omega=-3:-2:0.5",
        )
        assert code == EXIT_USAGE
        assert "depth-1" in err

    def test_hbar_sweep_allows_deeper_base_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--fn", "F", "--a", "1,1", "--b", "1,1", "--n", "1,1",
            "--omega", "-2,-2", "--sweep", "hbar=0.9:1.1:0.1",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert len(rows) == 4
        assert all(row[3] != "" or row[1] != "" for row in rows[1:])


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "fn": "F", "a": "1", "b": "0", "n": "0", "omega": "-1",
        }))
        code, payload, _ = eval_payload(capsys, "eval", "--config", str(path))
        assert code == EXIT_OK
        assert abs(payload["results"][0]["value"]["re"] - ANCHOR) < 1e-10

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "fn": "F", "a": "1", "b": "0", "n": "0", "omega": "-1",
        }))
        code, payload, _ = eval_payload(
            capsys, "eval", "--config", str(path), "--omega", "-2",
        )
        assert code == EXIT_OK
        assert payload["results"][0]["omega"] == [{"im": 0.0, "re": -2.0}]
        direct = quad_F(MultiIndex((1,), (0,), (0,)), (-2,), 1.0)
        assert abs(payload["results"][0]["value"]["re"] - direct.value.real) < 1e-12

    def test_config_numeric_coercions(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "fn": "F", "a": "1", "b": "0", "n": "0", "omega": "-1",
            "tol": "1e-8", "seed": 7, "workers": 2,
        }))
        code, payload, _ = eval_payload(capsys, "eval", "--config", str(path))
        assert code == EXIT_OK
        assert payload["config"]["tol"] == 1e-8
        assert payload["config"]["seed"] == 7
        assert payload["config"]["workers"] == 2

    def test_config_sweep_list(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "fn": "zeta", "n": "2", "sweep": ["hbar=0.8:1.2:0.2"],
        }))
        code, out, _ = run_cli(capsys, "table", "--config", str(path))
        assert code == EXIT_OK
        assert len(csv_rows(out)) == 4

    def test_config_sweep_must_be_list(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"fn": "zeta", "n": "2", "sweep": "hbar=1:2:1"}))
        code, _, err = run_cli(capsys, "table", "--config", str(path))
        assert code == EXIT_USAGE
        assert "list" in err

    @pytest.mark.parametrize("data, flag", [
        ({"fn": "bogus"}, "--fn"),
        ({"fn": "F", "format": "xml"}, "--format"),
    ])
    def test_config_values_checked_like_flags(self, capsys, tmp_path, data, flag):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "eval", "--a", "1", "--b", "0", "--n", "0", "--omega", "-1",
            "--config", str(path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "eval", "--config", str(tmp_path / "absent.json"),
        )
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "eval", "--config", str(path))
        assert code == EXIT_USAGE
        assert "valid JSON" in err

    def test_non_object_config(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "eval", "--config", str(path))
        assert code == EXIT_USAGE
        assert "JSON object" in err


# ---------------------------------------------------------------------------
# conventions document
# ---------------------------------------------------------------------------


class TestConventionsFlag:
    def test_prints_document(self, capsys):
        code, out, err = run_cli(capsys, "--conventions")
        assert code == EXIT_OK
        assert out.startswith("qpolylog frozen evaluation conventions")
        assert "line-orientation-and-normalization" in out
        assert err == ""

    def test_conventions_ignores_subcommand_requirement(self, capsys):
        # --conventions short-circuits before subcommand validation.
        code, out, _ = run_cli(capsys, "--conventions")
        assert code == EXIT_OK and out
