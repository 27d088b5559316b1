"""End-to-end tests of the command-line interface via its main() entry."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from legnu import cli, legendre
from legnu.cli import TARGETS, main
from legnu.legendre import d2p_dnu2_0, d3p_dnu3_0, dp_dnu0, legendre_p, maclaurin_p
from legnu.verify import GridSpec, IdentityReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_p_where(monkeypatch, fails):
    """Make the CLI's `legendre_p` flag its result as a series that did not
    converge (``converged=False``, an infinite estimate) wherever
    ``fails(z)``.  Callers keep z interior, so these tests do not rest on
    the series' failure near z = -1."""
    exact = legendre_p

    def fake(nu, z):
        r = exact(nu, z)
        return r._replace(abs_err_est=math.inf, converged=False) if fails(z) else r

    monkeypatch.setattr(cli, "legendre_p", fake)


class TestEval:
    def test_d2_at_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--what", "d2", "--z", "1")
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_d1_at_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--what", "d1", "--z", "1")
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_p_terminating_series(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--what", "p", "--nu", "1", "--z", "0.25")
        assert code == 0
        assert out.strip() == "0.25"

    def test_value_has_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--what", "d1", "--z", "0")
        assert code == 0
        assert out.strip() == "-0.6931471805599453"

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--what", "d1", "--z", "-2")
        assert code == 2
        assert "error" in err

    def test_nonconvergence_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--what", "p", "--nu", "0.5", "--z", "-0.9999")
        assert code == 3 and out == ""
        assert err == "error: series did not converge at nu=0.5 z=-0.9999\n"

    def test_nonconvergence_at_an_interior_point_exits_3(self, capsys, monkeypatch):
        fail_p_where(monkeypatch, lambda z: True)
        code, out, err = run_cli(capsys, "eval", "--what", "p", "--nu", "0.5", "--z", "0.3")
        assert code == 3 and out == ""
        assert err == "error: series did not converge at nu=0.5 z=0.3\n"

    def test_usage_error_exits_2(self, capsys):
        assert main(["eval", "--what", "bogus", "--z", "0.5"]) == 2
        capsys.readouterr()
        assert main(["eval", "--what", "maclaurin", "--z", "0.5", "--order", "7"]) == 2
        capsys.readouterr()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--what", "maclaurin", "--nu", "0.1",
                               "--z", "0.5", "--order", "2", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["what"] == "maclaurin"
        assert rec["order"] == 2
        assert isinstance(rec["value"], float)

    @pytest.mark.parametrize("what", TARGETS)
    def test_csv_format(self, capsys, what):
        code, out, _ = run_cli(capsys, "eval", "--what", what, "--nu", "0.3", "--z", "0.5",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "what,nu,z,order,value"
        assert len(lines) == 2
        # eval and tabulate share one evaluator per target
        value = lines[1].split(",")[-1]
        code, out, _ = run_cli(capsys, "tabulate", "--what", what, "--nu", "0.3",
                               "--z-start", "0", "--z-end", "0.5", "--count", "2")
        assert code == 0
        assert out.splitlines()[-1] == f"0.5,ok,{value}"


class TestTabulate:
    def test_three_point_grid_d2(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "0", "--z-end", "1",
                               "--count", "3", "--what", "d2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z,status,d2"
        assert lines[-1] == "1.0,ok,0.0"

    def test_degree_zero_gives_ones_column(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "-0.5", "--z-end", "1",
                               "--count", "5", "--what", "p", "--nu", "0")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith(",ok,1.0")

    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--count", "101", "--what", "d1")
        assert code == 0
        assert len(out.splitlines()) == 102  # header + rows

    def test_rows_ascend_in_z(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--count", "11", "--what", "d1",
                               "--spacing", "chebyshev")
        zs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert zs == sorted(zs)

    def test_multi_target_json(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "0", "--z-end", "1",
                               "--count", "3", "--what", "d1,d2", "--what", "p",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 3
        assert list(doc["records"][0]) == ["z", "status", "p", "d1", "d2"]

    def test_unknown_target(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--what", "q")
        assert code == 2
        assert "unknown target" in err

    @pytest.mark.parametrize("what", [",", ""])
    def test_empty_target_list_exits_2(self, capsys, what):
        code, out, err = run_cli(capsys, "tabulate", "--what", what, "--count", "3")
        assert code == 2
        assert out == ""
        assert "no target given" in err

    def test_z_start_shift_warns(self, capsys):
        code, out, err = run_cli(capsys, "tabulate", "--z-start", "-1", "--z-end", "0",
                                 "--count", "2", "--what", "d2")
        assert code == 0
        assert "shifted" in err
        assert float(out.splitlines()[1].split(",")[0]) == -1.0 + 1e-9

    def test_nonconverged_rows_are_marked(self, capsys):
        # both grid points sit so close to -1 that the series hits its term
        # cap; values are still printed, the status column flags them, and
        # an all-failed table exits 3
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "-0.99999",
                               "--z-end", "-0.99998", "--count", "2",
                               "--what", "p", "--nu", "0.5")
        assert code == 3
        for line in out.splitlines()[1:]:
            assert line.split(",")[1] == "nonconverged"

    def test_partial_nonconvergence_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "-0.99999",
                               "--z-end", "0.5", "--count", "2",
                               "--what", "p", "--nu", "0.5")
        assert code == 0
        statuses = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert statuses == ["nonconverged", "ok"]

    def test_interior_nonconverged_rows_are_marked(self, capsys, monkeypatch):
        fail_p_where(monkeypatch, lambda z: True)
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "-0.5", "--z-end", "0.5",
                               "--count", "3", "--what", "p,d1", "--nu", "0.5")
        assert code == 3
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["nonconverged"] * 3

    def test_partial_interior_nonconvergence_still_exits_zero(self, capsys, monkeypatch):
        fail_p_where(monkeypatch, lambda z: z < 0.0)
        code, out, _ = run_cli(capsys, "tabulate", "--z-start", "-0.5", "--z-end", "0.5",
                               "--count", "3", "--what", "p", "--nu", "0.5")
        assert code == 0
        statuses = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert statuses == ["nonconverged", "ok", "ok"]

    def test_determinism(self, capsys):
        args = ("tabulate", "--count", "101", "--what", "p,d1,d2,d3,maclaurin",
                "--nu", "0.3")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Calls so far of each closed form, in the order d1, d2, d3.  Every
    binding of each is wrapped, as the bench tracer does, so that a call
    through any module is counted."""
    calls = dict.fromkeys(("dp_dnu0", "d2p_dnu2_0", "d3p_dnu3_0"), 0)
    modules = [m for n, m in sys.modules.items() if n == "legnu" or n.startswith("legnu.")]
    for name in calls:
        original = getattr(legendre, name)

        def counting(z, _name=name, _original=original):
            calls[_name] += 1
            return _original(z)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


class TestRowPath:
    @pytest.mark.parametrize("spacing", ["uniform", "chebyshev"])
    @pytest.mark.parametrize("what", ["maclaurin", "d1,d2,d3,maclaurin",
                                      "d2,maclaurin", "p,d3,maclaurin"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_maclaurin_column_matches_maclaurin_p(self, capsys, order, what, spacing):
        # every column is its public function bit for bit, whichever d columns
        # the maclaurin column finds in its row; the grid crosses z = 1/2,
        # where d3 switches branch
        nu = -0.37
        code, out, _ = run_cli(capsys, "tabulate", "--what", what, "--nu", str(nu),
                               "--order", str(order), "--z-start", "-0.999",
                               "--z-end", "1", "--count", "41", "--spacing", spacing)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 41
        assert min(float(r["z"]) for r in rows) < 0.5 < max(float(r["z"]) for r in rows)
        public = {"p": lambda z: legendre_p(nu, z).value, "d1": dp_dnu0, "d2": d2p_dnu2_0,
                  "d3": d3p_dnu3_0, "maclaurin": lambda z: maclaurin_p(nu, z, order)}
        for r in rows:
            z = float(r["z"])
            assert list(r) == ["z", "status", *what.split(",")]
            for t in what.split(","):
                assert float(r[t]) == public[t](z), (t, z)

    @pytest.mark.parametrize("what, order, expected", [
        ("p,d1,d2,d3,maclaurin", 3, (1, 1, 1)),
        ("maclaurin", 3, (1, 1, 1)),
        ("d3", 3, (0, 0, 1)),
        # maclaurin reuses the d columns of its row and computes the others
        ("d2,maclaurin", 3, (1, 1, 1)),
        ("d3,maclaurin", 1, (1, 0, 1)),
        ("d1,d2", 3, (1, 1, 0)),
    ], ids=["p,d1,d2,d3,maclaurin-expected0", "maclaurin-expected1", "d3-expected2",
            "d2,maclaurin-order3", "d3,maclaurin-order1", "d1,d2-order3"])
    def test_each_closed_form_is_called_once_per_row(self, capsys, closed_form_calls, what,
                                                      order, expected):
        code, _, _ = run_cli(capsys, "tabulate", "--what", what, "--nu", "0.3",
                             "--order", str(order), "--count", "23")
        assert code == 0
        assert tuple(closed_form_calls.values()) == tuple(23 * n for n in expected)

    def test_eval_maclaurin_calls_the_closed_forms_up_to_its_order(self, capsys,
                                                                   closed_form_calls):
        code, _, _ = run_cli(capsys, "eval", "--what", "maclaurin", "--nu", "0.3",
                             "--z", "0.2", "--order", "2")
        assert code == 0
        assert tuple(closed_form_calls.values()) == (1, 1, 0)

    @pytest.mark.parametrize("argv, code, message", [
        (("tabulate", "--what", "d1", "--nu", "7"), 0, None),
        (("tabulate", "--what", "maclaurin", "--nu", "7"), 2, "degree must satisfy"),
        (("tabulate", "--what", "maclaurin", "--order", "0", "--z-end", "1.5"), 2,
         "argument must lie"),
        (("eval", "--what", "d3", "--nu", "7", "--z", "0.5"), 0, None),
        (("eval", "--what", "maclaurin", "--nu", "0.2", "--z", "2"), 2, "argument must lie"),
        # both out of domain: the first target's own check fails first
        (("tabulate", "--what", "p,d1", "--nu", "7", "--z-start", "1.2", "--z-end", "1.5"),
         2, "degree must satisfy"),
        (("tabulate", "--what", "d1,maclaurin", "--nu", "7", "--z-start", "1.2",
          "--z-end", "1.5"), 2, "argument must lie"),
    ])
    def test_domain_checks_per_target(self, capsys, argv, code, message):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if message is None:
            assert err == ""
        else:
            assert out == ""
            assert err.startswith(f"error: {message}")


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7  # six reports plus the summary
        assert lines[-1] == "6/6 identities passed"
        assert err == ""

    def test_subnoise_tolerance_fails(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tol", "euler=1e-16")
        assert code == 1
        assert "euler_reflection" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 6
        assert all(rec["passed"] for rec in doc["records"])

    def test_json_document(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--format", "json")
        parsed = json.loads(out)
        assert set(parsed) == {"records"}
        assert len(parsed["records"]) == 6
        for rec in parsed["records"]:
            assert list(rec) == [
                "identity_id", "samples", "max_residual", "mean_residual",
                "argmax_location", "tolerance", "passed",
            ]
            assert IdentityReport(**rec)._asdict() == rec

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("identity_id,samples,max_residual")
        assert len(lines) == 7

    def test_bad_tolerance_syntax(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tol", "euler")
        assert code == 2 and "IDENTITY=VALUE" in err
        code, _, err = run_cli(capsys, "verify", "--tol", "euler=notanumber")
        assert code == 2
        for bad in ("ode_base=inf", "euler=-1", "euler=nan"):
            code, _, err = run_cli(capsys, "verify", "--tol", bad)
            assert code == 2 and "tolerance must be positive and finite" in err

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tol", "sphere=1e-6")
        assert code == 2
        assert "unknown identity" in err

    def test_ambiguous_identity_prefix(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--tol", "ode=1e-6")
        assert code == 2 and out == ""
        assert err == ("error: ambiguous identity prefix 'ode': "
                       "matches ode_base, ode_deriv2, ode_deriv3\n")


@pytest.fixture(scope="module")
def study():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["truncation-study", "--nu-start", "0.05", "--nu-end", "0.1",
                     "--nu-count", "2", "--count", "50"])
    assert code == 0
    rows = {}
    for line in buf.getvalue().splitlines()[1:]:
        nu, order, status, err = line.split(",")
        rows[(float(nu), int(order))] = (status, float(err))
    return rows


class TestTruncationStudy:
    def test_error_hierarchy(self, study):
        for nu in (0.05, 0.1):
            errs = [study[(nu, k)][1] for k in range(4)]
            assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_fourth_order_ratio(self, study):
        ratio = study[(0.1, 3)][1] / study[(0.05, 3)][1]
        assert 12.0 <= ratio <= 20.0

    def test_degree_zero_row_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "truncation-study", "--nu-start", "0",
                               "--nu-end", "0.1", "--nu-count", "2", "--count", "10")
        assert code == 0
        for line in out.splitlines()[1:]:
            nu, order, status, err = line.split(",")
            if float(nu) == 0.0:
                assert float(err) == 0.0

    def test_errors_match_maclaurin_p(self, capsys):
        code, out, _ = run_cli(capsys, "truncation-study", "--nu-start", "-0.2",
                               "--nu-end", "0.2", "--nu-count", "3", "--z-start", "-0.8",
                               "--count", "7", "--format", "json")
        assert code == 0
        zs = GridSpec(-0.8, 1.0, 7).points()
        records = json.loads(out)["records"]
        assert len(records) == 12 and records[4]["nu"] == 0.0
        for rec in records:
            nu, order = rec["nu"], rec["order"]
            expected = max(abs(maclaurin_p(nu, z, order) - legendre_p(nu, z).value)
                           for z in zs)
            assert rec["max_abs_err"] == expected

    def test_nonconverged_reference_is_marked(self, capsys, monkeypatch):
        # one interior point that did not converge marks every row of its degree
        fail_p_where(monkeypatch, lambda z: z == 0.0)
        code, out, _ = run_cli(capsys, "truncation-study", "--nu-start", "0.05",
                               "--nu-end", "0.1", "--nu-count", "2", "--z-start", "-0.5",
                               "--z-end", "0.5", "--count", "3")
        assert code == 3
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 8 and all(row[2] == "nonconverged" for row in rows)

    def test_degree_grid_bound(self, capsys):
        code, _, err = run_cli(capsys, "truncation-study", "--nu-start", "-0.6",
                               "--nu-end", "0.1")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("tabulate", "--count", "7", "--what", "p,d1,d3", "--nu", "0.3",
     "--z-start", "-0.5"),
    ("truncation-study", "--nu-count", "3", "--count", "5"),
], ids=["tabulate", "truncation-study"])
def test_pretty_table_layout(capsys, argv):
    # the csv cells laid out by hand: each column left-justified to its widest
    # cell, header included, two spaces apart, trailing blanks stripped
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    cells = list(csv.reader(io.StringIO(out_csv)))
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    expected = "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in cells
    )
    code1, out1, _ = run_cli(capsys, *argv, "--format", "pretty")
    code2, out2, _ = run_cli(capsys, *argv, "--format", "pretty")
    assert code1 == code2 == 0
    assert out1 == expected
    assert out1 == out2  # byte-identical across runs
    assert all(line == line.rstrip() for line in out1.splitlines())


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


_PROBES = {
    "import": "import legnu, legnu.cli",
    "eval": "import legnu.cli; legnu.cli.main(['eval', '--what', 'd3', '--z', '0.3'])",
    "tabulate": "import legnu.cli; legnu.cli.main(['tabulate', '--what', 'p,d1,d2,d3,maclaurin', "
                "'--count', '11', '--spacing', 'chebyshev'])",
    "truncation-study": "import legnu.cli; legnu.cli.main(['truncation-study', '--count', '11'])",
    "verify": "import legnu.cli; legnu.cli.main(['verify'])",
}


def _fresh(*args: str, env: dict | None = None, text: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports legnu from src,
    with ``env`` added to its environment; output as str or, if not ``text``,
    as bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})


def _probe_output(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter."""
    run = _fresh("-c", code)
    run.check_returncode()
    return run.stdout


@pytest.mark.parametrize("probe", list(_PROBES))
@pytest.mark.parametrize("module", ["scipy.integrate", "numpy"])
def test_no_command_path_loads_module(module, probe):
    # the package needs nothing outside the standard library: numpy is a
    # test extra, and quadrature is the package's own rule
    out = _probe_output(f"import sys; {_PROBES[probe]}; print({module!r} in sys.modules)")
    assert out.split()[-1] == "False"


def test_no_path_loads_scipy():
    # quadrature is the package's own G10-K21 rule; the suite and the integral
    # oracle are the only callers
    out = _probe_output(
        "import sys, legnu.cli; legnu.cli.main(['verify']); "
        "legnu.dilog_integral_oracle(0.5, 1e-12); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", [["tabulate", "--what", "p,d1,d2,d3,maclaurin"],
                                     ["verify", "--format", "json"]])
def test_output_is_byte_identical_across_interpreters(command):
    # two interpreters with different string hashing, each compiling the
    # kernels' series tables afresh at import
    runs = [_fresh("-m", "legnu.cli", *command, env={"PYTHONHASHSEED": seed}, text=False)
            for seed in ("0", "1")]
    for run in runs:
        run.check_returncode()
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_infinite_grid_end_is_one_error_line():
    # the grid rejects the span itself: numpy would warn on it and make nan points
    run = _fresh("-m", "legnu.cli", "tabulate", "--what", "d1", "--z-end", "inf", "--count", "3")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.splitlines() == ["error: grid requires start < end a finite distance "
                                       "apart, got [-0.9, inf]"]


@pytest.mark.parametrize("tol, message", [
    ("euler", "--tol expects IDENTITY=VALUE, got 'euler'"),
    ("euler=abc", "bad tolerance value in 'euler=abc'"),
    ("sphere=1e-6", "unknown identity 'sphere'; expected one of ode_base, ode_deriv2, "
                    "ode_deriv3, euler_reflection, dilog_antiderivative, li2_over_1mz_integral "
                    "or a unique prefix"),
    ("ode=1e-6", "ambiguous identity prefix 'ode': matches ode_base, ode_deriv2, ode_deriv3"),
])
def test_bad_verify_tolerance_is_one_error_line(tol, message):
    # every usage error reaches main's one DomainError handler: exit 2, no traceback
    run = _fresh("-m", "legnu.cli", "verify", "--tol", tol)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.splitlines() == [f"error: {message}"]


def test_huge_finite_grid_span_is_one_error_line():
    # a finite span whose last step passes the float range: the grid must not
    # warn, so the argument check's error is all that is printed
    run = _fresh("-m", "legnu.cli", "tabulate", "--what", "d1", "--z-start", "0",
                 "--z-end", "1.7976931348623157e308", "--count", "25")
    assert run.returncode == 2 and run.stdout == ""
    assert len(run.stderr.splitlines()) == 1 and "Warning" not in run.stderr
