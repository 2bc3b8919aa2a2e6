"""Golden-file style checks for every CLI command; reports must be
byte-identical across runs on identical input."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ssderiv.cli import main
from ssderiv.numtheory import decimal_to_int, int_to_decimal

from helpers import fibonacci_pair


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def hyperbolic(tmp_path):
    path = tmp_path / "hyperbolic.txt"
    path.write_text(
        "vars: x y\n"
        "weights: 1 -1\n"
        "images: x^2*y\n"
        "images: -x*y^2\n"
        "query: x*y + x\n"
    )
    return str(path)


@pytest.fixture
def coprime(tmp_path):
    path = tmp_path / "coprime.txt"
    path.write_text("vars: x y\nweights: 2 -3\n")
    return str(path)


def problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# 335-digit weights: Euclid takes ~1600 steps on consecutive Fibonacci numbers
F1601, F1602 = fibonacci_pair(1601)
FIBONACCI_WEIGHTS = (F1601, -F1602)


@pytest.fixture
def fibonacci(tmp_path):
    return problem(tmp_path, "vars: x y\nweights: %d %d\n" % FIBONACCI_WEIGHTS)


class TestDecompose:
    def test_golden(self, hyperbolic):
        code, out, err = run_cli("decompose", "--file", hyperbolic)
        assert code == 0 and err == ""
        assert out == "command: decompose x*y + x\n0: x*y\n1: x\n"

    def test_expr_flag_overrides_query(self, hyperbolic):
        code, out, _ = run_cli("decompose", "--file", hyperbolic, "--expr", "y^-2")
        assert code == 0
        assert out == "command: decompose y^-2\n2: y^-2\n"

    def test_coefficient_beyond_the_digit_limit(self, coprime):
        code, out, err = run_cli("decompose", "--file", coprime, "--expr=3^10000*x")
        assert code == 0 and err == ""
        first, second = out.splitlines()
        coefficient = first.removeprefix("command: decompose ").removesuffix("*x")
        assert decimal_to_int(coefficient) == 3**10000
        assert second == f"2: {coefficient}*x"

    def test_zero_polynomial(self, hyperbolic):
        code, out, _ = run_cli("decompose", "--file", hyperbolic, "--expr", "0")
        assert code == 0
        assert out == "command: decompose 0\n(zero polynomial)\n"

    def test_unknown_variable_is_input_error(self, hyperbolic):
        code, out, err = run_cli("decompose", "--file", hyperbolic, "--expr", "x*z")
        assert code == 2 and out == ""
        assert "unknown variable 'z'" in err

    def test_deterministic(self, hyperbolic):
        first = run_cli("decompose", "--file", hyperbolic)
        second = run_cli("decompose", "--file", hyperbolic)
        assert first == second


class TestSlice:
    def test_faithful(self, coprime):
        code, out, _ = run_cli("slice", "--file", coprime)
        assert code == 0
        assert out == (
            "command: slice\n"
            "g: 1\n"
            "m: 2 1\n"
            "s: x^2*y\n"
            "f: 1\n"
            "D(s) = s\n"
        )

    def test_non_faithful_warns(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 4 6\n")
        code, out, _ = run_cli("slice", "--file", path)
        assert code == 0
        assert out == (
            "command: slice\n"
            "g: 2\n"
            "m: -1 1\n"
            "s: x^-1*y\n"
            "f: x\n"
            "D(s) = 2*s\n"
            "warning: action factors through t -> t^2\n"
        )

    def test_huge_weights(self, fibonacci):
        code, out, err = run_cli("slice", "--file", fibonacci)
        assert code == 0 and err == ""
        (m_line,) = [line for line in out.splitlines() if line.startswith("m: ")]
        m = [int(e) for e in m_line[3:].split()]
        assert sum(e * w for e, w in zip(m, FIBONACCI_WEIGHTS)) == 1

    def test_weights_beyond_the_digit_limit(self, tmp_path):
        w = int_to_decimal(3**10000)
        path = problem(tmp_path, f"vars: x y\nweights: {w} -{w}\n")
        code, out, err = run_cli("slice", "--file", path)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[1] == f"g: {w}"
        assert lines[2] == "m: 1 0"
        assert lines[5] == f"D(s) = {w}*s"
        assert lines[6] == f"warning: action factors through t -> t^{w}"
        code, out, err = run_cli("decompose", "--file", path, "--expr", "x - y")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [f"-{w}: -y", f"{w}: x"]
        code, out, err = run_cli("kernel", "--file", path, "--localized")
        assert (code, out) == (2, "")
        assert err == (
            f"error: no slice exists: gcd of weights is {w}, localized kernel needs D(s) = s\n"
        )

    def test_zero_derivation_is_input_error(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 0 0\n")
        code, _, err = run_cli("slice", "--file", path)
        assert code == 2
        assert "no nonzero weights" in err


class TestKernel:
    def test_in_B_default(self, hyperbolic):
        code, out, _ = run_cli("kernel", "--file", hyperbolic)
        assert code == 0
        assert out == "command: kernel --in-B\nx*y\n"

    def test_in_B_constants_only(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 1 1\n")
        code, out, _ = run_cli("kernel", "--file", path, "--in-B")
        assert code == 0
        assert out == "command: kernel --in-B\n(constants only)\n"

    def test_localized_huge_weights(self, fibonacci):
        code, out, err = run_cli("kernel", "--file", fibonacci, "--localized")
        assert code == 0 and err == ""
        assert out.startswith("command: kernel --localized\ns: ")

    def test_localized(self, coprime):
        code, out, _ = run_cli("kernel", "--file", coprime, "--localized")
        assert code == 0
        assert out == (
            "command: kernel --localized\n"
            "s: x^2*y\n"
            "u1 = x^-3*y^-2\n"
            "u2 = x^6*y^4\n"
        )

    def test_localized_with_renamed_variables(self, coprime):
        code, out, _ = run_cli("kernel", "--file", coprime, "--localized", "--uvars", "a b")
        assert code == 0
        assert "a = x^-3*y^-2" in out and "b = x^6*y^4" in out

    def test_localized_needs_faithful_action(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 4 6\n")
        code, _, err = run_cli("kernel", "--file", path, "--localized")
        assert code == 2
        assert "gcd of weights is 2" in err

    def test_brute(self, coprime):
        code, out, _ = run_cli("kernel", "--file", coprime, "--brute", "5")
        assert code == 0
        assert out == "command: kernel --brute 5\n1\nx^3*y^2\n"

    def test_brute_weights_beyond_64_bits(self, tmp_path):
        path = problem(
            tmp_path, "vars: x y\nweights: 9223372036854775808 -9223372036854775808\n"
        )
        code, out, err = run_cli("kernel", "--file", path, "--brute", "4")
        assert code == 0 and err == ""
        assert out == "command: kernel --brute 4\n1\nx*y\nx^2*y^2\n"

    @pytest.mark.parametrize(
        "degree, kernel", [("0", ""), ("2", "x0*x1\n")], ids=["degree-0", "degree-2"]
    )
    def test_brute_many_variables(self, tmp_path, degree, kernel):
        # one level per variable: far more than Python's recursion limit
        n = 1200
        names = " ".join(f"x{i}" for i in range(n))
        weights = " ".join(["1", "-1"] + ["2"] * (n - 2))
        path = problem(tmp_path, f"vars: {names}\nweights: {weights}\n")
        code, out, err = run_cli("kernel", "--file", path, "--brute", degree)
        assert code == 0 and err == ""
        assert out == f"command: kernel --brute {degree}\n1\n{kernel}"

    @pytest.mark.parametrize(
        "mode", [("--in-B",), ("--brute", "3"), ()], ids=["in-B", "brute", "default"]
    )
    def test_uvars_only_with_localized(self, hyperbolic, mode):
        code, out, err = run_cli("kernel", "--file", hyperbolic, *mode, "--uvars", "a b c d")
        assert code == 2 and out == ""
        assert err == "error: --uvars applies only to --localized\n"


class TestCheck:
    def test_aD_nonconstant(self, hyperbolic):
        code, out, _ = run_cli("check", "aD", "--file", hyperbolic, "--expr", "x*y")
        assert code == 0
        assert out == "command: check aD\naD semisimple: NO (a not constant)\n"

    def test_aD_constant(self, hyperbolic):
        code, out, _ = run_cli("check", "aD", "--file", hyperbolic, "--expr", "3")
        assert code == 0
        assert out == "command: check aD\naD semisimple: YES (a constant)\n"

    def test_aD_outside_kernel_is_input_error(self, hyperbolic):
        code, _, err = run_cli("check", "aD", "--file", hyperbolic, "--expr", "x")
        assert code == 2
        assert "not in ker" in err

    def test_conjugate(self, tmp_path):
        path = problem(
            tmp_path,
            "vars: x y\nweights: 1 3\nphi: x\nphi: y + x^2\npsi: x\npsi: y - x^2\n",
        )
        code, out, _ = run_cli("check", "conjugate", "--file", path)
        assert code == 0
        assert out == (
            "command: check conjugate\n"
            "D'(x) = x\n"
            "D'(y) = x^2 + 3*y\n"
            "eigenvector check PASS\n"
        )

    def test_conjugate_requires_phi_psi(self, coprime):
        code, _, err = run_cli("check", "conjugate", "--file", coprime)
        assert code == 2
        assert "phi" in err

    def test_locfin_witness(self, hyperbolic):
        code, out, _ = run_cli("check", "locfin", "4", "--file", hyperbolic)
        assert code == 0
        assert out == (
            "command: check locfin 4\n"
            "NOT locally finite: witness x -> x^2*y -> x^3*y^2 -> x^4*y^3\n"
        )

    def test_locfin_locally_finite(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 1 -1\nimages: x\nimages: -y\n")
        code, out, _ = run_cli("check", "locfin", "3", "--file", path)
        assert code == 0
        assert out == (
            "command: check locfin 3\n"
            "locally finite: span dims 1 1\n"
            "span(x): x\n"
            "span(y): y\n"
        )

    def test_locfin_requires_bound_and_images(self, hyperbolic, coprime):
        code, _, err = run_cli("check", "locfin", "--file", hyperbolic)
        assert code == 2 and "bound" in err
        code, _, err = run_cli("check", "locfin", "4", "--file", coprime)
        assert code == 2 and "images" in err

    @pytest.mark.parametrize("law", ["leibniz", "conjugate", "aD"])
    def test_bound_only_for_locfin(self, hyperbolic, law):
        code, out, err = run_cli("check", law, "3", "--file", hyperbolic)
        assert code == 2 and out == ""
        assert err == f"error: check {law} takes no bound argument\n"

    def test_leibniz(self, coprime):
        code, out, _ = run_cli("check", "leibniz", "--file", coprime)
        assert code == 0
        assert out == "command: check leibniz\nleibniz diagonal: PASS (6 pairs)\n"

    def test_leibniz_includes_general(self, hyperbolic):
        code, out, _ = run_cli("check", "leibniz", "--file", hyperbolic)
        assert code == 0
        assert "leibniz diagonal: PASS" in out
        assert "leibniz general: PASS" in out


def test_internal_failure_exits_one(coprime, monkeypatch):
    import ssderiv.cli as cli_module

    def broken(_):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_module, "build_slice", broken)
    code, out, err = run_cli("slice", "--file", coprime)
    assert code == 1 and out == ""
    assert "internal error" in err


def test_wrong_bezout_coefficients_exit_one(coprime, monkeypatch):
    import ssderiv.slices as slices_module
    from ssderiv.numtheory import BezoutResult

    def wrong(weights):
        return BezoutResult(1, (0,) * len(weights))

    monkeypatch.setattr(slices_module, "bezout_multi", wrong)
    code, out, err = run_cli("slice", "--file", coprime)
    assert code == 1 and out == ""
    message = "the Bezout coefficients do not combine the weights to their gcd"
    assert err == f"internal error: {message}\n"


def test_unknown_finiteness_verdict_exits_one(hyperbolic, monkeypatch):
    import ssderiv.cli as cli_module

    monkeypatch.setattr(cli_module, "local_finiteness_probe", lambda d, bound: "no verdict")
    code, out, err = run_cli("check", "locfin", "4", "--file", hyperbolic)
    assert code == 1 and out == ""
    assert err == "internal error: unknown finiteness verdict 'no verdict'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--file", None, "--expr=--"),
        ("kernel", "--file", None, "--brute=--"),
        ("kernel", "--file", None, "--localized", "--uvars=--"),
        ("slice", "--file=--"),
    ],
    ids=["expr", "brute", "uvars", "file"],
)
def test_dashes_as_an_option_value_exit_two(coprime, argv):
    """argparse before Python 3.13 stores the value "--" as an empty list;
    the CLI refuses it as a usage error, never an internal one."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([coprime if arg is None else arg for arg in argv])
        except SystemExit as exc:
            code = exc.code
    assert code == 2
    assert "internal error" not in err.getvalue()


def test_import_leaves_numpy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ssderiv, ssderiv.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


class TestProblemFile:
    def test_missing_file(self):
        code, _, err = run_cli("slice", "--file", "/nonexistent/problem.txt")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("argv", [("--file=",), ("--file", "")])
    def test_empty_path_is_refused_by_name(self, argv):
        """An empty path names no file; read as a path it would be the
        current directory."""
        code, out, err = run_cli("slice", *argv)
        assert code == 2 and out == ""
        assert err == "error: --file: the problem file path is empty\n"

    def test_unknown_key(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 1 -1\ncolor: blue\n")
        code, _, err = run_cli("slice", "--file", path)
        assert code == 2
        assert "unknown key 'color'" in err

    def test_weight_count_mismatch(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 1\n")
        code, _, err = run_cli("slice", "--file", path)
        assert code == 2
        assert "expected 2 weights" in err

    def test_bad_expression_reports_file_line(self, tmp_path):
        path = problem(tmp_path, "vars: x y\nweights: 1 -1\nquery: x^^2\n")
        code, _, err = run_cli("decompose", "--file", path)
        assert code == 2
        assert ":3:" in err

    def test_deep_nesting_is_input_error(self, tmp_path):
        deep = "(" * 600 + "x" + ")" * 600
        path = problem(tmp_path, f"vars: x y\nweights: 1 -1\nquery: {deep}\n")
        code, out, err = run_cli("decompose", "--file", path)
        assert code == 2 and out == ""
        assert f"{path}:3: parentheses nested more than 200 deep" in err

    def test_deep_nesting_in_expr_flag_is_input_error(self, hyperbolic):
        deep = "(" * 2000 + "x" + ")" * 2000
        code, out, err = run_cli("decompose", "--file", hyperbolic, "--expr", deep)
        assert code == 2 and out == ""
        assert err.startswith("error: parentheses nested more than 200 deep")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = problem(tmp_path, "# a fixture\n\nvars: x y\nweights: 1 -1\n")
        code, _, _ = run_cli("slice", "--file", path)
        assert code == 0
