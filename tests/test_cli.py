"""Command-line surface: parsing, exit codes, config files, determinism."""

import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nlcolloc
from nlcolloc import cli


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestUsageErrors:
    def test_gamma_out_of_range_names_flag(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "1.2", "--levels", "16")
        assert status == 2
        assert "--gamma" in err

    def test_gamma_not_a_number(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "zero", "--levels", "16")
        assert status == 2
        assert "--gamma" in err

    def test_unknown_command(self, capsys):
        status, _, err = run_cli(capsys, "integrate", "--scheme", "plc")
        assert status == 2

    def test_empty_levels(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", ",")
        assert status == 2
        assert "--levels" in err

    def test_missing_scheme(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--gamma", "0.5",
                                 "--levels", "16")
        assert status == 2
        assert "--scheme" in err

    def test_bad_point(self, capsys):
        status, _, err = run_cli(capsys, "truncation", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", "16",
                                 "--point", "middle")
        assert status == 2
        assert "--point" in err

    def test_bad_interval(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", "16",
                                 "--interval", "1,0")
        assert status == 2
        assert "--interval" in err

    @pytest.mark.parametrize("command, argv", [
        ("check", ("--scheme", "pqc", "--levels", "8",
                   "--interval=-1e308,1e308")),
        ("coeffs", ("--scheme", "pqc", "--levels", "8",
                    "--interval=-1e308,1e308")),
        ("converge", ("--scheme", "plc", "--levels", "8",
                      "--interval=1,1.0000000000000004")),
        # the nodes resolve at N = 2 but not at N = 8192
        ("coeffs", ("--scheme", "plc", "--levels", "2,8192",
                    "--interval=1,1.000000000001")),
    ])
    def test_unresolvable_grid_is_usage_error(self, capsys, command, argv):
        status, out, err = run_cli(capsys, command, "--gamma", "0.5", *argv)
        assert status == 2
        assert "--interval" in err and "need" in err
        assert out == ""

    def test_separate_non_numeric_negative_value(self, capsys):
        # -inf,0 as its own token reaches the grid's rule, not argparse's
        # "expected one argument"
        status, _, err = run_cli(capsys, "check", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", "8",
                                 "--interval", "-inf,0")
        assert status == 2
        assert "--interval: need finite a, b" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("converge", "--levels", "1"),
        ("coeffs", "--levels", "9000"),      # above coeffs.MAX_CELLS
        ("converge", "--levels", "16,24"),   # levels do not nest
        ("truncation", "--point", "x=2"),    # outside --interval 0,1
        ("coeffs", "--interval", "0,inf"),
        ("check", "--interval", "-inf,0"),
        ("converge", "--interval", "nan,1"),
        ("converge", "--scheme", "fem"),
        ("coeffs", "--format", "html"),
        ("truncation", "--function", "sin"),
    ])
    def test_invalid_values_name_flag(self, capsys, tmp_path, command, flag,
                                      value):
        valid = {"--scheme": "plc", "--gamma": "0.5", "--levels": "16"}
        # a repeated flag overrides the earlier one
        argv = [tok for item in valid.items() for tok in item]
        status, _, err = run_cli(capsys, command, *argv, f"{flag}={value}")
        assert status == 2
        assert flag in err
        # the same value from a config line, with the flag left off
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag[2:]} = {value}\n")
        argv = [tok for item in valid.items() if item[0] != flag
                for tok in item]
        status, _, err = run_cli(capsys, command, *argv, "--config",
                                 str(config))
        assert status == 2
        assert flag in err


class TestCoeffs:
    def test_gamma_zero_interior_weights_all_two(self, capsys):
        status, out, _ = run_cli(capsys, "coeffs", "--scheme", "plc",
                                 "--gamma", "0", "--levels", "8")
        assert status == 0
        lines = out.splitlines()
        start = lines.index("[g]") + 2       # skip the index,value header
        g_values = []
        for line in lines[start:]:
            if line.startswith("["):
                break
            g_values.append(float(line.split(",")[1]))
        assert g_values and all(v == 2.0 for v in g_values)

    def test_pqc_tables_listed(self, capsys):
        status, out, _ = run_cli(capsys, "coeffs", "--scheme", "pqc",
                                 "--gamma", "0.5", "--levels", "4")
        assert status == 0
        for name in ("[m]", "[p]", "[q]", "[n]", "[beta]", "[gamma]",
                     "[d_half]"):
            assert name in out


class TestCheck:
    def test_plc_report_fields(self, capsys):
        status, out, _ = run_cli(capsys, "check", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", "64")
        assert status == 0
        assert "spdFactorizationOk = true" in out
        assert "diagPositive = true" in out
        assert "offDiagNegative = true" in out

    def test_pqc_not_symmetric(self, capsys):
        status, out, _ = run_cli(capsys, "check", "--scheme", "pqc",
                                 "--gamma", "0.7", "--levels", "16")
        assert status == 0
        assert "symmetric = false" in out
        assert "spdFactorizationOk = n/a" in out

    def test_row_sums_correctly_rounded(self, capsys):
        # the exact minimum row sum is 6.41211601374909e-03; summing the
        # dense matrix in floating point gave 6.41211601375069e-03, printed
        # as 6.4121160138e-03
        status, out, _ = run_cli(capsys, "check", "--scheme", "pqc",
                                 "--gamma", "0.7", "--levels", "128",
                                 "--interval=-1,3")
        assert status == 0
        assert "rowSums = min 6.4121160137e-03, " in out


class TestStudies:
    def test_truncation_center_fourth_order(self, capsys):
        status, out, _ = run_cli(capsys, "truncation", "--scheme", "pqc",
                                 "--gamma", "0.7", "--point", "center",
                                 "--levels", "16,32,64")
        assert status == 0
        orders = [float(ln.split(",")[3]) for ln in out.splitlines()[2:]]
        assert all(abs(o - 4.0) < 0.2 for o in orders)

    def test_converge_markdown(self, capsys):
        status, out, _ = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "0", "--levels", "8,16",
                                 "--format", "markdown")
        assert status == 0
        assert out.startswith("| N | h |")

    def test_negative_interval_as_separate_value(self, capsys):
        args = ("converge", "--scheme", "plc", "--gamma", "0.3",
                "--levels", "8")
        status, joined, _ = run_cli(capsys, *args, "--interval=-1,3")
        assert status == 0
        status, separate, _ = run_cli(capsys, *args, "--interval", "-1,3")
        assert status == 0
        assert separate == joined

    def test_converge_near_gamma_one_on_wide_interval(self, capsys):
        # needs Gauss-Jacobi weights accurate near gamma = 1: with them off
        # by 1e-10, successive doubling levels never agreed to 1e-13
        status, _, err = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "0.95", "--levels", "64",
                                 "--interval=-1,3")
        assert status == 0, err

    @pytest.mark.xfail(strict=True, reason=(
        "the oracle's left exponential series cancels on long intervals: on "
        "(0, 20) it is off by up to 8.6e-10 relative, so the "
        "Gauss-Jacobi-vs-series gate, 100 tol + 2e-14 |I|, rejects every "
        "node (ROADMAP item 2)"))
    def test_converge_on_long_interval(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--scheme", "pqc",
                                 "--gamma", "0.3", "--levels", "16,32",
                                 "--interval=0,20")
        assert status == 0, err


def printed_rows(out):
    """(N, h, error, order) of each row of a converge table in CSV, order
    None where none is printed."""
    return [(row[0], row[1], float(row[2]), float(row[3]) if row[3] else None)
            for row in (line.split(",") for line in out.splitlines()[1:])]


class TestSilentWrongAnswers:
    """Inputs that exit 0 with a wrong result: each must either fail with
    exit 1 or print a right one (ROADMAP item 19)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 19: f = u K - I cancels when K = 1/(1 - gamma) is "
        "about 9e15, so the printed error is 3.3297e+03"))
    def test_gamma_next_below_one(self, capsys):
        status, out, _ = run_cli(capsys, "converge", "--scheme", "plc",
                                 "--gamma", "0.9999999999999999",
                                 "--levels", "8")
        assert status == 1 or all(row[2] < 1.0 for row in printed_rows(out))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2, an item 19 example: the study floor is absolute, so "
        "roundoff of values near 1e6 prints as orders -1.8074 and -1.6521; "
        "a floor scaled to u would print none, as on (0, 1)"))
    def test_exact_quadratic_far_from_zero(self, capsys):
        # PQC reproduces a quadratic u exactly: on (0, 1) the same call
        # prints errors of 4e-16 to 1.2e-15 and no order
        status, out, _ = run_cli(capsys, "converge", "--scheme", "pqc",
                                 "--gamma", "0.5", "--function", "quadratic",
                                 "--levels", "4,8,16", "--interval=1000,1001")
        assert status == 0
        assert [row[3] for row in printed_rows(out)] == [None] * 3


@pytest.mark.parametrize("command", ["truncation", "converge"])
def test_overflow_is_a_numerical_failure(command):
    # e^720 overflows float64: one error line, no warning or traceback
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nlcolloc.cli", command, "--scheme", "plc",
         "--gamma", "0.5", "--levels", "8", "--interval=700,720"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


@pytest.mark.parametrize("scheme", ["plc", "pqc"])
def test_non_finite_truncation_error_is_a_numerical_failure(capsys, scheme):
    # the cell moments (5e292)^(3-gamma) overflow: the rows once read nan,
    # with numpy's warnings and exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli(
            capsys, "truncation", "--scheme", scheme, "--gamma", "0",
            "--levels", "2,4", "--interval=1e300,1.0000001e300",
            "--function", "const")
    assert (status, out) == (1, "")
    assert err == ("error: the interpolant integral at x=1.00000005e+300 "
                   "is not finite\n")


def _sweep_argvs():
    """Command lines over every command, scheme, gamma, level list, interval
    and (for the studies) function; the point and format take turns."""
    intervals = ((0.0, 1.0), (-1.0, 3.0), (0.0, 1e-310), (-3e-320, 3e-320),
                 (1e300, 1.0000001e300), (0.0, 700.0), (-1e-5, 1e-5))
    turns = itertools.cycle(itertools.product(("center", "first", "x"),
                                              ("csv", "markdown")))
    for command, scheme, gamma, levels, (a, b), function in itertools.product(
            cli.COMMANDS, ("plc", "pqc"), ("0", "0.3", "0.95"),
            ("2", "2,4", "8,16"), intervals, tuple(cli._FUNCTIONS)):
        if command in ("coeffs", "check") and function != "exp":
            continue                     # they read no function
        point, fmt = next(turns)
        if point == "x":
            point = f"x={a + (b - a) / 3!r}"
        yield [command, "--scheme", scheme, "--gamma", gamma,
               "--levels", levels, f"--interval={a!r},{b!r}",
               "--function", function, "--point", point, "--format", fmt]


def test_exit_contract_sweep(capsys):
    # every call exits 0, 1 or 2 without an exception or a warning, and a
    # table that exits 0 holds no nan or inf
    failures = []
    for argv in _sweep_argvs():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                status, out, _ = run_cli(capsys, *argv)
            except Exception as exc:
                status, out = repr(exc), capsys.readouterr().out
        if status not in (0, 1, 2):
            failures.append((argv, status))
        elif caught:
            failures.append((argv, str(caught[0].message)))
        elif status == 0 and re.search(r"\b(nan|inf)\b", out):
            failures.append((argv, "nan or inf in the output"))
    assert not failures, (len(failures), failures[:5])


class TestDeterminismAndIo:
    ARGS = ("truncation", "--scheme", "plc", "--gamma", "0.3",
            "--point", "first", "--levels", "8,16")

    def test_identical_invocations_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        status, out, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert status == 0
        assert target.read_text() == out

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        status, _, err = run_cli(capsys, "coeffs", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", "2",
                                 "--out", str(target))
        assert status == 2
        assert "--out" in err
        assert "Traceback" not in err

    def test_config_file_equivalent_to_flags(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "scheme = plc\ngamma = 0.3\npoint = first\nlevels = 8,16\n")
        _, out_flags, _ = run_cli(capsys, *self.ARGS)
        _, out_config, _ = run_cli(capsys, "truncation",
                                   "--config", str(config))
        assert out_flags == out_config

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scheme = plc\ngamma = 0.9\nlevels = 8,16\n")
        status, out, _ = run_cli(capsys, "truncation", "--config", str(config),
                                 "--gamma", "0.3", "--point", "first")
        assert status == 0
        _, out_flags, _ = run_cli(capsys, *self.ARGS)
        assert out == out_flags

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mesh = 8\n")
        status, _, err = run_cli(capsys, "converge", "--config", str(config),
                                 "--scheme", "plc", "--gamma", "0.5",
                                 "--levels", "8")
        assert status == 2
        assert "mesh" in err

    def test_missing_config_file(self, capsys):
        status, _, err = run_cli(capsys, "converge", "--config",
                                 "/nonexistent.cfg", "--scheme", "plc",
                                 "--gamma", "0.5", "--levels", "8")
        assert status == 2
        assert "--config" in err

    def test_config_not_utf8_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"scheme = plc\n# caf\xe9 (Latin-1)\n")
        status, _, err = run_cli(capsys, "converge", "--config", str(config),
                                 "--gamma", "0.5", "--levels", "8")
        assert status == 2
        assert "--config" in err

    def test_config_with_byte_order_mark(self, capsys, tmp_path):
        # some editors start a UTF-8 file with U+FEFF; it is not part of the
        # first key
        config = tmp_path / "run.cfg"
        config.write_text("\ufeffscheme = plc\ngamma = 0.3\npoint = first\n"
                          "levels = 8,16\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "truncation", "--config",
                                   str(config))
        assert status == 0, err
        _, out_flags, _ = run_cli(capsys, *self.ARGS)
        assert out == out_flags

    def test_config_read_as_utf8_in_any_locale(self, capsys, tmp_path):
        # the C locale's preferred encoding is ASCII; the file is UTF-8
        config = tmp_path / "run.cfg"
        config.write_text("# café\nscheme = plc\ngamma = 0.3\npoint = first\n"
                          "levels = 8,16\n", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "nlcolloc.cli", "truncation", "--config",
             str(config)], env=env, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 0, done.stderr
        _, out_flags, _ = run_cli(capsys, *self.ARGS)
        assert done.stdout == out_flags


@pytest.fixture(scope="module")
def scipy_after_cli_commands():
    """The scipy modules loaded after importing nlcolloc and running each
    CLI command once, in a fresh interpreter."""
    code = ("import contextlib, io, sys\n"
            "from nlcolloc import cli\n"
            "for command in cli.COMMANDS:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = cli.main([command, '--scheme', 'pqc', "
            "'--gamma', '0.7', '--levels', '8,16'])\n"
            "    assert status == 0, command\n"
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        pytest.fail(f"the commands did not run:\n{done.stderr}")
    return done.stdout.split()


def test_cli_commands_load_no_scipy_special(scipy_after_cli_commands):
    # the Gauss-Jacobi seeds are Jacobi-matrix eigenvalues, not roots_jacobi
    assert [m for m in scipy_after_cli_commands
            if m.split(".")[:2] == ["scipy", "special"]] == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "converge solves by LU, which loads scipy and its LAPACK module through "
    "solver.lapack(): ROADMAP items 15 and 3 let numpy's LU replace it, and "
    "item 10 then makes numpy the only runtime dependency"))
def test_cli_commands_load_no_scipy(scipy_after_cli_commands):
    assert scipy_after_cli_commands == []


# the CLI calls of the cli_cold benchmark that solve nothing by LU, the
# last a usage error (gamma >= 1)
NO_LU_COMMANDS = (
    "coeffs --scheme pqc --gamma 0.7 --levels 64",
    "check --scheme plc --gamma 0.7 --levels 64",
    "truncation --scheme pqc --gamma 0.7 --point center --levels 64,128",
    "converge --scheme pqc --gamma 1.5 --levels 16",
)


def test_commands_without_lu_solves_load_no_scipy():
    # only an LU solve loads scipy, through solver.lapack(), at about 12 ms;
    # the oracle's Gauss-Jacobi seeds come from numpy alone
    code = ("import contextlib, io, sys\n"
            "from nlcolloc import cli\n"
            "loaded = lambda: [m for m in sys.modules "
            "if m.split('.')[0] == 'scipy']\n"
            "print(loaded())\n"
            f"for command in {[c.split() for c in NO_LU_COMMANDS]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        status = cli.main(command)\n"
            "    print(status, loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "0 []", "0 []", "0 []", "2 []"]
