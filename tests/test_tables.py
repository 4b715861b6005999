"""The tables of scripts/reproduce_tables.py and the outputs of the CLI
commands against their recorded checksums in bench/reference.json.

The truncation tables use no linear solve, so they do not depend on the
BLAS thread count and are written in this process.  The global tables
and the CLI commands print LU roundoff, so they run in a child process
pinned to one BLAS and OpenMP thread, as the benchmark that recorded them
runs.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())
# one BLAS and OpenMP thread, and the library from this checkout
PINNED = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
              PYTHONPATH=os.pathsep.join(
                  [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def expected_tables(kind):
    return {name: digest for name, digest in REFERENCE["tables"].items()
            if f"_{kind}_" in name}


def assert_written_as_recorded(outdir, expected):
    assert sorted(p.name for p in outdir.iterdir()) == sorted(expected)
    for name, digest in expected.items():
        got = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_truncation_tables_match_reference(tmp_path):
    expected = expected_tables("truncation")
    assert len(expected) == 12
    with contextlib.redirect_stdout(io.StringIO()):
        load_script().write_truncation_tables(tmp_path)
    assert_written_as_recorded(tmp_path, expected)


def test_global_tables_match_reference(tmp_path):
    expected = expected_tables("global")
    assert len(expected) == 6
    code = ("import pathlib, sys; sys.path.insert(0, sys.argv[1]); "
            "import reproduce_tables; "
            "reproduce_tables.write_global_tables(pathlib.Path(sys.argv[2]))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts"), str(tmp_path)],
        env=PINNED, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert_written_as_recorded(tmp_path, expected)


def test_tables_and_converge_leave_scipy_linalg_unloaded(tmp_path):
    # the script loads scipy's LAPACK module at start-up, and the tables and
    # a converge call solve by LU, all without importing the scipy.linalg
    # package (about 0.17 s)
    code = ("import contextlib, importlib.util, io, sys\n"
            "spec = importlib.util.spec_from_file_location("
            "'reproduce_tables', sys.argv[1])\n"
            "script = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(script)\n"
            "loaded = lambda: [name in sys.modules for name in "
            "('scipy.linalg._flapack', 'scipy.linalg')]\n"
            "print(*loaded())\n"
            "from nlcolloc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    script.main(['', sys.argv[2]])\n"
            "    status = cli.main(['converge', '--scheme', 'pqc', "
            "'--gamma', '0.7', '--levels', '16,32'])\n"
            "print(status, *loaded())\n")
    done = subprocess.run(
        [sys.executable, "-c", code,
         str(ROOT / "scripts" / "reproduce_tables.py"), str(tmp_path)],
        env=PINNED, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "0", "True", "False"]


@pytest.mark.parametrize("command", sorted(REFERENCE["cli"]))
def test_cli_output_matches_reference(command):
    expected = REFERENCE["cli"][command]
    done = subprocess.run(
        [sys.executable, "-m", "nlcolloc.cli", *command.split()],
        env=PINNED, capture_output=True, timeout=300)
    assert done.returncode == expected["exit"], done.stderr
    got = hashlib.sha256(done.stdout).hexdigest()
    assert got == expected["stdout_sha256"], done.stdout
