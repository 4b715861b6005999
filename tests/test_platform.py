"""Platform independence: the results must not rest on x87 long double."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the acceptance criteria and the CLI check that a float64 long double fails
SELECTED = ("criterion_4 or criterion_5 or criterion_7 "
            "or row_sums_correctly_rounded")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the weights and the oracle compute in numpy's long double, which is "
    "plain float64 on MSVC and Apple arm64: criteria 4, 5 and 7 and the "
    "CLI check's row sums fail there (ROADMAP item 9)"))
def test_results_hold_with_float64_long_double():
    # Emulates numpy's long double only: libm differences in the last bit
    # are not emulated.
    code = ("import sys, numpy, pytest\n"
            "numpy.longdouble = numpy.float64\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
            "'tests/test_acceptance.py', 'tests/test_cli.py', "
            f"'-k', {SELECTED!r}]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    summary = (done.stdout.splitlines() or [""])[-1]
    counts = [int(k) for k in re.findall(r"(\d+) (?:passed|failed)", summary)]
    if done.returncode not in (0, 1) or sum(counts) != 4:
        pytest.fail(f"the selected tests did not run:\n{done.stdout}{done.stderr}")
    assert done.returncode == 0, done.stdout
