#!/usr/bin/env python3
"""Quick self-test of the benchmark; takes about a minute.

Runs every workload once untraced and once traced, with --seconds 1 and
--quick (large_solve at n = 255), and checks that each run prints every
metric BENCHMARK.json names, that no operation failed, and that on
tables and large_solve the traced spans cover the operation.  Last, it
checks that the benchmark exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and bench/.

Usage: python3 bench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Share of a traced operation's wall time that no layer's span may miss.
MAX_UNATTRIBUTED = 0.05


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace) -> list:
    proc = bench(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no result line; stderr: {proc.stderr[-500:]}"]
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        problems.append(f"metric names differ: {set(result['metrics']) ^ want}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"ops_failed: {result['failed']} of {result['attempted']}")
        problems += [ln for ln in lines if ln.startswith("# FAILED")]
    if trace and workload != "cli_cold" and not problems:
        value = {k: m["value"] for k, m in result["metrics"].items()}
        traced_wall = value["trace.self_sum_s"] + value["trace.unattributed_s"]
        if value["trace.unattributed_s"] > MAX_UNATTRIBUTED * traced_wall:
            problems.append(f"spans miss {value['trace.unattributed_s']:.4f} s "
                            f"of {traced_wall:.4f} s")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in problems))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "tables", 0)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failed |= not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the "
          f"library (exit code {proc.returncode})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
