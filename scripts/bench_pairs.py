#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and record the result.

Usage: python3 scripts/bench_pairs.py PARENT_REF --out FILE

Checks PARENT_REF out as a git worktree under the ignored .bench_work/,
then runs `python3 <checkout>/bench/run.py --workload W --seconds S`, with
S the run_seconds of BENCHMARK.json and run.py's default seed, in that
worktree and in this checkout, 10 pairs for each workload of
BENCHMARK.json, one process at a time.  Pair i runs the parent first when
i is even and the change first when it is odd.  Each run's last line of
standard output is its JSON result (correct, attempted, failed, metrics).

Writes FILE (by convention BENCH_<n>.json at the root of the repository)
after every pair, so an interrupted series still leaves the pairs it
finished.  It holds the machine, and for each workload and end-to-end
metric of BENCHMARK.json both medians, the parent's quartiles, each pair's
change/parent ratio and the pairs the change won (a tie counts for neither
side), together with every run's attempted and failed operations.  A run
with failed operations is kept and marked, never dropped.  The worktree is removed at the end, also on
error, Ctrl-C or SIGTERM.  Only the standard library is imported.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SIDES = ("parent", "change")
PAIRS = 10


def last_json_line(stdout: str):
    """The JSON object on the last non-empty line of stdout, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def pair_order(i: int):
    """The sides of pair i in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def summarize(parent, change, better: str) -> dict:
    """Statistics of one metric over pairs: parent[i] and change[i] are the
    values of pair i, None where that run gave none.  better is "lower" or
    "higher"."""
    whole = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    parent_values = [p for p in parent if p is not None]
    change_values = [c for c in change if c is not None]
    sign = 1 if better == "lower" else -1
    return {
        "better": better,
        "parent_median": (statistics.median(parent_values)
                          if parent_values else None),
        "change_median": (statistics.median(change_values)
                          if change_values else None),
        "parent_quartiles": (
            statistics.quantiles(parent_values, n=4, method="inclusive")[::2]
            if len(parent_values) > 1 else None),
        "ratios": [c / p if p else None for p, c in whole],
        "pairs": len(whole),
        "pairs_won": sum(1 for p, c in whole if sign * (p - c) > 0),
        "pairs_lost": sum(1 for p, c in whole if sign * (c - p) > 0),
    }


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"),
         "--workload", workload, "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True)
    result = last_json_line(proc.stdout)
    run = {"exit": proc.returncode}
    if result is None:
        run.update(attempted=0, failed=None, marked_failed=True,
                   metrics=None, error=proc.stderr.strip()[-2000:])
        return run
    run.update(attempted=result["attempted"], failed=result["failed"],
               marked_failed=bool(result["failed"]) or not result["correct"],
               metrics={k: m["value"] for k, m in result["metrics"].items()})
    return run


def machine() -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def report(runs, metrics) -> dict:
    """The per-workload record from runs[w][side] (lists over pairs)."""
    out = {}
    for workload, sides in runs.items():
        def values(side, name):
            return [r["metrics"].get(name) if r["metrics"] else None
                    for r in sides[side]]
        out[workload] = {
            "metrics": {m["name"]: dict(unit=m["unit"], bound=m["bound"],
                                        **summarize(values("parent", m["name"]),
                                                    values("change", m["name"]),
                                                    m["better"]))
                        for m in metrics},
            "runs": [dict(pair=i, side=side, first=pair_order(i)[0] == side,
                          **sides[side][i])
                     for i in range(len(sides["change"]))
                     for side in pair_order(i)],
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON record to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    parent_commit = git("rev-parse", "--verify", args.parent_ref + "^{commit}")
    header = {
        "parent": {"ref": args.parent_ref, "commit": parent_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "machine": machine(),
        "settings": {"pairs": PAIRS, "seconds": seconds,
                     "command": "python3 <checkout>/bench/run.py "
                     "--workload W --seconds S"},
    }
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    # SIGTERM unwinds like Ctrl-C: through subprocess.run, which kills the
    # running child, and through the finally that removes the worktree
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    worktree = WORK / f"parent-{parent_commit[:12]}"
    WORK.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(worktree), parent_commit)
    try:
        checkouts = {"parent": worktree, "change": ROOT}
        for workload in workloads:
            for i in range(PAIRS):
                for side in pair_order(i):
                    run = run_once(checkouts[side], workload, seconds)
                    runs[workload][side].append(run)
                    print(f"{workload} pair {i} {side}: exit {run['exit']}, "
                          f"{run['failed']} of {run['attempted']} ops failed",
                          flush=True)
                args.out.write_text(json.dumps(
                    {**header, "workloads": report(runs, spec["end_to_end"])},
                    indent=1) + "\n")
    finally:
        git("worktree", "remove", "--force", str(worktree))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
