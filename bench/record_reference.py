#!/usr/bin/env python3
"""Record bench/reference.json from the code in this checkout.

The references were recorded once from the seed code and are frozen:
every operation of every later run is checked against them.  Re-record
only when an output is meant to change, and say so in that change.

Usage: python3 bench/record_reference.py
"""

import json
import tempfile
from pathlib import Path

import run

# large_solve accuracy is stored as upper bounds, not exact values, so an
# equally accurate solver (a Krylov method, say) still passes.
ERROR_SLACK = 1.5
RESIDUAL_BOUND = 1e-11


def main():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        runner = run.Runner(Path(tmp))
        run.warm_up(runner)
        cli = {}
        for command in run.CLI_COMMANDS:
            proc = runner.python("-m", "nlcolloc.cli", *command.split())
            cli[command] = {"exit": proc.rc,
                            "stdout_sha256": run.sha256(proc.stdout)}
        outdir = Path(tmp) / "tables"
        outdir.mkdir()
        proc, _ = runner.child("tables", str(outdir), "0")
        if proc.rc != 0:
            raise SystemExit(proc.stderr.decode())
        tables = {p.name: run.sha256(p.read_bytes())
                  for p in sorted(outdir.glob("*.csv"))}
        solve = {}
        for quick in (False, True):
            for gamma in run.GAMMAS:
                proc, data = runner.child("solve", gamma, "0",
                                          *run.SOLVE_CASES[quick])
                if proc.rc != 0:
                    raise SystemExit(proc.stderr.decode())
                for key, got in data["checks"].items():
                    solve[key] = {
                        "max_error": float(f"{got['max_error'] * ERROR_SLACK:.3e}"),
                        "rel_residual": RESIDUAL_BOUND,
                        "recorded_max_error": got["max_error"],
                        "recorded_rel_residual": got["rel_residual"]}
    reference = {"cli": cli, "tables": tables, "solve": solve}
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1)
                                              + "\n")


if __name__ == "__main__":
    main()
