#!/usr/bin/env python3
"""Regenerate the four benchmark tables as CSV files.

Usage: python scripts/reproduce_tables.py [output-dir]

Emits, per gamma:
  <scheme>_truncation_gamma<g>_<point>.csv   (points: first, third, center)
  <scheme>_global_gamma<g>.csv
and prints each table to stdout on the way.
"""

import pathlib
import sys

from nlcolloc import solver
from nlcolloc.study import (StudyConfig, emit_table, run_global_study,
                            run_truncation_study)

# Every global table solves its systems by LU: load scipy's LAPACK module
# (about 12 ms) with the script rather than inside the first solve.
solver.lapack()

POINT_TAGS = {"first": "first", 1.0 / 3.0: "third", "center": "center"}


def write_truncation_tables(outdir: pathlib.Path) -> None:
    """The truncation-error tables: per scheme, gamma and evaluation point."""
    for scheme in ("plc", "pqc"):
        for gamma in (0.3, 0.7):
            config = StudyConfig(scheme=scheme, gamma=gamma,
                                 levels=(64, 128, 256, 512),
                                 evalPoints=tuple(POINT_TAGS))
            for report, tag in zip(run_truncation_study(config),
                                   POINT_TAGS.values()):
                path = outdir / f"{scheme}_truncation_gamma{gamma:g}_{tag}.csv"
                text = emit_table(report, "csv")
                path.write_text(text)
                print(f"# {path} ({report.label})")
                print(text)


def write_global_tables(outdir: pathlib.Path) -> None:
    """The global-error tables: per scheme and gamma."""
    for scheme in ("plc", "pqc"):
        for gamma in (0.0, 0.3, 0.7):
            config = StudyConfig(scheme=scheme, gamma=gamma,
                                 levels=(16, 32, 64, 128))
            report = run_global_study(config)
            path = outdir / f"{scheme}_global_gamma{gamma:g}.csv"
            text = emit_table(report, "csv")
            path.write_text(text)
            print(f"# {path}")
            print(text)


def main(argv):
    outdir = pathlib.Path(argv[1] if len(argv) > 1 else "tables")
    outdir.mkdir(parents=True, exist_ok=True)
    write_truncation_tables(outdir)
    write_global_tables(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
