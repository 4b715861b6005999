#!/usr/bin/env python3
"""Time the stages of the large global solves, untraced.

Usage: OPENBLAS_NUM_THREADS=1 python scripts/stage_times.py [gamma] [repeats]

For PLC N=4096 and PQC N=2048 (n = 4095 unknowns each, u = e^x on (0, 1),
oracle tolerance 1e-13) prints the median wall time in ms of each stage:
right-hand side, assemble, solve_dense and check_structure.  The last
column is the tracemalloc peak in MB of assemble -> solve_dense ->
check_structure, measured in one further run.  Nothing reads
`system.matrix`, so a stage that forms the dense matrix shows it here;
none does on these dominant systems, and check_structure reads only the
Toeplitz generators, in O(n).
"""

import statistics
import sys
import time
import tracemalloc

from nlcolloc import oracle, solver
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.study import SCHEMES

CASES = (("plc", 4096), ("pqc", 2048))


def stages(scheme, params, grid):
    """Wall time in seconds of each stage of one solve."""
    t = [time.perf_counter()]
    problem = oracle.exact_nonlocal_rhs(oracle.exponential(), grid, params,
                                        nodes=scheme, tol=1e-13)
    t.append(time.perf_counter())
    system = SCHEMES[scheme].assemble(params, grid, problem)
    t.append(time.perf_counter())
    solver.solve_dense(system)
    t.append(time.perf_counter())
    solver.check_structure(system)
    t.append(time.perf_counter())
    return [b - a for a, b in zip(t, t[1:])]


def peak_mb(scheme, params, grid):
    problem = oracle.exact_nonlocal_rhs(oracle.exponential(), grid, params,
                                        nodes=scheme, tol=1e-13)
    tracemalloc.start()
    system = SCHEMES[scheme].assemble(params, grid, problem)
    solver.solve_dense(system)
    solver.check_structure(system)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def main(argv):
    gamma = float(argv[1]) if len(argv) > 1 else 0.7
    repeats = int(argv[2]) if len(argv) > 2 else 3
    params = KernelParams(gamma)
    print("case,rhs_ms,assemble_ms,solve_ms,check_ms,peak_mb")
    for scheme, N in CASES:
        grid = UniformGrid(0.0, 1.0, N)
        runs = [stages(scheme, params, grid) for _ in range(repeats)]
        medians = [1e3 * statistics.median(stage) for stage in zip(*runs)]
        print(f"{scheme}:N={N}," + ",".join(f"{t:.1f}" for t in medians)
              + f",{peak_mb(scheme, params, grid):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
