#!/usr/bin/env python3
"""Time the stages of the large global solves and of truncation-error
evaluation, untraced.

Usage: OPENBLAS_NUM_THREADS=1 python scripts/stage_times.py [gamma] [repeats]

For PLC N=4096 and PQC N=2048 (n = 4095 unknowns each, u = e^x on (0, 1),
oracle tolerance oracle.ORACLE_TOL) prints the wall time in ms of each stage:
weight tables, right-hand side, assemble (its own weight tables included),
solve_dense and check_structure.  Each stage shows the median over the
repeats and, after a slash, the first repeat: the first repeat of a case
pays first-use costs that the median hides, such as Gauss-Jacobi rules not
yet cached (rules are cached per process, so the PQC case starts with the
rules that the PLC case built).  The last two columns come from one further
run: the tracemalloc peak in MB of assemble -> solve_dense ->
check_structure, and the number of dense LU solves (`solver._solve_lu`
calls) in its solve_dense.  These systems lie above
solver.KRYLOV_MIN_UNKNOWNS, so 0 means GMRES accepted the solution and 1
that it gave up and the dense LU solved the system, as it does at gamma =
0.999.  Nothing reads `system.matrix`, so a stage that forms the dense
matrix shows it here; on dominant systems solved by GMRES none does, and
check_structure reads only the Toeplitz generators, in O(n).

Then prints the same median/first pair in ms for the right-hand side alone
(`exact_nonlocal_rhs`, u = e^x on (0, 1)) at PLC N = 2**17, above
coeffs.MAX_CELLS, which does not apply: the oracle builds no weight table.

Then, for PLC and PQC at N=512 and the points a+h, 1/3 and the centre of
(0, 1), prints the same median/first pair in ms for the two halves of one
truncation error |I - I_k|: the interpolant's integral
(`interpolant_integral`, all cells in one moment pass) and the oracle's
I(a, b, x) at that point (`singular_integral`).

Last, for PLC and PQC, prints the same median/first pair in ms for a whole
study of each kind that scripts/reproduce_tables.py runs, at this gamma: the
global ladder N = 16 .. 128 and the truncation ladder N = 64 .. 512 at the
points a+h, 1/3 and the centre.  Its last column counts the oracle calls
(calls of the batched integral `oracle._singular_integrals`, through which
every oracle value passes) that one run of the study makes.
"""

import statistics
import sys
import time
import tracemalloc

from nlcolloc import oracle, solver
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.study import (SCHEMES, StudyConfig, run_global_study,
                            run_truncation_study)

CASES = (("plc", 4096), ("pqc", 2048))
TRUNCATION_N = 512
# The ladders of scripts/reproduce_tables.py: (name, study, config fields).
STUDIES = (("global", run_global_study, {"levels": (16, 32, 64, 128)}),
           ("truncation", run_truncation_study,
            {"levels": (64, 128, 256, 512),
             "evalPoints": ("first", 1.0 / 3.0, "center")}))


def stages(scheme, params, grid):
    """Wall time in seconds of each stage of one solve."""
    t = [time.perf_counter()]
    SCHEMES[scheme].weights(params, grid)
    t.append(time.perf_counter())
    problem = oracle.exact_nonlocal_rhs(oracle.exponential(), grid, params,
                                        nodes=scheme)
    t.append(time.perf_counter())
    system = SCHEMES[scheme].assemble(params, grid, problem)
    t.append(time.perf_counter())
    solver.solve_dense(system)
    t.append(time.perf_counter())
    solver.check_structure(system)
    t.append(time.perf_counter())
    return [b - a for a, b in zip(t, t[1:])]


def peak_mb_and_lu_calls(scheme, params, grid):
    """The tracemalloc peak in MB of one assemble -> solve_dense ->
    check_structure, and the dense LU solves in its solve_dense."""
    problem = oracle.exact_nonlocal_rhs(oracle.exponential(), grid, params,
                                        nodes=scheme)
    tracemalloc.start()
    system = SCHEMES[scheme].assemble(params, grid, problem)
    lu_calls = calls(solver, "_solve_lu", solver.solve_dense, system)
    solver.check_structure(system)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20, lu_calls


def truncation_stages(scheme, params, grid, x):
    """Wall time in seconds of the interpolant integral and of the oracle
    at x."""
    u = oracle.exponential()
    samples = u(SCHEMES[scheme].lattice(grid))
    t0 = time.perf_counter()
    SCHEMES[scheme].interpolant_integral(params, grid, samples, x)
    t1 = time.perf_counter()
    oracle.singular_integral(u, (grid.a, grid.b), params, x)
    return t1 - t0, time.perf_counter() - t1


def wall_time(run, *args):
    """Wall time in seconds of one run(*args)."""
    t0 = time.perf_counter()
    run(*args)
    return time.perf_counter() - t0


def calls(module, name, run, *args):
    """Calls of module.name during run(*args)."""
    count = 0
    original = getattr(module, name)

    def counted(*inner, **kwargs):
        nonlocal count
        count += 1
        return original(*inner, **kwargs)

    setattr(module, name, counted)
    try:
        run(*args)
    finally:
        setattr(module, name, original)
    return count


def timings(runs, digits):
    """'median/first' in ms for each stage of a list of per-run times."""
    return ",".join(f"{1e3 * statistics.median(stage):.{digits}f}"
                    f"/{1e3 * stage[0]:.{digits}f}" for stage in zip(*runs))


def main(argv):
    gamma = float(argv[1]) if len(argv) > 1 else 0.7
    repeats = int(argv[2]) if len(argv) > 2 else 3
    params = KernelParams(gamma)
    print("case,weights_ms,rhs_ms,assemble_ms,solve_ms,check_ms,peak_mb,"
          "lu_calls")
    for scheme, N in CASES:
        grid = UniformGrid(0.0, 1.0, N)
        runs = [stages(scheme, params, grid) for _ in range(repeats)]
        peak, lu_calls = peak_mb_and_lu_calls(scheme, params, grid)
        print(f"{scheme}:N={N},{timings(runs, 1)},{peak:.1f},{lu_calls}")
    print("case,rhs_ms")
    grid = UniformGrid(0.0, 1.0, 2 ** 17)
    runs = [[wall_time(oracle.exact_nonlocal_rhs, oracle.exponential(), grid,
                       params)] for _ in range(repeats)]
    print(f"plc:N={grid.N},{timings(runs, 1)}")
    print("case,x,interpolant_ms,oracle_ms")
    grid = UniformGrid(0.0, 1.0, TRUNCATION_N)
    for scheme in ("plc", "pqc"):
        for tag, x in (("a+h", grid.h), ("1/3", 1.0 / 3.0), ("centre", 0.5)):
            runs = [truncation_stages(scheme, params, grid, x)
                    for _ in range(repeats)]
            print(f"{scheme}:N={TRUNCATION_N},{tag},{timings(runs, 2)}")
    print("case,study_ms,oracle_calls")
    for scheme in ("plc", "pqc"):
        for name, run, fields in STUDIES:
            config = StudyConfig(scheme, gamma, **fields)
            runs = [[wall_time(run, config)] for _ in range(repeats)]
            levels = config.levels
            print(f"{scheme}:{name}:N={levels[0]}..{levels[-1]},"
                  f"{timings(runs, 2)},"
                  f"{calls(oracle, '_singular_integrals', run, config)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
