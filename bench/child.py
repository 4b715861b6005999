"""One benchmark operation, run in a fresh interpreter by bench/run.py.

Usage: python child.py MODE RESULT_JSON [ARGS...]

Modes:
  info                   import nlcolloc, numpy and scipy; report versions
  probe                  import nlcolloc and stop: a set-up probe
  tables OUTDIR TRACE    reproduce_tables.main() into OUTDIR
  solve GAMMA TRACE SCHEME:N [SCHEME:N ...]
                         manufacture -> assemble -> solve_dense ->
                         check_structure for each case, u = e^x on (0, 1)
  cli ARGS...            nlcolloc.cli.main(ARGS) with tracing on

The child writes one JSON object to RESULT_JSON.  `first_call` is a
CLOCK_MONOTONIC stamp taken just before the first timed call; the parent
stamps the spawn on the same system-wide clock, so their difference is
the set-up time.  With TRACE=1 the public functions of each nlcolloc
module are wrapped from here, so the library itself is unchanged.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORACLE_TOL = 1e-13

# (module, public function) -> layer.  Every `*_s` layer metric is self
# time: a span's duration minus the spans it encloses.
LAYERS = {
    ("coeffs", "plc_weights"): "coeffs.weights",
    ("coeffs", "pqc_weights"): "coeffs.weights",
    ("oracle", "singular_integral"): "oracle.singular_integral",
    ("oracle", "exact_nonlocal_rhs"): "oracle.rhs",
    ("plc", "interpolant_integral"): "moments.interp",
    ("pqc", "interpolant_integral"): "moments.interp",
    ("plc", "assemble_plc_system"): "plc.assemble",
    ("pqc", "assemble_pqc_system"): "pqc.assemble",
    ("plc", "truncation_error"): "plc.truncation",
    ("pqc", "pqc_truncation_at"): "pqc.truncation",
    ("solver", "solve_dense"): "solver.solve",
    ("solver", "check_structure"): "solver.check",
    ("study", "run_truncation_study"): "study.truncation",
    ("study", "run_global_study"): "study.global",
}

# Called once per cell: counted, but given no span of its own, so its time
# stays in moments.interp and tracing stays cheap.
COUNTED = {("moments", "cell_integral"): "moments.cell_integral_calls"}


def stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans [layer, parent index, start, end] plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, layer, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([layer, self._stack[-1] if self._stack else -1,
                               time.perf_counter(), None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._stack.pop()
            self.count(layer + "_calls")
            if layer.endswith(".assemble"):
                # computed: bytes of the dense system the call formed
                matrix = getattr(result, "matrix", None)
                self.count(layer.split(".")[0] + ".matrix_bytes",
                           0 if matrix is None else int(matrix.nbytes))
            elif layer == "solver.solve":
                n = len(args[0].rhs)
                self.count("solver.lu_flops", 2 * n ** 3 / 3)  # computed
            return result
        return traced

    def _counter(self, key, fn):
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    def install(self, extra_modules=()):
        """Rebind every module-level reference to a listed function, so
        calls made inside the library pass through the wrapper too."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nlcolloc" or name.startswith("nlcolloc.")]
        modules += list(extra_modules)
        for (mod, fn), layer in LAYERS.items():
            self._rebind(modules, mod, fn, lambda f, l=layer: self._span(l, f))
        for (mod, fn), key in COUNTED.items():
            self._rebind(modules, mod, fn, lambda f, k=key: self._counter(k, f))

    @staticmethod
    def _rebind(modules, mod, fn, make):
        original = getattr(sys.modules["nlcolloc." + mod], fn)
        wrapper = make(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def report(self):
        return {"spans": self.spans, "counts": self.counts}


def _run_info():
    import numpy
    import scipy
    import nlcolloc
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nlcolloc_file": nlcolloc.__file__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_probe():
    import nlcolloc  # noqa: F401
    return {"first_call": stamp()}


def _run_tables(outdir, trace):
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(extra_modules=[script])
    first = stamp()
    t0 = time.perf_counter()
    rc = script.main(["reproduce_tables.py", outdir])
    wall = time.perf_counter() - t0
    out = {"first_call": first, "wall_s": wall, "rc": rc}
    if tracer:
        out.update(tracer.report())
    return out


def _run_solve(gamma, trace, cases):
    import numpy as np
    from nlcolloc import oracle, plc, pqc, solver
    from nlcolloc.grid import KernelParams, UniformGrid

    u = oracle.exponential()
    params = KernelParams(float(gamma))
    grids = [(scheme, UniformGrid(0.0, 1.0, int(n)))
             for scheme, n in (case.split(":") for case in cases)]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    first = stamp()
    wall, checks = 0.0, {}
    for scheme, grid in grids:
        assemble = (plc.assemble_plc_system if scheme == "plc"
                    else pqc.assemble_pqc_system)
        t0 = time.perf_counter()
        problem = oracle.exact_nonlocal_rhs(u, grid, params, nodes=scheme,
                                            tol=ORACLE_TOL)
        system = assemble(params, grid, problem)
        x = solver.solve_dense(system)
        solver.check_structure(system)
        wall += time.perf_counter() - t0
        # accuracy checks stay outside the timed region
        residual = system.rhs - system.matrix @ x
        checks[f"{scheme}:N={grid.N}:gamma={gamma}"] = {
            "max_error": float(np.max(np.abs(x - u(system.nodes)))),
            "rel_residual": float(np.linalg.norm(residual)
                                  / np.linalg.norm(system.rhs)),
        }
        del problem, system, x, residual
    out = {"first_call": first, "wall_s": wall, "checks": checks}
    if tracer:
        out.update(tracer.report())
    return out


def _run_cli(args):
    import nlcolloc.cli as cli
    tracer = Tracer()
    tracer.install()
    rc = cli.main(args)
    sys.stdout.flush()
    return {"rc": rc, **tracer.report()}


def main(argv):
    mode, result_path, args = argv[0], argv[1], argv[2:]
    if mode == "info":
        out = _run_info()
    elif mode == "probe":
        out = _run_probe()
    elif mode == "tables":
        out = _run_tables(args[0], args[1] == "1")
    elif mode == "solve":
        out = _run_solve(args[0], args[1] == "1", args[2:])
    elif mode == "cli":
        out = _run_cli(args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(out))
    return out.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
