#!/usr/bin/env python3
"""nlcolloc benchmark: cold CLI calls, the paper's tables, a large solve.

Usage:
  python3 bench/run.py --workload {cli_cold,tables,large_solve,all}
                       [--seed N] [--seconds S] [--trace 0|1] [--quick]

Load model: a closed loop with one client and one operation at a time.
Every operation runs in a fresh child interpreter, as the CLI and the
table script do for their users, so module caches start cold each time.
Outputs are checked against bench/reference.json on every operation.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced operations and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable summary with the machine it ran on.  --quick
shrinks large_solve for the self-test.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

# On the 2-core reference machine two OpenBLAS threads intermittently
# stalled lu_factor at n=255 (the PQC N=128 system in `tables`) for about
# 140 ms instead of 0.6 ms; with one thread it never happened.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

WORKLOADS = ("cli_cold", "tables", "large_solve")

CLI_COMMANDS = (
    "coeffs --scheme pqc --gamma 0.7 --levels 64",
    "check --scheme plc --gamma 0.7 --levels 64",
    "truncation --scheme pqc --gamma 0.7 --point center --levels 64,128",
    "converge --scheme plc --gamma 0.3 --levels 16,32",
    "converge --scheme pqc --gamma 1.5 --levels 16",  # usage error, exit 2
)

# large_solve: both cases give n = 4095 unknowns.  --quick gives n = 255.
SOLVE_CASES = {False: ("plc:4096", "pqc:2048"), True: ("plc:256", "pqc:128")}
GAMMAS = ("0.3", "0.5", "0.7")
DEFAULT_SEED = 5  # draws gamma = 0.7 for large_solve

LAYER_TIMES = ("coeffs.weights", "oracle.singular_integral", "oracle.rhs",
               "moments.interp", "plc.assemble", "pqc.assemble",
               "plc.truncation", "pqc.truncation", "solver.solve",
               "solver.check", "study.truncation", "study.global")
LAYER_COUNTS = ("coeffs.weights_calls", "oracle.singular_integral_calls",
                "moments.cell_integral_calls", "solver.solve_calls",
                "plc.matrix_bytes", "pqc.matrix_bytes", "solver.lu_flops")

# Every run ends within the 180 s a run may take.
HARD_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class OpTimeout(Exception):
    pass


def stamp() -> float:
    # system-wide clock, so a child's stamps compare with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Proc:
    wall: float       # spawn to exit
    rc: int
    rss_mb: float     # peak resident memory of the child
    stdout: bytes
    stderr: bytes
    spawned: float    # CLOCK_MONOTONIC stamp of the spawn


@dataclass
class Op:
    kind: str                      # 'op', 'traced' or 'setup'
    wall: float = None
    setup: float = None
    rss_mb: float = None
    problems: list = field(default_factory=list)
    trace: dict = None


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Spawns children one at a time with the pinned environment."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = {**os.environ, **THREAD_PINS,
                    "PYTHONPATH": str(ROOT / "src")}
        self.start = stamp()
        self.count = 0
        self.gamma = None   # large_solve's seeded gamma
        signal.signal(signal.SIGALRM, _on_alarm)

    def spawn(self, argv) -> Proc:
        self.count += 1
        out_path = self.tmp / f"{self.count}.out"
        err_path = self.tmp / f"{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = stamp()
            pid = os.posix_spawn(argv[0], argv, self.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        status = None
        try:
            signal.setitimer(signal.ITIMER_REAL,
                             max(1.0, HARD_LIMIT_S - (t0 - self.start)))
            _, status, usage = os.wait4(pid, 0)
            t1 = stamp()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if status is None:   # timed out or interrupted: stop the child
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
        return Proc(t1 - t0, os.waitstatus_to_exitcode(status),
                    usage.ru_maxrss / 1024.0, out_path.read_bytes(),
                    err_path.read_bytes(), t0)

    def python(self, *args) -> Proc:
        return self.spawn([sys.executable, *args])

    def child(self, mode, *args):
        """Run bench/child.py; return the Proc and its JSON result, if any."""
        result = self.tmp / f"result{self.count + 1}.json"
        proc = self.python(str(CHILD), mode, str(result), *args)
        data = json.loads(result.read_text()) if result.exists() else None
        return proc, data


def _exit_problems(proc: Proc, expected: int = 0) -> list:
    if proc.rc == expected:
        return []
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return [f"exit code {proc.rc}, expected {expected}: {' '.join(tail)}"]


# --- operations ---------------------------------------------------------------

def op_cli(runner, ref, command, traced) -> Op:
    args = command.split()
    if traced:
        proc, data = runner.child("cli", *args)
    else:
        proc, data = runner.python("-m", "nlcolloc.cli", *args), None
    expected = ref["cli"][command]
    problems = _exit_problems(proc, expected["exit"])
    if sha256(proc.stdout) != expected["stdout_sha256"]:
        problems.append(f"`{command}`: stdout differs from the reference")
    if traced and data is None:
        problems.append(f"`{command}`: traced call wrote no result")
    return Op("traced" if traced else "op", wall=proc.wall,
              rss_mb=proc.rss_mb, problems=problems, trace=data)


def op_tables(runner, ref, traced) -> Op:
    outdir = Path(tempfile.mkdtemp(dir=runner.tmp))
    proc, data = runner.child("tables", str(outdir), "1" if traced else "0")
    problems = _exit_problems(proc)
    got = {p.name: sha256(p.read_bytes()) for p in outdir.glob("*.csv")}
    shutil.rmtree(outdir)
    for name in sorted(set(got) | set(ref["tables"])):
        if got.get(name) != ref["tables"].get(name):
            problems.append(f"{name}: missing, extra or not byte-identical")
    if data is None:
        return Op("traced" if traced else "op", problems=problems)
    return Op("traced" if traced else "op", wall=data["wall_s"],
              setup=data["first_call"] - proc.spawned, rss_mb=proc.rss_mb,
              problems=problems, trace=data if traced else None)


def op_solve(runner, ref, gamma, cases, traced) -> Op:
    proc, data = runner.child("solve", gamma, "1" if traced else "0", *cases)
    problems = _exit_problems(proc)
    if data is None:
        return Op("traced" if traced else "op", problems=problems)
    for case in cases:
        scheme, n = case.split(":")
        key = f"{scheme}:N={n}:gamma={gamma}"
        got, bound = data["checks"].get(key), ref["solve"].get(key)
        if got is None or bound is None:
            problems.append(f"{key}: no result or no reference bound")
            continue
        for name in ("max_error", "rel_residual"):
            if not got[name] <= bound[name]:
                problems.append(f"{key}: {name} {got[name]:.4e} above "
                                f"bound {bound[name]:.4e}")
    return Op("traced" if traced else "op", wall=data["wall_s"],
              setup=data["first_call"] - proc.spawned, rss_mb=proc.rss_mb,
              problems=problems, trace=data if traced else None)


def probe_setup(runner) -> Op:
    """Interpreter start plus `import nlcolloc`: cli_cold's set-up time."""
    proc, data = runner.child("probe")
    if proc.rc != 0 or data is None:
        raise BenchError("set-up probe failed: " + proc.stderr.decode()[-500:])
    return Op("setup", setup=data["first_call"] - proc.spawned)


def probe_import(runner) -> dict:
    """Import times from `python -X importtime -c "import nlcolloc"`."""
    proc = runner.python("-X", "importtime", "-c", "import nlcolloc")
    if proc.rc != 0:
        raise BenchError("import probe failed: " + proc.stderr.decode()[-500:])
    times = {"total": 0.0, "oracle": 0.0, "nlcolloc_self": 0.0}
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cumulative_us = int(parts[1])
        except ValueError:   # the header line
            continue
        name = parts[2].strip()
        if name == "nlcolloc":
            times["total"] = cumulative_us / 1e6
        elif name == "nlcolloc.oracle":
            times["oracle"] = cumulative_us / 1e6
        if name == "nlcolloc" or name.startswith("nlcolloc."):
            times["nlcolloc_self"] += self_us / 1e6
    return times


# --- rounds: each appends its operations to `ops` ------------------------------

def round_cli_cold(runner, ref, rng, trace, quick, ops):
    if not trace:
        ops += [probe_setup(runner) for _ in range(2)]
    commands = list(CLI_COMMANDS)
    rng.shuffle(commands)
    for command in commands:
        ops.append(op_cli(runner, ref, command, traced=False))
        if trace:
            ops.append(op_cli(runner, ref, command, traced=True))


def round_tables(runner, ref, rng, trace, quick, ops):
    ops.append(op_tables(runner, ref, traced=False))
    if trace:
        ops.append(op_tables(runner, ref, traced=True))


def round_large_solve(runner, ref, rng, trace, quick, ops):
    # an operation takes ~7 s, so extra probes steady the set-up median
    if not trace:
        ops += [probe_setup(runner) for _ in range(2)]
    gamma = runner.gamma
    ops.append(op_solve(runner, ref, gamma, SOLVE_CASES[quick], traced=False))
    if trace:
        ops.append(op_solve(runner, ref, gamma, SOLVE_CASES[quick],
                            traced=True))


ROUNDS = {"cli_cold": round_cli_cold, "tables": round_tables,
          "large_solve": round_large_solve}


# --- aggregation ----------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(ops) -> tuple:
    timed = [o for o in ops if o.kind == "op" and o.wall is not None]
    setups = [o.setup for o in ops if o.setup is not None]
    walls = sorted(o.wall for o in timed)
    metrics = {"wall_s": _median(walls), "setup_s": _median(setups),
               "peak_rss_mb": _median([o.rss_mb for o in timed])}
    notes = {"wall_s": f"median of {len(walls)} ops",
             "setup_s": f"median of {len(setups)}",
             "peak_rss_mb": f"median of {len(timed)} ops"}
    if len(walls) > 10:   # highest percentile with 10 samples beyond it
        pct = 100 * (len(walls) - 10) // len(walls)
        notes["wall_s"] += f", p{pct} {walls[-11]:.4f} s"
    notes["samples"] = {"wall_s": [o.wall for o in timed], "setup_s": setups,
                        "peak_rss_mb": [o.rss_mb for o in timed]}
    return metrics, notes


def self_times(spans) -> dict:
    """Layer -> summed self time (duration minus enclosed child spans)."""
    own = [end - start for _, _, start, end in spans]
    for (_, parent, start, end) in spans:
        if parent >= 0:
            own[parent] -= end - start
    layers = {}
    for (layer, _, _, _), t in zip(spans, own):
        layers[layer] = layers.get(layer, 0.0) + t
    return layers


def per_layer(workload, ops, imports, startup) -> tuple:
    traced = [o for o in ops if o.kind == "traced" and o.trace is not None]
    plain = [o.wall for o in ops if o.kind == "op" and o.wall is not None]
    per_op = [self_times(o.trace["spans"]) for o in traced]
    m = {"import.total_s": _median([i["total"] for i in imports]),
         "import.oracle_s": _median([i["oracle"] for i in imports]),
         "import.nlcolloc_self_s":
             _median([i["nlcolloc_self"] for i in imports]),
         "cli.startup_s": _median(startup)}
    m["cli.body_s"] = (_median(plain) - m["cli.startup_s"]
                       - m["import.total_s"]) if workload == "cli_cold" else 0.0
    for layer in LAYER_TIMES:
        m[layer + "_s"] = _mean([t.get(layer, 0.0) for t in per_op])
    for key in LAYER_COUNTS:
        m[key] = _mean([o.trace["counts"].get(key, 0) for o in traced])
    m["solver.lu_gflops"] = (m["solver.lu_flops"] / m["solver.solve_s"] / 1e9
                             if m["solver.solve_s"] > 0 else 0.0)
    traced_walls = [o.wall for o in traced]
    m["trace.self_sum_s"] = sum(m[layer + "_s"] for layer in LAYER_TIMES)
    m["trace.unattributed_s"] = _mean(traced_walls) - m["trace.self_sum_s"]
    m["trace.overhead_s"] = _median(traced_walls) - _median(plain)
    notes = {"trace.overhead_s": f"{len(traced)} traced vs {len(plain)} "
                                 "untraced ops"}
    return m, notes


# --- machine ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def warm_up(runner) -> dict:
    """Import everything once (fills bytecode and page caches) and check
    that nlcolloc comes from this checkout; return the machine record."""
    for required in ("src/nlcolloc/__init__.py", "scripts/reproduce_tables.py"):
        if not (ROOT / required).is_file():
            raise BenchError(f"{required} not found under {ROOT}")
    proc, info = runner.child("info")
    if proc.rc != 0 or info is None:
        raise BenchError("cannot import nlcolloc: " + proc.stderr.decode()[-500:])
    if not Path(info.pop("nlcolloc_file")).is_relative_to(ROOT / "src"):
        raise BenchError("nlcolloc was not imported from this checkout")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(), **info,
            **THREAD_PINS, "commit": _git_commit()}


# --- measurement ------------------------------------------------------------------

def measure(workload, seed, seconds, trace, quick, spec, reference) -> dict:
    rng = random.Random(seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(Path(tmp))
        machine = warm_up(runner)
        runner.gamma = rng.choice(GAMMAS) if workload == "large_solve" else None
        t0 = stamp()
        imports, startup = [], []
        if trace:
            for _ in range(3):
                imports.append(probe_import(runner))
                startup.append(runner.python("-c", "pass").wall)
        ops = []
        while True:
            r0 = stamp()
            try:
                ROUNDS[workload](runner, reference, rng, trace, quick, ops)
            except OpTimeout:
                ops.append(Op("op", problems=["timed out"]))
                break
            # start another round only if it should end near the target,
            # so that a run lasts about --seconds on every workload
            now = stamp()
            if now - t0 + (now - r0) / 2 >= seconds:
                break
    if trace:
        metrics, notes = per_layer(workload, ops, imports, startup)
        names = spec["per_layer"]
    else:
        metrics, notes = end_to_end(ops)
        names = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         "match BENCHMARK.json")
    attempted = [o for o in ops if o.kind != "setup"]
    problems = [p for o in attempted for p in o.problems]
    failed = sum(1 for o in attempted if o.problems)
    result = {"correct": failed == 0, "attempted": len(attempted),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "quick": quick, "machine": machine,
              "gamma": runner.gamma, "notes": notes, "problems": problems,
              "result": result}
    (WORK / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    if trace:
        spans = [{"op": i, "spans": o.trace["spans"]}
                 for i, o in enumerate(ops) if o.trace is not None]
        (WORK / f"spans-{workload}.json").write_text(json.dumps(spans))
    print_summary(record, notes, problems)
    return result


def print_summary(record, notes, problems):
    m = record["machine"]
    print(f"# nlcolloc benchmark: workload={record['workload']} "
          f"seed={record['seed']} seconds={record['seconds']} "
          f"trace={int(record['trace'])} quick={record['quick']}"
          + (f" gamma={record['gamma']}" if record["gamma"] else ""))
    print("# machine: " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v
                                   else f"{k}={v}" for k, v in m.items()))
    print("# BLAS and OpenMP pinned to 1 thread: two threads intermittently "
          "stalled lu_factor at n=255 on a 2-core machine")
    result = record["result"]
    for name, metric in result["metrics"].items():
        note = notes.get(name, "")
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']:8s} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'ops_failed':32s} {failed / attempted if attempted else 0:>16.6g} "
          f"{'ratio':8s} {failed} of {attempted} ops failed")
    for p in problems[:10]:
        print(f"# FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced large_solve size, for the self-test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through Runner.spawn, which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads((BENCH / "reference.json").read_text())
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [measure(w, args.seed, args.seconds, bool(args.trace),
                           args.quick, spec, reference) for w in workloads]
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print(json.dumps(r))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
