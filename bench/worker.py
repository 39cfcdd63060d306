"""Benchmark worker processes, one role per process; started by run.py.

    worker.py lib CONFIG          lib_small: set up, solve every problem once, time whole rounds
    worker.py wide CONFIG         wide_grid: one shape, a cold solve, then a warm loop
    worker.py cli-probe CONFIG    cli_small: time `import wedgeopt.cli`, then solve the files in process
    worker.py cli-traced SPANS ARG...   the wedgeopt CLI with spans recorded to SPANS

CONFIG is a JSON object.  The lib and wide roles print "ready" when their
set-up (imports, inputs, references, warm-up) is done; every role with a
CONFIG ends by printing one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))


def _status(solution) -> str:
    return getattr(solution.status, "value", solution.status)


def _check_pair(check, expected, outputs) -> str | None:
    solution, oracle = outputs
    reason = check.check(expected, solution.direction, _status(solution), solution.objective)
    if reason is None:
        reason = check.check(expected, oracle.direction, _status(oracle), oracle.objective)
        reason = reason and "oracle: " + reason
    return reason


def _solve_and_cross_check(api, problem, rows, b):
    """One operation: a solve plus its oracle cross-check, through the public API."""
    if problem.field == "real":
        system = api.ConstraintSystem(rows)
        objective = api.Objective(b, problem.mode)
        return api.optimal_direction(system, objective), api.oracle_direction(system, objective)
    complex_problem = api.ComplexProblem(rows, b, problem.part, problem.mode)
    return api.solve_complex(complex_problem), api.oracle_direction(*api.realify(complex_problem))


class Operations:
    """Times and checks operations on a fixed list of problems, counting failures."""

    def __init__(self, problems) -> None:
        import check
        import wedgeopt

        self.check = check
        self.api = wedgeopt
        self.problems = problems
        self.inputs = [(p.program_rows(), p.program_b()) for p in problems]
        self.expected = [p.expected() for p in problems]
        self.tracer = None
        self.times = array("d")
        self.failed = 0
        self.wrong: list[str] = []  # failures outside the scaled slice

    def run(self, index: int) -> float:
        problem = self.problems[index]
        if self.tracer is not None:
            self.tracer.op += 1
        start = time.perf_counter()
        try:
            outputs = _solve_and_cross_check(self.api, problem, *self.inputs[index])
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            reason = _check_pair(self.check, self.expected[index], outputs)
        if reason is not None:
            self.failed += 1
            if not problem.scaled:
                self.wrong.append(f"{problem.shape} {problem.mode}: {reason}")
        return elapsed

    def result(self) -> dict:
        return {"times": self.times.tolist(), "failed": self.failed, "wrong": self.wrong}


def _ready() -> None:
    print("ready", flush=True)


def peak_rss_mb() -> float:
    """This process's own peak RSS, VmHWM.

    Not ru_maxrss: Linux starts that at the spawning process's RSS when a
    vforked child calls exec, so it would read run.py's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish(payload: dict) -> None:
    print(json.dumps({**payload, "peak_rss_mb": peak_rss_mb()}), flush=True)


def _timed_rounds(ops: Operations, seconds: float) -> dict:
    """Whole rounds over every problem until `seconds` have passed."""
    ops.times, ops.failed, ops.wrong = array("d"), 0, []
    start = time.perf_counter()
    while True:
        for index in range(len(ops.problems)):
            ops.times.append(ops.run(index))
        if time.perf_counter() - start >= seconds:
            return ops.result()


def lib(config: dict) -> None:
    import workloads

    ops = Operations(workloads.lib_problems(config["seed"]))
    cold = 0.0
    seen: set[str] = set()
    for index, problem in enumerate(ops.problems):
        elapsed = ops.run(index)
        if not problem.scaled and problem.shape not in seen:
            seen.add(problem.shape)
            cold += elapsed
    warmup = {"attempted": len(ops.problems), "failed": ops.failed, "wrong": ops.wrong}
    _ready()
    payload = {"cold_s": cold, "warmup": warmup}
    seconds = config["seconds"]
    if config.get("spans"):
        import tracing

        payload["untraced"] = _timed_rounds(ops, seconds / 2)
        ops.tracer = tracing.Tracer()
        ops.tracer.install()
        payload["traced"] = _timed_rounds(ops, seconds / 2)
        payload["absent"] = ops.tracer.absent
        ops.tracer.write(config["spans"])
    else:
        payload["timed"] = _timed_rounds(ops, seconds)
    _finish(payload)


def wide(config: dict) -> None:
    import workloads

    n, m = config["shape"]
    ops = Operations(workloads.wide_problems(config["seed"], n, m, config["worker"]))
    if config["role"] == "memory":
        _ready()
        _finish(_memory_probe(ops))
        return
    cold = ops.run(0)
    _ready()
    if config["role"] == "traced":
        import tracing

        ops.tracer = tracing.Tracer()
        ops.tracer.install()
    for j in range(config["warm"]):
        ops.times.append(ops.run(j % len(ops.problems)))
    payload = {"cold_s": cold, **ops.result()}
    if ops.tracer is not None:
        payload["absent"] = ops.tracer.absent
        ops.tracer.write(config["spans"])
    _finish(payload)


def _memory_probe(ops: Operations) -> dict:
    """tracemalloc bytes of a cold solve, of what it leaves behind, and of a warm solve."""
    import gc
    import tracemalloc

    mib = float(2**20)
    tracemalloc.start()
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    ops.run(0)
    cold_peak = tracemalloc.get_traced_memory()[1] - base
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - base
    current = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    ops.run(1)
    warm_peak = tracemalloc.get_traced_memory()[1] - current
    tracemalloc.stop()
    return {
        "cold_peak_mb": cold_peak / mib,
        "retained_mb": retained / mib,
        "warm_peak_mb": warm_peak / mib,
        "failed": ops.failed,
        "wrong": ops.wrong,
    }


def cli_probe(config: dict) -> None:
    """Time `import wedgeopt.cli`, then the CLI's parse and solve of each file.

    The interpreter is fresh, so the tables are built on first use, as in a
    CLI process.  run.py checks the reports, so this process loads no more
    than a CLI process does.  An empty `files` list times the import only.
    """
    start = time.perf_counter()
    import wedgeopt.cli as cli

    import_s = time.perf_counter() - start
    cold, reports = 0.0, []
    for path, reduce_rows in config["files"]:
        start = time.perf_counter()
        try:
            spec = cli.parse_problem(path)
            reports.append(cli.run_solve(spec, check_oracle=True, reduce_rows=reduce_rows).to_dict())
        except Exception as exc:  # a failed operation is counted, not fatal
            reports.append({"error": f"{type(exc).__name__}: {exc}"})
        cold += time.perf_counter() - start
    _finish({"import_s": import_s, "cold_s": cold, "reports": reports})


def cli_traced(spans: str, argv: list[str]) -> int:
    import tracing
    import wedgeopt.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.write(spans)


def main(argv: list[str]) -> int:
    # The scaled slice overflows on purpose; its failures are counted, not printed.
    warnings.simplefilter("ignore", RuntimeWarning)
    role = argv[0]
    if role == "cli-traced":
        return cli_traced(argv[1], argv[2:])
    {"lib": lib, "wide": wide, "cli-probe": cli_probe}[role](json.loads(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
