"""wedgeopt benchmark: three checked workloads, one JSON result line.

    python3 bench/run.py --workload cli_small|lib_small|wide_grid \
        --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  Every operation's output is
checked against bench/check.py.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it say how
many samples each statistic rests on.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import py_compile
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PYCACHE = OUT / "pycache"  # bytecode of every process the benchmark starts
sys.dont_write_bytecode = True  # this process writes none next to the sources

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh processes per run, spread over it, so that the set-up and cold-solve
# samples see the host's speed drift (seconds long) rather than one moment.
LIB_WORKERS = 12  # lib_small workers, each timing 1/LIB_WORKERS of the run
CLI_PROBES_PER_ROUND = 2  # cli_small probe processes per round of CLI processes
IMPORT_PROBES = 5  # fresh interpreters timing `import wedgeopt.cli` in the traced run
WORKER_TIMEOUT = 150.0
# Tail percentile per workload, with at least ten samples beyond it at the
# sample counts a 30 s run collects (per shape for wide_grid).  lib_small
# uses p99, not p99.9: its p99.9 (about 50 samples) moved 2-5x between runs
# whenever the host stalled for a fraction of a second.
TAIL_PERCENTILE = {"cli_small": 90.0, "lib_small": 99.0, "wide_grid": 75.0}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cold_solve_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WIDE_LAYER_METRICS = (
    "solver.constraint_form.ms",
    "solver.dual_form.ms",
    "solver.ray.ms",
    "solver.rank_check.ms",
    "solver.optimal_direction.self_ms",
    "forms.wedge.ms",
    "forms.hodge.ms",
    "oracle.oracle_direction.ms",
)
WIDE_MEMORY_METRICS = {
    "forms.cold_extra_ms": "ms",
    "forms.cold_peak_mb": "MB",
    "forms.retained_mb": "MB",
    "solver.warm_peak_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {"cli.import_ms": "ms", **tracing.LAYER_METRICS}
    for n, m in workloads.WIDE_SHAPES:
        shape = workloads.shape_name(n, m)
        units.update({f"{name}.{shape}": "ms" for name in WIDE_LAYER_METRICS})
        units.update({f"{name}.{shape}": unit for name, unit in WIDE_MEMORY_METRICS.items()})
    units["trace.ops_per_s_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """A worker or CLI process did not run to its end."""


class Tally:
    """Operations attempted and failed over a run, and the wrong outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def add(self, attempted: int, failed: int, wrong: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    Bytecode is read from and written to PYCACHE only, which each run
    empties and fills before it starts a process (fill_bytecode_cache), so
    every process loads bytecode the same way, as an installed program does,
    whatever the caller's environment says.  Nothing is written next to the
    sources.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": str(ROOT / "src"), "PYTHONPYCACHEPREFIX": str(PYCACHE)}


def fill_bytecode_cache() -> None:
    """Compile into an empty PYCACHE every module the benchmark's processes load.

    It compiles here, in this process, so that no child compiles: timed
    processes only load bytecode, and the compiler's memory stays out of the
    children's peak RSS.
    """
    import numpy.random  # noqa: F401  (the benchmark's input generation)
    import runpy  # noqa: F401  (run by `python -m wedgeopt`)
    import tracemalloc  # noqa: F401  (the wide_grid memory worker)

    sys.path.insert(1, str(ROOT / "src"))
    import wedgeopt.cli  # noqa: F401

    sources = {
        module.__file__
        for module in list(sys.modules.values())
        if str(getattr(module, "__file__", None)).endswith(".py")
    }
    sources.update(str(path) for path in (ROOT / "src" / "wedgeopt").glob("*.py"))
    shutil.rmtree(PYCACHE, ignore_errors=True)
    sys.pycache_prefix = str(PYCACHE)
    for source in sorted(sources):
        py_compile.compile(
            source, invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP, quiet=2
        )


def spawn(role: str, config: dict) -> tuple[float, dict]:
    """Run one worker to its end; returns (seconds from spawn to "ready", its JSON)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), role, json.dumps(config)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        with proc:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            body = proc.stdout.read()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {role} {config} ended with exit code {proc.returncode}")
    return ready, json.loads(body)


def latency(times: list[float], percentile: float) -> dict:
    """Count, total, median and nearest-rank `percentile` of operation times in seconds."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return {
        "count": len(ordered),
        "total": math.fsum(ordered),
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "beyond": len(ordered) - rank,
    }


def latency_metrics(workload: str, times: list[float], notes: list[str]) -> dict[str, float]:
    """Throughput, median and tail of one workload's operation times."""
    stats = latency(times, TAIL_PERCENTILE[workload])
    notes.append(
        f"{workload}: {stats['count']} timed operations; op_tail_ms is "
        f"p{TAIL_PERCENTILE[workload]:g} with {stats['beyond']} samples beyond it"
    )
    return {
        "ops_per_s": stats["count"] / stats["total"],
        "op_p50_ms": stats["p50"] * 1e3,
        "op_tail_ms": stats["tail"] * 1e3,
    }


# --- cli_small ---------------------------------------------------------------


def _cli_round(problems, paths, expected, tally, span_files=None) -> list[float]:
    """One CLI process per problem, each timed and checked; traced when given `span_files`."""
    env = child_env()
    times: list[float] = []
    for problem, path, exp in zip(problems, paths, expected):
        command = [sys.executable, "-m", "wedgeopt"]
        if span_files is not None:
            span_files.append(str(Path(path).parent / f"spans-{len(span_files)}.jsonl"))
            command = [sys.executable, str(BENCH / "worker.py"), "cli-traced", span_files[-1]]
        began = time.perf_counter()
        proc = subprocess.run(
            command + problem.cli_args(path),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT,
        )
        times.append(time.perf_counter() - began)
        try:
            reason = check.check_cli(exp, problem.fmt, problem.dropped, proc.returncode, proc.stdout)
        except (ValueError, KeyError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            reason = f"{problem.shape}: {reason} (stderr: {proc.stderr.strip()[-300:]})"
        tally.add(1, reason is not None, [reason] if reason else [])
    return times


def cli_small(
    seed: int, seconds: float, trace: bool, tally: Tally, notes: list[str]
) -> dict[str, float]:
    workdir = OUT / f"cli-{os.getpid()}"
    try:
        problems = workloads.cli_problems(seed)
        expected = [p.expected() for p in problems]
        paths = workloads.write_problem_files(problems, workdir)
        if trace:
            return _cli_traced(problems, paths, expected, seconds, tally, notes)
        probes, times = [], []
        part = -(-len(problems) // CLI_PROBES_PER_ROUND)
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            for first in range(0, len(problems), part):
                probes.append(cli_probe(problems, paths))
                _check_reports(problems, expected, probes[-1]["reports"], tally)
                chunk = slice(first, first + part)
                times += _cli_round(problems[chunk], paths[chunk], expected[chunk], tally)
        metrics = latency_metrics("cli_small", times, notes)
        metrics["cold_solve_ms"] = statistics.median(p["cold_s"] for p in probes) * 1e3
        metrics["setup_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in probes)
        return metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_traced(problems, paths, expected, seconds, tally, notes) -> dict[str, float]:
    """Untraced rounds for half the time, then traced rounds, then import probes."""
    untraced: list[float] = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        untraced += _cli_round(problems, paths, expected, tally)
    traced: list[float] = []
    span_files: list[str] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        traced += _cli_round(problems, paths, expected, tally, span_files)
    spans: list[list] = []
    for process, path in enumerate(span_files):
        tracing.extend(spans, tracing.read_spans(path), f"cli{process}")
    tracing.write_spans(spans, str(OUT / "trace-cli_small.jsonl"))
    metrics = tracing.summarize(spans, len(traced))
    imports = [cli_probe([], [])["import_s"] for _ in range(IMPORT_PROBES)]
    metrics["cli.import_ms"] = statistics.median(imports) * 1e3
    metrics["trace.ops_per_s_ratio"] = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
    notes.append(f"cli_small: {len(untraced)} untraced and {len(traced)} traced CLI processes")
    return metrics


def _check_reports(problems, expected, reports, tally) -> None:
    """Check a probe's in-process reports, as the CLI would print them in JSON."""
    for problem, exp, report in zip(problems, expected, reports):
        reason = report.get("error")
        if reason is None:
            reason = check.check_cli(exp, "json", problem.dropped, 0, json.dumps(report))
        tally.add(1, reason is not None, [f"{problem.shape} in process: {reason}"] if reason else [])


def cli_probe(problems, paths: list[str]) -> dict:
    """One fresh `worker.py cli-probe` process: its import time and in-process solves."""
    config = json.dumps({"files": [[path, p.reduce_rows] for p, path in zip(problems, paths)]})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "cli-probe", config],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"cli probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


# --- lib_small ---------------------------------------------------------------


def lib_small(
    seed: int, seconds: float, trace: bool, tally: Tally, notes: list[str]
) -> dict[str, float]:
    if trace:
        spans_path = OUT / f"spans-lib-{os.getpid()}.jsonl"
        _, res = spawn("lib", {"seed": seed, "seconds": seconds, "spans": str(spans_path)})
        tally.add(res["warmup"]["attempted"], res["warmup"]["failed"], res["warmup"]["wrong"])
        for part in ("untraced", "traced"):
            tally.add(len(res[part]["times"]), res[part]["failed"], res[part]["wrong"])
        spans = tracing.read_spans(str(spans_path))
        spans_path.replace(OUT / "trace-lib_small.jsonl")
        untraced, traced = res["untraced"]["times"], res["traced"]["times"]
        metrics = tracing.summarize(spans, len(traced))
        metrics["trace.ops_per_s_ratio"] = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
        _note_absent(res, notes)
        notes.append(f"lib_small: {len(untraced)} untraced and {len(traced)} traced operations")
        return metrics
    setups, colds, times, peaks = [], [], [], []
    for _ in range(LIB_WORKERS):
        ready, res = spawn("lib", {"seed": seed, "seconds": seconds / LIB_WORKERS})
        setups.append(ready - res["cold_s"])
        colds.append(res["cold_s"])
        peaks.append(res["peak_rss_mb"])
        tally.add(res["warmup"]["attempted"], res["warmup"]["failed"], res["warmup"]["wrong"])
        timed = res["timed"]
        times += timed["times"]
        tally.add(len(timed["times"]), timed["failed"], timed["wrong"])
    metrics = latency_metrics("lib_small", times, notes)
    metrics["cold_solve_ms"] = statistics.median(colds) * 1e3
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(peaks)
    return metrics


def _note_absent(res: dict, notes: list[str]) -> None:
    line = "absent from this commit, reported as 0: " + ", ".join(res.get("absent", ()))
    if res.get("absent") and line not in notes:
        notes.append(line)


# --- wide_grid ---------------------------------------------------------------


def wide_grid(
    seed: int, seconds: float, trace: bool, tally: Tally, notes: list[str]
) -> dict[str, float]:
    shapes = list(workloads.WIDE_SHAPES.items())
    setups: list[float] = []
    peaks: list[float] = []
    colds: dict = {shape: [] for shape, _ in shapes}
    times: dict = {shape: [] for shape, _ in shapes}
    traced_times: dict = {shape: [] for shape, _ in shapes}
    traced_spans: dict = {shape: [] for shape, _ in shapes}
    memory: dict = {}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for (n, m), warm in shapes:
            config = {"seed": seed, "shape": [n, m], "warm": warm, "worker": rounds, "role": "timed"}
            ready, res = spawn("wide", config)
            setups.append(ready - res["cold_s"])
            peaks.append(res["peak_rss_mb"])
            colds[n, m].append(res["cold_s"])
            times[n, m] += res["times"]
            tally.add(1 + len(res["times"]), res["failed"], res["wrong"])
            if not trace:
                continue
            spans_path = OUT / f"spans-wide-{os.getpid()}.jsonl"
            _, res = spawn("wide", {**config, "role": "traced", "spans": str(spans_path)})
            tally.add(1 + len(res["times"]), res["failed"], res["wrong"])
            process = f"{workloads.shape_name(n, m)}-{rounds}"
            tracing.extend(traced_spans[n, m], tracing.read_spans(str(spans_path)), process)
            spans_path.unlink()
            traced_times[n, m] += res["times"]
            _note_absent(res, notes)
            if rounds == 0:
                _, memory[n, m] = spawn("wide", {**config, "role": "memory"})
                tally.add(2, memory[n, m]["failed"], memory[n, m]["wrong"])
        rounds += 1
    counts = ", ".join(f"{workloads.shape_name(*s)}: {len(times[s])}" for s, _ in shapes)
    notes.append(f"wide_grid: {rounds} rounds; warm samples per shape {counts}")
    if trace:
        return _wide_layers(shapes, times, colds, traced_times, traced_spans, memory)
    per_shape = [latency(t, TAIL_PERCENTILE["wide_grid"]) for t in times.values()]
    notes.append(
        "wide_grid: samples beyond each shape's p75: " + ", ".join(str(s["beyond"]) for s in per_shape)
    )
    return {
        "ops_per_s": sum(s["count"] for s in per_shape) / sum(s["total"] for s in per_shape),
        "op_p50_ms": sum(s["p50"] for s in per_shape) * 1e3,
        "op_tail_ms": sum(s["tail"] for s in per_shape) * 1e3,
        "cold_solve_ms": sum(statistics.median(c) for c in colds.values()) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
    }


def _wide_layers(shapes, times, colds, traced_times, traced_spans, memory) -> dict[str, float]:
    all_spans: list[list] = []
    for shape, _ in shapes:
        tracing.extend(all_spans, traced_spans[shape])
    traced_ops = sum(len(t) for t in traced_times.values())
    metrics = tracing.summarize(all_spans, traced_ops)
    tracing.write_spans(all_spans, str(OUT / "trace-wide_grid.jsonl"))
    for (n, m), _ in shapes:
        shape = workloads.shape_name(n, m)
        per_shape = tracing.summarize(traced_spans[n, m], len(traced_times[n, m]))
        metrics.update({f"{name}.{shape}": per_shape[name] for name in WIDE_LAYER_METRICS})
        cold_extra = statistics.median(colds[n, m]) - statistics.median(times[n, m])
        metrics[f"forms.cold_extra_ms.{shape}"] = cold_extra * 1e3
        for name in ("forms.cold_peak_mb", "forms.retained_mb", "solver.warm_peak_mb"):
            metrics[f"{name}.{shape}"] = memory[n, m][name.rsplit(".", 1)[1]]
    untraced_rate = sum(len(t) for t in times.values()) / sum(sum(t) for t in times.values())
    traced_rate = traced_ops / sum(sum(t) for t in traced_times.values())
    metrics["trace.ops_per_s_ratio"] = traced_rate / untraced_rate
    return metrics


WORKLOADS = {"cli_small": cli_small, "lib_small": lib_small, "wide_grid": wide_grid}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wedgeopt" / "__init__.py").is_file():
        print(f"error: no wedgeopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    fill_bytecode_cache()
    tally = Tally()
    notes: list[str] = []
    try:
        metrics = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), tally, notes)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    notes.append(f"{args.workload}: {tally.attempted} operations attempted, {tally.failed} failed")
    for reason in tally.wrong[:10]:
        notes.append(f"wrong output: {reason}")
    for line in notes:
        print(line)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
