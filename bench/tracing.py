"""Spans around wedgeopt's public functions, for the traced run only.

Importing this module wraps nothing.  `Tracer.install` replaces each traced
function with a recording wrapper in every loaded wedgeopt namespace that
binds it (for example `solver.wedge`, `cli.optimal_direction` and
`oracle.orthonormalize`), so calls are caught where callers look them up.
Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Traced functions by defining module; a span is named "<module>.<function>".
TRACED = {
    "cli": ("main", "parse_problem", "run_solve"),
    "solver": ("optimal_direction", "constraint_form", "dual_form", "degenerate_direction"),
    "forms": ("wedge", "hodge"),
    "oracle": ("oracle_direction", "orthonormalize"),
    "complexify": ("realify", "solve_complex"),
}


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index or -1, operation id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.absent: list[str] = []

    def install(self) -> None:
        """Wrap the traced functions of every wedgeopt module already imported."""
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "wedgeopt" or name.startswith("wedgeopt.")
        ]
        for module_name, functions in TRACED.items():
            module = sys.modules.get(f"wedgeopt.{module_name}")
            if module is None:
                continue
            for function in functions:
                original = getattr(module, function, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{function}")
                    continue
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for namespace in namespaces:
                    bound = [key for key, value in vars(namespace).items() if value is original]
                    for key in bound:
                        setattr(namespace, key, wrapper)

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def write(self, path: str) -> None:
        write_spans(self.spans, path)


def write_spans(spans: list[list], path: str) -> None:
    """One JSON list [name, start_ns, end_ns, parent, op] per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def extend(into: list[list], spans: list[list], process: str | None = None) -> None:
    """Append spans from another list, re-basing their parent indices.

    With `process`, operation ids become "<process>.<id>", so the ids of
    different processes stay apart.
    """
    offset = len(into)
    for name, start, end, parent, op in spans:
        op = op if process is None else f"{process}.{op}"
        into.append([name, start, end, parent + offset if parent >= 0 else -1, op])


# Per-layer metrics computed from spans: name -> unit.  Times are per
# operation; `.calls` of forms are per solve, of oracle per operation.
LAYER_METRICS = {
    "cli.parse_problem.ms": "ms",
    "cli.run_solve.ms": "ms",
    "cli.main.self_ms": "ms",
    "solver.optimal_direction.self_ms": "ms",
    "solver.rank_check.ms": "ms",
    "solver.constraint_form.ms": "ms",
    "solver.dual_form.ms": "ms",
    "solver.ray.ms": "ms",
    "solver.degenerate_direction.ms": "ms",
    "forms.wedge.ms": "ms",
    "forms.hodge.ms": "ms",
    "forms.wedge.calls": "count",
    "forms.hodge.calls": "count",
    "oracle.oracle_direction.ms": "ms",
    "oracle.orthonormalize.ms": "ms",
    "oracle.orthonormalize.calls": "count",
    "complexify.realify.ms": "ms",
    "complexify.solve_complex.self_ms": "ms",
}


def summarize(spans: list[list], ops: int) -> dict[str, float]:
    """LAYER_METRICS from the spans of `ops` operations; 0 for a layer never entered.

    Self time is a span's duration minus its direct children's, which
    never overlap.  `solver.ray` is the wedge and hodge calls made directly
    by optimal_direction (not under dual_form); `solver.rank_check` and
    `solver.degenerate_direction` count only calls whose parent is
    optimal_direction.
    """
    inclusive: dict[str, int] = defaultdict(int)
    exclusive: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    children = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        exclusive[name] += duration - children[index]
        if parent >= 0 and spans[parent][0] == "solver.optimal_direction":
            if name in ("forms.wedge", "forms.hodge"):
                inclusive["solver.ray"] += duration
            elif name == "oracle.orthonormalize":
                inclusive["solver.rank_check"] += duration
            elif name == "solver.degenerate_direction":
                inclusive["solver.degenerate_direction"] += duration
        if name != "solver.degenerate_direction":
            inclusive[name] += duration
    ops = max(ops, 1)
    solves = max(calls["solver.optimal_direction"], 1)
    out = {}
    for metric in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        if stat == "ms":
            out[metric] = inclusive[layer] / ops / 1e6
        elif stat == "self_ms":
            out[metric] = exclusive[layer] / ops / 1e6
        else:
            out[metric] = calls[layer] / (solves if layer.startswith("forms.") else ops)
    return out
