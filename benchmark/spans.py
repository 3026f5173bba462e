"""Span tracing by wrapping the package's public functions from outside.

Each traced function is replaced, under every name that refers to it, in the
namespace of every package module (``kinetic_step`` in ``coupling`` is the
same object as ``step`` in ``kinetic``).  Calls that go through a module
global therefore pass the wrapper, which records one span per call:

    (name, start, end, parent, work, note)

parent is the index of the enclosing traced span (-1 at top level), work a
size read from the arguments (cells swept or stepped) and note a value read
from the result (the layer class of a classify call, the shock-class sweep
count of a march).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np


def _shock_sweeps(result) -> int:
    state = result[0]
    return sum(r.layer_iterations for r in state.trace_log if r.layer_class == "shock")


# "module.function": (work from the positional arguments, note from the result)
TRACED = {
    "velocity.maxwellian_table": (None, None),
    "kinetic.step": (lambda args: args[0].values.size, None),
    "kinetic.run_with_history": (None, None),
    "fluid.fluid_step": (None, None),
    "milne.classify": (None, lambda r: r.value),
    "milne.golse_iterate": (lambda args: args[2].size, None),
    "milne.solve_layer": (None, None),
    "milne.relaxation_layer_profile": (None, None),
    "coupling.coupled_step": (None, None),
    "coupling.run_coupled": (None, _shock_sweeps),
    "experiments.run_limit_system": (None, None),
    "experiments.solve_full_epsilon": (None, None),
    "experiments.run_convergence_study": (None, None),
    "experiments.random_coupled_state": (None, None),
}


class Tracer:
    """Installs the wrappers and collects the spans."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            getattr(package, m)
            for m in ("velocity", "kinetic", "fluid", "milne", "coupling", "experiments")
        ]
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for qualified, (work, note) in TRACED.items():
            module_name, func_name = qualified.split(".")
            original = getattr(getattr(self.package, module_name), func_name)
            wrapper = self._wrap(qualified, original, work, note)
            for module in self.modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _wrap(self, qualified, fn, work, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (
                    qualified,
                    start,
                    end,
                    parent,
                    0 if work is None else work(args),
                    None if note is None or result is None else note(result),
                )

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far; indices restart at zero."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def write(self, path: Path, rounds: list[list]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work", "note"], "rounds": rounds}, fh)


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer counts and times of one round of spans."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    child = np.zeros(n)
    sweeps_in = np.zeros(n, dtype=int)
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child[parent] += dur[i]
            if name == "milne.golse_iterate":
                sweeps_in[parent] += 1

    def select(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(select(name)))

    def total(name):
        return float(dur[select(name)].sum())

    def self_time(name):
        idx = select(name)
        return float((dur[idx] - child[idx]).sum())

    def per_s(name):
        idx = select(name)
        busy = float(dur[idx].sum())
        return float(sum(spans[i][4] for i in idx)) / busy if busy > 0 else 0.0

    step_idx = select("coupling.coupled_step")
    step_ms = 1e3 * dur[step_idx]
    classes = [s[5] for s in spans if s[0] == "milne.classify" and s[3] in set(step_idx)]
    return {
        "milne.relaxation_layer_profile.calls": calls("milne.relaxation_layer_profile"),
        "milne.relaxation_layer_profile.s": total("milne.relaxation_layer_profile"),
        "milne.solve_layer.calls": calls("milne.solve_layer"),
        "milne.solve_layer.s": total("milne.solve_layer"),
        "milne.solve_layer.sweeps_max": float(max(sweeps_in[select("milne.solve_layer")], default=0)),
        "milne.golse_iterate.calls": calls("milne.golse_iterate"),
        "milne.golse_iterate.s": total("milne.golse_iterate"),
        "milne.golse_iterate.cells_per_s": per_s("milne.golse_iterate"),
        "milne.classify.relaxation": float(classes.count("relaxation")),
        "milne.classify.shock": float(classes.count("shock")),
        "kinetic.step.calls": calls("kinetic.step"),
        "kinetic.step.s": total("kinetic.step"),
        "kinetic.step.cells_per_s": per_s("kinetic.step"),
        "kinetic.run_with_history.s": total("kinetic.run_with_history"),
        "velocity.maxwellian_table.calls": calls("velocity.maxwellian_table"),
        "velocity.maxwellian_table.s": total("velocity.maxwellian_table"),
        "fluid.fluid_step.calls": calls("fluid.fluid_step"),
        "fluid.fluid_step.s": total("fluid.fluid_step"),
        "coupling.coupled_step.calls": float(len(step_idx)),
        "coupling.coupled_step.self_s": self_time("coupling.coupled_step"),
        "coupling.coupled_step.ms_p50": float(np.percentile(step_ms, 50)) if len(step_idx) else 0.0,
        "coupling.coupled_step.ms_p90": float(np.percentile(step_ms, 90)) if len(step_idx) else 0.0,
        "experiments.run_limit_system.s": total("experiments.run_limit_system"),
        "experiments.solve_full_epsilon.s": total("experiments.solve_full_epsilon"),
        "experiments.run_convergence_study.self_s": self_time("experiments.run_convergence_study"),
        "experiments.random_coupled_state.s": total("experiments.random_coupled_state"),
    }


def unit_of(metric: str) -> str:
    if metric.endswith("cells_per_s"):
        return "1/s"
    if metric.endswith((".s", "self_s", "wall_s")):
        return "s"
    if ".ms_" in metric:
        return "ms"
    return "count"


def count_problems(spans: list, expected_steps: int) -> list[str]:
    """Compare two counts the program and the wrappers reach independently.

    The wrappers count golse_iterate and coupled_step calls; the program logs
    layer_iterations per step in trace_log, and scenario_dt fixes the number
    of steps of every march.
    """
    problems = []
    sweeps = sum(1 for s in spans if s[0] == "milne.golse_iterate")
    logged = sum(s[5] for s in spans if s[0] == "coupling.run_coupled" and s[5] is not None)
    if sweeps != logged:
        problems.append(f"golse_iterate calls {sweeps} != shock-class layer_iterations {logged}")
    steps = sum(1 for s in spans if s[0] == "coupling.coupled_step")
    if steps != expected_steps:
        problems.append(f"coupled_step calls {steps} != scenario_dt steps {expected_steps}")
    return problems
