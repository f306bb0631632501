"""Outside-in tracing of one benchmark pass.

Spans are recorded at layer boundaries by wrapping public functions of
`solarnav.*` at the binding each caller uses: `cli` and `simulate` import
`build_grid` and the planners by name, so patching only the defining module
would miss those calls. `NavGrid.edge_cost` and `NavGrid.neighbors` are
wrapped on the class. Nothing under the program's source tree changes.

Every span has an id, a parent id and the trace id of its job. Functions
called per search edge or per simulation step ("hot" below) are aggregated
per (parent span, name) instead of being stored one by one. A span's self
time is its duration minus the durations of its child spans.

The energy functions (about 1 us per call) and `gamma` are not wrapped: a
wrapper would cost as much as the work, so their time sits in the self time
of their callers in `simulate`, `planning` and `grid`.
"""

from __future__ import annotations

import importlib
import math
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

CONTROL_FUNCS = ("pursuit_lookahead", "pursuit_command", "avoidance_command",
                 "realign_command", "sense_obstacles", "supervisor_step",
                 "step_kinematics_planar", "step_kinematics_3d")
PLANNERS = ("plan_energy_efficient", "plan_time_efficient", "plan_shortest")
REPORTERS = ("plan_summary", "report_text", "write_plan_csv", "write_report",
             "write_trajectory_csv")

# Heavy workloads of each per-layer metric, from the benchmark's design table.
# A traced pass must read non-zero on these.
HEAVY = {
    "cli.": ("city_plan", "privacy_dp", "closed_loop"),
    "scenario_io.": ("city_plan", "privacy_dp", "closed_loop"),
    "world.segments_blocked": ("city_plan",),
    "world.rows_per_call": ("city_plan",),
    "world.blocked_frac": ("city_plan",),
    "world.segment_blocked": ("privacy_dp",),
    "world.in_shadow": ("closed_loop",),
    "grid.": ("city_plan",),
    "planning.": ("city_plan",),
    "privacy.": ("privacy_dp",),
    "control.": ("closed_loop",),
    "simulate.": ("closed_loop",),
    "reporting.": ("closed_loop", "city_plan"),
}

# (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "scenario_io.load_s": ("s", "lower"),
    "scenario_io.loads": ("count", "lower"),
    "world.segments_blocked_s": ("s", "lower"),
    "world.segments_blocked_calls": ("count", "lower"),
    "world.segments_blocked_rows": ("count", "lower"),
    "world.rows_per_call": ("count", "higher"),
    "world.blocked_frac": ("ratio", "higher"),
    "world.segment_blocked_s": ("s", "lower"),
    "world.segment_blocked_calls": ("count", "lower"),
    "world.in_shadow_s": ("s", "lower"),
    "world.in_shadow_calls": ("count", "lower"),
    "grid.build_s": ("s", "lower"),
    "grid.builds": ("count", "lower"),
    "grid.nodes": ("count", "lower"),
    "grid.free_nodes": ("count", "lower"),
    "grid.edges": ("count", "lower"),
    "grid.edge_cost_s": ("s", "lower"),
    "grid.edge_cost_calls": ("count", "lower"),
    "planning.energy_s": ("s", "lower"),
    "planning.time_s": ("s", "lower"),
    "planning.shortest_s": ("s", "lower"),
    "planning.expansions": ("count", "lower"),
    "planning.path_edges": ("count", "lower"),
    "planning.useful_frac": ("ratio", "higher"),
    "privacy.dp_s": ("s", "lower"),
    "privacy.plans": ("count", "lower"),
    "privacy.lattice_nodes": ("count", "lower"),
    "privacy.layers": ("count", "lower"),
    "privacy.reachable_states": ("count", "lower"),
    "privacy.reachable_frac": ("ratio", "lower"),
    "control.s": ("s", "lower"),
    "control.calls": ("count", "lower"),
    "simulate.run_s": ("s", "lower"),
    "simulate.steps": ("count", "lower"),
    "simulate.us_per_step": ("us", "lower"),
    "simulate.min_separation_s": ("s", "lower"),
    "simulate.shadowed_at_s": ("s", "lower"),
    "simulate.compute_metrics_s": ("s", "lower"),
    "simulate.mode_switches": ("count", "lower"),
    "simulate.replans": ("count", "lower"),
    "simulate.avoid_steps_frac": ("ratio", "lower"),
    "reporting.s": ("s", "lower"),
    "reporting.bytes": ("count", "lower"),
}


class Tracer:
    """Span stack, per-name statistics and counters of one traced pass.

    A stack frame is a list: [child_s, agg, span_id, name, start, dur,
    children]. `agg` is the aggregation dict of the nearest full span;
    `children` maps direct full child names to their summed durations."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}     # name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.records: List[tuple] = []
        self.stack: List[list] = []
        self.violations = 0
        self.trace_id = ""
        self.planner_depth = 0
        self.unbound: List[str] = []
        self._next_id = 0
        self._patches: List[tuple] = []
        self._build_patches()

    # ------------------------------------------------------------ spans
    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0])

    def run_root(self, fn: Callable[[], object], trace_id: str):
        """Run one job under a root span named `cli`."""
        self.trace_id = trace_id
        frame = self._push("cli")
        try:
            return fn()
        finally:
            self._pop(frame)

    def _push(self, name: str) -> list:
        self._next_id += 1
        frame = [0.0, {}, self._next_id, name, 0.0, 0.0, {}]
        self.stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _pop(self, frame: list) -> None:
        end = perf_counter()
        dur = end - frame[4]
        frame[5] = dur
        self.stack.pop()
        if frame[0] > dur + 1e-9:
            self.violations += 1
        stat = self._stat(frame[3])
        stat[0] += 1
        stat[1] += dur - frame[0]
        parent_id = None
        if self.stack:
            parent = self.stack[-1]
            parent[0] += dur
            if len(parent) > 2:
                parent[6][frame[3]] = parent[6].get(frame[3], 0.0) + dur
                parent_id = parent[2]
        self.records.append((frame[2], parent_id, self.trace_id, frame[3],
                             frame[4], end, dur - frame[0]))
        for name, (calls, total) in frame[1].items():
            self.records.append((None, frame[2], self.trace_id, name, calls, total))

    def _full(self, name: str, fn: Callable, after: Optional[Callable] = None,
              planner: bool = False) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._push(name)
            tracer.planner_depth += planner
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.planner_depth -= planner
                tracer._pop(frame)
            if after is not None:
                after(result, args, frame)
            return result
        return wrapper

    def _hot(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if frame[0] > dur + 1e-9:
                    tracer.violations += 1
                stat[0] += 1
                stat[1] += dur - frame[0]
                parent[0] += dur
                entry = parent[1].get(name)
                if entry is None:
                    parent[1][name] = [1, dur]
                else:
                    entry[0] += 1
                    entry[1] += dur
        return wrapper

    # ---------------------------------------------------------- bindings
    def _build_patches(self) -> None:
        mods = {n: importlib.import_module("solarnav." + n)
                for n in ("cli", "grid", "privacy", "simulate", "reporting")}
        c = self.counts

        def bind(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
            owner = mods[module]
            original = getattr(owner, attr, None)
            if original is None:
                self.unbound.append(f"{module}.{attr}")
                return
            self._patches.append((owner, attr, original, make(original)))

        def grid_sizes(grid, _args, _frame):
            c["grid.nodes"] += grid.node_count
            c["grid.free_nodes"] += grid.free_count()
            c["grid.edges"] += int(grid.edge_ok.sum())

        def batch_rows(blocked, _args, _frame):
            c["world.segments_blocked_rows"] += len(blocked)
            c["world.blocked_rows"] += int(blocked.sum())

        def path_edges(path, _args, _frame):
            c["planning.path_edges"] += len(path.edges)

        def lattice_sizes(plan, _args, _frame):
            lat = plan.lattice
            nodes = math.prod(lat.dims)
            c["privacy.lattice_nodes"] += nodes
            c["privacy.layers"] += lat.m_layers
            c["privacy.reachable_states"] += sum(len(v) for v in lat.values)
            c["privacy.state_space"] += nodes * len(lat.values)

        def sim_counts(result, _args, frame):
            log = result[0]
            c["simulate.steps"] += len(log.records) - 1
            c["simulate.mode_switches"] += sum(e.kind == "mode_switch" for e in log.events)
            c["simulate.replans"] += sum(e.kind == "replan" for e in log.events)
            c["simulate.avoid_steps"] += sum(r.mode.value == "avoiding"
                                             for r in log.records[1:])
            planning = sum(d for n, d in frame[6].items()
                           if n.startswith(("grid.", "planning.")))
            c["simulate.loop_s"] += frame[5] - planning

        def written(_result, args, _frame):
            c["reporting.bytes"] += os.path.getsize(args[-1])

        def echoed(text, _args, _frame):
            c["reporting.bytes"] += len(text.encode())

        full, hot = self._full, self._hot
        bind("cli", "load_scenario", lambda f: full("scenario_io.load_scenario", f))
        bind("grid", "segments_blocked",
             lambda f: full("world.segments_blocked", f, batch_rows))
        bind("privacy", "segment_blocked", lambda f: hot("world.segment_blocked", f))
        for module in ("grid", "simulate"):
            bind(module, "in_shadow", lambda f: hot("world.in_shadow", f))
        for module in ("cli", "simulate"):
            bind(module, "build_grid", lambda f: full("grid.build_grid", f, grid_sizes))
            for attr in PLANNERS:
                bind(module, attr, lambda f, a=attr: full("planning." + a, f, path_edges,
                                                          planner=True))
        bind("cli", "plan_privacy_dp",
             lambda f: full("privacy.plan_privacy_dp", f, lattice_sizes))
        for attr in CONTROL_FUNCS:
            bind("simulate", attr, lambda f, a=attr: hot("control." + a, f))
        bind("cli", "run_scenario", lambda f: full("simulate.run_scenario", f, sim_counts))
        bind("simulate", "compute_metrics", lambda f: full("simulate.compute_metrics", f))
        for module in ("simulate", "reporting"):
            for attr in ("min_separation", "shadowed_at"):
                bind(module, attr, lambda f, a=attr: hot("simulate." + a, f))
        for attr in REPORTERS:
            after = echoed if attr == "report_text" else (
                written if attr.startswith("write_") else None)
            bind("cli", attr, lambda f, a=attr, h=after: full("reporting." + a, f, h))

        nav = mods["grid"].NavGrid
        self._patches.append((nav, "edge_cost", nav.edge_cost,
                              hot("grid.edge_cost", nav.edge_cost)))
        neighbors = nav.neighbors

        def counted_neighbors(grid, flat):
            if self.planner_depth:
                c["planning.expansions"] += 1
            return neighbors(grid, flat)
        self._patches.append((nav, "neighbors", neighbors, counted_neighbors))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # ----------------------------------------------------------- metrics
    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics summed over everything traced so far."""
        s = self.stats
        c = self.counts

        def self_s(*names: str) -> float:
            return sum(s.get(n, (0, 0.0))[1] for n in names)

        def calls(*names: str) -> int:
            return sum(int(s.get(n, (0, 0.0))[0]) for n in names)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        seg_calls = calls("world.segments_blocked")
        rows = c["world.segments_blocked_rows"]
        control = ["control." + f for f in CONTROL_FUNCS]
        reporting = ["reporting." + f for f in REPORTERS]
        m = {
            "cli.self_s": self_s("cli"),
            "scenario_io.load_s": self_s("scenario_io.load_scenario"),
            "scenario_io.loads": calls("scenario_io.load_scenario"),
            "world.segments_blocked_s": self_s("world.segments_blocked"),
            "world.segments_blocked_calls": seg_calls,
            "world.segments_blocked_rows": rows,
            "world.rows_per_call": ratio(rows, seg_calls),
            "world.blocked_frac": ratio(c["world.blocked_rows"], rows),
            "world.segment_blocked_s": self_s("world.segment_blocked"),
            "world.segment_blocked_calls": calls("world.segment_blocked"),
            "world.in_shadow_s": self_s("world.in_shadow"),
            "world.in_shadow_calls": calls("world.in_shadow"),
            "grid.build_s": self_s("grid.build_grid"),
            "grid.builds": calls("grid.build_grid"),
            "grid.nodes": c["grid.nodes"],
            "grid.free_nodes": c["grid.free_nodes"],
            "grid.edges": c["grid.edges"],
            "grid.edge_cost_s": self_s("grid.edge_cost"),
            "grid.edge_cost_calls": calls("grid.edge_cost"),
            "planning.energy_s": self_s("planning.plan_energy_efficient"),
            "planning.time_s": self_s("planning.plan_time_efficient"),
            "planning.shortest_s": self_s("planning.plan_shortest"),
            "planning.expansions": c["planning.expansions"],
            "planning.path_edges": c["planning.path_edges"],
            "planning.useful_frac": ratio(c["planning.path_edges"],
                                          c["planning.expansions"]),
            "privacy.dp_s": self_s("privacy.plan_privacy_dp"),
            "privacy.plans": calls("privacy.plan_privacy_dp"),
            "privacy.lattice_nodes": c["privacy.lattice_nodes"],
            "privacy.layers": c["privacy.layers"],
            "privacy.reachable_states": c["privacy.reachable_states"],
            "privacy.reachable_frac": ratio(c["privacy.reachable_states"],
                                            c["privacy.state_space"]),
            "control.s": self_s(*control),
            "control.calls": calls(*control),
            "simulate.run_s": self_s("simulate.run_scenario"),
            "simulate.steps": c["simulate.steps"],
            "simulate.us_per_step": 1e6 * ratio(c["simulate.loop_s"], c["simulate.steps"]),
            "simulate.min_separation_s": self_s("simulate.min_separation"),
            "simulate.shadowed_at_s": self_s("simulate.shadowed_at"),
            "simulate.compute_metrics_s": self_s("simulate.compute_metrics"),
            "simulate.mode_switches": c["simulate.mode_switches"],
            "simulate.replans": c["simulate.replans"],
            "simulate.avoid_steps_frac": ratio(c["simulate.avoid_steps"],
                                               c["simulate.steps"]),
            "reporting.s": self_s(*reporting),
            "reporting.bytes": c["reporting.bytes"],
        }
        return m


def zero_on_heavy(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Names of metrics that read zero although `workload` is heavy on them."""
    return [name for name, value in metrics.items()
            if value == 0 and any(name.startswith(prefix) and workload in heavy
                                  for prefix, heavy in HEAVY.items())]
