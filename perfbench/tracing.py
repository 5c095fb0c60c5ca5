"""In-memory span tracer for the traced benchmark mode.

`Tracer` temporarily rebinds the module-level names the program calls
through (for example `swarmform.simulator.plan_tick`) to wrappers that record
one span per call: name, start, end and parent span.  It also counts work at
the same boundaries (edges, neighbours, clamps).  Every name is restored on
exit, also when the traced code raises.  A target the program no longer has
is recorded as absent; its spans then read 0 calls.

The spans stay in compact arrays until the run ends; `per_layer` turns them
into the per-layer metrics and `save` writes them out.
"""

from __future__ import annotations

import time
import warnings
from array import array
from contextlib import contextmanager
from importlib import import_module

import numpy as np

# (module, attribute, span name).  The span name is "<layer>.<function>",
# where the layer is the module that defines the function.
TARGETS = (
    ("swarmform.simulator", "run", "simulator.run"),
    ("swarmform.simulator", "build_graph", "network.build_graph"),
    ("swarmform.simulator", "exchange", "network.exchange"),
    ("swarmform.simulator", "desired_velocity", "apf.desired_velocity"),
    ("swarmform.simulator", "plan_tick", "planner.plan_tick"),
    ("swarmform.simulator", "step_world", "simulator.step_world"),
    ("swarmform.simulator", "compute_metrics", "simulator.compute_metrics"),
    ("swarmform.planner", "tracking_term", "planner.tracking_term"),
    ("swarmform.planner", "consensus_term", "planner.consensus_term"),
    ("swarmform.planner", "soft_term", "planner.soft_term"),
    ("swarmform.planner", "scale_derivative", "planner.scale_derivative"),
    ("swarmform.planner", "recover_velocity", "planner.recover_velocity"),
    ("swarmform.planner", "jacobian", "transform.jacobian"),
    ("swarmform.planner", "pseudo_inverse", "transform.pseudo_inverse"),
    ("swarmform.planner", "apply_transform", "transform.apply_transform"),
    ("swarmform.planner", "hard_scale_factor", "constraints.hard_scale_factor"),
    ("swarmform.planner", "project_scaling", "constraints.project_scaling"),
    ("swarmform.apf", "repulsive_velocity", "apf.repulsive_velocity"),
    ("swarmform.fileio", "parse_scenario", "fileio.parse_scenario"),
    ("swarmform.fileio", "emit_scenario", "fileio.emit_scenario"),
    ("swarmform.fileio", "export_csv", "fileio.export_csv"),
    ("swarmform.fileio", "write_metrics_summary", "fileio.write_metrics_summary"),
)

# Value-object constructions are counted, not spanned: (module, class).
VALUE_OBJECTS = (
    ("swarmform.transform", "FormationParams"),
    ("swarmform.transform", "ParamDerivative"),
)

LAYERS = ("simulator", "network", "apf", "planner", "transform", "constraints", "fileio")

# Bytes one parameter vector takes on the wire: five float64.
ETA_BYTES = 40


def _count_delivered(args, result):
    return ("etas_delivered", sum(len(entry) for entry in result))


def _count_scanned(args, result):
    return ("robots_scanned", len(args[3]) if len(args) > 3 else 0)


def _count_neighbors(args, result):
    return ("neighbors", len(args[1]) if len(args) > 1 else 0)


def _count_hard_bound(args, result):
    return ("hard_bound", int(result < 1.0))


def _count_soft_moved(args, result):
    return ("soft_moved", int(len(args) > 1 and tuple(result) != (args[0], args[1])))


COUNTERS = {
    "network.exchange": _count_delivered,
    "apf.desired_velocity": _count_scanned,
    "planner.consensus_term": _count_neighbors,
    "constraints.hard_scale_factor": _count_hard_bound,
    "constraints.project_scaling": _count_soft_moved,
}


class Tracer:
    """Context manager that rebinds TARGETS and records spans and counts.

    Spans live in four parallel int64 arrays; parent -1 marks a root.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._warnings = None

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one whole job."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, span_name: str):
        name_id = self._id(span_name)
        counter = COUNTERS.get(span_name)
        open_, close = self._open, self._close
        counts = self.counts

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                key, n = counter(args, result)
                counts[key] = counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_post_init(self, post_init):
        counts = self.counts

        def counted(obj):
            counts["value_objects"] = counts.get("value_objects", 0) + 1
            post_init(obj)

        return counted

    def _on_warning(self, message, category, *args, **kwargs):
        if category.__name__ == "PenetrationWarning":
            self.count("penetration_clamps")

    # -- rebinding --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span_name in TARGETS:
                module = import_module(module_name)
                if not hasattr(module, attr):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._rebind(module, attr, self._wrap(getattr(module, attr), span_name))
            for module_name, cls_name in VALUE_OBJECTS:
                cls = getattr(import_module(module_name), cls_name, None)
                if cls is None or "__post_init__" not in vars(cls):
                    self.absent.append(f"{module_name}.{cls_name}.__post_init__")
                    continue
                self._rebind(cls, "__post_init__", self._wrap_post_init(cls.__post_init__))
            self._warnings = warnings.catch_warnings()
            self._warnings.__enter__()
            warnings.simplefilter("always")
            warnings.showwarning = self._on_warning
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def save(self, path) -> None:
        keys = sorted(self.counts)
        np.savez(path, names=np.array(self.names), **self.arrays(),
                 count_names=np.array(keys), count_values=np.array([self.counts[k] for k in keys]))

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children.  Names that never ran (absent or unused) read 0.
        """
        a = self.arrays()
        k = len(self.names)
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_ns, minlength=k)
        return {
            name: {"calls": int(calls[i]), "ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def problems(self, root: str) -> list[str]:
        """Checks that the spans form one tree under a single `root` span.

        Every span must end, lie inside its parent's interval, and not
        overlap its earlier siblings; so each span's children take no more
        than its own duration.  A wrapper that loses a close or a parent
        breaks one of these.
        """
        a = self.arrays()
        start, end, parent = a["start"], a["end"], a["parent"]
        problems = []
        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1 or self.names[a["name"][roots[0]]] != root:
            problems.append(f"{len(roots)} root spans, expected one {root!r}")
        if (end < start).any():
            problems.append(f"{int((end < start).sum())} spans end before they start")
        child = np.flatnonzero(parent >= 0)
        up = parent[child]
        outside = (start[child] < start[up]) | (end[child] > end[up])
        if outside.any():
            problems.append(f"{int(outside.sum())} spans lie outside their parent")
        order = child[np.lexsort((start[child], parent[child]))]
        same = parent[order[1:]] == parent[order[:-1]]
        overlap = same & (start[order[1:]] < end[order[:-1]])
        if overlap.any():
            problems.append(f"{int(overlap.sum())} spans overlap a sibling")
        return problems

    def ends_of(self, name: str) -> np.ndarray:
        a = self.arrays()
        if name not in self.name_ids:
            return np.empty(0, dtype=np.int64)
        return a["end"][a["name"] == self.name_ids[name]]


def per_layer(tracer: Tracer, *, n_robots: int, n_ticks: int, job_wall_s: float,
              run_wall_s: float, untraced_run_wall_s: float, csv_bytes: int) -> dict:
    """The per-layer metrics of one traced job, as {name: (value, unit)}.

    `job_wall_s` is the traced job's wall, `run_wall_s` and
    `untraced_run_wall_s` the wall of `simulator.run` traced and untraced.
    """
    st = tracer.stats()
    zero = {"calls": 0, "ns": 0.0, "self_ns": 0.0}

    def get(name):
        return st.get(name, zero)

    def div(a, b):
        return a / b if b else 0.0

    counts = tracer.counts
    plan_calls = get("planner.plan_tick")["calls"]
    delivered = counts.get("etas_delivered", 0)
    ticks = np.diff(tracer.ends_of("simulator.step_world")) / 1e6
    export = get("fileio.export_csv")
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("simulator.loop.self_ms_per_tick", div(get("simulator.run")["self_ns"] / 1e6, n_ticks), "ms")
    put("simulator.step_world.us_per_tick", div(get("simulator.step_world")["ns"] / 1e3, n_ticks), "us")
    put("simulator.compute_metrics.ms", get("simulator.compute_metrics")["ns"] / 1e6, "ms")
    put("simulator.tick.ms_p50", np.quantile(ticks, 0.5) if len(ticks) else 0.0, "ms")
    put("simulator.tick.ms_p99", np.quantile(ticks, 0.99) if len(ticks) else 0.0, "ms")

    put("network.build_graph.ms_per_tick", div(get("network.build_graph")["ns"] / 1e6, n_ticks), "ms")
    put("network.edges_per_tick", div(delivered / 2, n_ticks), "count")
    put("network.exchange.us_per_tick", div(get("network.exchange")["ns"] / 1e3, n_ticks), "us")
    put("network.exchange.etas_delivered_per_tick", div(delivered, n_ticks), "count")
    put("network.exchange.bytes_per_tick", div(ETA_BYTES * delivered, n_ticks), "B")

    dv = get("apf.desired_velocity")
    put("apf.desired_velocity.us_per_call", div(dv["ns"] / 1e3, dv["calls"]), "us")
    put("apf.robots_scanned_per_call", div(counts.get("robots_scanned", 0), dv["calls"]), "count")
    put("apf.repulsive_velocity.calls", get("apf.repulsive_velocity")["calls"], "count")
    put("apf.penetration_clamps", counts.get("penetration_clamps", 0), "count")

    put("planner.plan_tick.self_us_per_call", div(get("planner.plan_tick")["self_ns"] / 1e3, plan_calls), "us")
    put("planner.plan_tick.calls", plan_calls, "count")
    for stage in ("tracking_term", "consensus_term", "soft_term", "scale_derivative", "recover_velocity"):
        s = get(f"planner.{stage}")
        put(f"planner.{stage}.us_per_call", div(s["ns"] / 1e3, s["calls"]), "us")
    put("planner.consensus_term.neighbors_per_call",
        div(counts.get("neighbors", 0), get("planner.consensus_term")["calls"]), "count")

    pinv = get("transform.pseudo_inverse")
    put("transform.jacobian.calls_per_robot_tick", div(get("transform.jacobian")["calls"], plan_calls), "count")
    put("transform.pseudo_inverse.us_per_call", div(pinv["ns"] / 1e3, pinv["calls"]), "us")
    put("transform.value_objects_per_robot_tick", div(counts.get("value_objects", 0), plan_calls), "count")

    hsf = get("constraints.hard_scale_factor")
    put("constraints.hard_scale_factor.us_per_call", div(hsf["ns"] / 1e3, hsf["calls"]), "us")
    put("constraints.hard_bound_frac", div(counts.get("hard_bound", 0), hsf["calls"]), "ratio")
    put("constraints.soft_active_frac",
        div(counts.get("soft_moved", 0), get("constraints.project_scaling")["calls"]), "ratio")

    put("fileio.export_csv.s", export["ns"] / 1e9, "s")
    put("fileio.export_csv.bytes", csv_bytes, "B")
    put("fileio.export_csv.rows_per_s", div(n_robots * n_ticks, export["ns"] / 1e9), "1/s")

    # Share of the traced job's wall spent in each layer's own code.
    job_ns = job_wall_s * 1e9
    shares = {layer: 0.0 for layer in LAYERS}
    for name, s in st.items():
        layer = name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += s["self_ns"]
    for layer in LAYERS:
        put(f"{layer}.self_share", div(shares[layer], job_ns), "ratio")
    put("trace.overhead_frac", div(run_wall_s, untraced_run_wall_s) - 1.0, "ratio")
    return m
