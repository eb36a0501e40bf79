"""In-memory span tracer around the public functions of effdiff's layers.

`Tracer.install()` replaces each function in TARGETS with a wrapper that
records a span (name, start, end, parent id, run id) and updates counters,
then returns the function's result or re-raises its exception unchanged.
A function imported by name into other effdiff modules (cli and pde import
`frame_from_gradients`, `effective_tensor`, `to_cartesian`,
`stability_bound`, `mc_projected_tensor` and `quadrature_tensor`) is
rebound in every module that holds it.  `uninstall()` puts the originals
back.  Spans stay in memory until `write_jsonl` at the end of a run.

A span's layer is the part of its name before the first dot.  Its self
time is its duration minus the durations of its direct children; the self
times of all spans of one pass add up to the duration of the root
`cli.main` spans, so no time is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("expr", "geometry", "tensor", "pde", "brownian", "quadrature", "cli")


# ---------------------------------------------------------------------------
# counters, updated after each call returns
# ---------------------------------------------------------------------------

_TREE_SIZES = {}  # id(tree) -> (tree, node count); the tree is kept alive


def _tree_nodes(tree):
    hit = _TREE_SIZES.get(id(tree))
    if hit is not None and hit[0] is tree:
        return hit[1]
    count, todo = 0, [tree]
    while todo:
        node = todo.pop()
        count += 1
        for child in ("arg", "left", "right"):
            sub = getattr(node, child, None)
            if sub is not None:
                todo.append(sub)
    _TREE_SIZES[id(tree)] = (tree, count)
    return count


def _count_evaluate(counts, args, result):
    counts["expr.evaluate_calls"] += 1
    size = getattr(result, "size", 1)
    counts["expr.node_evals"] += _tree_nodes(args[0]) * size


def _count_frame(counts, args, result):
    counts["geometry.frame_calls"] += 1
    if result.degenerate_frame or result.extreme_tilt:
        counts["geometry.flagged_nodes"] += 1


def _count_tensor(counts, args, result):
    counts["tensor.nodes"] += 1


def _count_step(counts, args, result):
    counts["pde.steps"] += 1
    counts["pde.cell_steps"] += result.nx * result.ny


def _count_stability(counts, args, result):
    counts["pde.stability_bound_calls"] += 1


def _count_mc(counts, args, result):
    walker_steps = result.n_particles * result.n_steps
    counts["brownian.walker_steps"] += walker_steps
    counts["brownian.rejected_steps"] += result.rejected_steps
    counts["brownian.double_cross_steps"] += round(
        result.double_cross_fraction * walker_steps)


def _count_case(counts, args, result):
    counts["quadrature.cases"] += 1


def _count_write(counts, args, result):
    path = args[0]
    if path is not None:
        counts["cli.bytes_written"] += os.path.getsize(path)


# (module, attribute or Class.attribute, span name, counter)
TARGETS = (
    ("effdiff.expr", "parse", "expr.parse", None),
    ("effdiff.expr", "differentiate", "expr.parse", None),
    ("effdiff.expr", "evaluate", "expr.evaluate", _count_evaluate),
    ("effdiff.geometry", "frame_from_gradients", "geometry.frame", _count_frame),
    ("effdiff.geometry", "ScalarField.value", "geometry.field", None),
    ("effdiff.geometry", "ScalarField.gradient", "geometry.field", None),
    ("effdiff.geometry", "ExpressionField.value_array", "geometry.field", None),
    ("effdiff.geometry", "ExpressionField.gradient_array", "geometry.field", None),
    ("effdiff.geometry", "GridField.value_array", "geometry.field", None),
    ("effdiff.geometry", "GridField.gradient_array", "geometry.field", None),
    ("effdiff.geometry", "SurfacePair.__init__", "geometry.surfacepair", None),
    ("effdiff.geometry", "SurfacePair.width", "geometry.surfacepair", None),
    ("effdiff.tensor", "effective_tensor", "tensor.effective_tensor", _count_tensor),
    ("effdiff.tensor", "polar_decompose", "tensor.polar", None),
    ("effdiff.tensor", "to_cartesian", "tensor.to_cartesian", None),
    ("effdiff.pde", "PdeGrid.from_surfaces", "pde.from_surfaces", None),
    ("effdiff.pde", "step_finite_rate", "pde.step", _count_step),
    ("effdiff.pde", "step_infinite_rate", "pde.step", _count_step),
    ("effdiff.pde", "stability_bound", "pde.stability_bound", _count_stability),
    ("effdiff.brownian", "mc_projected_tensor", "brownian.mc", _count_mc),
    ("effdiff.quadrature", "quadrature_tensor", "quadrature.case", _count_case),
    ("effdiff.cli", "write_csv", "cli.write", _count_write),
    ("effdiff.cli", "write_json", "cli.write", _count_write),
    ("effdiff.cli", "main", "cli.main", None),
)


class Tracer:
    """Spans and counters of one benchmark run; one `run_id` per pass."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.runs = []
        self.counts = {}          # run id -> Counter
        self.run_id = None
        self._stack = []
        self._undo = []

    def begin(self, run_id):
        self.run_id = run_id
        self.counts[run_id] = Counter()

    def wrap(self, fn, name, counter):
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, stack = self.parents, self.runs, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                stack.pop()
                tracer.counts[tracer.run_id][name + ".raised"] += 1
                raise
            ends[sid] = clock()
            stack.pop()
            if counter is not None:
                counter(tracer.counts[tracer.run_id], args, result)
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, attr = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(raw.__func__, name, counter))
                else:
                    wrapped = self.wrap(raw, name, counter)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "effdiff"
                                       or mod_name.startswith("effdiff.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def pass_summary(self, run_id):
        """Self time per span name, root span time, and counters of a pass."""
        ids = [i for i, r in enumerate(self.runs) if r == run_id]
        child_time = {i: 0.0 for i in ids}
        roots = []
        for i in ids:
            dur = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent < 0:
                roots.append(i)
            else:
                child_time[parent] += dur
        self_time = defaultdict(float)
        inclusive = defaultdict(float)
        for i in ids:
            dur = self.ends[i] - self.starts[i]
            self_time[self.names[i]] += dur - child_time[i]
            inclusive[self.names[i]] += dur
        counts = Counter(self.counts.get(run_id, ()))
        counts["brownian.field_calls"] = self._mc_field_calls(ids)
        return {
            "self": self_time,
            "inclusive": inclusive,
            "root_names": sorted({self.names[i] for i in roots}),
            "root_s": sum(self.ends[i] - self.starts[i] for i in roots),
            "counts": counts,
        }

    def _mc_field_calls(self, ids):
        """Outermost ScalarField calls made inside mc_projected_tensor."""
        in_mc = {}
        calls = 0
        for i in ids:   # parents are recorded before their children
            parent = self.parents[i]
            name = self.names[i]
            in_mc[i] = name == "brownian.mc" or in_mc.get(parent, False)
            if (name == "geometry.field" and in_mc[i] and parent >= 0
                    and self.names[parent] != "geometry.field"):
                calls += 1
        return calls

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "run": self.runs[i]}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(summary):
    """Per-layer metrics of one traced pass; BENCHMARK.json gives units."""
    s, inc, c = summary["self"], summary["inclusive"], summary["counts"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in s.items():
        layer_self[name.split(".", 1)[0]] += value
    walker_steps = c["brownian.walker_steps"]
    tensor_self = layer_self["tensor"]
    return {
        "expr.self_s": layer_self["expr"],
        "expr.evaluate_calls": c["expr.evaluate_calls"],
        "expr.node_evals": c["expr.node_evals"],
        "expr.evaluate_self_s": s["expr.evaluate"],
        "expr.ns_per_node_eval": _ratio(s["expr.evaluate"], c["expr.node_evals"], 1e9),
        "expr.parse_s": s["expr.parse"],
        "geometry.self_s": layer_self["geometry"],
        "geometry.frame_calls": c["geometry.frame_calls"],
        "geometry.frame_self_s": s["geometry.frame"],
        "geometry.field_self_s": s["geometry.field"],
        "geometry.surfacepair_s": s["geometry.surfacepair"],
        "geometry.flagged_nodes": c["geometry.flagged_nodes"],
        "tensor.self_s": tensor_self,
        "tensor.effective_tensor_self_s": s["tensor.effective_tensor"],
        "tensor.polar_self_s": s["tensor.polar"],
        "tensor.to_cartesian_self_s": s["tensor.to_cartesian"],
        "tensor.us_per_node": _ratio(tensor_self, c["tensor.nodes"], 1e6),
        "pde.self_s": layer_self["pde"],
        "pde.from_surfaces_self_s": s["pde.from_surfaces"],
        "pde.steps": c["pde.steps"],
        "pde.step_self_s": s["pde.step"],
        "pde.ns_per_cell_step": _ratio(s["pde.step"], c["pde.cell_steps"], 1e9),
        "pde.stability_bound_calls": c["pde.stability_bound_calls"],
        "pde.stability_bound_s": s["pde.stability_bound"],
        "brownian.walker_steps": walker_steps,
        "brownian.self_s": layer_self["brownian"],
        "brownian.ns_per_walker_step": _ratio(inc["brownian.mc"], walker_steps, 1e9),
        "brownian.field_calls_per_walker_step":
            _ratio(c["brownian.field_calls"], walker_steps),
        "brownian.accepted_fraction":
            1.0 - _ratio(c["brownian.rejected_steps"], walker_steps)
            if walker_steps else 0.0,
        "brownian.double_cross_fraction":
            _ratio(c["brownian.double_cross_steps"], walker_steps),
        "quadrature.self_s": layer_self["quadrature"],
        "quadrature.cases": c["quadrature.cases"],
        "quadrature.ms_per_case": _ratio(inc["quadrature.case"], c["quadrature.cases"], 1e3),
        "quadrature.failed_cases": c["quadrature.case.raised"],
        "cli.self_s": s["cli.main"],
        "cli.write_s": s["cli.write"],
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.command_s": summary["root_s"],
    }


# Self-time metrics that partition the traced command time.
PARTITION = ("expr.self_s", "geometry.self_s", "tensor.self_s", "pde.self_s",
             "brownian.self_s", "quadrature.self_s", "cli.write_s", "cli.self_s")

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("expr.evaluate_calls", "expr.node_evals", "geometry.frame_calls",
                "geometry.flagged_nodes", "pde.steps", "pde.stability_bound_calls",
                "brownian.walker_steps", "quadrature.cases", "cli.bytes_written")
