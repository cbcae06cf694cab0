"""Span tracing of mmvlab's layers from outside the package.

The tracer wraps the public functions of every package module at each
module attribute that binds them (``mmvlab.solve_schedule`` and
``mmvlab.aggregate.solve_schedule`` are the same function, so both are
replaced), plus the ``integrate`` / ``mass_scaled_ge`` / ``sample``
methods of every jump-measure class and the ``JumpAtom.chars`` property.
Nothing under ``src/`` changes; ``restore`` puts every original back.

A span is (name, start, end, parent, operation id).  Spans are kept in
flat arrays while the benchmark runs and written out once at the end.
Only calls on the main thread open spans: calls from the simulator's
worker threads are counted but their time stays in the caller's span,
so self times always add up to the traced wall time.
"""
from __future__ import annotations

import csv
import functools
import gzip
import inspect
import math
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

# Layer name -> module.  A span's layer is the first part of its name.
LAYERS = {
    "cli": "mmvlab.cli",
    "examples": "mmvlab.examples",
    "model": "mmvlab.model",
    "measures": "mmvlab.measures",
    "quad": "mmvlab._quad",
    "drift": "mmvlab.drift",
    "localutil": "mmvlab.localutil",
    "optimize": "mmvlab.optimize",
    "aggregate": "mmvlab.aggregate",
    "duality": "mmvlab.duality",
    "montecarlo": "mmvlab.montecarlo",
}

_QUAD_RULES = ("legendre_panel", "laguerre_tail", "hermite_gaussian")
_MEASURE_METHODS = ("integrate", "mass_scaled_ge", "sample")
# Private factories of the scalar 1-d objective and FOC closures; their
# closures are counted (not spanned) while these factories exist.
_CLOSURE_FACTORIES = {"_objective": "optimize.objective_calls",
                      "_foc_closure": "optimize.foc_closure_calls"}


class Tracer:
    """Collects spans and counts while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.boundedness: Counter = Counter()
        self.sim_rows = 0          # paths x rows materialized by simulate_paths
        self.reduce_rows = 0       # paths x rows reduced by wealth_recursion
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, n: int = 1) -> None:
        if threading.get_ident() == self._main:
            self.counts[key] += n
        else:
            with self._lock:
                self.counts[key] += n

    def wrap(self, fn, name: str, on_result=None, count_nodes: bool = False):
        """Traced stand-in for fn; on_result may inspect or replace results."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._count(name)
            if count_nodes:
                args = (tracer._node_counter(args[0]),) + args[1:]
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            return result if on_result is None else on_result(result)

        return traced

    def _node_counter(self, f):
        def counted(x):
            self._count("quad.nodes", int(np.size(x)))
            return f(x)
        return counted

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _bind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mmvlab" or mod_name.startswith("mmvlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _on_result_hook(self, qualname: str):
        if qualname == "optimize.maximize_local_utility":
            def tally(opt):
                self.boundedness[opt.boundedness] += 1
                return opt
            return tally
        if qualname == "montecarlo.simulate_paths":
            def rows(paths):
                self.sim_rows += paths.n_paths * paths.n_rows
                return paths
            return rows
        if qualname == "montecarlo.wealth_recursion":
            def rows(w):
                self.reduce_rows += w.shape[0] * (w.shape[1] - 1)
                return w
            return rows
        return None

    def install(self) -> None:
        """Wrap every public function, measure method and JumpAtom.chars."""
        for layer, mod_name in LAYERS.items():
            mod = sys.modules[mod_name]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod_name:
                    continue
                qual = f"{layer}.{attr}"
                wrapped = self.wrap(fn, qual, on_result=self._on_result_hook(qual),
                                    count_nodes=layer == "quad" and attr in _QUAD_RULES)
                self._bind_everywhere(fn, wrapped)
        optimize = sys.modules[LAYERS["optimize"]]
        for attr, key in _CLOSURE_FACTORIES.items():
            fn = vars(optimize).get(attr)
            if inspect.isfunction(fn):
                self._bind_everywhere(fn, self._counting_factory(fn, key))
        measures = sys.modules[LAYERS["measures"]]
        for cls in vars(measures).values():
            if not (inspect.isclass(cls) and issubclass(cls, measures.JumpMeasure)
                    and cls.__module__ == measures.__name__):
                continue
            for meth in _MEASURE_METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    self._set(cls, meth, self.wrap(
                        fn, f"measures.{cls.__name__}.{meth}"))
        atom = sys.modules[LAYERS["model"]].JumpAtom
        prop = atom.__dict__["chars"]
        self._set(atom, "chars", property(self.wrap(prop.fget, "model.JumpAtom.chars")))

    def _counting_factory(self, factory, key: str):
        """Factory stand-in whose closures count their calls under key."""
        @functools.wraps(factory)
        def make(*args, **kwargs):
            closure = factory(*args, **kwargs)
            if closure is None or not self.enabled:
                return closure

            def counted(*a):
                self.counts[key] += 1
                return closure(*a)
            return counted
        return make

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction -------------------------------------------------------

    def layer_table(self, traced_wall: float) -> dict:
        """Self time per layer, other_s and span statistics.

        A span's self time is its duration minus its children's; the
        layer totals plus other_s (traced time outside any span) equal
        traced_wall by construction.
        """
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        by_name_self = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        by_name_incl = np.bincount(name_id, weights=dur, minlength=len(self.names))
        layer_self = {layer: 0.0 for layer in LAYERS}
        name_self = {}
        name_incl = {}
        for nid, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(by_name_self[nid])
            name_self[name] = float(by_name_self[nid])
            name_incl[name] = float(by_name_incl[nid])
        top = float(dur[~has_parent].sum())
        point_ms = []
        nid = self._name_ids.get("optimize.maximize_local_utility")
        if nid is not None:
            point_ms = (dur[name_id == nid] * 1e3).tolist()
        return {"layer_self": layer_self, "other_s": traced_wall - top,
                "name_self": name_self, "name_incl": name_incl,
                "point_ms": point_ms, "spans": n}

    def write_spans(self, path, t0: float) -> None:
        """Gzipped CSV, one row per span; times in seconds from t0."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "op"])
            names = self.names
            for i in range(len(self.start)):
                writer.writerow([names[self.name_id[i]],
                                 repr(self.start[i] - t0), repr(self.end[i] - t0),
                                 self.parent[i], self.op[i]])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[k])
