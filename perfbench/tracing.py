"""In-memory span tracer that wraps the public functions of every freegeo layer.

The tracer patches each module's own binding of a traced function (a
``from .gibbs import sample_gibbs`` in ``entropy`` is a separate binding from
``gibbs.sample_gibbs``), plus a few methods on shared classes.  Spans are
recorded only while a benchmark operation is open, so oracle checks run by the
benchmark itself never show up.  Each span stores name, start, end, parent
span and operation id in flat arrays; self times are derived once, after the
traced pass, as span duration minus the duration of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute path, span name); one span per call
SPANNED = [
    ("freegeo.matcore", "sample_gue", "matcore.sample_gue"),
    ("freegeo.matcore", "sample_ginibre", "matcore.sample_ginibre"),
    ("freegeo.matcore", "tensor_embed", "matcore.tensor_embed"),
    ("freegeo.matcore", "operator_norm", "matcore.operator_norm"),
    ("freegeo.logic", "parse", "logic.parse"),
    ("freegeo.logic", "evaluate", "logic.evaluate"),
    ("freegeo.logic", "qf_type", "logic.qf_type"),
    ("freegeo.logic", "qf_distance", "logic.qf_distance"),
    ("freegeo.convex", "hopf_lax", "convex.hopf_lax"),
    ("freegeo.convex", "legendre_strongly_convex", "convex.legendre_strongly_convex"),
    ("freegeo.convex", "interpolation_pair", "convex.interpolation_pair"),
    ("freegeo.convex", "inf_convolution", "convex.inf_convolution"),
    ("freegeo.convex", "check_strong_convexity", "convex.check_strong_convexity"),
    ("freegeo.convex", "check_semiconcavity", "convex.check_semiconcavity"),
    ("freegeo.convex", "duality_gap", "convex.duality_gap"),
    ("freegeo.convex", "ScalarFn.__call__", "convex.ScalarFn.__call__"),
    ("freegeo.gibbs", "sample_gibbs", "gibbs.sample_gibbs"),
    ("freegeo.gibbs", "Potential.value", "gibbs.Potential.value"),
    ("freegeo.gibbs", "Potential.gradient", "gibbs.Potential.gradient"),
    ("freegeo.gibbs", "save_ensemble", "gibbs.save_ensemble"),
    ("freegeo.gibbs", "load_ensemble", "gibbs.load_ensemble"),
    ("freegeo.transport", "empirical_w2", None),  # named by method, see _w2_name
    ("freegeo.transport", "kantorovich_potentials_1d", "transport.kantorovich_potentials_1d"),
    ("freegeo.transport", "spectral_w2_1d", "transport.spectral_w2_1d"),
    ("freegeo.transport", "Quantile1D.w2", "transport.Quantile1D.w2"),
    ("freegeo.transport", "Quantile1D.inner_product", "transport.Quantile1D.inner_product"),
    ("freegeo.entropy", "gibbs_entropy", "entropy.gibbs_entropy"),
    ("freegeo.entropy", "thermo_delta", "entropy.thermo_delta"),
    ("freegeo.entropy", "knn_entropy", "entropy.knn_entropy"),
    ("freegeo.lab.cli", "main", "lab.cli.main"),
    ("freegeo.lab.experiments", "run_experiment", "lab.run_experiment"),
    ("freegeo.lab.report", "Report.save", "lab.Report.save"),
]

# (module, attribute path, counter name); counted only, too hot for spans
COUNTED = [
    ("freegeo.matcore", "MatrixTuple.__post_init__", "matcore.MatrixTuple.allocs"),
    ("freegeo.logic", "NcPolynomial.evaluate", "logic.NcPolynomial.evaluate.calls"),
]

SPAN_NAMES = [name for _, _, name in SPANNED if name] + [
    "transport.empirical_w2.exact", "transport.empirical_w2.sinkhorn"]

OP_SPAN = "bench.operation"


def _w2_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "exact")
    return f"transport.empirical_w2.{method}"


class Tracer:
    """Records spans and counters for the operations of one traced pass."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN] + SPAN_NAMES
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.opid = array("i")
        self.counters: Counter = Counter()
        self.op_labels: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.opid.append(self._op)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_operation(self, label: str) -> None:
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        self._open(self._ids[OP_SPAN])

    def end_operation(self) -> None:
        while self._stack:
            self._close(self._stack[-1])
        self._op = -1

    def _spanned(self, name, fn, after=None):
        tracer = self
        fixed_id = None if name is None else self._ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            name_id = fixed_id if fixed_id is not None else tracer._ids[_w2_name(args, kwargs)]
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op >= 0:
                counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- work counters read from arguments and results --------------------

    def _after_sample(self, args, kwargs, ens):
        diag = ens.diagnostics
        proposals = ens.count * int(diag["thin"])
        self.counters["gibbs.proposals"] += proposals
        self.counters["gibbs.accepted"] += float(diag["acceptance_rate"]) * proposals
        self.counters["gibbs.halvings"] += int(diag["halvings"])
        self.counters["gibbs.samples"] += ens.count

    def _after_save(self, args, kwargs, _result):
        self.counters["gibbs.fige_bytes"] += os.path.getsize(kwargs.get("path", args[1]))

    def _after_load(self, args, kwargs, _result):
        self.counters["gibbs.fige_bytes"] += os.path.getsize(kwargs.get("path", args[0]))

    def _after_w2(self, args, kwargs, _result):
        a, b = args[0], args[1]
        cells = a.count * b.count
        self.counters["transport.cost_matrix_bytes"] += 8 * cells  # float64 cost matrix
        self.counters["transport.assignment_cells"] += cells  # one assignment per call

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each traced callable across freegeo modules."""
        after = {
            "gibbs.sample_gibbs": self._after_sample,
            "gibbs.save_ensemble": self._after_save,
            "gibbs.load_ensemble": self._after_load,
            None: self._after_w2,
        }
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "freegeo" or key.startswith("freegeo."))]
        for modname, path, name in SPANNED + COUNTED:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapped = (self._counted(name, original) if (modname, path, name) in COUNTED
                           else self._spanned(name, original, after.get(name)))
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._spanned(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.opid, dtype=np.int32).copy(),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per span name id."""
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        return (np.bincount(sp["name"], minlength=k),
                np.bincount(sp["name"], weights=own, minlength=k))

    def descendants_per_ancestor(self, ancestor: str, descendant_prefix: str,
                                 op: int | None = None) -> list[int]:
        """For each span named ``ancestor`` (within operation ``op`` if given),
        the number of descendant spans whose name starts with ``descendant_prefix``."""
        sp = self.arrays()
        sel = sp["name"] == self._ids[ancestor]
        if op is not None:
            sel &= sp["op"] == op
        counts = {int(i): 0 for i in np.flatnonzero(sel)}
        wanted = [i for i, nm in enumerate(self.names) if nm.startswith(descendant_prefix)]
        for idx in np.flatnonzero(np.isin(sp["name"], wanted)):
            p = int(sp["parent"][idx])
            while p >= 0:
                if p in counts:
                    counts[p] += 1
                    break
                p = int(sp["parent"][p])
        return [counts[k] for k in sorted(counts)]

    def layer_metrics(self) -> dict[str, float]:
        calls, own = self.self_times()
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.self_s"] = float(own[i])
        c = self.counters
        by_name = dict(zip(self.names, calls))
        grads = float(by_name["gibbs.Potential.gradient"])
        sampling_s = self._inclusive_seconds("gibbs.sample_gibbs")
        out["matcore.MatrixTuple.allocs"] = float(c["matcore.MatrixTuple.allocs"])
        out["matcore.allocs_per_grad"] = (c["matcore.MatrixTuple.allocs"] / grads
                                          if grads else 0.0)
        out["logic.NcPolynomial.evaluate.calls"] = float(c["logic.NcPolynomial.evaluate.calls"])
        evals = float(by_name["logic.evaluate"])
        out["logic.atom_evals_per_evaluate"] = (c["logic.NcPolynomial.evaluate.calls"] / evals
                                                if evals else 0.0)
        out["gibbs.proposals"] = float(c["gibbs.proposals"])
        out["gibbs.accept_ratio"] = (c["gibbs.accepted"] / c["gibbs.proposals"]
                                     if c["gibbs.proposals"] else 0.0)
        out["gibbs.halvings"] = float(c["gibbs.halvings"])
        out["gibbs.grad_calls_per_sample"] = (grads / c["gibbs.samples"]
                                              if c["gibbs.samples"] else 0.0)
        out["gibbs.grad_calls_per_s"] = grads / sampling_s if sampling_s else 0.0
        out["gibbs.fige_bytes"] = float(c["gibbs.fige_bytes"])
        out["transport.cost_matrix_bytes"] = float(c["transport.cost_matrix_bytes"])
        out["transport.assignment_cells"] = float(c["transport.assignment_cells"])
        out["entropy.ti_nodes"] = float(sum(
            self.descendants_per_ancestor("entropy.thermo_delta", "gibbs.sample_gibbs")))
        return out

    def _inclusive_seconds(self, name: str) -> float:
        sp = self.arrays()
        sel = sp["name"] == self._ids[name]
        return float(np.sum(sp["end"][sel] - sp["start"][sel]))

    def save(self, path: Path) -> None:
        """Write all spans, the name table and the operation labels."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), ops=np.array(self.op_labels),
                            **self.arrays())


UNITS = {
    "calls": "count", "self_s": "s", "allocs": "count", "allocs_per_grad": "ratio",
    "atom_evals_per_evaluate": "ratio", "proposals": "count", "accept_ratio": "ratio",
    "halvings": "count", "grad_calls_per_sample": "ratio", "grad_calls_per_s": "1/s",
    "fige_bytes": "bytes", "cost_matrix_bytes": "bytes", "assignment_cells": "count",
    "ti_nodes": "count", "overhead_s": "s",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [
        "matcore.MatrixTuple.allocs", "matcore.allocs_per_grad",
        "logic.NcPolynomial.evaluate.calls", "logic.atom_evals_per_evaluate",
        "gibbs.proposals", "gibbs.accept_ratio", "gibbs.halvings",
        "gibbs.grad_calls_per_sample", "gibbs.grad_calls_per_s", "gibbs.fige_bytes",
        "transport.cost_matrix_bytes", "transport.assignment_cells", "entropy.ti_nodes",
    ]
    return names
