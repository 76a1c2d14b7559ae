"""Spans around the calls into each layer of gouruin, recorded from outside.

``Tracer.install`` wraps the functions listed in ``TRACED`` and ``METHODS``
and rebinds every wrapper wherever the function object is bound by name:
the defining module, every ``gouruin`` module that imported it (for example
``gouruin.estimate.path_rng``, bound by ``from .simulate import path_rng``)
and the benchmark's own modules.  A span records its name, start, end,
parent span and op id; spans stay in memory and are written out once, at the
end of the run.  A span's self time is its duration minus the time of its
direct child spans.

Counts marked "computed" come from call arguments and return values, not
from counters inside the package.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

#: (span name, module, attribute) of every traced function.
TRACED = (
    ("cli.main", "gouruin.cli", "main"),
    ("cli.cmd_check", "gouruin.cli", "cmd_check"),
    ("classify.no_ruin_threshold", "gouruin.classify", "no_ruin_threshold"),
    ("classify.feasible_u_set", "gouruin.classify", "feasible_u_set"),
    ("classify.delta", "gouruin.classify", "delta"),
    ("classify.is_subordinator_s", "gouruin.classify", "is_subordinator_s"),
    ("classify.is_subordinator_1d", "gouruin.classify", "is_subordinator_1d"),
    ("regions.thetas", "gouruin.regions", "thetas"),
    ("regions.region_mass", "gouruin.regions", "region_mass"),
    ("regions.quadrant_mass", "gouruin.regions", "quadrant_mass"),
    ("regions.drift_lhs", "gouruin.regions", "drift_lhs"),
    ("regions.drift_lhs_piecewise", "gouruin.regions", "drift_lhs_piecewise"),
    ("quadrature.integrate_strips", "gouruin.quadrature", "integrate_strips"),
    ("quadrature.quad_1d", "gouruin.quadrature", "quad_1d"),
    ("quadrature.limit_toward_origin", "gouruin.quadrature", "limit_toward_origin"),
    ("model.s_process", "gouruin.model", "s_process"),
    ("model.w_transform", "gouruin.model", "w_transform"),
    ("model.density_from_json", "gouruin.model", "density_from_json"),
    ("simulate.path_rng", "gouruin.simulate", "path_rng"),
    ("simulate.arrival_times", "gouruin.simulate", "_arrival_times"),
    ("simulate.fv_events", "gouruin.simulate", "_fv_events"),
    ("simulate.fv_state_arrays", "gouruin.simulate", "_fv_state_arrays"),
    ("simulate.fv_first_passage", "gouruin.simulate", "fv_first_passage"),
    ("simulate.simulate_pair", "gouruin.simulate", "simulate_pair"),
    ("simulate.compute_Z", "gouruin.simulate", "compute_Z"),
    ("simulate.first_passage", "gouruin.simulate", "first_passage"),
    ("estimate.estimate_ruin", "gouruin.estimate", "estimate_ruin"),
    ("estimate.estimate_negative_prob", "gouruin.estimate", "estimate_negative_prob"),
    ("estimate.estimate_Zinf_cdf", "gouruin.estimate", "estimate_Zinf_cdf"),
    ("estimate.ruin_formula_checks", "gouruin.estimate", "ruin_formula_checks"),
    ("estimate.ruin_records", "gouruin.estimate", "ruin_records"),
    ("estimate.gaussian_grid_batch", "gouruin.estimate", "_gaussian_grid_batch"),
    ("estimate.fv_batch", "gouruin.estimate", "_fv_batch"),
    ("estimate.mixed_batch", "gouruin.estimate", "_mixed_batch"),
    ("estimate.hash_uniforms", "gouruin.estimate", "_hash_uniforms"),
    ("estimate.assemble_formula_check", "gouruin.estimate", "_assemble_formula_check"),
    ("estimate.chunk_ranges", "gouruin.estimate", "_chunk_ranges"),
    ("estimate.worker_count", "gouruin.estimate", "worker_count"),
)

#: (span name, module, class, method) of every traced method.
METHODS = (
    ("intervals.intersect", "gouruin.intervals", "IntervalSet", "intersect"),
    ("estimate.empirical_cdf", "gouruin.estimate", "EmpiricalCDF", "__init__"),
    ("estimate.empirical_cdf", "gouruin.estimate", "EmpiricalCDF", "__call__"),
    ("estimate.empirical_cdf", "gouruin.estimate", "EmpiricalCDF", "ks_two_sample"),
)

#: Span names in order, each once.
SPAN_NAMES = tuple(dict.fromkeys(row[0] for row in TRACED + METHODS))

_QUADRATURE = {"quadrature.integrate_strips", "quadrature.quad_1d", "quadrature.limit_toward_origin"}

#: Per-layer metrics that are counts rather than spans, with their units.
COUNTS = {
    "regions.drift_lhs_piecewise.atoms": "count",
    "quadrature.undetermined": "count",
    "quadrature.max_residual": "1",
    "simulate.jump_events": "count",
    "estimate.normals_drawn": "count",
    "estimate.terminal_only_normals_frac": "1",
    "estimate.chunk_matrix_mb": "MB",
    "estimate.bridge_cells": "count",
    "estimate.chunks": "count",
    "estimate.workers": "count",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = ["op"]
        self.spans: list = []  # (name index, start, end, parent span, op index)
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list = []
        self._seen_errors: list = []
        self.counts = dict.fromkeys(
            ("atoms", "undetermined", "jump_events", "normals", "terminal_normals",
             "bridge_cells", "chunks"), 0)
        self.max_residual = 0.0
        self.max_chunk_mb = 0.0
        self.max_workers = 0
        self._last_chunk_rows = 0

    # -- spans --------------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self.ops.append(name)
        self._op = len(self.ops) - 1
        self._stack.append(len(self.spans))
        self.spans.append((0, time.perf_counter(), None, -1, self._op))

    def end_op(self) -> None:
        i = self._stack.pop()
        _, start, _, parent, op = self.spans[i]
        self.spans[i] = (0, start, time.perf_counter(), parent, op)
        self._op = -1

    def _wrap(self, name: str, fn):
        self.names.append(name)
        idx = len(self.names) - 1
        hook = _HOOKS.get(name)
        quadrature = name in _QUADRATURE
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if quadrature:
                    self._note_error(exc)
                raise
            finally:
                spans[i] = (idx, start, clock(), parent, self._op)
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _note_error(self, exc) -> None:
        from gouruin.errors import UndeterminedError

        if isinstance(exc, UndeterminedError) and not any(e is exc for e in self._seen_errors):
            self._seen_errors.append(exc)
            self.counts["undetermined"] += 1
            if exc.residual is not None:
                self.max_residual = max(self.max_residual, float(exc.residual))

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function and rebind it at each call site."""
        sites = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gouruin"]
        sites += list(extra_modules)
        for name, modname, attr in TRACED:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, original)
            for mod in sites:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for name, modname, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: [calls, self seconds]}, op spans excluded."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            if idx == 0:
                continue
            row = totals.setdefault(self.names[idx], [0, 0.0])
            row[0] += 1
            row[1] += end - start - child[i]
        return totals

    def calls_per_op(self, span_name: str) -> list[int]:
        idx = self.names.index(span_name)
        calls = [0] * len(self.ops)
        for name_idx, _, _, _, op in self.spans:
            if name_idx == idx and op >= 0:
                calls[op] += 1
        return calls

    def count_metrics(self, passes: int) -> dict:
        """Counts per pass; maxima and fractions as they are."""
        c = {k: v / passes for k, v in self.counts.items()}
        return {
            "regions.drift_lhs_piecewise.atoms": c["atoms"],
            "quadrature.undetermined": c["undetermined"],
            "quadrature.max_residual": self.max_residual,
            "simulate.jump_events": c["jump_events"],
            "estimate.normals_drawn": c["normals"],
            "estimate.terminal_only_normals_frac": (
                c["terminal_normals"] / c["normals"] if c["normals"] else 0.0),
            "estimate.chunk_matrix_mb": self.max_chunk_mb,
            "estimate.bridge_cells": c["bridge_cells"],
            "estimate.chunks": c["chunks"],
            "estimate.workers": self.max_workers,
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for idx, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": self.names[idx], "start": start, "end": end, "parent": parent,
                    "op": self.ops[op] if op >= 0 else None, "op_id": op,
                }) + "\n")


# ---------------------------------------------------------------------------
# Computed counts, from the arguments and return value of a call
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _piecewise(tr, args, kwargs, result):
    tr.counts["atoms"] += len(_arg(args, kwargs, 0, "t").jumps.atoms_or_none() or ())


def _arrivals(tr, args, kwargs, result):
    tr.counts["jump_events"] += len(result)


def _chunk_ranges(tr, args, kwargs, result):
    tr.counts["chunks"] += len(result)
    tr._last_chunk_rows = max((hi - lo for lo, hi in result), default=0)


def _grid_batch(tr, args, kwargs, result):
    """normals = n x n_steps x components; the chunk matrix is the largest
    chunk x (n_steps + 1) float64 array of the call."""
    z_list = _arg(args, kwargs, 1, "z_list")
    horizon = _arg(args, kwargs, 2, "horizon")
    step = _arg(args, kwargs, 3, "step")
    n = _arg(args, kwargs, 4, "n")
    n_steps = max(1, int(round(horizon / step)))
    components = 1 if result.engine == "grid_bridge" else 2
    normals = n * n_steps * components
    tr.counts["normals"] += normals
    if not z_list:
        tr.counts["terminal_normals"] += normals
    tr.max_chunk_mb = max(tr.max_chunk_mb, tr._last_chunk_rows * (n_steps + 1) * 8 / 1e6)


def _hash_uniforms(tr, args, kwargs, result):
    tr.counts["bridge_cells"] += len(_arg(args, kwargs, 3, "flat_cells"))


def _workers(tr, args, kwargs, result):
    tr.max_workers = max(tr.max_workers, int(result))


_HOOKS = {
    "regions.drift_lhs_piecewise": _piecewise,
    "simulate.arrival_times": _arrivals,
    "estimate.chunk_ranges": _chunk_ranges,
    "estimate.gaussian_grid_batch": _grid_batch,
    "estimate.hash_uniforms": _hash_uniforms,
    "estimate.worker_count": _workers,
}
