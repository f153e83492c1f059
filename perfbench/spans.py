"""Span tracing around garagesim's public entry points, for the traced run.

Only ``run.py --trace 1`` imports this module.  ``Tracer.install`` replaces
each entry point below, wherever a garagesim module holds it, with a wrapper
that records one span: its name, start, end, parent and a few counts taken
from the arguments and result.  Spans are recorded only while the benchmark
has a timed part open, are held in memory, and are written out as JSON lines
when the run ends.  An entry point that no longer exists is reported as
missing, and every metric that depends on it is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# entry point (attribute path) -> the module that defines it
ENTRY_POINTS = {
    "parse_garage_spec": "garagesim.grid",
    "validate": "garagesim.grid",
    "classify_all": "garagesim.classify",
    "synthesize": "garagesim.scene",
    "populate_vehicles": "garagesim.scene",
    "export_scene": "garagesim.scene",
    "import_scene": "garagesim.scene",
    "SceneIndex.__init__": "garagesim.visibility",
    "SceneIndex.candidates": "garagesim.visibility",
    "SceneIndex.cull_outside_wedge": "garagesim.visibility",
    "SceneIndex.entry_distances": "garagesim.visibility",
    "sweep": "garagesim.visibility",
    "sweep_csv": "garagesim.visibility",
    "target_sweep": "garagesim.scenario",
    "run_scenario": "garagesim.scenario",
    "score": "garagesim.scenario",
    "emit_report": "garagesim.scenario",
    "rescore_report_document": "garagesim.scenario",
    "main": "garagesim.cli",
}


def _sweep_counts(args, kwargs, result):
    return {"samples": len(result.samples),
            "in_view": sum(1 for s in result.samples if s.in_frustum)}


# span name -> counts taken from (args, kwargs, result) after the call ends
COUNTERS = {
    "parse_garage_spec": lambda a, k, r: {"cells": r.m * r.n},
    "classify_all": lambda a, k, r: {"cells": a[0].m * a[0].n},
    "export_scene": lambda a, k, r: {"bytes": len(r), "nodes": len(a[0].nodes)},
    "import_scene": lambda a, k, r: {"bytes": len(a[0]), "nodes": len(r.nodes)},
    "SceneIndex.__init__": lambda a, k, r: {"boxes": len(a[0].ids)},
    "SceneIndex.candidates": lambda a, k, r: {"kept": len(r)},
    "SceneIndex.cull_outside_wedge": lambda a, k, r: {"seen": len(a[1]), "kept": len(r)},
    "SceneIndex.entry_distances": lambda a, k, r: {"rays": a[2].shape[0]},
    "sweep": _sweep_counts,
    "target_sweep": _sweep_counts,
    "emit_report": lambda a, k, r: {"bytes": len(r)},
    "main": lambda a, k, r: {"nonzero": int(r != 0)},
}


class Tracer:
    """In-memory span recorder.  A span is the list
    [id, name, parent id, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- roots opened by the benchmark around each timed part -----------------

    def open_root(self, name: str) -> None:
        self._open("op:" + name)

    def close_root(self) -> None:
        self._close({})

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, parent, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, counts: dict) -> None:
        span = self.spans[self._stack.pop()]
        span[4] = time.perf_counter()
        span[5] = counts

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close({"raised": 1})
                raise
            self._close({})
            if counter is not None:
                try:
                    span[5] = counter(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.count_errors.add(name)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point that still exists; note the others."""
        self.missing = []
        mods = [m for k, m in sys.modules.items()
                if (k == "garagesim" or k.startswith("garagesim.")) and m is not None]
        for name, modname in ENTRY_POINTS.items():
            home = sys.modules.get(modname)
            owner, _, leaf = name.rpartition(".")
            holder = getattr(home, owner, None) if owner else home
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None or not callable(original):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            if owner:
                self._saved.append((holder, leaf, original))
                setattr(holder, leaf, wrapped)
                continue
            for mod in mods:
                if getattr(mod, leaf, None) is original:
                    self._saved.append((mod, leaf, original))
                    setattr(mod, leaf, wrapped)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._saved):
            setattr(holder, leaf, original)
        self._saved = []

    # --- results -------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, name, parent, start, end, counts in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, "counts": counts}) + "\n")

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds and the sum
        of each count.  Self time is a span's duration minus the time its
        direct children cover (children never overlap: one thread)."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, _, start, end, counts in self.spans:
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child_time[sid]
            for key, value in (counts or {}).items():
                t[key] = t.get(key, 0) + value
        return out


def _get(totals, name, key):
    return totals.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _self(*names):
    return lambda t: sum(_get(t, n, "self_s") for n in names)


# metric -> (unit, entry points it needs, formula over Tracer.totals())
PER_LAYER = {
    "grid.parse_s": ("s", ["parse_garage_spec"], _self("parse_garage_spec")),
    "grid.validate_s": ("s", ["validate"], _self("validate")),
    "grid.cells": ("count", ["parse_garage_spec"],
                   lambda t: _get(t, "parse_garage_spec", "cells")),
    "classify.classify_s": ("s", ["classify_all"], _self("classify_all")),
    "classify.cells_per_s": ("1/s", ["classify_all"], lambda t: _ratio(
        _get(t, "classify_all", "cells"), _get(t, "classify_all", "self_s"))),
    "scene.synthesize_s": ("s", ["synthesize"], _self("synthesize")),
    "scene.populate_s": ("s", ["populate_vehicles"], _self("populate_vehicles")),
    "scene.export_s": ("s", ["export_scene"], _self("export_scene")),
    "scene.export_mb_per_s": ("MB/s", ["export_scene"], lambda t: _ratio(
        _get(t, "export_scene", "bytes") / 1e6, _get(t, "export_scene", "self_s"))),
    "scene.import_s": ("s", ["import_scene"], _self("import_scene")),
    "scene.nodes": ("count", ["import_scene"], lambda t: _get(t, "import_scene", "nodes")),
    "scene.doc_mb": ("MB", ["export_scene", "import_scene"], lambda t: (
        _get(t, "export_scene", "bytes") + _get(t, "import_scene", "bytes")) / 1e6),
    "visibility.index_build_s": ("s", ["SceneIndex.__init__"], _self("SceneIndex.__init__")),
    "visibility.index_builds": ("count", ["SceneIndex.__init__"],
                                lambda t: _get(t, "SceneIndex.__init__", "calls")),
    "visibility.candidates_s": ("s", ["SceneIndex.candidates"], _self("SceneIndex.candidates")),
    "visibility.wedge_s": ("s", ["SceneIndex.cull_outside_wedge"],
                           _self("SceneIndex.cull_outside_wedge")),
    "visibility.slab_s": ("s", ["SceneIndex.entry_distances"],
                          _self("SceneIndex.entry_distances")),
    "visibility.sample_self_s": ("s", ["sweep"], _self("sweep")),
    "visibility.samples": ("count", ["sweep", "target_sweep"], lambda t: (
        _get(t, "sweep", "samples") + _get(t, "target_sweep", "samples"))),
    "visibility.samples_in_view": ("count", ["sweep", "target_sweep"], lambda t: (
        _get(t, "sweep", "in_view") + _get(t, "target_sweep", "in_view"))),
    "visibility.aabb_kept_per_sample": ("count", ["SceneIndex.candidates"], lambda t: _ratio(
        _get(t, "SceneIndex.candidates", "kept"), _get(t, "SceneIndex.candidates", "calls"))),
    "visibility.wedge_kept_per_sample": (
        "count", ["SceneIndex.cull_outside_wedge"], lambda t: _ratio(
            _get(t, "SceneIndex.cull_outside_wedge", "kept"),
            _get(t, "SceneIndex.cull_outside_wedge", "calls"))),
    "visibility.wedge_keep_ratio": ("ratio", ["SceneIndex.cull_outside_wedge"], lambda t: _ratio(
        _get(t, "SceneIndex.cull_outside_wedge", "kept"),
        _get(t, "SceneIndex.cull_outside_wedge", "seen"))),
    "visibility.rays": ("count", ["SceneIndex.entry_distances"],
                        lambda t: _get(t, "SceneIndex.entry_distances", "rays")),
    "scenario.run_s": ("s", ["run_scenario"], _self("run_scenario")),
    "scenario.target_sweep_s": ("s", ["target_sweep"], _self("target_sweep")),
    "scenario.score_s": ("s", ["score", "rescore_report_document"],
                         _self("score", "rescore_report_document")),
    "scenario.emit_s": ("s", ["emit_report", "sweep_csv"], _self("emit_report", "sweep_csv")),
    "scenario.report_mb": ("MB", ["emit_report"],
                           lambda t: _get(t, "emit_report", "bytes") / 1e6),
    "cli.main_s": ("s", ["main"], lambda t: _get(t, "main", "total_s")),
    "cli.self_s": ("s", ["main"], _self("main")),
    "cli.commands": ("count", ["main"], lambda t: _get(t, "main", "calls")),
    "cli.nonzero_exits": ("count", ["main"], lambda t: _get(t, "main", "nonzero")),
}

def per_layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every per-layer metric whose entry points were wrapped and counted,
    and the names of the metrics reported absent."""
    totals = tracer.totals()
    lost = set(tracer.missing) | tracer.count_errors
    values, absent = {}, []
    for name, (unit, needs, formula) in PER_LAYER.items():
        if lost.intersection(needs):
            absent.append(name)
        else:
            values[name] = (float(formula(totals)), unit)
    return values, absent


def layer_self_seconds(tracer: Tracer) -> float:
    """Self time of every wrapped entry point, summed: the part of the timed
    work the traced layers account for."""
    return sum(t["self_s"] for name, t in tracer.totals().items()
               if not name.startswith("op:"))
