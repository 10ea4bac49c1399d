"""Span tracer that wraps the public functions of every snls module from outside.

A span is (name, start, end, parent).  Spans stay in memory while the
benchmark runs; `aggregate` turns a contiguous block of them into per-name
call counts and self times, and `write_jsonl` dumps them when the run ends.
Self time is a span's duration minus the durations of its direct children,
so the self times of every span under one root add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("radial", "functionals", "evolve", "intervals", "bounds", "checkpoints", "config", "cli")

# public methods traced besides the module-level functions: (module, class, method) -> span name
METHODS = {
    ("checkpoints", "TrajectoryFrameWriter", "append"): "checkpoints.frame_append",
    ("config", "RunConfig", "from_dict"): "config.from_dict",
    ("config", "RunConfig", "load"): "config.load",
    ("config", "RunConfig", "build_initial_field"): "config.build_initial_field",
}


def _note_partition(tracer, args, result):
    tracer.partitions.append((args[0].times, result.intervals))


def _note_lds(tracer, args, result):
    tracer.counts["lds_frames"] += int(args[0].times.size)


def _note_monitor(tracer, args, result):
    tracer.counts["monitor_records"] += len(result)


def _note_append(tracer, args, result):
    tracer.counts["bytes_written"] += 8 + 16 * int(np.asarray(args[2]).size)


def _note_written(tracer, args, result):
    tracer.counts["bytes_written"] += os.path.getsize(args[0])


def _note_read(tracer, args, result):
    tracer.counts["bytes_read"] += os.path.getsize(args[0])


# counters taken at the same boundaries as the spans
NOTES = {
    "intervals.partition_trajectory": _note_partition,
    "intervals.linear_density_series": _note_lds,
    "bounds.bootstrap_monitor": _note_monitor,
    "checkpoints.frame_append": _note_append,
    "checkpoints.write_field": _note_written,
    "checkpoints.write_manifest": _note_written,
    "checkpoints.read_trajectory_frames": _note_read,
    "checkpoints.read_manifest": _note_read,
    "checkpoints.read_field": _note_read,
}


class Tracer:
    """In-memory span recorder; `install` patches snls, `uninstall` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.partitions: list = []  # (frame times, intervals) per partition made
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> list:
        rec = [name_id, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (stages and rounds)."""
        rec = self._open(self.name_id(name))
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(nid)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(tracer, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of MODULES, and every copy of it bound elsewhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # snls.evolve is the evolve function, not the module, hence import_module
        mods = {m: importlib.import_module(f"snls.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self.wrap(name, obj, NOTES.get(name))
        for ns in (importlib.import_module("snls"), *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])
        for (mod, cls, meth), name in METHODS.items():
            klass = getattr(mods[mod], cls)
            raw = vars(klass)[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__, NOTES.get(name)))
            else:
                new = self.wrap(name, raw, NOTES.get(name))
            self._patch(klass, meth, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        """One line per span: name, start, end, parent index (-1 for a root)."""
        with open(path, "w") as f:
            for nid, start, end, parent in self.spans:
                f.write(json.dumps([self.names[nid], start, end, parent]) + "\n")


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per-span self time from an (N, 4) array of [name_id, start, end, parent].

    Parent indices are relative to the array; -1 marks a root.
    """
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(spans))
    return dur - child


def aggregate(tracer: Tracer, lo: int, hi: int) -> dict:
    """{name: (calls, self_s)} over spans[lo:hi], which must be closed under parenthood."""
    block = np.array(tracer.spans[lo:hi], dtype=float).reshape(-1, 4)
    parents = block[:, 3]
    block[:, 3] = np.where(parents >= 0, parents - lo, -1)
    if ((block[:, 3] < -1) | (block[:, 3] >= len(block))).any():
        raise ValueError("span block is not closed under parenthood")
    self_t = self_times(block)
    ids = block[:, 0].astype(np.int64)
    calls = np.bincount(ids, minlength=len(tracer.names))
    secs = np.bincount(ids, weights=self_t, minlength=len(tracer.names))
    return {tracer.names[i]: (int(calls[i]), float(secs[i])) for i in np.flatnonzero(calls)}


def count_under(tracer: Tracer, lo: int, hi: int, names, ancestor: str) -> int:
    """Number of spans in spans[lo:hi] named in `names` with `ancestor` above them."""
    want = {tracer._ids[n] for n in names if n in tracer._ids}
    anc = tracer._ids.get(ancestor)
    if anc is None or not want:
        return 0
    spans = tracer.spans
    total = 0
    for i in range(lo, hi):
        if spans[i][0] not in want:
            continue
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == anc:
                total += 1
                break
            p = spans[p][3]
    return total
