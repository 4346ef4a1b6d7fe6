"""Span recorder for the traced benchmark run.

Each layer's public functions are wrapped under every name a wvlab
module looks them up by (so `runner.couple_strong`, the name `_simulate`
calls, is wrapped as well as `pointer.couple_strong`). A wrapped call
records one span: its id, the span that was open when it started, the
op it belongs to, the function's name and its start and end times.
Spans stay in memory in flat integer arrays until the run ends.

A span's self time is its duration minus the time its child spans
cover. Calls are synchronous and single-threaded, so the children of
one span never overlap and the covered time is their summed duration.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function) pairs wrapped in a traced run, named by the module
# that defines them. Names a later version of wvlab drops are skipped and
# report zero calls.
LAYER_FUNCTIONS = (
    ("scenario", "from_dict"),
    ("scenario", "to_dict"),
    ("twosv", "weak_value"),
    ("twosv", "transition_amplitude"),
    ("twosv", "evolve"),
    ("twosv", "retrodicted"),
    ("qcore", "apply"),
    ("pointer", "make_register"),
    ("pointer", "initial_state"),
    ("pointer", "couple_strong"),
    ("pointer", "couple_weak"),
    ("pointer", "postselect"),
    ("pointer", "click_readout"),
    ("pointer", "pattern_amplitudes"),
    ("runner", "run_weak_values"),
    ("runner", "run_pointers"),
    ("runner", "disturbance_table"),
    ("runner", "_simulate"),
    ("runner", "report_to_dict"),
    ("cli", "main"),
    ("cli", "render_text"),
)

ROOT = "op"
RERUN_COUNTER = "runner.simulate_reruns"


class Tracer:
    """In-memory span store. One root span per op; op ids are caller-chosen."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._name_ids = {ROOT: 0}
        self.span_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []
        self._next = 0
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, nid, start, end):
        self._stack.pop()
        self.span_id.append(sid)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)

    def add(self, key: str, n: int = 1) -> None:
        k = (self.current_op, key)
        self.counters[k] = self.counters.get(k, 0) + n

    @contextmanager
    def root(self, op_id: int):
        """Open the root span of one op."""
        self.current_op = op_id
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, 0, start, time.perf_counter_ns())
            self.current_op = -1

    def wrap(self, name: str, fn, on_call=None):
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            sid, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, nid, start, clock())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "id": np.frombuffer(self.span_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }


def self_times(span_id, parent, start, end) -> np.ndarray:
    """Self time of every span: duration minus its children's durations.

    Arrays are parallel, one entry per span; parent holds a span id or -1.
    """
    span_id = np.asarray(span_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    if span_id.size == 0:
        return dur
    row_of = np.full(int(span_id.max()) + 1, -1, dtype=np.int64)
    row_of[span_id] = np.arange(span_id.size)
    covered = np.zeros(span_id.size, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, row_of[parent[has_parent]], dur[has_parent])
    return dur - covered


def _count_reruns(tracer, args, kwargs):
    insert = kwargs.get("insert", args[1] if len(args) > 1 else None)
    if insert is not None:
        tracer.add(RERUN_COUNTER)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYER_FUNCTIONS entry in every wvlab namespace, then restore."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "wvlab" or n.startswith("wvlab."))]
    patched = []
    for mod_name, fn_name in LAYER_FUNCTIONS:
        home = sys.modules.get(f"wvlab.{mod_name}")
        fn = getattr(home, fn_name, None) if home is not None else None
        if fn is None:
            continue
        hook = _count_reruns if (mod_name, fn_name) == ("runner", "_simulate") else None
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", fn, hook)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, val in reversed(patched):
            setattr(mod, attr, val)


def per_op(tracer: Tracer) -> dict[int, dict]:
    """op id -> {"wall_ns", "self_ns" {name: ns}, "calls" {name: n}, counters}."""
    cols = tracer.columns()
    st = self_times(cols["id"], cols["parent"], cols["start_ns"], cols["end_ns"])
    out: dict[int, dict] = {}
    names = tracer.names
    for op, nid, dur, s in zip(cols["op"].tolist(), cols["name"].tolist(),
                               (cols["end_ns"] - cols["start_ns"]).tolist(), st.tolist()):
        row = out.setdefault(op, {"wall_ns": 0, "self_ns": {}, "calls": {}, "counters": {}})
        name = names[nid]
        if name == ROOT:
            row["wall_ns"] = dur
        row["self_ns"][name] = row["self_ns"].get(name, 0) + s
        row["calls"][name] = row["calls"].get(name, 0) + 1
    for (op, key), n in tracer.counters.items():
        out.setdefault(op, {"wall_ns": 0, "self_ns": {}, "calls": {}, "counters": {}})
        out[op]["counters"][key] = n
    return out
