"""Outside-in tracing of choilab's layers.

``Tracer.install`` replaces each listed public function, in every
``choilab`` module namespace that bound it, with a wrapper that records a
span (name, start, end, parent, op id) in memory; ``uninstall`` puts the
originals back.  No file of the package is touched.  A few wrappers also
add up computed work: eigensolve sizes and codec bytes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# module -> public functions wrapped with a span.  "MultipartiteState" stands
# for the class's validation (its __post_init__).
LAYERS = {
    "nonadditivity": (
        "binding_channel",
        "mixed_binding_channel",
        "choi_state",
        "choi_closed_form",
        "teleport_fidelity",
        "full_report",
    ),
    "entanglement": (
        "ppt_check",
        "ghz_diagonal_coefficients",
        "npt_criterion",
        "pairwise_distillability",
        "localize_entanglement",
    ),
    "channels": ("choi", "mix", "verify_cptp", "completeness_defect"),
    "states": ("MultipartiteState", "partial_transpose", "partial_trace", "permute_parties"),
    "linalg": ("min_eigenvalue",),
    "codec": (
        "state_to_dict",
        "channel_to_dict",
        "report_to_dict",
        "dumps",
        "load_path",
        "state_from_dict",
        "channel_from_dict",
    ),
    "cli": ("main",),
}
# Wrapped for a call count only: too frequent and too cheap for a span.
COUNTED = {"linalg": ("as_matrix",)}

# Computed work recorded by some wrappers, from their arguments or result.
WORK = {
    "entanglement.ppt_check": ("entanglement.ppt_check.dim3_sum", lambda a, r: a[0].matrix.shape[0] ** 3),
    "linalg.min_eigenvalue": ("linalg.min_eigenvalue.dim3_sum", lambda a, r: np.shape(a[0])[0] ** 3),
    "codec.load_path": ("codec.bytes_read", lambda a, r: os.path.getsize(a[0])),
    "codec.dumps": ("codec.bytes_written", lambda a, r: len(r.encode())),
}
WORK_NAMES = tuple(name for name, _ in WORK.values())

NAME, START, END, PARENT, OP = range(5)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Spans of wrapped calls, kept in memory as [name, start_ns, end_ns, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function; the choilab modules must already be imported."""
        for mod, fns in LAYERS.items():
            for fn in fns:
                self._patch(mod, fn, self._span_wrapper)
        for mod, fns in COUNTED.items():
            for fn in fns:
                self._patch(mod, fn, self._count_wrapper)

    def _patch(self, mod: str, fn: str, make) -> None:
        name = f"{mod}.{fn}"
        module = sys.modules[f"choilab.{mod}"]
        if fn == "MultipartiteState":
            cls = getattr(module, fn)
            self._set(cls, "__post_init__", make(name, cls.__post_init__))
            return
        original = getattr(module, fn)
        wrapper = make(name, original)
        for modname, m in list(sys.modules.items()):
            if modname == "choilab" or modname.startswith("choilab."):
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0, stack[-1] if stack else -1, self._op]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if work is not None:
                self.work[work[0]] += work[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span inside carries op_id."""
        self._op = op_id
        idx = len(self.spans)
        rec = ["op", time.perf_counter_ns(), 0, -1, op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0, start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def per_layer(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op calls and self time of every span name, plus counted calls and work."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[rec[NAME]] += 1
        self_ns[rec[NAME]] += own
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
    for mod, fns in COUNTED.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = tracer.counts[f"{mod}.{fn}"] / ops
    for name in WORK_NAMES:
        out[name] = tracer.work[name] / ops
    return out


def calls_by_kind(tracer: Tracer, kind_of, names) -> dict[str, dict[str, float]]:
    """Per-op calls of the given span names, split by the op's input kind."""
    ops: dict[str, set] = defaultdict(set)
    calls: dict[str, Counter] = defaultdict(Counter)
    for rec in tracer.spans:
        kind = kind_of(rec[OP])
        if rec[NAME] == "op":
            ops[kind].add(rec[OP])
        elif rec[NAME] in names:
            calls[kind][rec[NAME]] += 1
    return {k: {n: calls[k][n] / len(ops[k]) for n in names} for k in sorted(ops)}
