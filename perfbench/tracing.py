"""Span tracing of entmon's public functions, for one benchmark process.

``installed(tracer)`` wraps each function in ``TARGETS`` for the duration of
a ``with`` block and restores every original afterwards.  Several entmon
modules bind their imports by name (``from .channels import apply_channel``),
so a wrapper is bound under every name in every ``entmon`` module that holds
the original object; a method is wrapped on its class.  The numpy
eigensolvers are counted, not timed.

A span records its name, start, end and parent.  Spans live in flat arrays
while the run goes on and are written out once, by ``Tracer.save``.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (metric name, module, attribute).  A dotted attribute names a method.
TARGETS = (
    ("cli.main", "entmon.cli", "main"),
    ("verify.check_monotone", "entmon.verify", "check_monotone"),
    ("verify.check_strict", "entmon.verify", "check_strict"),
    ("verify.check_strict_concavity", "entmon.verify", "check_strict_concavity"),
    ("verify.check_reduced_state_condition", "entmon.verify", "check_reduced_state_condition"),
    ("verify.check_negativity_decomposition", "entmon.verify", "check_negativity_decomposition"),
    ("verify.check_logneg_nonconvexity", "entmon.verify", "check_logneg_nonconvexity"),
    ("verify.check_monogamy_product", "entmon.verify", "check_monogamy_product"),
    ("verify.run_sweep", "entmon.verify", "run_sweep"),
    ("verify.write_reports_jsonl", "entmon.verify", "write_reports_jsonl"),
    ("verify.write_summary_csv", "entmon.verify", "write_summary_csv"),
    ("registry.evaluate_measure", "entmon.registry", "evaluate_measure"),
    ("states.DensityMatrix", "entmon.states", "DensityMatrix.__post_init__"),
    ("states.partial_trace", "entmon.states", "partial_trace"),
    ("states.partial_transpose", "entmon.states", "partial_transpose"),
    ("measures.negativity", "entmon.measures", "negativity"),
    ("measures.log_negativity", "entmon.measures", "log_negativity"),
    ("measures.wootters_eof", "entmon.measures", "wootters_eof"),
    ("measures.wootters_concurrence", "entmon.measures", "wootters_concurrence"),
    ("measures.h_eval", "entmon.measures", "h_eval"),
    ("measures.pure_measure", "entmon.measures", "pure_measure"),
    ("channels.apply_channel", "entmon.channels", "apply_channel"),
    ("channels.apply_channel_to_pure", "entmon.channels", "apply_channel_to_pure"),
    ("channels.classify", "entmon.channels", "classify"),
    ("channels.random_channel", "entmon.channels", "random_channel"),
    ("sampling.random_mixed", "entmon.sampling", "random_mixed"),
    ("sampling.random_pure", "entmon.sampling", "random_pure"),
    ("sampling.haar_unitary", "entmon.sampling", "haar_unitary"),
    ("ree.ree_data_processing_check", "entmon.ree", "ree_data_processing_check"),
)


class Tracer:
    """In-memory span store with eigensolver counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self._stack: list[int] = []
        self.eigh_calls = 0
        self.eigvalsh_calls = 0
        self.eigvalsh_matrices = 0

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(i)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and p50_s."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child)
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(own[sel])),
                "p50_s": float(np.median(dur[sel])) if np.any(sel) else 0.0,
            }
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _leading_count(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64))


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target (and count the eigensolvers) inside the block."""
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "entmon" or n.startswith("entmon.")]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                rebind(cls, method, _wrap(tracer, name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        rebind(m, key, wrapper)

        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        @functools.wraps(eigh)
        def counted_eigh(a, *args, **kwargs):
            tracer.eigh_calls += 1
            return eigh(a, *args, **kwargs)

        @functools.wraps(eigvalsh)
        def counted_eigvalsh(a, *args, **kwargs):
            tracer.eigvalsh_calls += 1
            tracer.eigvalsh_matrices += _leading_count(a)
            return eigvalsh(a, *args, **kwargs)

        rebind(np.linalg, "eigh", counted_eigh)
        rebind(np.linalg, "eigvalsh", counted_eigvalsh)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
