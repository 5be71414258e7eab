"""Span tracing for the benchmark, done from outside the package.

A `Tracer` replaces each traced risecure function with a timing wrapper at
every name a caller looks it up by: the defining module, every module that
imported it with ``from .x import f``, the package root, and class
attributes that alias it (``BchCode.encode_bits = encode``). `remove()`
puts every original back, so an untraced run never sees a wrapper.

Spans are recorded only between `start_op` and `end_op`. Each span has a
name, start and end in ns, its parent span and the op id; self time is the
span's duration minus the time its children cover. Aggregates (calls, self
time, call durations) are kept online for every op; full span records are
kept for the first `record_ops` ops and written out at the end.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

# span name -> (module, attribute path) of the function to wrap
SPANS = {
    "reed_solomon.encode": ("risecure.reed_solomon", "ReedSolomonCode.encode"),
    "reed_solomon.syndromes": ("risecure.reed_solomon", "ReedSolomonCode.syndromes"),
    "reed_solomon.decode": ("risecure.reed_solomon", "ReedSolomonCode.decode"),
    "galois.berlekamp_massey": ("risecure.galois", "berlekamp_massey"),
    "galois.locator_roots": ("risecure.galois", "locator_roots"),
    "bch.syndromes": ("risecure.bch", "BchCode.syndromes"),
    "bch.decode": ("risecure.bch", "BchCode.decode"),
    "bch.encode": ("risecure.bch", "BchCode.encode"),
    "puf.eval_raw": ("risecure.puf", "eval_raw"),
    "puf.reference_response": ("risecure.puf", "reference_response"),
    "prng.stream": ("risecure.prng", "stream"),
    "prng.derive_seed": ("risecure.prng", "derive_seed"),
    "extractor.reconstruct": ("risecure.extractor", "reconstruct"),
    "extractor.enroll": ("risecure.extractor", "enroll"),
    "buffer.lookup": ("risecure.buffer", "LookasideBuffer.lookup"),
    "buffer.insert": ("risecure.buffer", "LookasideBuffer.insert"),
    "buffer.sample_with_buffer": ("risecure.buffer", "sample_with_buffer"),
    "hashing.compose_response": ("risecure.hashing", "compose_response"),
    "isa.run": ("risecure.isa", "run"),
    "isa.PufDevice.sample_r3": ("risecure.isa", "PufDevice.sample_r3"),
}

ROOT = "op"


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def bindings(fn):
    """Every (namespace, attribute) in the risecure package bound to `fn`."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "risecure" or name.startswith("risecure.")):
            continue
        for attr, val in vars(mod).items():
            if val is fn:
                found.append((mod, attr))
            elif inspect.isclass(val) and val.__module__ == name:
                found.extend((val, a) for a, v in vars(val).items() if v is fn)
    return found


class Tracer:
    def __init__(self, record_ops):
        self.record_ops = record_ops
        self.names = [ROOT, *SPANS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.durations = [[] for _ in self.names]
        self.records = []  # (span id, name id, start ns, end ns, parent id, op id)
        self.retired = 0  # isa.step calls inside ops that did not trap
        self.custom = 0  # of those, custom-opcode instructions
        self._stack = []  # open spans: [span id, ns covered by children]
        self._next_id = 0
        self._op = None
        self._recording = False
        self._installed = []  # (namespace, attribute, original)
        self.missing = []

    def install(self):
        """Wrap every span target; a target the package no longer has is
        listed in `missing` and its metrics stay 0."""
        for nid, name in enumerate(self.names[1:], start=1):
            try:
                fn = _resolve(*SPANS[name])
            except AttributeError:
                self.missing.append(name)
                continue
            self._patch(fn, self._span_wrapper(nid, fn))
        try:
            step = _resolve("risecure.isa", "step")
        except AttributeError:
            self.missing.append("isa.step")
            return
        self._patch(step, self._step_wrapper(step))

    def _patch(self, fn, wrapper):
        for ns, attr in bindings(fn):
            self._installed.append((ns, attr, fn))
            setattr(ns, attr, wrapper)

    def remove(self):
        for ns, attr, fn in reversed(self._installed):
            setattr(ns, attr, fn)
        self._installed.clear()

    def _span_wrapper(self, nid, fn):
        stack = self._stack
        calls, self_ns, durations = self.calls, self.self_ns, self.durations[nid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                durations.append(dur)
                if self._recording:
                    self.records.append((sid, nid, t0, t1, parent[0], self._op))

        wrapper._perfbench_span = self.names[nid]
        return wrapper

    def _step_wrapper(self, step):
        from risecure.isa import CUSTOM_OPCODE

        @functools.wraps(step)
        def wrapper(state):
            pc = state.pc
            custom = 0 <= pc < len(state.memory) and state.memory[pc] & 0x7F == CUSTOM_OPCODE
            status = step(state)
            if self._op is not None and status != "trap":
                self.retired += 1
                self.custom += custom
            return status

        wrapper._perfbench_span = "isa.step"
        return wrapper

    def start_op(self, op_id):
        self._op = op_id
        self._recording = op_id < self.record_ops
        self._stack.append([self._next_id, 0])
        self._next_id += 1

    def end_op(self, t0, t1):
        """Close the op's root span, which the caller timed as [t0, t1]."""
        sid, covered = self._stack.pop()
        dur = t1 - t0
        self.calls[0] += 1
        self.self_ns[0] += dur - covered
        self.durations[0].append(dur)
        if self._recording:
            self.records.append((sid, 0, t0, t1, -1, self._op))
        self._op = None

    def snapshot(self):
        """Aggregates so far, per span name, plus the ISA step counts."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "durations": {n: list(d) for n, d in zip(self.names, self.durations)},
            "retired": self.retired,
            "custom": self.custom,
        }

    def span_rows(self):
        """Recorded spans as [span id, name, start ns, end ns, parent id, op]."""
        return [[sid, self.names[nid], t0, t1, parent, op]
                for sid, nid, t0, t1, parent, op in self.records]
