"""Tracing from outside symrd: rebind module attributes to span-recording wrappers.

A span is [name, start_ns, end_ns, parent_index] within one request; the
runner opens the root span around cli.main.  Self time is a span's duration
minus the time its direct children cover.  Spans stay in memory; the runner
folds each request into per-name totals and keeps the first traced round
for writing out at the end.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy

# (module, attribute, span name).  Functions imported by name into another
# module are rebound where the caller looks them up.
TARGETS = (
    ("symrd.cli", "parse_spec_text", "model.parse"),
    ("symrd.cli", "spectral_decompose", "model.decompose"),
    ("symrd.simulate", "spectral_decompose", "model.decompose"),
    ("symrd.upper_bound", "solve_lambda_q", "upper_bound.solve"),
    ("symrd.lower_bound", "lower_bound_rate", "lower_bound.dispatch"),
    ("symrd.lower_bound", "lower_bound_piece", "lower_bound.dispatch"),
    ("symrd.oracle", "solve_program", "oracle.solve"),
    ("symrd.asymptotics", "upper_asymptotic", "asymptotics.eval"),
    ("symrd.asymptotics", "lower_asymptotic", "asymptotics.eval"),
    ("symrd.asymptotics", "asymptotic_gap", "asymptotics.eval"),
    ("symrd.simulate", "run_simulation", "simulate.run"),
    ("symrd.simulate", "eigenbasis", "model.eigenbasis"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


class _Proxy:
    """Delegates every attribute to `target` except those set on the proxy."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _numpy_view(tracer: Tracer) -> _Proxy:
    """numpy as symrd.simulate sees it, with RNG draws and slogdet traced."""
    def generator(bit_generator):
        rng = numpy.random.Generator(bit_generator)
        return _Proxy(rng, standard_normal=tracer.wrap("simulate.rng", rng.standard_normal))

    random_view = _Proxy(numpy.random, Generator=generator)
    linalg_view = _Proxy(numpy.linalg,
                         slogdet=tracer.wrap("simulate.logdet", numpy.linalg.slogdet))
    return _Proxy(numpy, random=random_view, linalg=linalg_view)


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Rebind every target to a traced wrapper; restore the originals on exit."""
    saved = []
    rebinds = [(modules[m], attr, tracer.wrap(name, getattr(modules[m], attr)))
               for m, attr, name in TARGETS]
    rebinds.append((modules["symrd.simulate"], "np", _numpy_view(tracer)))
    try:
        for module, attr, value in rebinds:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


@contextlib.contextmanager
def counting(module, attr: str, counter: list):
    """Count calls of module.attr in counter[0] (no timing)."""
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield counter
    finally:
        setattr(module, attr, original)


class Totals:
    """Per-name span counts, total and self durations, over many requests."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.top_count = defaultdict(int)    # spans whose parent has another name

    def add(self, spans: list) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.count[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[i]
            if parent < 0 or spans[parent][0] != name:
                self.top_count[name] += 1
