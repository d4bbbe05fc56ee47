"""Spans around the package's public entry points.

A span is [name, start, end, parent index]; spans stay in memory and are
written out when the run ends.  Tracing wraps each traced name wherever the
package looks it up: `scenarios` imports `lambda0_of_set`, `k_sup`,
`mask_within_distance` and others by name, and `evolve.run` calls the
module-level `step`, so a wrapper on the defining module alone would miss
most calls.  `restore` puts every original back and `check_untraced` proves
it, so untraced passes call the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import sys
import types
from collections import defaultdict
from time import perf_counter

from degenlog import evolve, geometry, grid, oracles, scenarios, spectral

# (span name, defining module or class, attribute).
TRACED = (
    ("scenarios.predict", scenarios, "predict"),
    ("scenarios.run_scenario", scenarios, "run_scenario"),
    ("scenarios.cross_check", scenarios, "cross_check"),
    ("scenarios.classify", scenarios, "classify"),
    ("evolve.run", evolve, "run"),
    ("evolve.step", evolve, "step"),
    ("evolve.n_values", evolve.EquationParams, "n_values"),
    ("geometry.evaluate_n", geometry, "evaluate_n"),
    ("geometry.k_sup", geometry, "k_sup"),
    ("geometry.k_inf", geometry, "k_inf"),
    ("geometry.union_over_interval", geometry, "union_over_interval"),
    ("grid.build_grid", grid, "build_grid"),
    ("grid.MaskedOperator", grid.MaskedOperator, "__init__"),
    ("grid.solve_spd", grid.MaskedOperator, "solve_spd"),
    ("grid.mask_within_distance", grid, "mask_within_distance"),
    ("grid.mask_from_shape", grid, "mask_from_shape"),
    ("spectral.principal_eigenvalue", spectral, "principal_eigenvalue"),
    ("spectral.principal_eigenpair", spectral, "principal_eigenpair"),
    ("spectral.second_eigenvalue", spectral, "second_eigenvalue"),
    ("spectral.lambda0_of_set", spectral, "lambda0_of_set"),
    ("oracles.tau_unbounded", oracles, "tau_unbounded"),
)

_MARK = "__perfbench_original__"
_ORIGINALS = {(id(owner), attr): vars(owner)[attr]
              for _, owner, attr in TRACED}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "degenlog"
                                  or name.startswith("degenlog."))]


def _lookups(owner, attr) -> list:
    """Every (namespace, name) through which the package reaches the
    original: the class itself for a method, every package module that
    holds the function otherwise."""
    fn = _ORIGINALS[(id(owner), attr)]
    if isinstance(owner, type):
        return [(owner, attr)]
    return [(m, a) for m in _package_modules()
            for a, v in list(vars(m).items()) if v is fn]


def check_untraced() -> None:
    """Raise unless every traced name is bound to its original function."""
    for _, owner, attr in TRACED:
        if vars(owner)[attr] is not _ORIGINALS[(id(owner), attr)]:
            raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")
    for m in _package_modules():
        for a, v in vars(m).items():
            if isinstance(v, types.FunctionType) and _MARK in v.__dict__:
                raise RuntimeError(f"{m.__name__}.{a} is still wrapped")


class Tracer:
    """Records spans of the traced names while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, name: str, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        setattr(traced, _MARK, fn)
        return traced

    def install(self) -> None:
        check_untraced()
        for name, owner, attr in TRACED:
            fn = _ORIGINALS[(id(owner), attr)]
            wrapped = self._wrap(name, fn)
            for ns, a in _lookups(owner, attr):
                self._patched.append((ns, a, fn))
                setattr(ns, a, wrapped)

    def restore(self) -> None:
        while self._patched:
            ns, a, fn = self._patched.pop()
            setattr(ns, a, fn)
        check_untraced()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def by_name(spans) -> dict:
    """name -> (durations, self durations) in seconds, where a span's self
    time is its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: ([], []))
    for i, (name, start, end, _) in enumerate(spans):
        out[name][0].append(end - start)
        out[name][1].append(end - start - child[i])
    return out


def time_within(spans, name: str, ancestor: str) -> tuple:
    """(seconds in spans `name` below a span `ancestor`, seconds in
    `ancestor`), counting only outermost spans of each."""
    inside = total = 0.0
    for name_i, start, end, parent in spans:
        chain = []
        p = parent
        while p >= 0:
            chain.append(spans[p][0])
            p = spans[p][3]
        if name_i == ancestor and ancestor not in chain:
            total += end - start
        elif name_i == name and name not in chain and ancestor in chain:
            inside += end - start
    return inside, total
