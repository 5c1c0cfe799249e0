"""Spans around gica's public functions, installed from outside the package.

The tracer wraps each function in ``TARGETS`` and patches every ``gica``
module namespace that holds it, so a call made through
``pipeline.fit_var`` is caught as well as one through ``varmodel.fit_var``.
Modules are resolved through ``importlib``, because ``gica.simulate`` as an
attribute is the re-exported function, not the module. A function missing
from its module is reported as absent. Spans stay in memory; ``summary``
derives call counts and self times from them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

PACKAGE = "gica"

TARGETS = {
    "cli": ("main",),
    "timeseries": ("load_pair", "preprocess"),
    "varmodel": (
        "select_order_aic",
        "fit_var",
        "compute_autocovariance",
        "solve_discrete_lyapunov",
    ),
    "restricted": ("restricted_ar", "restricted_x"),
    "spectral": (
        "full_transfer",
        "restricted_transfer_ga",
        "psd",
        "directed_coherence",
        "spectral_gc",
        "spectral_gi",
        "spectral_ga",
        "time_domain_measures",
        "band_table",
    ),
    "surrogates": ("generate_surrogates", "significance_test"),
    "simulate": ("simulate", "assemble_profiles", "run_confounded_study"),
    "pipeline": ("analyze_pair", "derive_restricted"),
}

TARGET_NAMES = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]

ROOT_SPAN = "op"


class Tracer:
    """Records spans ``(name, start, end, parent span, op id)``.

    ``spans[i]`` is span ``i``; a parent is a span index, ``None`` for a
    root. Each op is one root span opened by :meth:`op`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int] | None] = []
        self.absent: list[str] = []
        self.root_s: dict[int, float] = {}  # op id -> duration of its root span
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        self.absent = []
        for module, functions in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for function in functions:
                original = getattr(mod, function, None)
                if not callable(original):
                    self.absent.append(f"{module}.{function}")
                    continue
                wrapper = self._wrap(f"{module}.{function}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _open(self, name: str) -> tuple[int, int | None]:
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, name: str, start: float, parent: int | None) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[span_id] = (name, start, end, parent, self._op_id)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, name, start, parent)

        return wrapper

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one op."""
        self._op_id = op_id
        span_id, parent = self._open(ROOT_SPAN)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span_id, ROOT_SPAN, start, parent)
            self.root_s[op_id] = self.spans[span_id][2] - start

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls": n, "self_s": seconds}}`` for every target name.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children nest inside it.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child[span[3]] += span[2] - span[1]
        out = {name: {"calls": 0, "self_s": 0.0} for name in TARGET_NAMES + [ROOT_SPAN]}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            stats = out[span[0]]
            stats["calls"] += 1
            stats["self_s"] += span[2] - span[1] - child[i]
        return out

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for i, s in enumerate(self.spans)
            if s is not None
        ]
