"""Layer tracer: wraps the public module-level functions of each equibridge
module and accumulates calls and self time per function and per layer.

A wrapped call is a span.  Its self time is its duration minus the time of
the wrapped calls it made, so every interval is charged to exactly one
layer.  Methods (LaurentPoly, ZPoly and other classes) are not wrapped,
which keeps the overhead small; their time is charged to the calling
function.  The original functions are put back by `uninstall`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("rationals", "presentations", "butterfly", "strip", "diagrams",
          "seifert", "laurent", "moth", "cli")
PACKAGE = "equibridge"


def public_functions(module) -> dict[str, object]:
    """Public functions defined in `module` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Counts calls and self time while installed.

    `op_begin`/`op_end` bracket one benchmark op; per-op state is used for
    the unique-presentation counter.  `report_spans` keeps the duration of
    each `cli.knot_report` call with its arguments by parameter name.
    """

    def __init__(self):
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                pass  # a layer the package no longer has reports 0 calls
        self.fn_stats: dict[str, list] = {}  # "layer.fn" -> [calls, self_s]
        self.layer_stats = {layer: [0, 0.0] for layer in LAYERS}
        self.presentations_distinct = 0
        self.report_spans: list[tuple[float, dict]] = []
        self._op_presentations: set = set()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the functions; call `uninstall` even if this raises."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE
                                            or name.startswith(PACKAGE + "."))]
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def op_begin(self) -> None:
        self._op_presentations = set()

    def op_end(self) -> None:
        self.presentations_distinct += len(self._op_presentations)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stats = self.fn_stats.setdefault(key, [0, 0.0])
        layer_stats = self.layer_stats[layer]
        stack = self._stack
        clock = time.perf_counter
        observe = None
        if key == "cli.analyze_presentation":
            def observe(args, kwargs, dur):
                pres = args[0] if args else next(iter(kwargs.values()), None)
                self._op_presentations.add(repr(pres))
        elif key == "cli.knot_report":
            signature = inspect.signature(fn)

            def observe(args, kwargs, dur):
                inputs = signature.bind_partial(*args, **kwargs).arguments
                self.report_spans.append((dur, inputs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
                layer_stats[0] += 1
                layer_stats[1] += dur - frame[0]
                if observe is not None:
                    observe(args, kwargs, dur)

        return wrapper

    def calls(self, key: str) -> int:
        """Calls of `layer.fn`; 0 for a function the package no longer has."""
        return self.fn_stats.get(key, [0, 0.0])[0]

    def self_seconds(self, key: str) -> float:
        return self.fn_stats.get(key, [0, 0.0])[1]
