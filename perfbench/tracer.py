"""Outside-in span tracer for the ``stepsq`` layers.

The tracer wraps the public functions of each layer module from outside the
program.  ``from .x import f`` copies the binding into the importing module,
so every ``stepsq.*`` namespace that holds a reference to a wrapped function
is patched; function-local imports resolve at call time and see the wrapper.

Spans are kept in memory as ``[name_id, start, end, parent, invocation]``
lists and written when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: Layer modules whose public functions are wrapped, bottom layer first.
LAYERS = ("rootsys", "cascade", "nilalg", "plancherel", "limits", "harness",
          "states", "schrodinger", "inversion", "cli")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[list] = []
        self.invocation = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    self.invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every public layer function in every namespace that holds it.

        Imports the layer modules.  Returns a function that restores the
        original bindings.
        """
        wrapped: Dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"stepsq.{layer}")
            for attr, value in sorted(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        patched = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "stepsq" and not mod_name.startswith("stepsq."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                    patched.append((module, attr, value))

        def uninstall() -> None:
            for module, attr, value in patched:
                setattr(module, attr, value)

        return uninstall

    def dump(self, path: str) -> None:
        """Write the span table as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "invocation"],
                       "names": self.names, "spans": self.spans}, fh)


def summarize(names: List[str], spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per-function call counts and self times, plus per-layer self times.

    Returns ``{"calls": {fn: n}, "self_s": {fn or layer: seconds},
    "total_s": {fn: seconds inside its spans, children included}}``.
    Time inside recursive calls of one function is counted once per level
    in ``total_s``.
    """
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        name = names[name_id]
        own = (end - start) - child_time[i]
        calls[name] += 1
        self_s[name] += own
        self_s[name.split(".", 1)[0]] += own
        total_s[name] += end - start
    return {"calls": dict(calls), "self_s": dict(self_s),
            "total_s": dict(total_s)}
