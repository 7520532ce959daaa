"""Span recording around every public function of the icsep layers.

A span is named ``<module>.<function>`` after the module that defines the
function, so ``outerbounds.allocate_power`` is recorded as
``rates.allocate_power``.  The same function object is bound under several
names (the ``icsep`` package exports, ``game.tdma_rate``, ...); every
binding is replaced while a task is traced, otherwise nested calls made
through another binding go unseen.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("channel", "rates", "outerbounds", "dof", "game")

TASK_SPAN = "bench.task"

# span fields
NAME, START, END, PARENT, TASK, RAISED, RETURNED_NONE = range(7)

#: (metric, span name, wasted outcome): the share of calls without that outcome
RATIOS = (
    ("rates.ia_feasibility.feasible_ratio", "rates.ia_feasibility", "returned_none"),
    ("channel.singularity_check.hit_ratio", "channel.singularity_check", "returned_none"),
    ("outerbounds.separate_outerbound.applicable_ratio", "outerbounds.separate_outerbound", "raised"),
)


class Tracer:
    """Records spans for the tasks run inside :meth:`task`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"icsep.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)

    @property
    def names(self):
        return sorted(w.span_name for w in self._wrappers.values())

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], spans[stack[0]][TASK], None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[RETURNED_NONE] = result is None
            return result

        traced.span_name = name
        return traced

    @contextmanager
    def task(self, task_id):
        """Trace one task: wrap every binding, record a root span, then restore them all."""
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "icsep" and not mod_name.startswith("icsep."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[obj])
        span = [TASK_SPAN, 0.0, 0.0, None, task_id, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            for module, attr, obj in patched:
                setattr(module, attr, obj)
            self._assert_restored()

    def _assert_restored(self):
        wrappers = set(map(id, self._wrappers.values()))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "icsep" or mod_name.startswith("icsep."):
                for attr, obj in vars(module).items():
                    if id(obj) in wrappers:
                        raise RuntimeError(f"{mod_name}.{attr} is still wrapped")

    def summary(self, n_tasks):
        """Per-task metrics of every wrapped function, plus the outcome ratios.

        Self time is a span's duration minus that of its direct children;
        children of one span never overlap, as there is one caller.
        Returns {metric: (value, unit)}.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        stats = {
            name: {"calls": 0, "self": 0.0, "total": 0.0, "raised": 0, "returned_none": 0}
            for name in self.names
        }
        for s, covered in zip(self.spans, child):
            if s[NAME] == TASK_SPAN:
                continue
            entry = stats[s[NAME]]
            duration = s[END] - s[START]
            entry["calls"] += 1
            entry["self"] += duration - covered
            entry["total"] += duration
            entry["raised"] += s[RAISED] is not None
            entry["returned_none"] += s[RETURNED_NONE]
        out = {}
        for name, entry in stats.items():
            out[f"{name}.calls"] = (entry["calls"] / n_tasks, "count/task")
            out[f"{name}.self_ms"] = (1e3 * entry["self"] / n_tasks, "ms/task")
            out[f"{name}.total_ms"] = (1e3 * entry["total"] / n_tasks, "ms/task")
            out[f"{name}.raised"] = (entry["raised"] / n_tasks, "count/task")
        for metric, name, wasted in RATIOS:
            calls = stats[name]["calls"]
            # base: the function's calls; a ratio over no calls reads 0
            out[metric] = ((calls - stats[name][wasted]) / calls if calls else 0.0, "ratio")
        return out

    def write(self, path):
        """Write every span as one JSON line: id, name, start, end, parent, task, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "task": s[TASK], "raised": s[RAISED],
                }) + "\n")
