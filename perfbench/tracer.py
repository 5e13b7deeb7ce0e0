"""Spans around public kleincert functions, installed from outside the package.

A traced run replaces each function listed in ``LAYERS`` by a wrapper in every
``kleincert`` module namespace that binds the same function object.  This
matters because ``from .precision import ln_bounds`` copies the name into
``klein``: wrapping ``precision.ln_bounds`` alone would miss every call made
from ``klein.distance``.

Spans are kept in flat arrays (name index, parent span id, start, end) and
turned into per-function call counts and self times only when the run ends.
A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Dict, Iterable, List, Tuple

#: (module, function) pairs that get a span; the metric prefix is
#: ``<module>.<function>``.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("cli_io", "main"),
    ("certify_flat", "certify_flatness"),
    ("certify_embed", "certify_embeddedness"),
    ("certify_embed", "rho"),
    ("jacobian", "crude_bounds"),
    ("jacobian", "second_partial_bound"),
    ("jacobian", "dtheta_enclosure"),
    ("jacobian", "dtheta_analytic"),
    ("jacobian", "certify_expansion"),
    ("jacobian", "conclude_existence"),
    ("jacobian", "theta_map"),
    ("klein", "cos2_and_sign"),
    ("klein", "angle"),
    ("klein", "distance"),
    ("mesh", "cone_angle"),
    ("precision", "exp_bounds"),
    ("precision", "ln_bounds"),
    ("precision", "sqrt_bounds"),
    ("precision", "hyp_bounds"),
    ("precision", "arccos_hp"),
    ("search", "hill_climb"),
    ("search", "objective"),
    ("search", "newton_refine"),
)

#: Functions whose last return value is kept for counters read from it.
KEEP_RESULT = frozenset({"certify_embed.certify_embeddedness"})


class Tracer:
    """Records one span per call of a wrapped function while ``active``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.results: Dict[str, object] = {}
        self.active = False

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        keep = qualname in KEEP_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_of.append(index)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.stack.pop()
            if keep:
                self.results[qualname] = result
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every kleincert namespace binding it.

        Raises if a listed function is missing, so a renamed layer fails the
        traced run instead of silently reading as zero work.
        """
        for module_name, function_name in LAYERS:
            module = importlib.import_module(f"kleincert.{module_name}")
            original = getattr(module, function_name, None)
            if not callable(original):
                raise LookupError(f"kleincert.{module_name}.{function_name} is not a function")
            wrapper = self._wrap(f"{module_name}.{function_name}", original)
            for name, namespace in list(sys.modules.items()):
                if namespace is None or not (name == "kleincert" or name.startswith("kleincert.")):
                    continue
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)

    def per_function(self) -> Dict[str, Tuple[int, float]]:
        """``{qualname: (calls, self seconds)}`` for every wrapped function."""
        child_time = [0.0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[span] - self.start[span]
        totals = {name: [0, 0.0] for name in self.names}
        for span, index in enumerate(self.name_of):
            entry = totals[self.names[index]]
            entry[0] += 1
            entry[1] += self.end[span] - self.start[span] - child_time[span]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def covered_seconds(self, qualnames: Iterable[str]) -> float:
        """Wall time inside spans of the given functions, nested calls counted once."""
        wanted = {self.names.index(name) for name in qualnames}
        inside = [False] * len(self.start)
        total = 0.0
        for span, index in enumerate(self.name_of):
            parent = self.parent[span]
            inside[span] = index in wanted or (parent >= 0 and inside[parent])
            if index in wanted and not (parent >= 0 and inside[parent]):
                total += self.end[span] - self.start[span]
        return total
