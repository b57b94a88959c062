"""Wrappers the child installs around qbern functions, from outside src/.

`rebind` swaps a function for a wrapper in every qbern module namespace
that binds it: `symmetry` does `from .bernoulli import carlitz_poly_values`
and several modules do `from .exactnum import binom`, so patching only the
defining module would leave calls from those modules uncounted.
"""

from __future__ import annotations

import functools
import importlib
import sys
from math import prod
from time import perf_counter
from typing import Callable, Dict, List

import spec


def rebind(module_name: str, attr: str, make_wrapper: Callable) -> None:
    """Replace module_name.attr by make_wrapper(original) wherever it is bound.

    `attr` may be "Class.method": the method is replaced on the class.
    A missing name raises AttributeError, so a rename fails loudly.
    """
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, method, make_wrapper(getattr(cls, method)))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if name == "qbern" or name.startswith("qbern."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


PROBE_INTERVAL_S = 0.25


class CellTimer:
    """The only timer of an untraced run: wall time of each cell call.

    Before a cell, once PROBE_INTERVAL_S has passed since the last probe,
    it runs `probe` (which returns its own duration) and keeps the result
    in probes_s: samples of the machine's speed spread evenly over the run,
    taken outside every cell's timing.
    """

    def __init__(self, probe: Callable[[], float]) -> None:
        self.cells_ms: List[float] = []
        self.probes_s: List[float] = []
        self._probe = probe
        self._next_probe = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if perf_counter() >= self._next_probe:
                self.probes_s.append(self._probe())
                self._next_probe = perf_counter() + PROBE_INTERVAL_S
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.cells_ms.append((perf_counter() - t0) * 1000.0)
            return result
        return timed


def _max_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


class Tracer:
    """Spans with parents: self time is a span's time minus its child spans.

    Counters recorded on return (box points, bit sizes, distinct tables)
    are timed apart and taken out of every span's self time.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {span: 0 for span in spec.SPANS}
        self.self_s: Dict[str, float] = {span: 0.0 for span in spec.SPANS}
        self.counters: Dict[str, int] = {name: 0 for name in spec.COUNTERS}
        self._tables = set()
        self._stack: List[List[float]] = []
        self._hooks = {
            "bernoulli.carlitz_poly_values": self._on_carlitz_poly_values,
            "symmetry.kernel_K": self._on_kernel_K,
            "symmetry.thm2_expr": self._on_thm2_expr,
            "symmetry.verify": self._on_verify,
            "padic.riemann_sum_mu1": self._on_riemann_sum_mu1,
        }

    def install(self) -> None:
        for span, (module_name, attrs) in spec.SPANS.items():
            for attr in attrs:
                rebind(module_name, attr, functools.partial(self._wrap, span))

    def _wrap(self, span: str, fn):
        stack = self._stack
        hook = self._hooks.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]                          # time spent in child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[0]
            if hook is not None:
                h0 = perf_counter()
                hook(args, kwargs, result)
                elapsed += perf_counter() - h0
            if stack:
                stack[-1][0] += elapsed
            return result
        return traced

    def _on_carlitz_poly_values(self, args, kwargs, result) -> None:
        ctx = args[2] if len(args) > 2 else kwargs["ctx"]
        self._tables.add((ctx.q, ctx.c))
        self.counters["bernoulli.tables_requested"] = len(self._tables)
        self._bump_max("bernoulli.carlitz_poly_values.max_bits", _max_bits(result))

    def _on_kernel_K(self, args, kwargs, result) -> None:
        self.counters["symmetry.kernel_K.box_points"] += prod(args[0])
        self._bump_max("symmetry.kernel_K.max_bits", _max_bits([result]))

    def _on_thm2_expr(self, args, kwargs, result) -> None:
        self.counters["symmetry.thm2_expr.box_points"] += prod(args[0].head)

    def _on_verify(self, args, kwargs, result) -> None:
        self.counters["symmetry.sigma_evals"] += len(result.values)

    def _on_riemann_sum_mu1(self, args, kwargs, result) -> None:
        p, N = args[3], args[4]
        self.counters["padic.mu1_points"] += p ** N

    def _bump_max(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def metrics(self) -> dict:
        out = {}
        for span in spec.SPANS:
            out[spec.count_metric(span)] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update(self.counters)
        return out
