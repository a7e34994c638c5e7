"""Spans around the calls into dotx's public functions, installed from outside.

`Tracer.install` replaces every public function of the layer modules,
wherever a dotx module holds it as an attribute (for example
`dotx.sweeps.exchange_energy_lab` and `dotx.closed_form.bessel_i0e`),
with a wrapper that times the call.  `uninstall` puts every original back.

Per function the tracer keeps calls, inclusive time and self time (the
call's duration minus its traced children).  Spans (name, start, end,
parent) are kept in memory while `store` is set, up to `MAX_SPANS`, and
written by `write_spans` when the run ends.  A few counters are read at
the layer boundary: arguments on the large-argument branch of
`bessel_i0e`, quadrature nodes (by wrapping the integrand passed in),
Brent iterations, and closed-form evaluations made inside `find_switch`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "dotx"
LAYERS = ("units", "special", "closed_form", "sweeps", "oracle", "cli")
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.store = False
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [start, child time, span index]
        self._patched: list[tuple] = []
        self._before: dict = {}
        self._after: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self._before, self._after = self._before_hooks(), self._after_hooks()
        targets = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        prefix = PACKAGE + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _fid(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        for column, zero in ((self.calls, 0), (self.incl, 0.0), (self.self_time, 0.0), (self.active, 0)):
            column.append(zero)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        """Traced version of `fn`; the benchmark wraps its own ops this way too."""
        fid = self._fid(name)
        before = self._before.get(name)
        after = self._after.get(name)
        stack, active = self._stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = -1
            if self.store and len(self.span_name) < MAX_SPANS:
                index = len(self.span_name)
                self.span_name.append(fid)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            active[fid] += 1
            frame = [perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[fid] -= 1
                duration = end - frame[0]
                self.calls[fid] += 1
                self.incl[fid] += duration
                self.self_time[fid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    self.span_start[index] = frame[0]
                    self.span_end[index] = end
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key: str, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _before_hooks(self):
        split = sys.modules[f"{PACKAGE}.special"]._I0_SPLIT
        find_switch = self._fid("sweeps.find_switch")

        def bessel_args(args):
            x = np.asarray(args[0])
            self._count("special.bessel_i0e.args", x.size)
            self._count("special.bessel_i0e.large_args", int(np.count_nonzero(np.abs(x) >= split)))
            return args

        def integrand_nodes(key):
            def before(args):
                integrand = args[0]

                def counted(u, v):
                    self._count(key, np.broadcast(u, v).size)
                    return integrand(u, v)

                return (counted,) + tuple(args[1:])

            return before

        def switch_evals(args):
            if self.active[find_switch]:
                self._count("sweeps.find_switch.evals", np.size(args[0]))
            return args

        return {
            "special.bessel_i0e": bessel_args,
            "special.integrate_2d": integrand_nodes("special.integrate_2d.nodes"),
            "special.integrate_coulomb_relative": integrand_nodes("special.integrate_coulomb_relative.nodes"),
            "closed_form.exchange_energy": switch_evals,
        }

    def _after_hooks(self):
        def brent_iterations(result):
            self._count("sweeps.brent.iterations", result[3])

        return {"sweeps.brent": brent_iterations}

    # -- results -----------------------------------------------------------

    def table(self) -> dict:
        """{name: {calls, inclusive_s, self_s}} for every function called."""
        return {
            name: {"calls": self.calls[i], "inclusive_s": self.incl[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write_spans(self, path: str):
        """Write the stored spans as JSON: names plus one [name, start, end, parent] row each."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = [
            [self.span_name[i], self.span_start[i] - t0, self.span_end[i] - t0, self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
