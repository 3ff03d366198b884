"""Spans around efbound's public functions, installed from outside `src/`.

A module imports its dependencies by name (`polyhedra.lp_solve`,
`nnfact.verify_sandwich`, `cli.verify_sandwich`), so a wrapper must replace
the name in every module that holds it, or internal calls would bypass it.
`install` does that for the public functions of the six modules.  Left out,
and counted in their caller's self time: the scalar helpers (`rat`,
`rat_str`, `dot`, `mat_vec`), which run once per matrix entry and would cost
more than they do; generators (`ksubsets`, `partitions`), whose call returns
before the work; class methods; and the `cmd_*` handlers of the CLI, whose
parsing, JSON and certificate work is what `cli.main`'s self time reports.

Each span is (name, start, end, parent index), kept in memory.  A span's
self time is its duration minus the durations of its children, which nest
inside it on the one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "ratlin", "polyhedra", "nnfact", "udisj", "encodings")
SKIP = {"rat", "rat_str", "dot", "mat_vec"}


def _bits(res):
    vals = [x for name in ("point", "dual_ineq", "dual_eq", "farkas_ineq", "farkas_eq", "ray")
            for x in (getattr(res, name) or ())]
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in vals),
               default=0)


def _lp_rows(args, kwargs):
    A = args[0] if args else kwargs.get("A")
    Aeq = args[2] if len(args) > 2 else kwargs.get("Aeq")
    return len(A or ()) + len(Aeq or ())


# counters read off a call's arguments and result: name -> [(counter, fn, how)]
PROBES = {
    "ratlin.lp_solve": [("rows", lambda a, k, res: _lp_rows(a, k), "sum"),
                        ("max_bits", lambda a, k, res: _bits(res), "max")],
    "nnfact.verify_factorization": [("ok", lambda a, k, res: int(bool(res.ok)), "sum")],
    "udisj.rectangle_corruption_scan": [("rectangles", lambda a, k, res: res.scanned, "sum")],
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent]
        self.counters = {}   # "layer.fn.counter" -> value
        self.stack = []
        self.on = False

    def wrap(self, name, fn):
        probes = PROBES.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            for counter, probe, how in probes:
                key = f"{name}.{counter}"
                v = probe(args, kwargs, res)
                old = self.counters.get(key, 0)
                self.counters[key] = old + v if how == "sum" else max(old, v)
            return res

        return traced

    def install(self, package):
        """Wrap every public function of the six modules, replacing each name
        in every module of the package that refers to it."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        holders = list(mods.values()) + [importlib.import_module(package)]
        for short, mod in mods.items():
            names = ["main"] if short == "cli" else [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and n not in SKIP and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__ and not inspect.isgeneratorfunction(obj)]
            for n in names:
                orig = getattr(mod, n)
                wrapped = self.wrap(f"{short}.{n}", orig)
                for h in holders:
                    for attr, val in list(vars(h).items()):
                        if val is orig:
                            setattr(h, attr, wrapped)
        return mods["cli"].main

    def totals(self, lo, hi):
        """name -> (calls, total seconds, self seconds) over spans[lo:hi]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans[lo:hi], child[lo:hi]):
            calls, tot, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, tot + (end - start), own + (end - start - c))
        return out
