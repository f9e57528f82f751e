"""Span tracer that wraps actcap's public functions from outside the package.

Modules bind names with ``from .x import y``, so a function is patched in
every loaded ``actcap`` module that holds it, under whatever name it is
bound there (``actcap.cli`` holds ``simulate`` as ``run_simulation``).
Distribution methods are patched on each class that defines them.  Each
call records a span (name, start, end, parent) in memory; a span's self time
is its duration minus the time its child spans cover.  Names the package no
longer defines are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import threading
import time
import tracemalloc

# (module, function, layer): the span name is "<layer>.<function>"
TARGETS = [
    ("actcap.distributions", "make_rng", "distributions"),
    ("actcap.quadrature", "integrate_panels", "quadrature"),
    ("actcap.capacity", "shannon_capacity", "capacity"),
    ("actcap.capacity", "eta_capacity", "capacity"),
    ("actcap.capacity", "shannon_objective", "capacity"),
    ("actcap.capacity", "eta_objective", "capacity"),
    ("actcap.capacity", "capacity_curve", "capacity"),
    ("actcap.capacity", "zero_error_capacity", "capacity"),
    ("actcap.capacity", "second_moment_closed_form", "capacity"),
    ("actcap.sideinfo", "si_value_curve", "sideinfo"),
    ("actcap.sideinfo", "uniform_bit_partition", "sideinfo"),
    ("actcap.sideinfo", "model_from_boundaries", "sideinfo"),
    ("actcap.sideinfo", "shannon_capacity_with_si", "sideinfo"),
    ("actcap.sideinfo", "eta_capacity_with_si", "sideinfo"),
    ("actcap.simulate", "simulate", "simulate"),
    ("actcap.simulate", "threshold_scan", "simulate"),
    ("actcap.carryfree", "simulate_degrees", "carryfree"),
    ("actcap.carryfree", "cf_add", "carryfree"),
    ("actcap.carryfree", "cf_mul", "carryfree"),
    ("actcap.carryfree", "one_step_control", "carryfree"),
    ("actcap.cli", "main", "cli"),
]
METHODS = ("sample", "expect")  # on every distribution class defining them

SEARCHES = ("capacity.shannon_capacity", "capacity.eta_capacity")
OBJECTIVES = ("capacity.shannon_objective", "capacity.eta_objective")
FAMILIES = ("Uniform", "Gaussian", "TruncatedGaussian", "ScaledBernoulli",
            "FiniteMixture")
CARRYFREE_STEPS = ("cf_add", "cf_mul", "one_step_control")


def _units():
    """Unit of every metric ``Tracer.metrics`` returns, plus the heap peak."""
    units = {}
    for name in ("distributions.make_rng", "distributions.sample",
                 "distributions.expect", "quadrature.integrate_panels",
                 "capacity.objective",
                 *(f"carryfree.{step}" for step in CARRYFREE_STEPS)):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "capacity.searches": "count", "capacity.search.s": "s",
        "capacity.doublings": "count",
        "capacity.evals_per_search": "evals/search",
        "sideinfo.cells": "count", "sideinfo.self_s": "s",
        "simulate.calls": "count", "simulate.path_steps": "count",
        "simulate.s": "s", "simulate.self_s": "s",
        "simulate.ns_per_path_step": "ns",
        "simulate.tracemalloc_peak_mb": "MB",
        "carryfree.simulate_degrees.s": "s",
        "carryfree.us_per_path_step": "us",
        "cli.main.s": "s", "cli.self_s": "s", "cli.bytes_out": "bytes",
    })
    for fam in FAMILIES:
        units[f"capacity.objective_us.{fam}"] = "us"
    return units


UNITS = _units()


class Tracer:
    def __init__(self, keep_simulate_call=False):
        self.spans = []   # [name, start, end, parent index]
        self.stats = {}   # name -> [calls, total s, self s]
        self.extra = {}   # counters read from arguments and results
        self.keep_simulate_call = keep_simulate_call
        self.longest_simulate = None  # (horizon, function, args, kwargs)
        self.recording = True
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def wrap(self, name, fn, hook=None):
        spans, stats = self.spans, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1]
            frame = [len(spans), 0.0]  # own index, time covered by children
            spans.append(rec)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec[1], rec[2] = t0, t1
                if stack:
                    stack[-1][1] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return traced

    # -- hooks reading counts from arguments and results -------------------

    def _search_hook(self, args, kwargs, result, dur):
        self.add("capacity.doublings", result.diagnostics.get("doublings", 0))

    def _objective_hook(self, args, kwargs, result, dur):
        family = type(args[0]).__name__
        self.add(f"objective.calls.{family}", 1)
        self.add(f"objective.s.{family}", dur)

    def _si_hook(self, args, kwargs, result, dur):
        self.add("sideinfo.cells", len(result.per_cell))

    def _path_steps_hook(self, layer):
        def hook(args, kwargs, result, dur):
            self.add(f"{layer}.path_steps", result.horizon * result.paths)
        return hook

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every target where it is bound; returns the names skipped.

        Call after ``import actcap.cli``, which loads every module traced.
        """
        hooks = {
            "capacity.shannon_capacity": self._search_hook,
            "capacity.eta_capacity": self._search_hook,
            "capacity.shannon_objective": self._objective_hook,
            "capacity.eta_objective": self._objective_hook,
            "sideinfo.shannon_capacity_with_si": self._si_hook,
            "sideinfo.eta_capacity_with_si": self._si_hook,
            "simulate.simulate": self._path_steps_hook("simulate"),
            "carryfree.simulate_degrees": self._path_steps_hook("carryfree"),
        }
        skipped = []
        for modname, attr, layer in TARGETS:
            orig = getattr(sys.modules.get(modname), attr, None)
            name = f"{layer}.{attr}"
            if orig is None:
                skipped.append(name)
                continue
            traced = self.wrap(name, orig, hooks.get(name))
            if name == "simulate.simulate" and self.keep_simulate_call:
                traced = self._keeping_longest(traced, orig)
            self._rebind(orig, traced)
        dist = sys.modules["actcap.distributions"]
        base = getattr(dist, "ActuationDistribution", object)
        for cls in vars(dist).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            for meth in METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap(f"distributions.{meth}",
                                                 vars(cls)[meth]))
        return skipped

    def _keeping_longest(self, traced, orig):
        """Remember the arguments of the longest-horizon simulate call."""
        @functools.wraps(orig)
        def keep(*args, **kwargs):
            result = traced(*args, **kwargs)
            kept = self.longest_simulate
            if self.recording and (kept is None or result.horizon > kept[0]):
                self.longest_simulate = (result.horizon, orig, args, kwargs)
            return result
        return keep

    @staticmethod
    def _rebind(orig, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "actcap"
                                   or modname.startswith("actcap.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, replacement)

    # -- results -------------------------------------------------------------

    def metrics(self, bytes_out):
        """Per-layer metrics of everything recorded so far."""
        stats, extra = self.stats, self.extra

        def calls(*names):
            return sum(stats[n][0] for n in names if n in stats)

        def total(*names):
            return sum(stats[n][1] for n in names if n in stats)

        def self_time(prefix):
            return sum(st[2] for n, st in stats.items() if n.startswith(prefix))

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        for name in ("distributions.make_rng", "distributions.sample",
                     "distributions.expect", "quadrature.integrate_panels"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.s"] = total(name)
        m["capacity.searches"] = calls(*SEARCHES)
        m["capacity.search.s"] = total(*SEARCHES)
        m["capacity.doublings"] = extra.get("capacity.doublings", 0)
        m["capacity.objective.calls"] = calls(*OBJECTIVES)
        m["capacity.objective.s"] = total(*OBJECTIVES)
        m["capacity.evals_per_search"] = ratio(m["capacity.objective.calls"],
                                               m["capacity.searches"])
        for fam in FAMILIES:
            m[f"capacity.objective_us.{fam}"] = ratio(
                extra.get(f"objective.s.{fam}", 0.0),
                extra.get(f"objective.calls.{fam}", 0), 1e6)
        m["sideinfo.cells"] = extra.get("sideinfo.cells", 0)
        m["sideinfo.self_s"] = self_time("sideinfo.")
        sim = "simulate.simulate"
        m["simulate.calls"] = calls(sim)
        m["simulate.path_steps"] = extra.get("simulate.path_steps", 0)
        m["simulate.s"] = total(sim)
        m["simulate.self_s"] = stats[sim][2] if sim in stats else 0.0
        m["simulate.ns_per_path_step"] = ratio(m["simulate.s"],
                                               m["simulate.path_steps"], 1e9)
        m["carryfree.simulate_degrees.s"] = total("carryfree.simulate_degrees")
        m["carryfree.us_per_path_step"] = ratio(
            m["carryfree.simulate_degrees.s"],
            extra.get("carryfree.path_steps", 0), 1e6)
        for step in CARRYFREE_STEPS:
            m[f"carryfree.{step}.calls"] = calls(f"carryfree.{step}")
            m[f"carryfree.{step}.s"] = total(f"carryfree.{step}")
        m["cli.main.s"] = total("cli.main")
        m["cli.self_s"] = stats["cli.main"][2] if "cli.main" in stats else 0.0
        m["cli.bytes_out"] = bytes_out
        return m

    def simulate_heap_peak_mb(self):
        """Peak heap, in MB, of the longest-horizon simulate call, replayed
        untraced under tracemalloc; 0 when no simulate call was made.

        Block arrays grow with the horizon, so that call bounds the peak;
        replaying only one call keeps tracemalloc's cost on the per-path
        Python objects of the many-path workloads down.
        """
        if self.longest_simulate is None:
            return 0.0
        _, orig, args, kwargs = self.longest_simulate
        self.recording = False
        tracemalloc.start()
        try:
            orig(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            self.recording = True

    def write_spans(self, path):
        """Spans as gzipped TSV: name, start, end (s from the first span), parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
