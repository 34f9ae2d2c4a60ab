"""In-process tracing of the frachs layers, from outside the package.

``install`` replaces the public functions the benchmark watches with wrappers
that record one span per call (name, start, end, parent).  Spans stay in
memory until ``Tracer.dump`` writes them out; ``Tracer.metrics`` derives
calls, busy time and self time per span name.  Busy time counts a call once
even when it recurses; self time is busy time minus the time covered by
child spans.  A watched name that the package no longer has is returned as
missing instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute); "Class.method" patches the class itself.
FUNCTIONS = {
    "cli.cmd_check": ("frachs.cli", "cmd_check"),
    "cli.cmd_solve": ("frachs.cli", "cmd_solve"),
    "cli.cmd_bvp": ("frachs.cli", "cmd_bvp"),
    "cli.cmd_sweep": ("frachs.cli", "cmd_sweep"),
    "cli.cmd_ops_selftest": ("frachs.cli", "cmd_ops_selftest"),
    "spaces.compute_embedding_constants": ("frachs.spaces", "compute_embedding_constants"),
    "spaces.verify_potential": ("frachs.spaces", "verify_potential"),
    "spaces.lambda_norm": ("frachs.spaces", "lambda_norm"),
    "nonlinearity.verify_growth": ("frachs.nonlinearity", "verify_growth"),
    "energy.evaluate_energy": ("frachs.energy", "evaluate_energy"),
    "energy.negative_energy_witness": ("frachs.energy", "negative_energy_witness"),
    "energy.Problem": ("frachs.energy", "Problem.__init__"),
    "solver.minimize": ("frachs.solver", "minimize"),
    "solver.solve_bvp": ("frachs.solver", "solve_bvp"),
    "solver.concentration_sweep": ("frachs.solver", "concentration_sweep"),
}
# The callables of the object frachs.cli.build_nonlinearity returns.
NONLINEARITY = ("density", "gradient", "hessian_action")
FFTS = ("fft", "ifft", "rfft", "irfft")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, tally=None):
        """``fn`` recording a span per call; ``tally(args, result)`` adds to a counter."""
        nid = self._intern(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if tally is not None:
                key, amount = tally(args, result)
                self.counters[key] += amount
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        calls, busy, own = [0] * n, [0.0] * n, [0.0] * n
        covered = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(self.spans):
            calls[nid] += 1
            own[nid] += end - start - covered[i]
            while parent >= 0 and self.spans[parent][0] != nid:
                parent = self.spans[parent][3]
            if parent < 0:
                busy[nid] += end - start
        out: dict[str, float] = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.busy_s"] = busy[nid]
            out[f"{name}.self_s"] = own[nid]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "frachs" or name.startswith("frachs."))]


def _iterations(args, result):
    return "solver.iterations", getattr(result, "iterations", 0)


def _fft_points(args, result):
    return "fracops.fft.points", max(np.size(args[0]), np.size(result))


def install(tracer: Tracer) -> tuple[Patches, list[str]]:
    """Wrap every watched name; returns the patches and the span names not found."""
    patches, missing = Patches(), []
    modules = _package_modules()
    for span, (module, attr) in FUNCTIONS.items():
        owner_name, _, fn_name = attr.rpartition(".")
        try:
            owner = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name)
            fn = getattr(owner, fn_name)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        tally = _iterations if span in ("solver.minimize", "solver.solve_bvp") else None
        wrapped = tracer.wrap(span, fn, tally)
        if owner_name:
            patches.set(owner, fn_name, wrapped)
            continue
        # every module that imported the name holds its own reference
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.set(mod, key, wrapped)

    cli = importlib.import_module("frachs.cli")
    build = getattr(cli, "build_nonlinearity", None)
    if build is None:
        missing += [f"nonlinearity.{name}" for name in NONLINEARITY]
    else:
        for name in NONLINEARITY:  # report zero calls, not missing, when never called
            tracer._intern(f"nonlinearity.{name}")

        def traced_build(cfg):
            nl = build(cfg)
            return dataclasses.replace(nl, **{
                name: tracer.wrap(f"nonlinearity.{name}", getattr(nl, name))
                for name in NONLINEARITY if getattr(nl, name, None) is not None
            })

        patches.set(cli, "build_nonlinearity", traced_build)

    patches.set(np, "einsum", tracer.wrap("energy.einsum", np.einsum))
    for name in FFTS:
        patches.set(np.fft, name, tracer.wrap("fracops.fft", getattr(np.fft, name), _fft_points))
    return patches, missing
