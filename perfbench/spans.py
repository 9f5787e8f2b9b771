"""Spans and counters around the library's public functions, installed from outside.

`Tracer.install()` replaces each function in TRACED at every module attribute
it is reached through (for example `core_map.prob_all` is also
`measures.prob_all`, `skew.prob_all` and `oracle.prob_all`), so calls the
library makes internally are traced too.  No file of the library changes.

Each call opens a span (name, start, end, parent).  A span's self time is its
duration minus the time its direct children took, their wrappers included.
The wrappers' own time outside the spans is summed as the tracer's overhead.  Spans are
aggregated per (name, parent name); calls on a single element (the scalar
calls of the fibre walk, tens of thousands per pass) are kept only in the
aggregate, every other span is also kept individually.  Counts a span
records roll up into every enclosing span, so "kernel steps inside
theorem1_check" or "Philox draws inside oracle calls" are measured where the
work happens rather than inferred.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "knudsen_billiard"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x) -> int:
    return int(np.size(x))


# name -> (module, attribute, counts(args, kwargs, result) -> dict)
# "max_" counts keep their maximum instead of their sum.
TRACED = {
    "rng.uniforms": ("rng", "uniforms", lambda a, k, r: {"draws": r.size}),
    "core_map.prob_all": (
        "core_map", "prob_all", lambda a, k, r: {"elems": _size(_arg(a, k, 0, "theta"))}
    ),
    "core_map.select_branch": (
        "core_map", "select_branch", lambda a, k, r: {"elems": _size(_arg(a, k, 1, "u"))}
    ),
    "core_map.tau_all": (
        "core_map", "tau_all", lambda a, k, r: {"elems": _size(_arg(a, k, 0, "theta"))}
    ),
    "core_map.tau": (
        "core_map", "tau", lambda a, k, r: {"elems": _size(_arg(a, k, 1, "theta"))}
    ),
    "measures.ensemble_step": (
        "measures", "ensemble_step", lambda a, k, r: {"elems": r.thetas.size}
    ),
    "measures.binned_histogram": (
        "measures", "binned_histogram", lambda a, k, r: {"elems": _arg(a, k, 0, "obj").thetas.size}
    ),
    "measures.distance_to_mu": ("measures", "distance_to_mu", lambda a, k, r: {}),
    "measures.kernel_step": (
        "measures", "kernel_step", lambda a, k, r: {"atoms_in": len(_arg(a, k, 0, "nu"))}
    ),
    "measures.from_atoms": (
        "measures",
        "AtomicMeasure.from_atoms",
        lambda a, k, r: {"candidates": _size(_arg(a, k, 0, "thetas")), "atoms_out": len(r)},
    ),
    "measures.evolve": (
        "measures", "evolve", lambda a, k, r: {"atoms_held": sum(len(m) for m in r)}
    ),
    "measures.cesaro": (
        "measures", "cesaro", lambda a, k, r: {"atoms_in": sum(len(m) for m in _arg(a, k, 0, "nus"))}
    ),
    "skew.theorem1_check": (
        "skew",
        "theorem1_check",
        lambda a, k, r: {"max_n": _arg(a, k, 2, "n"), "max_samples": _arg(a, k, 3, "samples")},
    ),
    "skew.skew_step_many": (
        "skew", "skew_step_many", lambda a, k, r: {"points": _size(_arg(a, k, 1, "x"))}
    ),
    "skew.enumerate_fibers": ("skew", "enumerate_fibers", lambda a, k, r: {"words": len(r)}),
    "oracle.validate_m1_m2": (
        "oracle",
        "validate_m1_m2",
        lambda a, k, r: {"entries": _size(_arg(a, k, 0, "theta_grid")) * _arg(a, k, 1, "samples")},
    ),
    "oracle.liouville_pushforward_check": (
        "oracle",
        "liouville_pushforward_check",
        lambda a, k, r: {"samples": _arg(a, k, 0, "samples")},
    ),
}


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns", "counts", "inner")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counts = defaultdict(int)
        self.inner = defaultdict(int)  # (descendant name, count key) -> total


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.agg: dict[tuple[str, str], _Agg] = defaultdict(_Agg)
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, parent id, start, end
        self._stack: list[list] = []
        self._next_id = 0
        self.overhead_ns = 0  # wrapper time outside the spans it records
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name):
        # [name, start, child_ns, inner counts, span id]
        frame = [name, 0, 0, defaultdict(int), self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _close(self, frame, end, counts, entered):
        """Book a span that ran from frame's start to `end`; the wrapper was
        entered at `entered`, so the rest of the wrapper's time is overhead."""
        name, start, child_ns, inner, span_id = frame
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        dur = end - start
        agg = self.agg[(name, parent[0] if parent else "")]
        agg.calls += 1
        agg.total_ns += dur
        agg.self_ns += dur - child_ns
        for key, v in counts.items():
            if key.startswith("max_"):
                agg.counts[key] = max(agg.counts[key], v)
            else:
                agg.counts[key] += v
        for key, v in inner.items():
            agg.inner[key] += v
        if counts.get("elems", 2) > 1:
            self.spans.append((span_id, name, parent[4] if parent else -1, start, end))
        if parent is not None:
            pin = parent[3]
            pin[(name, "calls")] += 1
            for key, v in counts.items():
                if not key.startswith("max_"):
                    pin[(name, key)] += v
            for key, v in inner.items():
                pin[key] += v
        done = time.perf_counter_ns()
        self.overhead_ns += done - entered - dur
        if parent is not None:
            # the whole wrapped call, bookkeeping included, is the parent's child time
            parent[2] += done - entered

    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter_ns()
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, time.perf_counter_ns(), {}, entered)
                raise
            end = time.perf_counter_ns()
            tracer._close(frame, end, count(args, kwargs, result), entered)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name, (modname, attr, count) in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{modname}"]
            if attr == "AtomicMeasure.from_atoms":
                cls = module.AtomicMeasure
                original = cls.__dict__["from_atoms"]
                # the plain function takes cls first; counts read the rest
                wrapped = self._wrap(
                    name, original.__func__, lambda a, k, r, _c=count: _c(a[1:], k, r)
                )
                self._undo.append((cls, "from_atoms", original))
                setattr(cls, "from_atoms", classmethod(wrapped))
                continue
            original = getattr(module, attr)
            fn = original
            if inspect.isgeneratorfunction(original):
                # run it to the end inside the span, so the caller's per-item
                # work stays out of the span's time
                fn = functools.wraps(original)(lambda *a, _f=original, **k: list(_f(*a, **k)))
            wrapped = self._wrap(name, fn, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------
    def totals(self) -> dict[str, dict]:
        """Per-name totals summed over parents: calls, self_ns, counts, inner."""
        out: dict[str, dict] = {}
        for (name, _), a in self.agg.items():
            t = out.setdefault(
                name, {"calls": 0, "self_ns": 0, "counts": defaultdict(int), "inner": defaultdict(int)}
            )
            t["calls"] += a.calls
            t["self_ns"] += a.self_ns
            for key, v in a.counts.items():
                t["counts"][key] = max(t["counts"][key], v) if key.startswith("max_") else t["counts"][key] + v
            for key, v in a.inner.items():
                t["inner"][key] += v
        return out

    def dump(self) -> dict:
        """JSON-ready aggregates and individual spans (times relative to the first span)."""
        t0 = min((s[3] for s in self.spans), default=0)
        return {
            "aggregates": [
                {
                    "name": name,
                    "parent": parent,
                    "calls": a.calls,
                    "total_s": a.total_ns * 1e-9,
                    "self_s": a.self_ns * 1e-9,
                    "counts": dict(a.counts),
                }
                for (name, parent), a in sorted(self.agg.items())
            ],
            "spans": [
                [i, n, p, (s - t0) * 1e-9, (e - t0) * 1e-9] for i, n, p, s, e in self.spans
            ],
        }


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(totals: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass, as {name: (value, unit)}.

    A layer the workload does not reach reports 0 for its counts and times
    and for every ratio whose base is 0.
    """

    def get(name):
        return totals.get(name, {"calls": 0, "self_ns": 0, "counts": {}, "inner": {}})

    def count(name, key):
        return get(name)["counts"].get(key, 0) / passes

    def inner(names, child, key):
        return sum(get(n)["inner"].get((child, key), 0) for n in names) / passes

    def self_ns(name):
        return get(name)["self_ns"] / passes

    def calls(name):
        return get(name)["calls"] / passes

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        if unit == "count" and float(value).is_integer():
            value = int(value)
        m[name] = (value, unit)

    def times(name, key=None, per=None):
        put(f"{name}.self_s", self_ns(name) * 1e-9, "s")
        if key:
            put(f"{name}.{key}", count(name, key), "count")
            put(f"{name}.ns_per_{per}", _per(self_ns(name), count(name, key)), "ns")

    times("rng.uniforms", "draws", "draw")
    put("core_map.prob_all.calls", calls("core_map.prob_all"), "count")
    times("core_map.prob_all", "elems", "elem")
    times("core_map.select_branch", "elems", "elem")
    times("core_map.tau_all", "elems", "elem")
    put("core_map.tau.calls", calls("core_map.tau"), "count")
    times("core_map.tau")
    times("measures.ensemble_step")
    put("measures.binned_histogram.elems", count("measures.binned_histogram", "elems"), "count")
    times("measures.binned_histogram")
    times("measures.distance_to_mu")
    put("measures.kernel_step.atoms_in", count("measures.kernel_step", "atoms_in"), "count")
    times("measures.kernel_step")
    put("measures.from_atoms.atoms_out", count("measures.from_atoms", "atoms_out"), "count")
    times("measures.from_atoms", "candidates", "candidate")
    put(
        "measures.from_atoms.keep_ratio",
        _per(count("measures.from_atoms", "atoms_out"), count("measures.from_atoms", "candidates")),
        "ratio",
    )
    put("measures.evolve.atoms_held", count("measures.evolve", "atoms_held"), "count")
    put("measures.cesaro.atoms_in", count("measures.cesaro", "atoms_in"), "count")
    times("measures.cesaro")
    put("skew.theorem1_check.calls", calls("skew.theorem1_check"), "count")
    times("skew.theorem1_check")
    put(
        "skew.theorem1_check.kernel_steps",
        inner(["skew.theorem1_check"], "measures.kernel_step", "calls"),
        "count",
    )
    times("skew.skew_step_many", "points", "point")
    useful = get("skew.theorem1_check")["counts"]
    put(
        "skew.skew_step_many.useful_ratio",
        _per(useful.get("max_n", 0) * useful.get("max_samples", 0), count("skew.skew_step_many", "points")),
        "ratio",
    )
    times("skew.enumerate_fibers", "words", "word")
    times("oracle.validate_m1_m2", "entries", "entry")
    oracle_calls = ["oracle.validate_m1_m2", "oracle.liouville_pushforward_check"]
    # a Liouville entry takes two draws (position and angle), a grid entry one
    requested = count("oracle.validate_m1_m2", "entries") + 2 * count(
        "oracle.liouville_pushforward_check", "samples"
    )
    put("oracle.draw_ratio", _per(inner(oracle_calls, "rng.uniforms", "draws"), requested), "ratio")
    put(
        "oracle.liouville_pushforward_check.samples",
        count("oracle.liouville_pushforward_check", "samples"),
        "count",
    )
    times("oracle.liouville_pushforward_check")
    return m
