"""Span recorder that measures symdef's layers from outside.

`install` wraps the public functions listed in `LAYERS` and rebinds every
module attribute that held the original, so callers that imported a name
by value (``from .covers import symbolic_power``) go through the wrapper
too.  Underscore helpers are never wrapped: their time shows up as self
time of the public function that called them.

Spans are kept in memory as ``[name, start, end, parent]`` rows and
reduced to per-layer statistics by `SpanRecorder.layer_stats`.
"""
from __future__ import annotations

import functools
import sys
import time


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, dict[str, float]] = {}
        self.errors: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        return span[2] - span[1]

    def count(self, name: str, key: str, amount: float = 1) -> None:
        bucket = self.counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + amount

    def error(self, exc: BaseException) -> None:
        """Count an exception once, however many wrapped frames it leaves."""
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of the
        span's interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(idx, ())):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def layer_stats(self) -> dict[str, float]:
        """Flat ``<layer>.<stat>`` table: calls and self_s per span name,
        plus every counter recorded under that name."""
        out: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        for name, total in self.self_times().items():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total
        for name, bucket in self.counters.items():
            for key, value in bucket.items():
                out[f"{name}.{key}"] = value
        for name, value in self.errors.items():
            out[f"errors.{name}.count"] = value
        return out


# -- what each layer counts, from its arguments and result


def _pairwise(rec, name, args, kwargs, result, elapsed):
    a, b = args[0], args[1]
    rec.count(name, "candidates_in", len(a.gens) * len(b.gens))
    rec.count(name, "gens_out", len(result.gens))


def _summed(rec, name, args, kwargs, result, elapsed):
    a, b = args[0], args[1]
    rec.count(name, "candidates_in", len(a.gens) + len(b.gens))
    rec.count(name, "gens_out", len(result.gens))


def _membership(rec, name, args, kwargs, result, elapsed):
    rec.count(name, "queries", len(args[1]))
    rec.count(name, "hits", int(result.sum()))


def _power(rec, name, args, kwargs, result, elapsed):
    rec.count(name, "k_total", args[1])


def _cached_power(rec, name, args, kwargs, result, elapsed):
    # repeat_calls counts argument tuples already seen in this process,
    # without asking the cache itself.
    seen = rec.seen.setdefault(name, set())
    key = (args, tuple(sorted(kwargs.items())))
    if key in seen:
        rec.count(name, "repeat_calls")
        rec.count(name, "repeat_s", elapsed)
    else:
        seen.add(key)
    rec.count(name, "gens_out", len(result.gens))


def _witnesses(rec, name, args, kwargs, result, elapsed):
    rec.count(name, "witnesses", len(result.witnesses))


# (layer name, module, owner class or None, function, counter)
LAYERS = (
    ("graphs.Graph.every_vertex_adjacent_to_every_odd_cycle", "graphs", "Graph",
     "every_vertex_adjacent_to_every_odd_cycle", None),
    ("graphs.Graph.is_bipartite", "graphs", "Graph", "is_bipartite", None),
    ("monomials.multiply", "monomials", "MonomialIdeal", "multiply", _pairwise),
    ("monomials.intersect", "monomials", "MonomialIdeal", "intersect", _pairwise),
    ("monomials.add", "monomials", "MonomialIdeal", "add", _summed),
    ("monomials.contains_each", "monomials", "MonomialIdeal", "contains_each", _membership),
    ("monomials.power", "monomials", "MonomialIdeal", "power", _power),
    ("covers.symbolic_power", "covers", None, "symbolic_power", _cached_power),
    ("covers.ordinary_power", "covers", None, "ordinary_power", _cached_power),
    ("covers.classify_indecomposable_2cover", "covers", None,
     "classify_indecomposable_2cover", None),
    ("covers.indecomposability_by_membership", "covers", None,
     "indecomposability_by_membership", None),
    ("sdefect.sdefect_brute", "sdefect", None, "sdefect_brute", _witnesses),
    ("sdefect.sdefect_recursive", "sdefect", None, "sdefect_recursive", None),
    ("sdefect.sdefect_cycle", "sdefect", None, "sdefect_cycle", None),
    ("sdefect.nu", "sdefect", None, "nu", None),
    ("sdefect.check_indecomposability_exhaustive", "sdefect", None,
     "check_indecomposability_exhaustive", None),
    ("sdefect.verify_triangle_tail", "sdefect", None, "verify_triangle_tail", None),
    ("asymptotics.fit_quasipolynomial", "asymptotics", None, "fit_quasipolynomial", None),
    ("asymptotics.waldschmidt", "asymptotics", None, "waldschmidt", None),
)

# exceptions counted under errors.<name>.count
ERRORS = ("GeneratorCapExceeded", "PreconditionError")


def _wrap(rec: SpanRecorder, name: str, fn, counter):
    counted = tuple(getattr(sys.modules["symdef"], e) for e in ERRORS)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except counted as exc:
            rec.error(exc)
            raise
        finally:
            elapsed = rec.close(idx)
        if counter is not None:
            counter(rec, name, args, kwargs, result, elapsed)
        return result

    return wrapper


def install(rec: SpanRecorder) -> None:
    """Wrap every layer in `LAYERS`; call after ``import symdef``."""
    package = sys.modules["symdef"]
    modules = [m for key, m in sys.modules.items() if key == "symdef" or key.startswith("symdef.")]
    for name, module_name, owner, fn_name, counter in LAYERS:
        module = getattr(package, module_name)
        if owner is not None:
            cls = getattr(module, owner)
            setattr(cls, fn_name, _wrap(rec, name, getattr(cls, fn_name), counter))
            continue
        original = getattr(module, fn_name)
        wrapper = _wrap(rec, name, original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
