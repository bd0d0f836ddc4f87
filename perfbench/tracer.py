"""Span tracing of cascade_at's layers from outside the package.

:class:`Tracer` replaces selected public functions with timing wrappers at
every ``cascade_at`` module namespace that binds them, so a call made
through ``cli``'s module references (``doppler.average``) or through a
name imported into another module (``threshold.m_summed``,
``doppler.faddeeva_w``) is recorded either way.  Leaving the ``with`` block
puts every original object back.

Spans live in per-thread buffers, one ``array`` per field, so the hot
path takes no lock even when the threshold sweep and the spectrum chunking
run spans on a thread pool (``CASCADE_AT_THREADS`` > 1).  Each span records its name, start, end, the
enclosing span on the same thread, a work count and a failure flag.
:func:`layer_metrics` turns saved spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np


def _size(pos, key):
    def count(args, kwargs):
        return int(np.size(args[pos] if len(args) > pos else kwargs[key]))
    return count


def _folded(args, kwargs):
    wts = args[1] if len(args) > 1 else kwargs["wts"]
    return len(wts.folded())


def _unconverged(result):
    return not result.converged


# (module, attribute, span name, layer, work count, result -> failed)
TARGETS = (
    ("cascade_at.cli", "run", "cli.run", "cli", None, lambda rc: rc != 0),
    ("cascade_at.threshold", "threshold_rabi", "threshold.threshold_rabi",
     "threshold", None, _unconverged),
    ("cascade_at.threshold", "curvature_at_zero", "threshold.curvature_at_zero",
     "threshold", None, None),
    ("cascade_at.msublevel", "m_summed", "msublevel.m_summed", "msublevel",
     _folded, None),
    ("cascade_at.doppler", "average", "doppler.average", "doppler.average",
     _size(6, "delta1_grid"), None),
    ("cascade_at.doppler", "average_analytic_I2", "doppler.average_analytic_I2",
     "doppler.analytic", _size(3, "delta1_grid"), None),
    ("cascade_at.doppler", "average_analytic_I3", "doppler.average_analytic_I3",
     "doppler.analytic", _size(3, "delta1_grid"), None),
    ("cascade_at.doppler", "QuadratureRule.gauss_hermite",
     "doppler.QuadratureRule.gauss_hermite", "doppler.rule", None, None),
    ("cascade_at.liouville", "populations_batch", "liouville.populations_batch",
     "liouville", _size(2, "d1"), None),
    ("cascade_at.lineshape", "denominator_coefficients",
     "lineshape.denominator_coefficients", "lineshape", None, None),
    ("cascade_at.lineshape", "rho_weak_batch", "lineshape.rho_weak_batch",
     "lineshape", _size(2, "d1"), None),
    ("cascade_at.faddeeva", "w", "faddeeva.w", "faddeeva", None, None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
SPAN_LAYERS = tuple(t[3] for t in TARGETS)


class _Buffer:
    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("q")
        self.failed = array("b")


class Tracer:
    """Context manager that wraps the :data:`TARGETS` while active."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._patches: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, name_id, count, failed):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.count.append(count(args, kwargs) if count else 1)
            buf.failed.append(0)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                buf.failed[idx] = 1
                raise
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()
            if failed is not None and failed(result):
                buf.failed[idx] = 1
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        import cascade_at.cli  # noqa: F401  (loads every submodule)

        try:
            for name_id, (mod_name, attr, _, _, count, failed) in enumerate(TARGETS):
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(original.__func__, name_id,
                                                     count, failed))
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(original, name_id, count, failed)
                for mod in _package_modules():
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as flat arrays; ``parent`` indexes the same
        arrays (-1 for a span with no enclosing span on its thread)."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "count",
                                "failed", "thread")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            cols["count"].append(np.frombuffer(buf.count, dtype=np.int64))
            cols["failed"].append(np.frombuffer(buf.failed, dtype=np.int8))
            cols["thread"].append(np.full(n, buf.thread, dtype=np.int32))
            offset += n
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        out["span_names"] = np.array(SPAN_NAMES)
        return out


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cascade_at"
                                    or name.startswith("cascade_at."))]


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    """Total length of the union of intervals [start, end)."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], np.maximum.accumulate(end[order])
    # a block starts where an interval begins after everything before it ended
    new_block = np.concatenate(([True], s[1:] > e[:-1]))
    first = np.nonzero(new_block)[0]
    last = np.concatenate((first[1:] - 1, [s.size - 1]))
    return float(np.sum(e[last] - s[first]))


def layer_metrics(traces: list[tuple[dict, float]], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload repetition.

    ``traces`` holds (spans, child wall seconds) for each child process of
    the repetition.  Busy time is the summed duration of a layer's
    outermost spans (thread-seconds: pool threads can be busy at once);
    self time subtracts the spans directly nested in a span on its own
    thread.  ``cli.self_s`` is the part of ``cli.run`` during which no other
    layer span is open on any thread: parsing, grids, pool start and join,
    CSV output.
    """
    layers = np.array(SPAN_LAYERS)
    calls = np.zeros(len(SPAN_NAMES))
    count = np.zeros(len(SPAN_NAMES))
    total = np.zeros(len(SPAN_NAMES))
    self_s = np.zeros(len(SPAN_NAMES))
    failed = np.zeros(len(SPAN_NAMES))
    busy: dict[str, float] = {}
    covered = cli_self = wall = 0.0
    for spans, child_wall in traces:
        wall += child_wall
        name = spans["name"].astype(np.int64)
        if name.size == 0:
            continue
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=name.size)
        n = len(SPAN_NAMES)
        calls += np.bincount(name, minlength=n)
        count += np.bincount(name, weights=spans["count"], minlength=n)
        total += np.bincount(name, weights=dur, minlength=n)
        self_s += np.bincount(name, weights=dur - child_time, minlength=n)
        failed += np.bincount(name, weights=spans["failed"], minlength=n)
        layer = layers[name]
        outer = ~nested | (layers[name[np.maximum(parent, 0)]] != layer)
        for lay in set(SPAN_LAYERS):
            busy[lay] = busy.get(lay, 0.0) + float(np.sum(dur[outer & (layer == lay)]))
        covered += _union_length(start, end)
        rest = layer != "cli"
        for i in np.nonzero(layer == "cli")[0]:
            lo, hi = start[i], end[i]
            inner = rest & (end > lo) & (start < hi)
            cli_self += (hi - lo) - _union_length(np.maximum(start[inner], lo),
                                                  np.minimum(end[inner], hi))

    def by(arr, *names):
        return float(sum(arr[SPAN_NAMES.index(nm)] for nm in names))

    def ratio(num, den):
        return num / den if den else 0.0

    analytic = ("doppler.average_analytic_I2", "doppler.average_analytic_I3")
    fad_calls = by(calls, "faddeeva.w")
    an_calls, an_points = by(calls, *analytic), by(count, *analytic)
    liou_calls = by(calls, "liouville.populations_batch")
    solves = by(count, "liouville.populations_batch")
    avg_calls, avg_points = by(calls, "doppler.average"), by(count, "doppler.average")
    searches = by(calls, "threshold.threshold_rabi")
    curvatures = by(calls, "threshold.curvature_at_zero")
    return {
        "faddeeva.evals": fad_calls,
        "faddeeva.busy_s": busy.get("faddeeva", 0.0),
        "faddeeva.evals_per_s": ratio(fad_calls, busy.get("faddeeva", 0.0)),
        "doppler.analytic.calls": an_calls,
        "doppler.analytic.points": an_points,
        "doppler.analytic.points_per_call": ratio(an_points, an_calls),
        "doppler.analytic.self_s": by(self_s, *analytic),
        "liouville.calls": liou_calls,
        "liouville.solves": solves,
        "liouville.solves_per_call": ratio(solves, liou_calls),
        "liouville.busy_s": busy.get("liouville", 0.0),
        "liouville.solves_per_s": ratio(solves, busy.get("liouville", 0.0)),
        "liouville.failures": by(failed, "liouville.populations_batch"),
        "doppler.average.calls": avg_calls,
        "doppler.average.points": avg_points,
        "doppler.average.points_per_call": ratio(avg_points, avg_calls),
        "doppler.average.self_s": by(self_s, "doppler.average"),
        "doppler.rule.builds": by(calls, "doppler.QuadratureRule.gauss_hermite"),
        "doppler.rule.busy_s": busy.get("doppler.rule", 0.0),
        "lineshape.denominators": by(calls, "lineshape.denominator_coefficients"),
        "lineshape.weak_evals": by(count, "lineshape.rho_weak_batch"),
        "lineshape.busy_s": busy.get("lineshape", 0.0),
        "threshold.searches": searches,
        "threshold.search_s": by(total, "threshold.threshold_rabi"),
        "threshold.curvatures": curvatures,
        "threshold.curvatures_per_search": ratio(curvatures, searches),
        "threshold.unconverged": by(failed, "threshold.threshold_rabi"),
        "threshold.self_s": by(self_s, "threshold.threshold_rabi",
                               "threshold.curvature_at_zero"),
        "msublevel.sums": by(calls, "msublevel.m_summed"),
        "msublevel.components": by(count, "msublevel.m_summed"),
        "cli.calls": by(calls, "cli.run"),
        "cli.self_s": cli_self,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.coverage": ratio(covered, wall),
    }
