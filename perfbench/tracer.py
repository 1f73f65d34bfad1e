"""Per-layer tracing of qtransient, installed from outside the package.

`Tracer.install()` replaces the public functions at each module boundary
with thin wrappers that record a span (layer, start, end, parent) and a
few counts taken from the call's arguments and result; `uninstall()`
puts every original back.  Wrappers pass arguments and results through
untouched, so traced and untraced runs emit the same bytes.

Spans are kept per thread: each thread has its own stack of open spans.
CLI scans run their grid points on a thread pool, so a span opened on a
thread with an empty stack takes the open `cli.main` span as its parent.
A span's self time is its duration minus the part of it that its child
spans, and the tracer's bookkeeping for them, cover (children on two pool
threads may overlap).
"""

from __future__ import annotations

import importlib
import threading
import time

import numpy as np

# (module, attribute, layer) for every boundary the tracer wraps
BOUNDARIES = (
    ("moshinsky", "faddeeva", "faddeeva"),
    ("propagator", "moshinsky_m_dt", "moshinsky"),
    ("propagator", "find_poles", "resonances.find_poles"),
    ("propagator", "expansion_coeffs", "resonances.coeffs"),
    ("sweeps", "phase_time_delay", "stationary.delay"),
    ("analysis", "trace", "propagator.trace"),
    ("cli", "trace", "propagator.trace"),
    ("cli", "find_time_domain_resonance", "analysis.peak"),
    ("sweeps", "find_time_domain_resonance", "analysis.peak"),
    ("cli", "opacity_window", "sweeps.window"),
    ("cli", "cn_evolve", "oracle.cn_evolve"),
    ("oracle", "solve_banded", "oracle.solve_banded"),
    ("cli", "main", "cli.main"),
    ("cli", "emit_csv", "cli.emit"),
)

# the region split of the in-house kernel (qtransient.faddeeva.RADIUS), kept
# here so the counts mean the same if the kernel is replaced
_FADDEEVA_RADIUS = 8.0


class Span:
    """One call of a wrapped function.

    `end` is stamped as soon as the call returns; `book` is the time the
    tracer then spends taking counts from the arguments and result, which
    belongs to no layer.
    """

    __slots__ = ("layer", "start", "end", "book", "parent", "info")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.info = {}
        self.book = 0.0
        self.start = time.perf_counter()
        self.end = None


def _faddeeva_info(args, kwargs, result):
    z = np.asarray(args[0] if args else kwargs["z"], dtype=complex)
    upper = z.imag >= 0.0
    big = np.abs(z) > _FADDEEVA_RADIUS
    return {"points": int(z.size),
            "trapezoid": int(np.count_nonzero(upper & ~big)),
            "contfrac": int(np.count_nonzero(upper & big)),
            "reflected": int(np.count_nonzero(~upper))}


def _find_poles_info(args, kwargs, result):
    sys_ = args[0] if args else kwargs["sys"]
    previous = kwargs.get("previous", args[3] if len(args) > 3 else None)
    warm = previous is not None and previous.system == sys_
    known = min(len(previous.poles), result.N_max) if warm else 0
    return {"cold": not warm, "found": len(result.poles) - known}


def _solve_banded_info(args, kwargs, result):
    ab = args[1] if len(args) > 1 else kwargs["ab"]
    return {"nodes": int(np.shape(ab)[1])}


def _main_info(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 0
    return {"threads": threads}


_INFO = {
    "faddeeva": _faddeeva_info,
    "moshinsky": lambda a, k, r: {"points": int(np.size(r[0]))},
    "resonances.find_poles": _find_poles_info,
    "resonances.coeffs": lambda a, k, r: {"count": len(r[0])},
    "propagator.trace": lambda a, k, r: {"points": len(r.times),
                                         "terms": r.n_terms_used},
    "analysis.peak": lambda a, k, r: {"exists": bool(r.exists)},
    "oracle.solve_banded": _solve_banded_info,
    "cli.main": _main_info,
}


class Tracer:
    """Wraps qtransient's module boundaries and records spans."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, layer):
        info = _INFO.get(layer)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, stack[-1] if stack else self._root)
            if layer == "cli.main":
                self._root = span
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if layer == "cli.main":
                    self._root = None
                with self._lock:
                    self.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
                span.book = time.perf_counter() - span.end
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(f"qtransient.{module_name}")
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, passes=1):
    """Per-layer metrics from closed spans: {name: (value, unit)}.

    Counts and times are per pass, averaged over `passes`; ratios, means
    and maxima are taken over all passes at once.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(
                (s.start, s.end + s.book))
    self_s, dur, n = {}, {}, {}
    for s in spans:
        d = s.end - s.start
        own = d - _covered(children.get(id(s), ()), s.start, s.end)
        self_s[s.layer] = self_s.get(s.layer, 0.0) + own
        dur[s.layer] = dur.get(s.layer, 0.0) + d
        n[s.layer] = n.get(s.layer, 0) + 1

    def total(layer, key):
        return sum(s.info.get(key, 0) for s in spans if s.layer == layer)

    def count(v):
        return v / passes, "count"

    def secs(v):
        return v / passes, "s"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    traces = [s for s in spans if s.layer == "propagator.trace" and s.info]
    under_peak = [s for s in traces
                  if s.parent is not None and s.parent.layer == "analysis.peak"]
    scan = [s for s in under_peak if s.info["points"] > 1]
    polish = [s for s in under_peak if s.info["points"] == 1]
    peaks = n.get("analysis.peak", 0)
    fad_points = total("faddeeva", "points")
    fad_self = self_s.get("faddeeva", 0.0)
    solve_nodes = total("oracle.solve_banded", "nodes")
    solve_s = dur.get("oracle.solve_banded", 0.0)
    poles_found = total("resonances.find_poles", "found")
    main_spans = [s for s in spans if s.layer == "cli.main"]
    terms = [s.info["terms"] for s in traces]
    # cli.main's own self time is whatever no wrapped layer covers
    explained = sum(v for layer, v in self_s.items() if layer != "cli.main")

    return {
        "faddeeva.points": count(fad_points),
        "faddeeva.points.trapezoid": count(total("faddeeva", "trapezoid")),
        "faddeeva.points.contfrac": count(total("faddeeva", "contfrac")),
        "faddeeva.points.reflected": count(total("faddeeva", "reflected")),
        "faddeeva.self_s": secs(fad_self),
        "faddeeva.mpts_per_s": (fad_points / fad_self / 1e6 if fad_self
                                else 0.0, "Mpts/s"),
        "moshinsky.calls": count(n.get("moshinsky", 0)),
        "moshinsky.points": count(total("moshinsky", "points")),
        "moshinsky.self_s": secs(self_s.get("moshinsky", 0.0)),
        "resonances.find_poles.calls": count(n.get("resonances.find_poles", 0)),
        "resonances.find_poles.cold_calls": count(sum(
            1 for s in spans
            if s.layer == "resonances.find_poles" and s.info.get("cold"))),
        "resonances.find_poles.poles_found": count(poles_found),
        "resonances.find_poles.self_s": secs(
            self_s.get("resonances.find_poles", 0.0)),
        "resonances.coeffs.calls": count(n.get("resonances.coeffs", 0)),
        "resonances.coeffs.count": count(total("resonances.coeffs", "count")),
        "resonances.coeffs.self_s": secs(self_s.get("resonances.coeffs", 0.0)),
        "resonances.poles_found_per_peak": ratio(poles_found, peaks),
        "stationary.delay.calls": count(n.get("stationary.delay", 0)),
        "stationary.delay.self_s": secs(self_s.get("stationary.delay", 0.0)),
        "propagator.trace.calls": count(n.get("propagator.trace", 0)),
        "propagator.trace.points": count(sum(s.info["points"] for s in traces)),
        "propagator.trace.single_point_calls": count(sum(
            1 for s in traces if s.info["points"] == 1)),
        "propagator.trace.terms_used.mean": ratio(sum(terms), len(terms)),
        "propagator.trace.terms_used.max": (max(terms, default=0), "count"),
        "propagator.trace.self_s": secs(self_s.get("propagator.trace", 0.0)),
        "analysis.peaks": count(peaks),
        "analysis.scan_s": secs(sum(s.end - s.start for s in scan)),
        "analysis.polish_s": secs(sum(s.end - s.start for s in polish)),
        "analysis.polish_evals_per_peak": ratio(len(polish), peaks),
        "analysis.self_s": secs(self_s.get("analysis.peak", 0.0)),
        "sweeps.window.probes": count(sum(
            1 for s in spans if s.layer == "analysis.peak"
            and s.parent is not None and s.parent.layer == "sweeps.window")),
        "sweeps.window.self_s": secs(self_s.get("sweeps.window", 0.0)),
        "oracle.steps": count(n.get("oracle.solve_banded", 0)),
        "oracle.nodes": (max((s.info.get("nodes", 0) for s in spans
                              if s.layer == "oracle.solve_banded"), default=0),
                         "count"),
        "oracle.solve_s": secs(solve_s),
        "oracle.ns_per_node_step": (1e9 * solve_s / solve_nodes if solve_nodes
                                    else 0.0, "ns"),
        "oracle.self_s": secs(self_s.get("oracle.cn_evolve", 0.0)
                              + self_s.get("oracle.solve_banded", 0.0)),
        "cli.commands": count(len(main_spans)),
        "cli.threads": (max((s.info.get("threads", 0) for s in main_spans),
                            default=0), "count"),
        "cli.emit_s": secs(dur.get("cli.emit", 0.0)),
        "cli.self_s": secs(self_s.get("cli.main", 0.0)
                           + self_s.get("cli.emit", 0.0)),
        "trace.self_share": ratio(explained, dur.get("cli.main", 0.0)),
    }
