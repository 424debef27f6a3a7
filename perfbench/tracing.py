"""Spans and counters recorded from outside the program, for the traced run.

``Tracer.install`` replaces public functions of the ``hexwalk`` modules
with wrappers, for the traced pass only, and ``Tracer.remove`` puts the
originals back.  A wrapper records a span (name, start, end, parent,
operation id, details) when its call crosses a layer boundary, that is
when the caller's innermost span belongs to another module; a few
functions whose per-call cost is itself a metric are always recorded.
Spans stay in memory until the pass ends.

Self time is attributed by sweeping the timeline: each instant of an
operation goes to the innermost active spans, shared equally when pool
threads run several at once.  The self times of all spans of an
operation therefore add up to its wall time.
"""

import itertools
import math
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id name start end parent op info")

# What the per-thread stacks hold while a span is open.
_Open = namedtuple("_Open", "id name start parent op")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self.last_exact = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # A pool thread's work belongs to the main thread's innermost span.
        return self._main_stack[-1] if self._main_stack else None

    def begin(self, name):
        parent = self._top()
        span = _Open(next(self._ids), name, time.perf_counter(), parent and parent.id, self.op)
        self._stack().append(span)
        return span

    def end(self, span, info=None):
        self._stack().pop()
        self.spans.append(
            Span(span.id, span.name, span.start, time.perf_counter(), span.parent, span.op, info))

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def start_op(self, op_name):
        self.op = op_name
        return self.begin("bench." + op_name)

    def end_op(self, span):
        self.end(span)
        self.op = None

    def crossing(self, layer):
        """True when a call into ``layer`` comes from another layer."""
        top = self._top()
        return top is None or not top.name.startswith(layer + ".")

    # -- patching ----------------------------------------------------------

    # An owner is a module, a class, or a dict of functions.
    @staticmethod
    def _get(owner, attr):
        return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, self._get(owner, attr)))
        self._set(owner, attr, replacement)

    def wrap(self, owner, attr, name, info=None, always=False):
        """Record a span named ``name`` around ``owner.attr``; ``info(args, kwargs, result)``."""
        fn = self._get(owner, attr)
        layer = name.split(".")[0]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None or not (always or tracer.crossing(layer)):
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                failed = type(exc).__name__
                raise
            finally:
                details = info(args, kwargs, result) if info and failed is None else None
                tracer.end(span, {"failed": failed} if failed else details)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, key, amount=None):
        """Count calls of ``owner.attr`` under ``key``, plus ``amount(args)`` under ``key.amount``."""
        fn = self._get(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.add(key)
                if amount:
                    tracer.add(key + ".amount", amount(args, kwargs))
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_iterate(self, engine):
        """Time every ``next()`` of ``engine.iterate`` and record the snapshot sizes."""
        fn = self._get(engine, "iterate")
        tracer = self

        def iterate(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.op is None:
                yield from inner
                return
            previous = None
            while True:
                span = tracer.begin("engine.iterate.next")
                try:
                    d = next(inner)
                except StopIteration:
                    tracer.end(span, {"stop": True})
                    if previous is not None and previous.exact:
                        if tracer.last_exact is None or previous.n >= tracer.last_exact.n:
                            tracer.last_exact = previous
                    return
                pushed = len(previous.mass) if previous is not None else 0
                tracer.end(span, {"exact": d.exact, "support": len(d.mass), "pushed": pushed})
                previous = d
                yield d

        self._patch(engine, "iterate", iterate)

    def install(self):
        """Wrap the public entry points of every layer of the ``hexwalk`` package."""
        from hexwalk import cli, closedform, deviations, engine, generating, montecarlo, validation

        self.wrap(cli, "main", "cli.main", info=lambda a, k, r: {"exit": r}, always=True)
        for attr in ("evolve", "write_csv", "distribution_moments", "pgf_expectation"):
            self.wrap(engine, attr, "engine." + attr)
        self.wrap(engine.Distribution, "total", "engine.total")
        self.wrap_iterate(engine)
        for attr in ("closed_form_distribution", "check_symmetry"):
            self.wrap(closedform, attr, "closedform." + attr)
        self.wrap(closedform, "state_probability", "closedform.state_probability", always=True)
        self.count(
            closedform, "gauss_2f1_terminating", "closedform.hyp2f1",
            amount=lambda a, k: max(0, min(-a[0], -a[1])),
        )
        # montecarlo and deviations call generating through names they imported.
        for owner in (generating, montecarlo, deviations):
            for attr in ("moments", "pgf", "asymptotic_covariance"):
                if callable(owner.__dict__.get(attr)):
                    self.wrap(owner, attr, "generating." + attr)
        self.wrap(
            montecarlo, "sample_endpoints", "montecarlo.sample_endpoints",
            info=lambda a, k, r: {"replicas": a[2] if len(a) > 2 else k["replicas"]},
        )
        self.wrap(
            montecarlo, "sample_endpoint", "montecarlo.sample_endpoint",
            info=lambda a, k, r: {"steps": a[0], "path": bool(k.get("with_path"))},
        )
        for attr in ("clt_diagnostic", "donsker_diagnostic"):
            self.wrap(montecarlo, attr, "montecarlo." + attr)
        self.wrap(
            deviations, "legendre", "deviations.legendre", always=True,
            info=lambda a, k, r: {"finite": r.finite, "iterations": r.iterations},
        )
        self.wrap(deviations, "moderate_rate", "deviations.moderate_rate", always=True)
        for attr in ("cgf_gradient", "cgf_hessian"):
            self.wrap(deviations, attr, "deviations." + attr)
        self.count(deviations, "cgf", "deviations.cgf")
        # run_suites looks suites up in this dict.
        for suite in list(validation.SUITES):
            self.wrap(validation.SUITES, suite, "validation." + suite, always=True)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            self._set(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of every span id, by a sweep that shares overlapping leaves equally."""
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    active_children = defaultdict(int)
    active = {}
    self_time = defaultdict(float)
    last = None
    for t, kind, span in events:
        if last is not None and active:
            leaves = [sid for sid in active if active_children[sid] == 0]
            share = (t - last) / len(leaves)
            for sid in leaves:
                self_time[sid] += share
        last = t
        sid, parent = span.id, span.parent
        if kind:
            active[sid] = span
            if parent in active:
                active_children[parent] += 1
        else:
            active.pop(sid, None)
            if parent in active:
                active_children[parent] -= 1
    return self_time


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
