"""Per-layer metrics from one traced pass.

The layers are the package's modules: ``cli``, ``engine``,
``closedform``, ``generating``, ``montecarlo``, ``deviations`` and
``validation``; ``bench`` is the harness's own time inside a timed
operation.  Every metric is reported on every workload, as 0 where the
workload does not reach that layer.  DESIGN.md says which end-to-end
metric each one should move.
"""

import math
import os
from collections import defaultdict

from tracing import Tracer, percentile, self_times

LAYERS = ("cli", "engine", "closedform", "generating", "montecarlo", "deviations", "validation", "bench")
SUITES = ("closedform", "odd-times", "symmetry", "moments", "pgf", "deviations")


def traced_pass(ops, run_once):
    """One run of every operation with the tracer installed; returns ({op: sample}, tracer)."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = {op.name: run_once(op, tracer) for op in ops}
    finally:
        tracer.remove()
    for _, produced, error in traced.values():
        if error is None and isinstance(produced, dict) and "path" in produced:
            tracer.add("cli.bytes_written", os.path.getsize(produced["path"]))
    return traced, tracer


def _dur(span):
    return span.end - span.start


def _info(span, key, default=None):
    return (span.info or {}).get(key, default)


def per_layer(ops, untraced, traced, tracer):
    """Per-layer metrics of the traced pass; ``untraced`` is the untraced pass time."""
    from hexwalk import montecarlo

    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        layer_self[span.name.split(".")[0]] += own[span.id]

    def total(name):
        return sum(_dur(s) for s in by_name[name])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")

    m["cli.bytes_written"] = (tracer.counts["cli.bytes_written"], "bytes")
    m["cli.exit_nonzero"] = (
        sum(1 for s in by_name["cli.main"] if _info(s, "exit", 0) != 0 or _info(s, "failed")), "count")

    nexts = [s for s in by_name["engine.iterate.next"] if not _info(s, "stop")]
    for mode, exact in (("exact", True), ("float", False)):
        mine = [s for s in nexts if _info(s, "exact") is exact]
        pushed = sum(_info(s, "pushed") for s in mine)
        seconds = sum(_dur(s) for s in mine)
        if exact:
            m["engine.exact.snapshots"] = (len(mine), "count")
        m[f"engine.{mode}.states_pushed"] = (pushed, "count")
        m[f"engine.{mode}.peak_support"] = (max((_info(s, "support") for s in mine), default=0), "count")
        m[f"engine.{mode}.snapshot_s"] = (seconds, "s")
        m[f"engine.{mode}.states_per_s"] = (rate(pushed, seconds), "1/s")
    last = tracer.last_exact
    den = math.lcm(*(p.denominator for p in last.mass.values())) if last is not None else 1
    m["engine.exact.den_bits"] = (den.bit_length() if last is not None else 0, "bits")
    m["engine.total.calls"] = (len(by_name["engine.total"]), "count")
    m["engine.total_s"] = (total("engine.total"), "s")
    m["engine.write_csv_s"] = (total("engine.write_csv"), "s")

    states = by_name["closedform.state_probability"]
    m["closedform.state_probability.calls"] = (len(states), "count")
    m["closedform.state_us_p50"] = (1e6 * _p(states, 50), "us")
    m["closedform.hyp2f1.calls"] = (tracer.counts["closedform.hyp2f1"], "count")
    m["closedform.hyp2f1.terms"] = (tracer.counts["closedform.hyp2f1.amount"], "count")
    m["closedform.check_symmetry_s"] = (total("closedform.check_symmetry"), "s")

    gen = [s for name, group in by_name.items() if name.startswith("generating.") for s in group]
    m["generating.calls"] = (len(gen), "count")
    m["generating.busy_s"] = (sum(_dur(s) for s in gen), "s")

    chunk = getattr(montecarlo, "CHUNK", 0)
    endpoints = by_name["montecarlo.sample_endpoints"]
    replicas = sum(_info(s, "replicas", 0) for s in endpoints)
    busy = total("montecarlo.sample_endpoints")
    m["montecarlo.endpoints.replicas"] = (replicas, "count")
    m["montecarlo.endpoints.chunks"] = (
        sum(-(-_info(s, "replicas", 0) // chunk) for s in endpoints) if chunk else 0, "count")
    m["montecarlo.endpoints.busy_s"] = (busy, "s")
    m["montecarlo.endpoints.replicas_per_s"] = (rate(replicas, busy), "1/s")
    paths = [s for s in by_name["montecarlo.sample_endpoint"] if _info(s, "path")]
    steps = sum(_info(s, "steps", 0) for s in paths)
    busy = sum(_dur(s) for s in paths)
    m["montecarlo.paths.steps"] = (steps, "count")
    m["montecarlo.paths.busy_s"] = (busy, "s")
    m["montecarlo.paths.steps_per_s"] = (rate(steps, busy), "1/s")
    m["montecarlo.clt_s"] = (total("montecarlo.clt_diagnostic"), "s")
    m["montecarlo.donsker_s"] = (total("montecarlo.donsker_diagnostic"), "s")

    m.update(_deviations(by_name, tracer))
    for suite in SUITES:
        m[f"validation.{suite}_s"] = (total("validation." + suite), "s")

    traced_wall = sum(traced[op.name][0] for op in ops)
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead"] = (traced_wall / untraced - 1.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    program = sum(layer_self[layer] for layer in LAYERS if layer != "bench")
    m["trace.program_share"] = (program / traced_wall, "ratio")
    return m, op_lines(ops, spans, own)


def _p(spans, pct):
    return percentile([_dur(s) for s in spans], pct) if spans else 0.0


def _deviations(by_name, tracer):
    calls = by_name["deviations.legendre"]
    failed = [s for s in calls if _info(s, "failed")]
    finite = [s for s in calls if _info(s, "finite") is True]
    infinite = [s for s in calls if _info(s, "finite") is False]
    iterations = sum(_info(s, "iterations") for s in finite + infinite)
    wasted = sum(_info(s, "iterations") for s in infinite)
    spent = sum(_dur(s) for s in finite + infinite)
    grid_ids = {s.id for s in by_name["cli.main"]}
    in_grid = [s for s in calls if s.parent in grid_ids]
    grid_wall = sum(_dur(s) for s in by_name["cli.main"] if any(c.parent == s.id for c in in_grid))
    return {
        "deviations.legendre.calls": (len(calls), "count"),
        "deviations.legendre.finite": (len(finite), "count"),
        "deviations.legendre.infinite": (len(infinite), "count"),
        "deviations.legendre.failed": (len(failed), "count"),
        "deviations.newton_iterations": (iterations, "count"),
        "deviations.newton_iterations.infinite_share": (wasted / iterations if iterations else 0.0, "ratio"),
        "deviations.legendre.infinite_time_share": (
            sum(_dur(s) for s in infinite) / spent if spent else 0.0, "ratio"),
        "deviations.objective_evals": (tracer.counts["deviations.cgf"], "count"),
        "deviations.legendre.finite_p50_ms": (1e3 * _p(finite, 50), "ms"),
        "deviations.legendre.finite_p99_ms": (1e3 * _p(finite, 99), "ms"),
        "deviations.legendre.infinite_p50_ms": (1e3 * _p(infinite, 50), "ms"),
        "deviations.legendre.infinite_p99_ms": (1e3 * _p(infinite, 99), "ms"),
        "deviations.legendre.overlap": (
            sum(_dur(s) for s in in_grid) / grid_wall if grid_wall else 0.0, "ratio"),
        "deviations.moderate_rate.calls": (len(by_name["deviations.moderate_rate"]), "count"),
        "deviations.moderate_rate.busy_s": (sum(_dur(s) for s in by_name["deviations.moderate_rate"]), "s"),
    }


def op_lines(ops, spans, own):
    """One line per operation: its traced wall time and the self time of each layer."""
    lines = []
    for op in ops:
        mine = [s for s in spans if s.op == op.name]
        by_layer = defaultdict(float)
        for s in mine:
            by_layer[s.name.split(".")[0]] += own[s.id]
        root = [s for s in mine if s.name == "bench." + op.name]
        parts = ", ".join(f"{layer} {by_layer[layer]:.4f}" for layer in LAYERS if by_layer[layer])
        line = f"trace {op.name}: wall {sum(_dur(s) for s in root):.4f} s; self s: {parts}"
        rates = [s for s in mine if s.name == "deviations.legendre" and not _info(s, "failed")]
        if rates:
            inf = [s for s in rates if not _info(s, "finite")]
            iters = sum(_info(s, "iterations") for s in rates)
            line += (f"; legendre {len(rates)} calls, {len(inf)} infinite, infinite share of "
                     f"iterations {sum(_info(s, 'iterations') for s in inf) / max(iters, 1):.4f}, "
                     f"of legendre time {sum(_dur(s) for s in inf) / max(sum(_dur(s) for s in rates), 1e-12):.4f}")
        lines.append(line)
    return lines


def consistency_problems(ops, traced, tracer):
    """Self times of all spans must add up to the timed sections' wall time."""
    own = self_times(tracer.spans)
    attributed = sum(own.values())
    wall = sum(traced[op.name][0] for op in ops)
    if abs(attributed - wall) > 1e-3 * wall + 1e-3:
        return [f"trace: self times add up to {attributed:.6f} s, timed sections to {wall:.6f} s"]
    return []
