"""Benchmark of the hexwalk library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-oracle --seed 1 --seconds 30 --trace 0

Runs on one CPU.  Runs the workload's four operations in a warm-up round
and then in interleaved rounds, each operation repeated while it has used
less than its share of ``--seconds``, and reports the median time of
each, scaled to a reference speed of the machine.  Then checks every
output against an independent reference, outside the timed sections.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` one more pass runs with
spans recorded around every layer and the JSON object holds the
per-layer metrics.  Lines before it name every metric with its unit.
See DESIGN.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads
from tracing import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

#: Seconds ``reference_work`` typically takes on the machine of BASELINE.md.
#: Every reported time is scaled to the speed at which the reference
#: work takes this long; see ``scaled``.
REFERENCE_S = 0.028

_REFERENCE_ARRAY = np.linspace(0.0, 50.0, 40_000).reshape(200, 200)


def reference_work():
    """Fixed work of the kinds hexwalk does, in one thread.

    An interpreter loop, big integers in a dict, ``Fraction`` sums and
    small numpy kernels.  It belongs to the benchmark, not the program, so
    no change to ``hexwalk`` changes its time; only the speed the shared
    machine gives this process does.
    """
    total = 0
    for i in range(60_000):
        total += i * i % 7
    big, table = 3**400, {}
    for i in range(4000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) * 7 + big + i
    third, acc = Fraction(1, 3), Fraction(0)
    for i in range(1500):
        acc += third * Fraction(i + 1, 7)
    for _ in range(15):
        total += float(np.sin(_REFERENCE_ARRAY).sum()) + float(np.sort(_REFERENCE_ARRAY, axis=None)[::97].sum())
    return total, len(table), acc


def reference_seconds():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(seconds, reference):
    """``seconds`` at the speed where ``reference_work`` takes ``REFERENCE_S``.

    The 2-vCPU machine the benchmark runs on is shared, and the speed it
    gives a process changes by up to half within seconds and between
    runs.  Each sample is divided by the reference work timed right before
    and after it (``reference`` is their mean), which cancels most of that.
    """
    return seconds * REFERENCE_S / reference


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_to_one_cpu(argv):
    """Run this benchmark again in its own process, bound to one CPU.

    On the shared 2-vCPU machine the rate grid's thread pool hands the
    interpreter lock between threads on different vCPUs, and how the
    scheduler places them made one call take anywhere from 0.19 to 0.50 s.
    Bound to one CPU it took 0.24 to 0.28 s.  The process is replaced
    (``execv``), not forked, so numpy starts with the one CPU too and
    sizes its BLAS pool to it.  ``os.cpu_count()``, which sizes hexwalk's
    pool, still counts every CPU, so the pool keeps its shipped size.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])


def import_program():
    """Put the checkout's ``src`` first on the path; never fall back to an installed copy."""
    if not (SRC / "hexwalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hexwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hexwalk.cli  # noqa: F401


def probe_setup(workload, seed):
    """Child side of a set-up probe: import, draw the inputs, report the clock."""
    import_program()
    workloads.draw_inputs(seed)
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading.
    print(repr(time.monotonic()), flush=True)


def time_setup(workload, seed):
    """Median set-up time of fresh interpreters, each scaled by the reference work around it."""
    times = []
    before = reference_seconds()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = float(done.stdout.strip().splitlines()[-1]) - start
        after = reference_seconds()
        times.append(scaled(probe, (before + after) / 2))
        before = after
    return statistics.median(times)


def run_once(op, tracer=None):
    """Time one run of ``op``; returns (seconds, collected output or None, error text or None)."""
    # Garbage left by earlier operations is collected outside the timed section.
    gc.collect()
    span = tracer.start_op(op.name) if tracer else None
    start = time.perf_counter()
    try:
        produced, error = op.run(), None
    except Exception:
        produced, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_op(span)
    if error is None:
        try:
            produced = op.collect(produced)
        except Exception:
            error = traceback.format_exc()
    if error:
        print(f"perfbench: {op.name} raised\n{error}", file=sys.stderr)
    return elapsed, produced, error


def measure(ops, seconds):
    """Samples of every operation: one warm-up round, then interleaved timed rounds.

    The warm-up round lets caches fill and lazy imports finish; its outputs
    are checked like every other, but its times are not used (see
    ``timed``).  Each operation then runs again while its timed samples
    have used less than its share, ``seconds / len(ops)``, of the time.
    Interleaving spreads slow phases of a shared machine over all of them.

    Returns the samples of each operation and, for each sample, the mean
    of the reference work timed before and after it (see ``scaled``).
    """
    share = seconds / len(ops)
    samples = {op.name: [] for op in ops}
    references = {op.name: [] for op in ops}
    before = reference_seconds()

    def take(op):
        nonlocal before
        samples[op.name].append(run_once(op))
        after = reference_seconds()
        references[op.name].append((before + after) / 2)
        before = after

    def wants_more(op):
        times = timed(samples[op.name])
        return not times or sum(times) < share

    for op in ops:
        take(op)
    while any(wants_more(op) for op in ops):
        for op in ops:
            if wants_more(op):
                take(op)
    return samples, references


def timed(op_samples):
    """Times of an operation's samples after the warm-up one."""
    return [s[0] for s in op_samples[1:]]


def check_samples(ops, samples):
    """Failed operation count and the problems found, outside every timed section."""
    failed = 0
    problems = []
    for op in ops:
        first = samples[op.name][0][1]
        for index, (_, produced, error) in enumerate(samples[op.name]):
            found = [error.strip().splitlines()[-1]] if error else []
            if not error and first is not None:
                try:
                    found += op.check(produced, first)
                except Exception:
                    found.append("check raised: " + traceback.format_exc().strip().splitlines()[-1])
            elif not error:
                found.append("first run produced no output")
            if found:
                failed += 1
                problems += [f"{op.name} run {index}: {p}" for p in found]
    return failed, problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(ops, samples, references, setup_s, rss_mb):
    """Metrics of the JSON line, and the named lines printed before it."""
    all_references = [r for refs in references.values() for r in refs]
    lines = [f"reference work = {statistics.median(all_references):.6f} s  [median of "
             f"{len(all_references)}; times below are scaled to {REFERENCE_S} s]"]
    op_metrics = {}
    for slot, op in enumerate(ops, start=1):
        times = [scaled(t, r) for t, r in zip(timed(samples[op.name]), references[op.name][1:])]
        q1, med, q3 = quartiles(times)
        op_metrics[f"op{slot}_s"] = (med, "s")
        lines.append(f"{op.name} = {med:.6f} s  [op{slot}_s; median of {len(times)}; "
                     f"q1 {q1:.6f}, q3 {q3:.6f}; unscaled median "
                     f"{statistics.median(timed(samples[op.name])):.6f}]")
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (sum(v for v, _ in op_metrics.values()), "s"),
               "peak_rss_mb": (rss_mb, "MB"), **op_metrics}
    latencies = [s[1][1] for s in samples.get("rate_points_s", [])[1:] if s[1] is not None]
    for label, pct in (("rate_point_p50_ms", 50), ("rate_point_p99_ms", 99)):
        if latencies:
            value = statistics.median(1e3 * percentile(one, pct) for one in latencies)
            lines.append(f"{label} = {value:.6f} ms  [unscaled; median over {len(latencies)} runs "
                         f"of {len(latencies[0])} calls]")
    return metrics, lines


def pass_seconds(ops, samples):
    """One pass of the workload: the sum of the operations' unscaled median times."""
    return sum(statistics.median(timed(samples[op.name])) for op in ops)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    pin_to_one_cpu(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.draw_inputs(args.seed)
        ops = workloads.build(args.workload, inputs, workdir)
        samples, references = measure(ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            import layers

            traced, tracer = layers.traced_pass(ops, run_once)
            untraced = pass_seconds(ops, samples)
            metrics, lines = layers.per_layer(ops, untraced, traced, tracer)
            for op in ops:
                samples[op.name].append(traced[op.name])
            failed, problems = check_samples(ops, samples)
            problems += layers.consistency_problems(ops, traced, tracer)
        else:
            failed, problems = check_samples(ops, samples)
            metrics, lines = end_to_end(ops, samples, references, setup_s, rss_mb)
        attempted = sum(len(s) for s in samples.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if problems and not failed:
        failed = 1
    q0 = ",".join(f"{w}/10" for w in inputs.w0)
    q1 = ",".join(f"{w}/10" for w in inputs.w1)
    print(f"workload {args.workload}, seed {args.seed}: q0={q0} q1={q1} mc_seed={inputs.mc_seed}")
    for line in lines:
        print(line)
    for problem in problems:
        print("FAILED CHECK " + problem)
    print(f"ops_failed_frac = {failed / attempted:.6f}  [{failed} of {attempted} operations]")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
