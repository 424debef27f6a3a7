"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest perfbench -q``."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def BENCHMARK_METRICS(kind):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_sizes(workload, tmp_path):
    inputs = workloads.draw_inputs(3, workloads.TINY)
    ops = workloads.build(workload, inputs, tmp_path, workloads.TINY)
    assert len(ops) == 4
    samples, references = run.measure(ops, 0.0)
    assert all(len(s) == 2 for s in samples.values())  # warm-up and one timed sample
    traced, tracer = layers.traced_pass(ops, run.run_once)
    metrics, _ = layers.per_layer(ops, run.pass_seconds(ops, samples), traced, tracer)
    assert layers.consistency_problems(ops, traced, tracer) == []
    for op in ops:
        samples[op.name].append(traced[op.name])
    assert run.check_samples(ops, samples) == (0, [])
    e2e, _ = run.end_to_end(ops, samples, references, 0.1, 1.0)
    assert sorted(e2e) == sorted(BENCHMARK_METRICS("end_to_end"))
    assert sorted(metrics) == sorted(BENCHMARK_METRICS("per_layer"))


def test_rows_are_valid_in_both_spellings():
    from hexwalk.lattice import StepProbabilities

    for row in workloads.ROWS:
        assert sum(row) == 10 and math.lcm(*(Fraction(w, 10).denominator for w in row)) == 10
        StepProbabilities(tuple(w / 10 for w in row), tuple(w / 10 for w in row))
        StepProbabilities(tuple(Fraction(w, 10) for w in row), tuple(Fraction(w, 10) for w in row))
    assert workloads.draw_inputs(5) == workloads.draw_inputs(5)


def test_lattice_facts_match_the_package():
    from hexwalk import engine
    from hexwalk.lattice import INDEX_SHIFTS, StepProbabilities

    assert oracles.index_shifts() == INDEX_SHIFTS
    q = StepProbabilities((Fraction(3, 10),) * 2 + (Fraction(4, 10),), (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
    for n in (6, 7):
        d = engine.evolve(q, n)
        j, k = np.array(list(d.mass)).T
        assert oracles.reachable(j, k, n).all()
        box = np.array([(a, b) for a in range(-n, n + 1) for b in range(-n, n + 1)])
        assert oracles.reachable(box[:, 0], box[:, 1], n).sum() == len(d.mass)
        numerators, den = oracles.exact_numerators((3, 3, 4), (5, 3, 2), n)
        assert {jk: Fraction(v, den) for jk, v in numerators.items()} == d.mass


def test_domain_helper_on_both_sides_of_every_edge():
    domain = oracles.velocity_domain((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))
    normals, offsets = domain
    assert len(offsets) == 6 and np.allclose(offsets, 0.75)
    for normal, offset in zip(normals, offsets):
        foot = normal * offset
        for delta, inside in ((-1e-3, True), (1e-3, False), (-0.2, True), (0.5, False)):
            excess = oracles.domain_excess([foot + delta * normal], domain)[0]
            assert (excess <= 0) == inside
            assert math.isclose(abs(excess), abs(delta), rel_tol=1e-9)
    assert oracles.domain_excess([(0.75, 0.0)], domain)[0] == pytest.approx(0.0, abs=1e-15)


def test_rate_reference_matches_known_values():
    third = (1 / 3,) * 3
    assert oracles.rate_reference([(0.75, 0.0)], third, third)[0] == pytest.approx(0.5 * math.log(4.5), abs=1e-8)
    assert oracles.rate_reference([(0.0, 0.0)], third, third)[0] == pytest.approx(0.0, abs=1e-15)


def test_grid_parser_and_rate_checks_flag_wrong_rows(tmp_path):
    inputs = workloads.draw_inputs(4, workloads.TINY)
    value = oracles.rate_reference([(0.1, 0.05)], inputs.q0, inputs.q1)[0]
    path = tmp_path / "grid.csv"
    rows = ["x,y,rate,finite", f"0.1,0.05,{value:.17g},true", "2,2,inf,false"]
    path.write_text("\n".join(rows) + "\n")
    assert workloads.check_rate_grid(str(path), inputs) == []
    path.write_text("\n".join(rows[:2] + ["2,2,1.5,true"]) + "\n")
    assert workloads.check_rate_grid(str(path), inputs) == [
        "1 finite/infinite verdicts disagree with the analytic domain"]
    path.write_text("\n".join(rows[:1] + [f"0.1,0.05,{value + 1e-6:.17g},true"]) + "\n")
    assert "differ from the reference" in workloads.check_rate_grid(str(path), inputs)[0]
    path.write_text("\n".join(rows[:1] + ["0,0,nan,error"]) + "\n")
    assert "numerical error" in workloads.check_rate_grid(str(path), inputs)[0]
    path.write_text("a,b\n")
    with pytest.raises(ValueError):
        workloads.check_rate_grid(str(path), inputs)


def test_exact_check_flags_a_changed_digit(tmp_path):
    inputs = workloads.draw_inputs(4, workloads.TINY)
    numerators, den = oracles.exact_numerators(inputs.w0, inputs.w1, 5)
    text = oracles.distribution_csv(numerators, den)
    path = tmp_path / "d.csv"
    path.write_text(text)
    assert workloads.check_exact_csv(str(path), inputs, 5) == []
    path.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
    assert workloads.check_exact_csv(str(path), inputs, 5) != []


def test_self_times_share_overlapping_leaves_and_add_up():
    # root 0..10 with two overlapping children 2..6 and 4..8 from pool threads
    spans = [tracing.Span(1, "bench.op", 0.0, 10.0, None, "op", None),
             tracing.Span(2, "deviations.legendre", 2.0, 6.0, 1, "op", None),
             tracing.Span(3, "deviations.legendre", 4.0, 8.0, 1, "op", None)]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(3.0) and own[3] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)
    assert tracing.percentile([5, 1, 3, 2, 4], 50) == 3
    assert tracing.percentile(list(range(1, 101)), 99) == 99
