import io
import itertools
from fractions import Fraction

import pytest

from hexwalk import (
    Distribution,
    InvalidParameterError,
    ResourceLimitError,
    StepProbabilities,
    evolve,
    initial,
    iterate,
    step,
)
from hexwalk import engine
from hexwalk.closedform import region_of
from hexwalk.lattice import INDEX_SHIFTS, parity
from hexwalk.validation import PARAMETER_BATTERY

UNIFORM = StepProbabilities.uniform()
ASYM = StepProbabilities(
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)),
)


def test_initial_distribution():
    d = initial()
    assert d.n == 0
    assert d.mass == {(0, 0): Fraction(1)}
    assert d.total() == 1
    assert len(d.support()) == 1


def test_single_step_from_origin():
    d = step(initial(), ASYM)
    assert d.mass == {
        (0, 0): ASYM.q0[0],
        (-1, 0): ASYM.q0[2],
        (-1, 1): ASYM.q0[1],
    }
    assert d.total() == 1


def test_two_step_return_probability_uniform():
    d = step(step(initial(), UNIFORM), UNIFORM)
    assert d[(0, 0)] == Fraction(1, 3)


def test_evolve_zero_steps_is_initial():
    assert evolve(UNIFORM, 0).mass == initial().mass


@pytest.mark.parametrize("name,q", PARAMETER_BATTERY, ids=[n for n, _ in PARAMETER_BATTERY])
def test_evolve_matches_repeated_step_exact(name, q):
    d = initial()
    for n, snapshot in enumerate(iterate(q, 12)):
        assert snapshot.n == n
        assert snapshot.mass == d.mass
        d = step(d, q)


def test_evolve_matches_repeated_step_float():
    q = ASYM.as_float()
    d = initial(exact=False)
    for snapshot in iterate(q, 12, exact=False):
        assert snapshot.mass == pytest.approx(d.mass)
        d = step(d, q)


@pytest.mark.parametrize("name,q", PARAMETER_BATTERY, ids=[n for n, _ in PARAMETER_BATTERY])
def test_normalization_exact(name, q):
    for d in iterate(q, 60):
        assert d.total() == 1


def test_normalization_float_drift():
    worst = 0.0
    for d in iterate(UNIFORM.as_float(), 100, exact=False):
        worst = max(worst, abs(d.total() - 1.0))
    assert worst <= 1e-12


def test_float_agrees_with_rational():
    exact_run = iterate(ASYM, 100)
    float_run = iterate(ASYM.as_float(), 100, exact=False)
    for de, df in zip(exact_run, float_run):
        assert de.support() == df.support()
        worst = max(abs(float(de[jk]) - df[jk]) for jk in de.support())
        assert worst <= 1e-12


def test_translation_covariance():
    # Shifting the starting atom shifts the whole solution, nothing else.
    import random

    rng = random.Random(7)
    base = evolve(ASYM, 20)
    for _ in range(5):
        j0, k0 = rng.randint(-10, 10), rng.randint(-10, 10)
        start = initial(j0, k0)
        shifted = evolve(ASYM, 20, start=start)
        assert shifted.mass == {(j + j0, k + k0): p for (j, k), p in base.mass.items()}


def test_even_support_within_regions():
    for d in iterate(UNIFORM, 30):
        if d.n % 2 or d.n == 0:
            continue
        m = d.n // 2
        assert all(region_of(j, k, m) is not None for j, k in d.support())


def test_step_cap():
    with pytest.raises(ResourceLimitError):
        evolve(UNIFORM, 50, cap=10)


def test_negative_steps_rejected():
    with pytest.raises(InvalidParameterError):
        evolve(UNIFORM, -1)


def test_exact_mode_requires_exact_probabilities():
    with pytest.raises(InvalidParameterError):
        evolve(StepProbabilities((0.5, 0.25, 0.25), (0.2, 0.3, 0.5)), 4, exact=True)


def test_zero_weights_pruned():
    q = StepProbabilities((Fraction(1), Fraction(0), Fraction(0)),
                          (Fraction(1), Fraction(0), Fraction(0)))
    d = evolve(q, 7)
    assert d.mass == {(0, 0): Fraction(1)}


class TestSerialization:
    def test_csv_roundtrip_is_byte_identical(self):
        d = evolve(ASYM, 6, exact=False)
        first = io.StringIO()
        engine.write_csv(d, first)
        back = engine.read_csv(io.StringIO(first.getvalue()), n=6)
        second = io.StringIO()
        engine.write_csv(back, second)
        assert first.getvalue() == second.getvalue()

    def test_csv_header_checked(self):
        with pytest.raises(InvalidParameterError):
            engine.read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_json_roundtrip_is_byte_identical(self):
        d = evolve(ASYM, 5)
        first = io.StringIO()
        engine.write_json(d, first)
        back, mode = engine.read_json(io.StringIO(first.getvalue()))
        assert mode == "rational"
        second = io.StringIO()
        engine.write_json(back, second, mode=mode)
        assert first.getvalue() == second.getvalue()

    def test_json_roundtrip_is_exact(self):
        d = evolve(ASYM, 9)
        out = io.StringIO()
        engine.write_json(d, out)
        back, mode = engine.read_json(io.StringIO(out.getvalue()))
        assert back.exact and mode == "rational"
        assert back.n == 9
        assert back.mass == d.mass

    def test_json_mode_label(self):
        d = evolve(ASYM, 3, exact=False)
        out = io.StringIO()
        engine.write_json(d, out)
        assert '"mode": "float64"' in out.getvalue()


def test_pgf_expectation_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        engine.pgf_expectation(initial(), 0.0, 1.0, 1.0)


def test_distribution_getitem_default():
    d = initial()
    assert d[(5, 5)] == 0
    assert isinstance(Distribution(0, {}, exact=False)[(0, 0)], float)


def test_iterate_mode_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        list(iterate(UNIFORM, 2, exact=True, start=initial(exact=False)))


# ---------------------------------------------------------------------------
# The array engine against an independent reference: every path, summed
# ---------------------------------------------------------------------------

TWO_ZEROS = StepProbabilities(
    (Fraction(0), Fraction(1, 3), Fraction(2, 3)), (Fraction(1), Fraction(0), Fraction(0))
)
PATH_WALKS = PARAMETER_BATTERY + (("two-zeros", TWO_ZEROS),)


def path_sum(q, start_mass, n0, n):
    """Masses at time ``n0 + n``: every one of the 3^n paths from every start state."""
    out = {}
    for (j, k), p in start_mass.items():
        for path in itertools.product(range(3), repeat=n):
            weight, jj, kk = Fraction(p), j, k
            for t, r in enumerate(path):
                i = parity(n0 + t)
                weight *= q.row(i)[r]
                jj, kk = jj + INDEX_SHIFTS[i][r][0], kk + INDEX_SHIFTS[i][r][1]
            out[(jj, kk)] = out.get((jj, kk), 0) + weight
    return {jk: p for jk, p in out.items() if p}


def check_against_paths(q, start, n_max):
    float_start = Distribution(start.n, {jk: float(p) for jk, p in start.mass.items()}, False)
    snapshots = list(iterate(q, n_max, start=start))
    floats = list(iterate(q.as_float(), n_max, start=float_start))
    for t, (d, df) in enumerate(zip(snapshots, floats)):
        expected = path_sum(q, start.mass, start.n, t)
        assert d.n == df.n == start.n + t
        assert d.mass == expected
        assert d.support() == set(expected)
        assert df.support() == set(expected)
        assert all(abs(df[jk] - float(p)) <= 1e-15 for jk, p in expected.items())
        out = io.StringIO()
        engine.write_csv(d, out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert [(int(j), int(k)) for j, k, _ in rows] == sorted(expected)
        assert all(float(p) > 0 for _, _, p in rows)


@pytest.mark.parametrize("name,q", PATH_WALKS, ids=[n for n, _ in PATH_WALKS])
def test_iterate_matches_path_sum(name, q):
    check_against_paths(q, initial(), 8)


def test_iterate_matches_path_sum_far_start():
    check_against_paths(ASYM, initial(1000, -1000), 7)


def test_iterate_matches_path_sum_spread_start():
    start = Distribution(
        0, {(0, 0): Fraction(1, 2), (3, -1): Fraction(1, 3), (-2, 4): Fraction(1, 6)}
    )
    check_against_paths(ASYM, start, 6)


def test_iterate_matches_path_sum_odd_start():
    start = Distribution(5, {(2, 1): Fraction(3, 4), (2, 3): Fraction(1, 4)})
    check_against_paths(dict(PARAMETER_BATTERY)["no-middle"], start, 6)


def test_snapshots_stay_valid():
    snapshots = list(iterate(ASYM, 6))
    again = list(iterate(ASYM, 6))
    assert snapshots == again
    with pytest.raises(ValueError):
        snapshots[3].grid[0, 0] = 1


class TestCaps:
    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(engine, "_advance", refuse)

    def test_exact_steps_refused(self):
        with pytest.raises(ResourceLimitError):
            evolve(UNIFORM, engine.MAX_EXACT_STEPS + 1)

    def test_float_steps_refused(self):
        with pytest.raises(ResourceLimitError):
            evolve(UNIFORM.as_float(), engine.MAX_FLOAT_STEPS + 1)

    def test_box_growth_refused(self):
        start = Distribution(0, {(0, 0): 0.5, (999, 999): 0.5}, exact=False)
        with pytest.raises(ResourceLimitError):
            evolve(UNIFORM.as_float(), engine.MAX_FLOAT_STEPS, start=start)

    def test_oversized_box_refused(self):
        with pytest.raises(ResourceLimitError):
            Distribution(0, {(0, 0): 0.5, (10**6, 10**6): 0.5}, exact=False)
