from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexwalk import (
    InvalidParameterError,
    ResourceLimitError,
    StepProbabilities,
    UnsupportedParametersError,
    check_symmetry,
    closed_form_distribution,
    evolve,
    gauss_2f1_terminating,
    iterate,
    rho,
    state_probability,
    state_probability_even,
    uses_oracle_fallback,
)
from hexwalk.closedform import odd_in_support, region_of
from hexwalk.validation import PARAMETER_BATTERY

UNIFORM = StepProbabilities.uniform()
ASYM = dict(PARAMETER_BATTERY)["asymmetric"]
DEGENERATE = dict(PARAMETER_BATTERY)["degenerate-ratio"]


class TestGauss2F1:
    def test_zero_upper_parameter_is_one(self):
        assert gauss_2f1_terminating(0, -5, 3, 0.7) == 1.0

    def test_single_term(self):
        r = Fraction(3, 5)
        assert gauss_2f1_terminating(-1, -1, 1, r) == 1 + r

    def test_hand_expansion(self):
        # terms 1, (-2)_1^2/(1)_1 = 4, (-2)_2^2/((1)_2 2!) = 1
        assert gauss_2f1_terminating(-2, -2, 1, Fraction(1)) == 6

    @given(b=st.integers(min_value=-30, max_value=0), z=st.fractions(0, 5))
    def test_any_zero_parameter_gives_one(self, b, z):
        assert gauss_2f1_terminating(0, b, 2, z) == 1
        assert gauss_2f1_terminating(b, 0, 2, z) == 1

    def test_float_matches_exact(self):
        exact = gauss_2f1_terminating(-6, -4, 2, Fraction(7, 10))
        approx = gauss_2f1_terminating(-6, -4, 2, 0.7)
        assert approx == pytest.approx(float(exact), rel=1e-14)

    def test_rejects_nonterminating(self):
        with pytest.raises(UnsupportedParametersError):
            gauss_2f1_terminating(1, -2, 1, 0.5)
        with pytest.raises(UnsupportedParametersError):
            gauss_2f1_terminating(-2, 2, 1, 0.5)

    def test_rejects_bad_lower_parameter(self):
        with pytest.raises(UnsupportedParametersError):
            gauss_2f1_terminating(-2, -2, 0, 0.5)

    def test_rejects_non_integer(self):
        with pytest.raises(UnsupportedParametersError):
            gauss_2f1_terminating(-2.0, -2, 1, 0.5)


class TestRho:
    def test_uniform_is_one(self):
        assert rho(UNIFORM) == 1

    def test_asymmetric_value(self):
        assert rho(ASYM) == Fraction(3, 5)

    def test_undefined_raises(self):
        with pytest.raises(InvalidParameterError):
            rho(DEGENERATE)

    def test_fallback_flag(self):
        assert uses_oracle_fallback(DEGENERATE)
        assert not uses_oracle_fallback(UNIFORM)


def test_uniform_return_probability():
    assert state_probability_even(0, 0, 1, UNIFORM) == Fraction(1, 3)


def test_out_of_region_is_zero():
    assert state_probability_even(5, 5, 2, UNIFORM) == 0
    assert region_of(5, 5, 2) is None


def test_m_must_be_positive():
    with pytest.raises(InvalidParameterError):
        state_probability_even(0, 0, 0, UNIFORM)


@pytest.mark.parametrize("name,q", PARAMETER_BATTERY, ids=[n for n, _ in PARAMETER_BATTERY])
def test_even_times_match_engine_exactly(name, q):
    for dist in iterate(q, 8):
        if dist.n % 2 or dist.n == 0:
            continue
        m = dist.n // 2
        grid = [(j, k) for j in range(-m - 1, m + 2) for k in range(-m - 1, m + 2)]
        for j, k in grid:
            assert state_probability_even(j, k, m, q) == dist[(j, k)]


def test_even_times_float_mode_close():
    q = ASYM.as_float()
    for dist in iterate(q, 8, exact=False):
        if dist.n % 2 or dist.n == 0:
            continue
        m = dist.n // 2
        for (j, k), p in dist.mass.items():
            assert abs(state_probability_even(j, k, m, q) - p) <= 1e-12


@pytest.mark.parametrize("name,q", PARAMETER_BATTERY, ids=[n for n, _ in PARAMETER_BATTERY])
def test_regions_sum_to_one(name, q):
    for m in range(1, 7):
        total = sum(
            state_probability_even(j, k, m, q)
            for j in range(-m, m + 1)
            for k in range(-m, m + 1)
        )
        assert total == 1


def test_first_odd_step_values():
    assert state_probability(0, 0, 1, ASYM) == ASYM.q0[0]
    assert state_probability(-1, 1, 1, ASYM) == ASYM.q0[1]
    assert state_probability(-1, 0, 1, ASYM) == ASYM.q0[2]


def test_time_zero():
    assert state_probability(0, 0, 0, UNIFORM) == 1
    assert state_probability(1, 0, 0, UNIFORM) == 0


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_odd_times_match_engine_exactly(n):
    for q in (UNIFORM, ASYM, DEGENERATE):
        dist = evolve(q, n)
        cf = closed_form_distribution(n, q)
        assert cf.mass == dist.mass


def test_odd_support_ranges_uniform():
    # With all probabilities positive the support fills the stated
    # ranges exactly; with zero entries it can only shrink.
    for n in (1, 3, 5, 7, 9):
        m = (n - 1) // 2
        dist = evolve(UNIFORM, n)
        expected = {
            (j, k)
            for j in range(-m - 1, m + 1)
            for k in range(-m - 1, m + 2)
            if odd_in_support(j, k, m)
        }
        assert dist.support() == expected


def test_degenerate_ratio_falls_back_to_engine():
    dist = evolve(DEGENERATE, 6)
    cf = closed_form_distribution(6, DEGENERATE)
    assert cf.mass == dist.mass
    assert uses_oracle_fallback(DEGENERATE)


def test_closed_form_distribution_negative_time():
    with pytest.raises(InvalidParameterError):
        closed_form_distribution(-2, UNIFORM)


class TestSymmetry:
    def test_uniform_all_cases(self):
        report = check_symmetry(UNIFORM, 3)
        assert report.rho == 1
        for case in report.cases:
            assert case.applicable
            assert case.max_violation == 0
        assert report.max_violation() == 0

    def test_paired_rows_with_ratio(self):
        # q01 == q12 and q11 == q02 with ratio parameter 3/2.
        q = dict(PARAMETER_BATTERY)["center-symmetric"]
        report = check_symmetry(q, 4)
        by_name = {c.name: c for c in report.cases}
        assert by_name["central"].applicable
        assert by_name["central"].parameter == Fraction(3, 2)
        assert by_name["central"].max_violation == 0
        assert by_name["diagonal"].max_violation == 0
        assert report.rho == 1

    def test_axis_case_with_unit_ratio(self):
        q = dict(PARAMETER_BATTERY)["axis-symmetric"]
        report = check_symmetry(q, 3)
        by_name = {c.name: c for c in report.cases}
        assert by_name["axis"].applicable
        assert by_name["axis"].parameter == 1
        assert by_name["axis"].max_violation == 0
        assert not by_name["central"].applicable
        assert report.rho == 1

    def test_equal_rows_delta_one(self):
        row = (Fraction(2, 5), Fraction(3, 10), Fraction(3, 10))
        q = StepProbabilities(row, row)
        report = check_symmetry(q, 4)
        by_name = {c.name: c for c in report.cases}
        assert by_name["central"].applicable
        assert by_name["central"].parameter == 1
        assert by_name["central"].max_violation == 0

    def test_inapplicable_cases_report_reason(self):
        report = check_symmetry(ASYM, 2)
        for case in report.cases:
            assert not case.applicable
            assert case.reason

    def test_requires_positive_m(self):
        with pytest.raises(InvalidParameterError):
            check_symmetry(UNIFORM, 0)


class TestCaps:
    @pytest.fixture(autouse=True)
    def no_closed_form(self, monkeypatch):
        from hexwalk import closedform

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form ran")

        monkeypatch.setattr(closedform, "state_probability", refuse)
        monkeypatch.setattr(closedform, "_even_probability", refuse)

    @pytest.mark.parametrize("q", [UNIFORM, UNIFORM.as_float()], ids=["exact", "float"])
    def test_distribution_refused(self, q):
        from hexwalk import closedform

        cap = closedform.MAX_EXACT_STEPS if q.exact else closedform.MAX_FLOAT_STEPS
        with pytest.raises(ResourceLimitError):
            closed_form_distribution(cap + 1, q)

    def test_symmetry_refused(self):
        from hexwalk import closedform

        with pytest.raises(ResourceLimitError):
            check_symmetry(UNIFORM, closedform.MAX_EXACT_STEPS // 2 + 1)
