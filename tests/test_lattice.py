import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexwalk import (
    InvalidParameterError,
    StepProbabilities,
    initial,
    parity,
    step,
    step_displacement,
    to_cartesian,
)
from hexwalk.lattice import INDEX_SHIFTS


def neighbors(j, k, i):
    """The three ``(j, k, class)`` neighbours of a vertex, by direction."""
    return [(j + dj, k + dk, 1 - i) for dj, dk in INDEX_SHIFTS[i]]


def test_parity_values():
    assert parity(0) == 0
    assert parity(1) == 1
    assert parity(6) == 0
    assert parity(7) == 1


def test_parity_rejects_negative():
    with pytest.raises(InvalidParameterError):
        parity(-1)


class TestCartesian:
    def test_origin(self):
        assert to_cartesian(0, 0, 0, 1.0) == (0.0, 0.0)

    def test_class_shift(self):
        assert to_cartesian(0, 0, 1, 1.0) == (1.0, 0.0)

    def test_substitution(self):
        x, y = to_cartesian(1, 0, 0, 2.0)
        assert x == pytest.approx(3.0, abs=1e-15)
        assert y == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_rejects_bad_edge_length(self):
        with pytest.raises(InvalidParameterError):
            to_cartesian(0, 0, 0, 0.0)

    def test_arrays_map_elementwise(self):
        j = np.array([-3, 0, 2, 7])
        k = np.array([5, 0, -1, 4])
        i = np.array([1, 0, 1, 0])
        x, y = to_cartesian(j, k, i, 1.25)
        for n in range(len(j)):
            assert (x[n], y[n]) == to_cartesian(int(j[n]), int(k[n]), int(i[n]), 1.25)


def test_displacements_match_trigonometric_form():
    # The direction table must reproduce a*(cos(2 pi r/3 + i pi), sin(...)).
    for a in (1.0, 2.5):
        for i in (0, 1):
            for r in (0, 1, 2):
                d = step_displacement(i, r, a)
                angle = 2.0 * math.pi * r / 3.0 + i * math.pi
                assert d.x == pytest.approx(a * math.cos(angle), abs=1e-12)
                assert d.y == pytest.approx(a * math.sin(angle), abs=1e-12)


def test_neighbors_of_origin_class0():
    assert set(neighbors(0, 0, 0)) == {(0, 0, 1), (-1, 0, 1), (-1, 1, 1)}


def test_neighbors_of_origin_class1():
    assert set(neighbors(0, 0, 1)) == {(0, 0, 0), (1, -1, 0), (1, 0, 0)}


def test_index_shifts_consistent_with_displacements():
    # Moving by the tabulated (dj, dk) must land exactly one step away,
    # in the direction the trigonometric formula prescribes.
    a = 1.0
    for i in (0, 1):
        for r, w in enumerate(neighbors(2, -1, i)):
            xv, yv = to_cartesian(2, -1, i, a)
            xw, yw = to_cartesian(*w, a)
            d = step_displacement(i, r, a)
            assert xw - xv == pytest.approx(d.x, abs=1e-12)
            assert yw - yv == pytest.approx(d.y, abs=1e-12)


def test_index_shifts_consistent_with_forward_recursion():
    # One exact step from a point mass must place the row weights exactly
    # on the three tabulated neighbors.
    q = StepProbabilities(
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)),
    )
    d = step(initial(), q)
    expected = {(j, k): q.q0[r] for r, (j, k, _) in enumerate(neighbors(0, 0, 0))}
    assert d.mass == expected


@given(
    j=st.integers(min_value=-50, max_value=50),
    k=st.integers(min_value=-50, max_value=50),
    i=st.integers(min_value=0, max_value=1),
)
def test_adjacency_is_symmetric(j, k, i):
    for w in neighbors(j, k, i):
        assert (j, k, i) in neighbors(*w)


@given(
    j=st.integers(min_value=-50, max_value=50),
    k=st.integers(min_value=-50, max_value=50),
    i=st.integers(min_value=0, max_value=1),
)
def test_neighbors_one_edge_away(j, k, i):
    a = 1.25
    xv, yv = to_cartesian(j, k, i, a)
    for w in neighbors(j, k, i):
        xw, yw = to_cartesian(*w, a)
        dist = math.hypot(xw - xv, yw - yv)
        assert abs(dist - a) <= 1e-12 * a


class TestStepProbabilities:
    def test_uniform_is_exact(self):
        q = StepProbabilities.uniform()
        assert q.exact
        assert q.q0 == (Fraction(1, 3),) * 3

    def test_float_rows_are_not_exact(self):
        q = StepProbabilities((0.5, 0.25, 0.25), (0.2, 0.3, 0.5))
        assert not q.exact

    def test_as_float(self):
        q = StepProbabilities.uniform().as_float()
        assert not q.exact
        assert q.q0[0] == pytest.approx(1 / 3)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(InvalidParameterError):
            StepProbabilities((0.5, 0.2, 0.2), (0.2, 0.3, 0.5))

    def test_rejects_exact_row_off_by_epsilon(self):
        with pytest.raises(InvalidParameterError):
            StepProbabilities(
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 5)),
                (Fraction(1, 3),) * 3,
            )

    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidParameterError):
            StepProbabilities((1.1, -0.05, -0.05), (0.2, 0.3, 0.5))

    def test_rejects_nonpositive_edge(self):
        with pytest.raises(InvalidParameterError):
            StepProbabilities.uniform(a=-1.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            StepProbabilities((0.5, 0.5), (0.2, 0.3, 0.5))

    def test_row_lookup(self):
        q = StepProbabilities.uniform()
        assert q.row(0) == q.q0
        assert q.row(1) == q.q1
        with pytest.raises(InvalidParameterError):
            q.row(2)
