"""Closed-form state probabilities via terminating Gauss 2F1 sums.

At even times ``2m`` the distribution splits into four index regions,
and on each region the probability is a finite sum of

    binomial * binomial * binomial * (probability powers) * 2F1(...; rho)

terms, where the hypergeometric argument is the cross-ratio

    rho = (q01 * q11) / (q02 * q12).

Every 2F1 factor in scope has two nonpositive-integer upper parameters,
so the series terminates and evaluates exactly in rational arithmetic.
Terms whose binomial prefactor vanishes are skipped before anything else
is computed; this guard is what keeps every probability exponent and
every upper 2F1 parameter in its legal range.

Odd times are obtained by pushing the even-time closed form one step
forward through the three incoming edges of the target state.

When ``q02 * q12 == 0`` the cross-ratio is undefined and the four-region
factorization breaks down; queries are then answered by the exact
evolution engine instead.  ``uses_oracle_fallback`` reports whether a
given parameter set is in that regime.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum
from typing import Optional, Union

from . import engine
from .errors import InvalidParameterError, ResourceLimitError, UnsupportedParametersError
from .lattice import INDEX_SHIFTS, StepProbabilities

Prob = Union[Fraction, float]

# Caps on the time of a full closed-form distribution (and of the symmetry
# check, which evaluates the same square of states at time 2m), per mode.
# The cost grows about as n^3.7 on one core: exact n = 100 takes about 20 s,
# float n = 200 about 13 s.
MAX_EXACT_STEPS = 120
MAX_FLOAT_STEPS = 240


def _check_cost(n: int, q: StepProbabilities) -> None:
    cap = MAX_EXACT_STEPS if q.exact else MAX_FLOAT_STEPS
    if n > cap:
        raise ResourceLimitError(f"closed form at time {n} exceeds the cap of {cap}")


def gauss_2f1_terminating(a: int, b: int, c: int, z) -> Prob:
    """Terminating Gauss hypergeometric sum 2F1(a, b; c; z).

    Requires nonpositive integers ``a`` and ``b`` and an integer
    ``c >= 1``; the series then stops after ``min(-a, -b)`` terms and no
    Pochhammer zero can appear in a denominator.  Exact when ``z`` is a
    ``Fraction`` (or int); float evaluation uses compensated summation.
    """
    for name, val in (("a", a), ("b", b), ("c", c)):
        if not isinstance(val, int):
            raise UnsupportedParametersError(f"parameter {name} must be an integer")
    if a > 0 or b > 0:
        raise UnsupportedParametersError(
            f"series does not terminate for a={a}, b={b}; both must be <= 0"
        )
    if c < 1:
        raise UnsupportedParametersError(f"lower parameter must be >= 1, got {c}")
    terms = min(-a, -b)
    if isinstance(z, (Fraction, int)):
        total = Fraction(1)
        term = Fraction(1)
        for t in range(terms):
            term *= Fraction((a + t) * (b + t), (c + t) * (t + 1)) * z
            total += term
        return total
    # Kahan summation: harmless here and cheap insurance against
    # cancellation if callers ever pass sign-mixing arguments.
    z = float(z)
    total = 1.0
    comp = 0.0
    term = 1.0
    for t in range(terms):
        term *= (a + t) * (b + t) * z / ((c + t) * (t + 1))
        y = term - comp
        acc = total + y
        comp = (acc - total) - y
        total = acc
    return total


def _ratio(num: Prob, den: Prob, exact: bool) -> Prob:
    # int/int division would silently produce a float; keep exact rows exact.
    if exact:
        return Fraction(num) / Fraction(den)
    return num / den


def rho(q: StepProbabilities) -> Prob:
    """Cross-ratio q01*q11 / (q02*q12); defined only when q02*q12 > 0."""
    if uses_oracle_fallback(q):
        raise InvalidParameterError(
            "cross-ratio undefined: q02 * q12 == 0 for these parameters"
        )
    return _ratio(q.q0[1] * q.q1[1], q.q0[2] * q.q1[2], q.exact)


def uses_oracle_fallback(q: StepProbabilities) -> bool:
    """True when closed-form queries for ``q`` are answered by the engine."""
    return q.q0[2] * q.q1[2] == 0


def region_of(j: int, k: int, m: int) -> Optional[int]:
    """Which of the four even-time index regions contains ``(j, k)``.

    Returns 1..4, or None when the state is unreachable at time ``2m``.
    """
    if 0 <= j <= m:
        if -m <= k <= 0:
            return 1
        if 1 <= k <= m - j:
            return 2
    elif -m <= j <= -1:
        if -m - j <= k <= -1:
            return 3
        if 0 <= k <= m:
            return 4
    return None


def odd_in_support(j: int, k: int, m: int) -> bool:
    """Whether ``(j, k)`` can carry mass at time ``2m + 1``."""
    if 0 <= j <= m:
        return -m <= k <= m - j
    if -m - 1 <= j <= -1:
        return -m - j - 1 <= k <= m + 1
    return False


@lru_cache(maxsize=32)
def _fallback_distribution(q: StepProbabilities, n: int) -> engine.Distribution:
    return engine.evolve(q, n, exact=q.exact)


def _even_probability(j: int, k: int, m: int, q: StepProbabilities) -> Prob:
    """p_{j,k} at time 2m for m >= 0, by region dispatch."""
    zero: Prob = Fraction(0) if q.exact else 0.0
    if m == 0:
        one: Prob = Fraction(1) if q.exact else 1.0
        return one if (j, k) == (0, 0) else zero
    region = region_of(j, k, m)
    if region is None:
        return zero
    if uses_oracle_fallback(q):
        return _fallback_distribution(q, 2 * m)[(j, k)]

    q00, q01, q02 = q.q0
    q10, q11, q12 = q.q1
    z = rho(q)
    terms = []
    if region == 1:
        for t in range(m - j + 1):
            b = comb(m, t) * comb(m, j + t) * comb(j + t, -k)
            if b == 0:
                continue
            terms.append(
                b
                * q00 ** (m - t)
                * q10 ** (m - j - t)
                * q02**t
                * q12 ** (j + k + t)
                * q11 ** (-k)
                * gauss_2f1_terminating(-j - k - t, -t, 1 - k, z)
            )
    elif region == 2:
        for t in range(k, m - j + 1):
            b = comb(m, t) * comb(m, j + t) * comb(t, k)
            if b == 0:
                continue
            terms.append(
                b
                * q00 ** (m - t)
                * q10 ** (m - j - t)
                * q01**k
                * q02 ** (t - k)
                * q12 ** (j + t)
                * gauss_2f1_terminating(-j - t, k - t, 1 + k, z)
            )
    elif region == 3:
        for t in range(-k, m + j + 1):
            b = comb(m, t) * comb(m, -j + t) * comb(t, -k)
            if b == 0:
                continue
            terms.append(
                b
                * q00 ** (m + j - t)
                * q10 ** (m - t)
                * q02 ** (-j + t)
                * q12 ** (k + t)
                * q11 ** (-k)
                * gauss_2f1_terminating(j - t, -k - t, 1 - k, z)
            )
    else:
        # Base term from the multinomial expansion of the generating
        # product: class-0 factor contributes q00^(m+j-t), class-1
        # contributes q10^(m-t), mirroring region 3.
        for t in range(m + j + 1):
            b = comb(m, t) * comb(m, -j + t) * comb(-j + t, k)
            if b == 0:
                continue
            terms.append(
                b
                * q00 ** (m + j - t)
                * q10 ** (m - t)
                * q01**k
                * q02 ** (-j - k + t)
                * q12**t
                * gauss_2f1_terminating(j + k - t, -t, 1 + k, z)
            )
    if not terms:
        return zero
    if q.exact:
        return sum(terms, zero)
    return fsum(terms)


def state_probability_even(j: int, k: int, m: int, q: StepProbabilities) -> Prob:
    """Closed-form p_{j,k} at even time ``2m`` (``m >= 1``).

    States outside all four regions carry zero mass and return 0 rather
    than raising: callers iterate rectangles.
    """
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    return _even_probability(j, k, m, q)


def state_probability(j: int, k: int, n: int, q: StepProbabilities) -> Prob:
    """Closed-form p_{j,k} at any time ``n >= 0``.

    Even times dispatch to the four-region formula; odd times push the
    even-time values one step forward through the three incoming edges
    of ``(j, k)``.
    """
    if n < 0:
        raise InvalidParameterError(f"time must be nonnegative, got {n}")
    if n % 2 == 0:
        return _even_probability(j, k, n // 2, q)
    m = (n - 1) // 2
    return sum(
        _even_probability(j - dj, k - dk, m, q) * w
        for w, (dj, dk) in zip(q.q0, INDEX_SHIFTS[0])
    )


def closed_form_distribution(n: int, q: StepProbabilities) -> engine.Distribution:
    """Assemble the full distribution at time ``n`` from the closed form."""
    if n < 0:
        raise InvalidParameterError(f"time must be nonnegative, got {n}")
    _check_cost(n, q)
    mass = {}
    if n % 2 == 0:
        m = n // 2
        candidates = (
            (j, k) for j in range(-m, m + 1) for k in range(-m, m + 1)
        )
    else:
        m = (n - 1) // 2
        candidates = (
            (j, k)
            for j in range(-m - 1, m + 1)
            for k in range(-m - 1, m + 2)
            if odd_in_support(j, k, m)
        )
    for j, k in candidates:
        p = state_probability(j, k, n, q)
        if p:
            mass[(j, k)] = p
    return engine.Distribution(n, mass, exact=q.exact)


# ---------------------------------------------------------------------------
# Symmetry relations of the even-time distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryCase:
    name: str
    applicable: bool
    parameter: Optional[Prob]
    max_violation: Optional[Prob]
    reason: str = ""


@dataclass(frozen=True)
class SymmetryReport:
    m: int
    rho: Optional[Prob]
    cases: tuple

    def max_violation(self) -> Prob:
        worst = 0
        for case in self.cases:
            if case.applicable and case.max_violation is not None:
                worst = max(worst, case.max_violation)
        return worst


def _scaled_mismatch(p1: Prob, p2: Prob, xi: Prob, e: int) -> Prob:
    """|p1 - xi**e * p2| with the xi == 0 edge handled without 0**negative."""
    if xi == 0:
        if e > 0:
            return abs(p1)
        if e < 0:
            return abs(p2)
        return abs(p1 - p2)
    return abs(p1 - xi**e * p2)


def check_symmetry(q: StepProbabilities, m: int) -> SymmetryReport:
    """Verify the three reflection identities of the time-``2m`` distribution.

    Case ``axis``:     p(j, k) = xi**(2k+j) * p(j, -j-k)   when q01/q02 == q12/q11 == xi.
    Case ``central``:  p(j, k) = delta**(2k+j) * p(-j, -k) when q01 == q12 and q11 == q02,
                       with delta = q01/q11.
    Case ``diagonal``: p(j, k) = p(-j, j+k) under the same premise as ``central``.

    Only cases whose parameter premises hold for ``q`` are evaluated; the
    report records the maximum absolute mismatch over the square
    ``-m <= j, k <= m`` (zero in rational arithmetic when the identity
    holds).
    """
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    _check_cost(2 * m, q)
    q00, q01, q02 = q.q0
    q10, q11, q12 = q.q1

    grid = [(j, k) for j in range(-m, m + 1) for k in range(-m, m + 1)]
    values = {jk: _even_probability(jk[0], jk[1], m, q) for jk in grid}

    def prob(j, k):
        try:
            return values[(j, k)]
        except KeyError:
            return _even_probability(j, k, m, q)

    cases = []

    if q02 != 0 and q11 != 0 and q01 * q11 == q12 * q02:
        xi = _ratio(q01, q02, q.exact)
        worst = max(
            _scaled_mismatch(prob(j, k), prob(j, -j - k), xi, 2 * k + j)
            for j, k in grid
        )
        cases.append(SymmetryCase("axis", True, xi, worst))
    else:
        cases.append(
            SymmetryCase("axis", False, None, None, "needs q01/q02 == q12/q11")
        )

    paired = q01 == q12 and q11 == q02
    if paired and q11 != 0:
        delta = _ratio(q01, q11, q.exact)
        worst = max(
            _scaled_mismatch(prob(j, k), prob(-j, -k), delta, 2 * k + j)
            for j, k in grid
        )
        cases.append(SymmetryCase("central", True, delta, worst))
    else:
        cases.append(
            SymmetryCase(
                "central", False, None, None, "needs q01 == q12 and q11 == q02 != 0"
            )
        )

    if paired:
        worst = max(abs(prob(j, k) - prob(-j, j + k)) for j, k in grid)
        cases.append(SymmetryCase("diagonal", True, None, worst))
    else:
        cases.append(
            SymmetryCase("diagonal", False, None, None, "needs q01 == q12 and q11 == q02")
        )

    cross = None if uses_oracle_fallback(q) else rho(q)
    return SymmetryReport(m, cross, tuple(cases))
