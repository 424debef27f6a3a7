"""Exact evolution of the walk's state probabilities.

The distribution at time ``n`` lives on the ``(j, k)`` index plane; the
vertex class of every occupied node is ``parity(n)``, so it is never
stored.  ``step`` pushes each state's mass along its three outgoing
edges, which is the forward one-step update of the state probabilities;
every mode runs the same push loop.

Two arithmetic modes are supported.  Exact mode keeps every mass as a
``Fraction`` and is the oracle of record for all analytic formulas in
the package; float mode trades exactness for speed.  ``evolve`` and
``iterate`` run exact mode on integer numerators over a single running
denominator (the recursion only ever multiplies by the step weights, so
a common denominator is preserved), which avoids per-operation gcd work;
``step`` is the plain reference implementation and the test suite checks
that the two agree.

Storage is a sparse map keyed by ``(j, k)``: the support after ``n``
steps is a diamond of O(n^2) states in an unbounded lattice, so dense
arrays would need offset bookkeeping for no benefit.  Zero-mass entries
are never stored.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterator, Optional, Union

from .errors import InvalidParameterError, ResourceLimitError
from .lattice import INDEX_SHIFTS, StepProbabilities, parity, to_cartesian

MAX_STEPS = 10_000


@dataclass(frozen=True)
class Distribution:
    """State probabilities at a fixed time ``n``.

    ``mass`` maps ``(j, k)`` to a strictly positive probability; missing
    keys carry zero mass.  ``exact`` records the arithmetic mode.  Treat
    instances as immutable: no operation in this package mutates one.
    """

    n: int
    mass: dict
    exact: bool = True

    def total(self) -> Union[Fraction, float]:
        """Total mass; exactly 1 in exact mode, 1 up to drift in float mode."""
        if self.exact:
            return sum(self.mass.values(), Fraction(0))
        return math.fsum(self.mass.values())

    def __getitem__(self, jk) -> Union[Fraction, float]:
        zero = Fraction(0) if self.exact else 0.0
        return self.mass.get(jk, zero)

    def support(self) -> set:
        return set(self.mass)


def initial(j: int = 0, k: int = 0, *, exact: bool = True) -> Distribution:
    """Point mass at ``(j, k)`` at time 0 (the walk starts at the origin)."""
    one = Fraction(1) if exact else 1.0
    return Distribution(0, {(j, k): one}, exact)


def _push(mass: dict, weights, shifts) -> dict:
    """Push each state's mass along its edges, weighted by the step row."""
    out: dict = {}
    for (j, k), p in mass.items():
        for r in range(3):
            w = weights[r]
            if w:
                key = (j + shifts[r][0], k + shifts[r][1])
                if key in out:
                    out[key] += p * w
                else:
                    out[key] = p * w
    return out


def step(d: Distribution, q: StepProbabilities) -> Distribution:
    """One forward update: push each state's mass along its three edges."""
    if d.exact and not q.exact:
        raise InvalidParameterError(
            "exact-mode evolution needs rational step probabilities"
        )
    i = parity(d.n)
    row = q.row(i) if d.exact else tuple(float(p) for p in q.row(i))
    return Distribution(d.n + 1, _push(d.mass, row, INDEX_SHIFTS[i]), d.exact)


def _exact_state(mass: dict):
    """Split a Fraction-valued map into integer numerators over one denominator."""
    den = math.lcm(*(p.denominator for p in mass.values()))
    num = {jk: p.numerator * (den // p.denominator) for jk, p in mass.items()}
    return num, den


def iterate(
    q: StepProbabilities,
    n: int,
    *,
    exact: Optional[bool] = None,
    start: Optional[Distribution] = None,
    cap: int = MAX_STEPS,
) -> Iterator[Distribution]:
    """Yield the distribution after 0, 1, ..., ``n`` steps from ``start``.

    ``start`` defaults to the origin point mass at time 0.  The exact
    path runs on integer numerators internally; each yielded snapshot is
    materialized as canonical ``Fraction`` masses.
    """
    if n < 0:
        raise InvalidParameterError(f"step count must be nonnegative, got {n}")
    if n > cap:
        raise ResourceLimitError(
            f"requested {n} steps exceeds the configured cap of {cap}"
        )
    if exact is None:
        exact = q.exact if start is None else start.exact
    if start is None:
        start = initial(exact=exact)
    if start.exact != exact:
        raise InvalidParameterError("start distribution mode differs from requested mode")

    if exact:
        if not q.exact:
            raise InvalidParameterError(
                "exact-mode evolution needs rational step probabilities"
            )
        num, den = _exact_state({jk: Fraction(p) for jk, p in start.mass.items()})
        scaled = []
        for i in (0, 1):
            row = [Fraction(p) for p in q.row(i)]
            lcm = math.lcm(*(p.denominator for p in row))
            scaled.append((tuple(int(p * lcm) for p in row), lcm))
        yield Distribution(start.n, {jk: Fraction(v, den) for jk, v in num.items()}, True)
        for t in range(n):
            i = parity(start.n + t)
            weights, lcm = scaled[i]
            num = _push(num, weights, INDEX_SHIFTS[i])
            den *= lcm
            yield Distribution(
                start.n + t + 1, {jk: Fraction(v, den) for jk, v in num.items()}, True
            )
    else:
        mass = {jk: float(p) for jk, p in start.mass.items()}
        rows = (
            tuple(float(p) for p in q.q0),
            tuple(float(p) for p in q.q1),
        )
        yield Distribution(start.n, mass, False)
        for t in range(n):
            i = parity(start.n + t)
            mass = _push(mass, rows[i], INDEX_SHIFTS[i])
            yield Distribution(start.n + t + 1, mass, False)


def evolve(
    q: StepProbabilities,
    n: int,
    *,
    exact: Optional[bool] = None,
    start: Optional[Distribution] = None,
    cap: int = MAX_STEPS,
) -> Distribution:
    """The distribution after ``n`` steps from ``start`` (default: origin)."""
    last = None
    for last in iterate(q, n, exact=exact, start=start, cap=cap):
        pass
    return last


# ---------------------------------------------------------------------------
# Derived quantities used as oracles elsewhere in the package
# ---------------------------------------------------------------------------


def distribution_moments(d: Distribution, a: float):
    """Mean vector, variance vector and covariance of the Cartesian position.

    Computed by direct summation over the support, in deterministic key
    order; this is the brute-force side of the moment cross-checks.
    """
    items = sorted(d.mass.items())
    ps = [float(p) for _, p in items]
    i = parity(d.n)
    xs, ys = [], []
    for (j, k), _p in items:
        x, y = to_cartesian(j, k, i, a)
        xs.append(x)
        ys.append(y)
    ex = math.fsum(p * x for p, x in zip(ps, xs))
    ey = math.fsum(p * y for p, y in zip(ps, ys))
    vx = math.fsum(p * (x - ex) ** 2 for p, x in zip(ps, xs))
    vy = math.fsum(p * (y - ey) ** 2 for p, y in zip(ps, ys))
    cov = math.fsum(p * (x - ex) * (y - ey) for p, (x, y) in zip(ps, zip(xs, ys)))
    return (ex, ey), (vx, vy), cov


def pgf_expectation(d: Distribution, u: float, v: float, a: float) -> float:
    """Brute-force E[u^X v^Y] over the support of ``d``."""
    if not (u > 0 and v > 0):
        raise InvalidParameterError("generating-function arguments must be positive")
    i = parity(d.n)
    total = []
    for (j, k), p in sorted(d.mass.items()):
        x, y = to_cartesian(j, k, i, a)
        total.append(float(p) * u**x * v**y)
    return math.fsum(total)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_csv(d: Distribution, fh: IO[str]) -> None:
    """Write ``j,k,p`` rows (17 significant digits), sorted by (j, k)."""
    fh.write("j,k,p\n")
    for (j, k), p in sorted(d.mass.items()):
        fh.write(f"{j},{k},{float(p):.17g}\n")


def read_csv(fh: IO[str], n: int = 0) -> Distribution:
    """Read a ``j,k,p`` file back as a float64-mode distribution."""
    header = fh.readline().strip()
    if header != "j,k,p":
        raise InvalidParameterError(f"expected header 'j,k,p', got {header!r}")
    mass = {}
    for line in fh:
        line = line.strip()
        if not line:
            continue
        j, k, p = line.split(",")
        value = float(p)
        if value:
            mass[(int(j), int(k))] = value
    return Distribution(n, mass, exact=False)


def write_json(d: Distribution, fh: IO[str], *, mode: Optional[str] = None) -> None:
    if mode is None:
        mode = "rational" if d.exact else "float64"
    entries = [
        {"j": j, "k": k, "p": float(p)} for (j, k), p in sorted(d.mass.items())
    ]
    json.dump({"n": d.n, "mode": mode, "entries": entries}, fh, indent=2)
    fh.write("\n")


def read_json(fh: IO[str]):
    """Read a distribution JSON; returns ``(Distribution, mode)``.

    Masses are parsed as floats regardless of the recorded mode, so the
    returned distribution is float64; the original mode string is handed
    back for faithful re-emission.
    """
    data = json.load(fh)
    mass = {}
    for e in data["entries"]:
        if e["p"]:
            mass[(int(e["j"]), int(e["k"]))] = float(e["p"])
    return Distribution(int(data["n"]), mass, exact=False), data["mode"]
