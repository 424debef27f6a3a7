"""Exact evolution of the walk's state probabilities.

The distribution at time ``n`` lives on the ``(j, k)`` index plane; the
vertex class of every occupied node is ``parity(n)``, so it is never
stored.  A ``Distribution`` holds a dense 2-D array over the bounding
box of its support (rows indexed by ``j``, columns by ``k``) together
with the ``(j, k)`` of the box's first cell.  One step is a single
shift-and-add kernel, ``_advance``: for each direction with a nonzero
weight, the weighted array is added into the next array shifted by that
direction's index shift.  ``step``, ``iterate`` and ``evolve`` all run
it.  The box grows by at most one cell per side per step, only towards
the directions that carry weight, and every step writes a new array, so
a snapshot stays valid after the evolution moves on.

Two arithmetic modes are supported.  Exact mode is the oracle of record
for all analytic formulas in the package: the array holds Python-int
numerators over one shared denominator.  The recursion only multiplies
by the step weights, so scaling each class's row to integers and
multiplying the denominator by the row's lcm keeps the common
denominator without any gcd work.  ``Fraction``s are built only when a
caller reads ``mass`` or ``d[jk]``.  Float mode keeps a float64 array.

Cells outside the support hold zero; ``mass`` and ``support`` omit
them.
"""

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterator, Optional, Union

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .lattice import INDEX_SHIFTS, StepProbabilities, parity, to_cartesian

# Default step caps per mode, from the measured cost of the kernel on one
# core.  Exact cost grows about as n^3.3 (about n^2 cells whose numerators
# have about n digits): n = 200 takes about 1 s, n = 400 about 14 s and
# n = 500 about 30 s in 160 MB.  Float cost grows as n^3: n = 1000 takes
# about 5 s and n = 2000 about 40 s in 170 MB.
MAX_EXACT_STEPS = 500
MAX_FLOAT_STEPS = 2_000
# The largest box a distribution may span or grow to, in cells (64 MB of float64).
MAX_BOX_CELLS = 1 << 23


def _nonzero_cells(grid, origin):
    """``j``, ``k`` and raw value lists of the nonzero cells, in (j, k) order."""
    rows, cols = np.nonzero(grid)
    return (rows + origin[0]).tolist(), (cols + origin[1]).tolist(), grid[rows, cols].tolist()


class _Masses(Mapping):
    """Read-only ``(j, k) -> mass`` view of a distribution's array.

    Zero cells are omitted and keys run in (j, k) order.  ``len`` counts
    nonzero cells without building any mass; the first read builds the
    ``(j, k) -> mass`` dict once.  The
    view holds the array, not the distribution, so the two form no
    reference cycle and a snapshot's array is freed as soon as it is
    dropped.
    """

    def __init__(self, grid, origin, value):
        self._grid, self._origin, self._value = grid, origin, value

    @cached_property
    def _dict(self) -> dict:
        js, ks, values = _nonzero_cells(self._grid, self._origin)
        return dict(zip(zip(js, ks), map(self._value, values)))

    @cached_property
    def _len(self) -> int:
        return int(np.count_nonzero(self._grid))

    def __getitem__(self, jk):
        return self._dict[jk]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return self._len

    def items(self):
        return self._dict.items()

    def __repr__(self):
        return repr(self._dict)


class Distribution:
    """State probabilities at a fixed time ``n``.

    ``Distribution(n, mass, exact)`` builds one from a ``(j, k) -> mass``
    map.  ``mass`` reads it back as a read-only map to the strictly
    positive masses.  ``grid`` is the array over the support's bounding
    box, whose first cell is state ``origin``; in exact mode it holds
    Python-int numerators over the shared denominator ``den`` (``den`` is
    1 in float mode).  ``exact`` records the arithmetic mode.  Instances
    are immutable.
    """

    def __init__(self, n: int, mass, exact: bool = True):
        cells = {jk: Fraction(p) if exact else float(p) for jk, p in mass.items() if p}
        den = math.lcm(*(p.denominator for p in cells.values())) if exact else 1
        js, ks = [j for j, _ in cells], [k for _, k in cells]
        origin = (min(js, default=0), min(ks, default=0))
        shape = (max(js, default=-1) - origin[0] + 1, max(ks, default=-1) - origin[1] + 1)
        if shape[0] * shape[1] > MAX_BOX_CELLS:
            raise ResourceLimitError(
                f"support spans a {shape[0]} x {shape[1]} box, over {MAX_BOX_CELLS} cells"
            )
        grid = np.zeros(shape, dtype=object if exact else np.float64)
        for (j, k), p in cells.items():
            grid[j - origin[0], k - origin[1]] = int(p * den) if exact else p
        self._set(n, grid, origin, den, exact)

    @classmethod
    def _wrap(cls, n, grid, origin, den, exact) -> "Distribution":
        d = cls.__new__(cls)
        d._set(n, grid, origin, den, exact)
        return d

    def _set(self, n, grid, origin, den, exact):
        grid.flags.writeable = False
        self.n, self.grid, self.origin, self.den, self.exact = n, grid, origin, den, exact
        self.mass = _Masses(grid, origin, (lambda v: Fraction(v, den)) if exact else float)

    def _float_cells(self):
        """``(j, k, p)`` of every nonzero cell in (j, k) order, ``p`` rounded once to float."""
        js, ks, values = _nonzero_cells(self.grid, self.origin)
        if self.exact:
            values = [v / self.den for v in values]
        return list(zip(js, ks, values))

    def total(self) -> Union[Fraction, float]:
        """Total mass; exactly 1 in exact mode, 1 up to drift in float mode."""
        if self.exact:
            return Fraction(self.grid.sum(), self.den)
        return math.fsum(self.grid.ravel().tolist())

    def __getitem__(self, jk) -> Union[Fraction, float]:
        zero = Fraction(0) if self.exact else 0.0
        return self.mass.get(jk, zero)

    def support(self) -> set:
        return set(self.mass)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return (self.n, self.exact, self.mass) == (other.n, other.exact, other.mass)

    def __repr__(self):
        return f"Distribution(n={self.n}, mass={self.mass!r}, exact={self.exact})"


def initial(j: int = 0, k: int = 0, *, exact: bool = True) -> Distribution:
    """Point mass at ``(j, k)`` at time 0 (the walk starts at the origin)."""
    return Distribution(0, {(j, k): 1}, exact)


def _kernel_rows(q: StepProbabilities, exact: bool) -> tuple:
    """Per class: the kernel's direction weights and the factor ``den`` is scaled by."""
    if not exact:
        return tuple((tuple(float(p) for p in q.row(i)), 1) for i in (0, 1))
    if not q.exact:
        raise InvalidParameterError("exact-mode evolution needs rational step probabilities")
    rows = []
    for i in (0, 1):
        row = [Fraction(p) for p in q.row(i)]
        lcm = math.lcm(*(p.denominator for p in row))
        rows.append((tuple(int(p * lcm) for p in row), lcm))
    return tuple(rows)


def _advance(d: Distribution, weights, scale: int) -> Distribution:
    """One forward step: add each weighted copy of the array, shifted by its edge."""
    moves = [(w, shift) for w, shift in zip(weights, INDEX_SHIFTS[parity(d.n)]) if w]
    j_lo = min(dj for _, (dj, _) in moves)
    k_lo = min(dk for _, (_, dk) in moves)
    j_span = max(dj for _, (dj, _) in moves) - j_lo
    k_span = max(dk for _, (_, dk) in moves) - k_lo
    rows, cols = d.grid.shape
    out = np.zeros((rows + j_span, cols + k_span), dtype=d.grid.dtype)
    for w, (dj, dk) in moves:
        out[dj - j_lo : dj - j_lo + rows, dk - k_lo : dk - k_lo + cols] += w * d.grid
    origin = (d.origin[0] + j_lo, d.origin[1] + k_lo)
    return Distribution._wrap(d.n + 1, out, origin, d.den * scale, d.exact)


def step(d: Distribution, q: StepProbabilities) -> Distribution:
    """One forward update: push each state's mass along its three edges."""
    return _advance(d, *_kernel_rows(q, d.exact)[parity(d.n)])


def iterate(
    q: StepProbabilities,
    n: int,
    *,
    exact: Optional[bool] = None,
    start: Optional[Distribution] = None,
    cap: Optional[int] = None,
) -> Iterator[Distribution]:
    """Yield the distribution after 0, 1, ..., ``n`` steps from ``start``.

    ``start`` defaults to the origin point mass at time 0.  ``cap``
    defaults to the mode's ``MAX_EXACT_STEPS`` or ``MAX_FLOAT_STEPS``, and
    a run whose box could outgrow ``MAX_BOX_CELLS`` is refused as well.
    Each snapshot owns its array; masses are built only when read.
    """
    if n < 0:
        raise InvalidParameterError(f"step count must be nonnegative, got {n}")
    if exact is None:
        exact = q.exact if start is None else start.exact
    if cap is None:
        cap = MAX_EXACT_STEPS if exact else MAX_FLOAT_STEPS
    if n > cap:
        raise ResourceLimitError(f"requested {n} steps exceeds the configured cap of {cap}")
    if start is None:
        start = initial(exact=exact)
    if start.exact != exact:
        raise InvalidParameterError("start distribution mode differs from requested mode")
    rows, cols = start.grid.shape
    if (rows + n) * (cols + n) > MAX_BOX_CELLS:
        raise ResourceLimitError(f"{n} steps could grow the box past {MAX_BOX_CELLS} cells")
    kernel = _kernel_rows(q, exact)
    d = start
    yield d
    for _ in range(n):
        d = _advance(d, *kernel[parity(d.n)])
        yield d


def evolve(
    q: StepProbabilities,
    n: int,
    *,
    exact: Optional[bool] = None,
    start: Optional[Distribution] = None,
    cap: Optional[int] = None,
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
    cells = d._float_cells()
    ps = [p for _, _, p in cells]
    i = parity(d.n)
    xs, ys = [], []
    for j, k, _p in cells:
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
    for j, k, p in d._float_cells():
        x, y = to_cartesian(j, k, i, a)
        total.append(p * u**x * v**y)
    return math.fsum(total)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_csv(d: Distribution, fh: IO[str]) -> None:
    """Write ``j,k,p`` rows (17 significant digits), sorted by (j, k)."""
    fh.write("j,k,p\n")
    fh.writelines(f"{j},{k},{p:.17g}\n" for j, k, p in d._float_cells())


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
        mass[(int(j), int(k))] = float(p)
    return Distribution(n, mass, exact=False)


def write_json(d: Distribution, fh: IO[str], *, mode: Optional[str] = None) -> None:
    """Write ``{"n", "mode", "entries"}`` in (j, k) order.

    In ``"rational"`` mode (the default for exact distributions) each mass
    is a ``"num/den"`` string, so the file reads back exactly.
    """
    if mode is None:
        mode = "rational" if d.exact else "float64"
    entries = [
        {"j": j, "k": k, "p": str(Fraction(p)) if mode == "rational" else float(p)}
        for (j, k), p in d.mass.items()
    ]
    json.dump({"n": d.n, "mode": mode, "entries": entries}, fh, indent=2)
    fh.write("\n")


def read_json(fh: IO[str]):
    """Read a distribution JSON; returns ``(Distribution, mode)``.

    ``"rational"`` files give an exact distribution, parsed from the
    ``"num/den"`` strings; any other mode gives a float64 one.  The mode
    string is handed back for faithful re-emission.
    """
    data = json.load(fh)
    exact = data["mode"] == "rational"
    parse = Fraction if exact else float
    mass = {(int(e["j"]), int(e["k"])): parse(e["p"]) for e in data["entries"]}
    return Distribution(int(data["n"]), mass, exact), data["mode"]
