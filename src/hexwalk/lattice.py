"""Geometry of the unbounded hexagonal (honeycomb) lattice.

The vertex set is bipartite.  A vertex is addressed by a pair of integers
``(j, k)`` together with a class index ``i`` in ``{0, 1}``; its Cartesian
position is

    x = (3/2)*a*j + i*a,        y = (sqrt(3)/2)*a*j + sqrt(3)*a*k,

where ``a`` is the edge length.  Every edge joins vertices of opposite
class, so a walker alternates classes at each step and the class occupied
at time ``n`` is ``parity(n)``.

Steps out of a vertex are labelled by a direction ``r`` in ``{0, 1, 2}``;
the displacement of direction ``r`` from a class-``i`` vertex is

    a * (cos(2*pi*r/3 + i*pi), sin(2*pi*r/3 + i*pi)),

i.e. class-0 vertices step right, up-left or down-left, and class-1
vertices step left, down-right or up-right.  The index shifts these
displacements induce on ``(j, k)`` are frozen in ``INDEX_SHIFTS`` and the
test suite verifies the table against the displacement formula, so the
two descriptions cannot drift apart.

``INDEX_SHIFTS`` and the coordinate map ``to_cartesian`` are the only
place the geometry is written down.  Step displacements, the Monte Carlo
step matrices and the exponent vectors of the generating function are
all derived from them here.
"""

import math
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

from .errors import InvalidParameterError

Number = Union[int, float, Fraction]

ROOT3 = math.sqrt(3.0)

# (dj, dk) for direction r = 0, 1, 2, per vertex class.  The class index
# always flips, so it is not part of the table.
INDEX_SHIFTS = (
    ((0, 0), (-1, 1), (-1, 0)),  # from class 0
    ((0, 0), (1, -1), (1, 0)),  # from class 1
)


def parity(n: int) -> int:
    """Vertex class occupied at time ``n``: 0 if ``n`` is even, else 1."""
    if n < 0:
        raise InvalidParameterError(f"time must be nonnegative, got {n}")
    return n & 1


def _is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class StepProbabilities:
    """One-step transition probabilities plus the lattice edge length.

    ``q0`` and ``q1`` hold the direction probabilities out of class-0 and
    class-1 vertices, indexed by direction ``r``.  Entries may be
    ``Fraction`` (enabling exact-rational evolution) or ``float``.  Each
    row must sum to one: exactly for rational rows, within 1e-15 for
    float rows.
    """

    q0: tuple
    q1: tuple
    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "q0", tuple(self.q0))
        object.__setattr__(self, "q1", tuple(self.q1))
        for name, row in (("q0", self.q0), ("q1", self.q1)):
            if len(row) != 3:
                raise InvalidParameterError(f"{name} must have 3 entries")
            for p in row:
                if not 0 <= p <= 1:
                    raise InvalidParameterError(
                        f"{name} entries must lie in [0, 1], got {p!r}"
                    )
            total = sum(row)
            if all(_is_exact(p) for p in row):
                if total != 1:
                    raise InvalidParameterError(
                        f"{name} must sum to 1 exactly, got {total!r}"
                    )
            elif abs(total - 1.0) > 1e-15:
                raise InvalidParameterError(
                    f"{name} must sum to 1 within 1e-15, got {total!r}"
                )
        if not self.a > 0:
            raise InvalidParameterError(f"edge length must be positive, got {self.a}")

    @classmethod
    def uniform(cls, a: float = 1.0) -> "StepProbabilities":
        """All six probabilities equal to 1/3, exactly."""
        third = Fraction(1, 3)
        return cls((third, third, third), (third, third, third), a)

    @property
    def exact(self) -> bool:
        """True when every entry is rational, so exact evolution applies."""
        return all(_is_exact(p) for p in self.q0 + self.q1)

    def row(self, i: int) -> tuple:
        if i not in (0, 1):
            raise InvalidParameterError(f"vertex class must be 0 or 1, got {i}")
        return self.q0 if i == 0 else self.q1

    def as_float(self) -> "StepProbabilities":
        return StepProbabilities(
            tuple(float(p) for p in self.q0),
            tuple(float(p) for p in self.q1),
            self.a,
        )

    @cached_property
    def log_weights(self) -> tuple:
        """log q_{i,r}, indexed ``[i][r]``; -inf where a direction has probability 0."""
        return tuple(
            tuple(math.log(float(p)) if p > 0 else -math.inf for p in row)
            for row in (self.q0, self.q1)
        )


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float


def to_cartesian(j, k, i, a: float):
    """Cartesian position ``(x, y)`` of vertex ``(j, k)`` of class ``i``.

    ``a`` is the edge length.  ``j``, ``k`` and ``i`` may be numpy arrays,
    which are mapped elementwise.
    """
    if not a > 0:
        raise InvalidParameterError(f"edge length must be positive, got {a}")
    return 1.5 * a * j + i * a, (ROOT3 / 2.0) * a * j + ROOT3 * a * k


def step_displacement(i: int, r: int, a: float) -> CartesianPoint:
    """Cartesian displacement of a direction-``r`` step from class ``i``.

    The move from vertex ``(0, 0)`` of class ``i`` to its neighbour
    ``INDEX_SHIFTS[i][r]``, which has class ``1 - i``.  It is taken on the
    unit lattice, where the difference is exact, and then scaled by ``a``.
    """
    if r not in (0, 1, 2):
        raise InvalidParameterError(f"direction must be 0, 1 or 2, got {r}")
    if i not in (0, 1):
        raise InvalidParameterError(f"vertex class must be 0 or 1, got {i}")
    dj, dk = INDEX_SHIFTS[i][r]
    x1, y1 = to_cartesian(dj, dk, 1 - i, 1.0)
    x0, y0 = to_cartesian(0, 0, i, 1.0)
    return CartesianPoint(a * (x1 - x0), a * (y1 - y0))


def step_vectors(a: float) -> tuple:
    """Every step displacement as an ``(x, y)`` pair, indexed ``[i][r]``."""
    return tuple(
        tuple(astuple(step_displacement(i, r, a)) for r in range(3)) for i in (0, 1)
    )


@lru_cache(maxsize=16)
def exponent_vectors(a: float) -> tuple:
    """The linear part of ``to_cartesian`` applied to ``INDEX_SHIFTS``.

    Entry ``[i][r]`` is the image of the index shift ``INDEX_SHIFTS[i][r]``
    under the coordinate map without its class term ``i * a``, as an
    ``(x, y)`` pair, so ``[i][0]`` is zero.
    """
    return tuple(tuple(to_cartesian(dj, dk, 0, a) for dj, dk in row) for row in INDEX_SHIFTS)
