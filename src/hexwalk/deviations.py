"""Large- and moderate-deviations rate objects for the walk velocity.

The scaled cumulant generating function of (X_n/n, Y_n/n) has the limit

    cgf(lam) = (1/2) * log(g0(lam) * g1(lam)),

where each g_i is a positive combination of three exponentials,

    g_i(lam) = sum_r q_{i,r} * exp(c_{i,r} . lam),

with constant exponent vectors c_{i,r} (c_{i,0} = 0 and the other four
are (+-3a/2, +-sqrt(3)a/2)), taken from ``lattice.exponent_vectors``.
Because each log g_i is a log-partition function, its gradient is a
weighted mean of the c vectors and its Hessian is their weighted
covariance; ``generating.log_partition`` returns all three from one
log-sum-exp, and the Hessian is positive semidefinite, so cgf is smooth
and convex.

The rate function is the convex conjugate

    rate(x, y) = sup_lam { lam . (x, y) - cgf(lam) }.

It is finite exactly on the velocity domain

    D = (1/2) hull(supp q0) + (1/2) hull(supp q1),

the hull of the midpoints (c_{0,r} + c_{1,s}) / 2 over positive-weight
directions: the conjugate of a log-partition function is finite on the
hull of its exponent vectors (Rockafellar, *Convex Analysis*), and that
of a sum is the Minkowski sum.  ``velocity_domain`` builds D once per
walk, and ``legendre`` returns infinity outside it without iterating.
Inside the closed domain the supremum is found by safeguarded Newton
ascent on the concave objective; on the boundary it is approached as
lam runs off to infinity, and Newton stops when the gradient is small.

The moderate-deviations rate is the conjugate of the quadratic
(1/2) lam^T C lam, i.e. (1/2) z^T C^{-1} z for invertible C; singular C
is handled through the eigendecomposition (pseudo-inverse on the range,
infinite off it).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import engine
from .errors import InvalidParameterError, NumericalFailureError
from .lattice import ROOT3, StepProbabilities, exponent_vectors, parity, to_cartesian
from .generating import asymptotic_covariance, log_partition, log_pgf, moments

DEFAULT_GRADIENT_TOL = 1e-9
MAX_NEWTON_ITERATIONS = 200
# How far outside the velocity domain a point may lie and still count as
# on it, relative to the edge length a: about 1e4 ulps of the domain's size.
DOMAIN_SLACK = 1e-12

_DEFAULT_LAMBDA_GRID = tuple(
    (x, y) for x in (-1.0, -0.5, 0.5, 1.0) for y in (-1.0, -0.5, 0.5, 1.0)
)


def _tilt(lam1: float, lam2: float, q: StepProbabilities):
    """log g_i(lam) for both classes, with their gradients and Hessians."""
    return log_partition(q, exponent_vectors(q.a), lam1, lam2)


def log_g(i: int, lam1: float, lam2: float, q: StepProbabilities) -> float:
    """log g_i(lam), evaluated with max-subtraction for overflow safety."""
    return _tilt(lam1, lam2, q)[0][i]


def g(i: int, lam1: float, lam2: float, q: StepProbabilities) -> float:
    """g_i(lam): the per-class exponential-moment factor."""
    return math.exp(log_g(i, lam1, lam2, q))


def cgf(lam1: float, lam2: float, q: StepProbabilities) -> float:
    """Limiting scaled cumulant generating function of the velocity."""
    log_z = _tilt(lam1, lam2, q)[0]
    return 0.5 * (log_z[0] + log_z[1])


def cgf_gradient(lam1: float, lam2: float, q: StepProbabilities) -> np.ndarray:
    """Analytic gradient of ``cgf``; equals the mean velocity at the origin."""
    return 0.5 * np.add(*_tilt(lam1, lam2, q)[1])


def cgf_hessian(lam1: float, lam2: float, q: StepProbabilities) -> np.ndarray:
    """Analytic Hessian of ``cgf``: half the sum of per-class weight covariances."""
    return 0.5 * np.add(*_tilt(lam1, lam2, q)[2])


@dataclass(frozen=True, slots=True)
class RateResult:
    """A rate-function evaluation at the velocity point ``(x, y)``.

    ``value`` is infinite where the rate is; ``(lam1, lam2)`` is the
    maximizing lam, None where no maximizer is reported.  ``point``,
    ``finite`` and ``maximizer`` are derived, so the result stays small
    for callers that keep many.
    """

    x: float
    y: float
    value: float
    lam1: Optional[float]
    lam2: Optional[float]
    iterations: int
    gradient_residual: float
    note: str = ""

    @property
    def point(self) -> Tuple[float, float]:
        return (self.x, self.y)

    @property
    def finite(self) -> bool:
        return self.value < math.inf

    @property
    def maximizer(self) -> Optional[Tuple[float, float]]:
        return None if self.lam1 is None else (self.lam1, self.lam2)

    def as_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "value": None if not self.finite else self.value,
            "finite": self.finite,
            "maximizer": list(self.maximizer) if self.maximizer else None,
            "iterations": self.iterations,
            "gradient_residual": self.gradient_residual,
            "note": self.note,
        }


def _hull(points) -> tuple:
    """Convex hull of ``points``, counter-clockwise, corners only (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)

    def turn(o, p, r):
        return (p[0] - o[0]) * (r[1] - o[1]) - (p[1] - o[1]) * (r[0] - o[0])

    lower, upper = [], []
    for chain, ordered in ((lower, pts), (upper, pts[::-1])):
        for p in ordered:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _segment_distance(x: float, y: float, a, b) -> float:
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    t = 0.0 if length2 == 0 else min(1.0, max(0.0, ((x - ax) * dx + (y - ay) * dy) / length2))
    return math.hypot(x - ax - t * dx, y - ay - t * dy)


class VelocityDomain:
    """The closed set of velocities at which the rate function is finite.

    ``vertices`` are the hull's corners, counter-clockwise.  When the
    supports are degenerate the hull collapses to a segment (two
    vertices) or a point (one), and the objective of ``legendre`` is flat
    across it; ``along`` is then the orthogonal projector onto the
    directions it is not flat in and ``across`` its complement.  Both are
    None for a polygon.
    """

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self.edges = tuple(zip(self.vertices, self.vertices[1:] + self.vertices[:1]))
        self.along = self.across = None
        if len(self.vertices) < 3:
            along = np.zeros((2, 2))
            if len(self.vertices) == 2:
                (ax, ay), (bx, by) = self.vertices
                u = np.array([bx - ax, by - ay]) / math.hypot(bx - ax, by - ay)
                along = np.outer(u, u)
            self.along, self.across = along, np.eye(2) - along
            # Shared by every caller through the cache of ``velocity_domain``.
            along.flags.writeable = self.across.flags.writeable = False

    def distance(self, x: float, y: float) -> float:
        """Euclidean distance from ``(x, y)`` to the domain; 0 inside."""
        if len(self.vertices) >= 3 and all(
            (bx - ax) * (y - ay) >= (by - ay) * (x - ax) for (ax, ay), (bx, by) in self.edges
        ):
            return 0.0
        return min(_segment_distance(x, y, a, b) for a, b in self.edges)


@lru_cache(maxsize=16)
def velocity_domain(q: StepProbabilities) -> VelocityDomain:
    """The velocity domain of the walk ``q``, built once per walk.

    It is (1/2) hull(supp q0) + (1/2) hull(supp q1): the hull of the
    midpoints (c_{0,r} + c_{1,s}) / 2 over the exponent vectors of the
    directions with positive weight.
    """
    c0, c1 = exponent_vectors(q.a)
    return VelocityDomain(_hull(
        (0.5 * (x0 + x1), 0.5 * (y0 + y1))
        for (x0, y0), p0 in zip(c0, q.q0) if p0 > 0
        for (x1, y1), p1 in zip(c1, q.q1) if p1 > 0
    ))


def legendre(
    x: float,
    y: float,
    q: StepProbabilities,
    tol: float = DEFAULT_GRADIENT_TOL,
    *,
    max_iterations: int = MAX_NEWTON_ITERATIONS,
) -> RateResult:
    """Convex conjugate of ``cgf`` at velocity ``(x, y)``.

    Outside ``velocity_domain(q)`` the value and the reported gradient
    residual are infinite and no iteration runs.  Points within
    ``DOMAIN_SLACK * a`` of the domain count as on it, which absorbs float
    rounding of the point and of the hull.  The slack shrinks to
    ``tol / 10`` for smaller ``tol``: at a point just outside, the gradient
    norm never falls below the distance, so Newton converges there only
    if the distance is well below ``tol``.

    Inside, Newton ascent on the concave objective lam -> lam . (x, y) -
    cgf(lam) runs until the gradient norm is at most ``tol``.  Each step
    is capped to a trust length that grows with the iterate, then halved
    until the objective increases.  On the boundary the supremum is
    approached as lam runs off to infinity, where the Hessian can
    underflow to singular; the step is then a least-squares solve.  On a
    segment or point domain, lam moves only along the domain.
    """
    if not tol > 0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    domain = velocity_domain(q)
    if domain.distance(x, y) > min(DOMAIN_SLACK * q.a, 0.1 * tol):
        return RateResult(
            x, y, math.inf, None, None, 0, math.inf, note="outside the velocity domain"
        )
    z = np.array([x, y], dtype=float)
    lam = np.zeros(2)

    def objective(l):
        l1, l2 = l.tolist()
        return float(z @ l) - cgf(l1, l2, q)

    f = objective(lam)
    for iteration in range(max_iterations):
        _, mean, cov = _tilt(*lam.tolist(), q)
        grad = z - 0.5 * np.add(*mean)
        hess = 0.5 * np.add(*cov)
        if domain.along is not None:
            # The objective is flat across a segment or point domain: drop
            # the gradient across it and give that direction unit curvature,
            # so every step runs along the domain.
            grad = domain.along @ grad
            hess = domain.along @ hess @ domain.along + domain.across
        residual = float(np.hypot(grad[0], grad[1]))
        if residual <= tol:
            return RateResult(x, y, f, *lam.tolist(), iteration, residual)
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # Trust cap: near the boundary the curvature decays with lam and
        # the model step can be far too long.
        direction_norm = float(np.linalg.norm(direction))
        slope = float(grad @ direction)
        max_step = 4.0 * (1.0 + float(np.linalg.norm(lam)))
        if direction_norm > max_step:
            scale = max_step / direction_norm
            direction = direction * scale
            slope *= scale
        # Relaxed Armijo: near convergence the true gain drops below the
        # float resolution of f, so tolerate a one-ulp non-increase.
        floor = 1e-12 * (1.0 + abs(f))
        t = 1.0
        accepted = False
        for _ in range(60):
            candidate = lam + t * direction
            fc = objective(candidate)
            if fc >= f + 1e-4 * t * slope - floor:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NumericalFailureError(
                f"line search stalled at iteration {iteration} for point ({x}, {y})",
                last_iterate=(float(lam[0]), float(lam[1])),
            )
        lam = lam + t * direction
        f = fc
    raise NumericalFailureError(
        f"no convergence within {max_iterations} iterations for point ({x}, {y})",
        last_iterate=(float(lam[0]), float(lam[1])),
    )


@lru_cache(maxsize=16)
def _quadratic_form(q: StepProbabilities):
    """C and its eigendecomposition, once per walk; read-only, as every caller shares them."""
    c_matrix = asymptotic_covariance(q)
    eigvals, eigvecs = np.linalg.eigh(c_matrix)
    for array in (c_matrix, eigvals, eigvecs):
        array.flags.writeable = False
    return c_matrix, eigvals, eigvecs


def moderate_rate(x: float, y: float, q: StepProbabilities) -> RateResult:
    """Conjugate of the quadratic (1/2) lam^T C lam at ``(x, y)``.

    For invertible C this is (1/2) z^T C^{-1} z, attained at C^{-1} z.
    For singular C the supremum is finite only for z in the range of C
    (then given by the pseudo-inverse quadratic) and infinite otherwise.
    """
    c_matrix, eigvals, eigvecs = _quadratic_form(q)
    z = np.array([x, y], dtype=float)
    scale = float(eigvals.max(initial=0.0))
    rank_tol = 1e-12 * max(scale, 1.0)
    if eigvals.min() > rank_tol:
        lam = np.linalg.solve(c_matrix, z)
        value = 0.5 * float(z @ lam)
        return RateResult(
            x, y, value, *lam.tolist(), 0, float(np.linalg.norm(c_matrix @ lam - z))
        )
    # Singular case: decompose z along the eigenbasis.
    coeffs = eigvecs.T @ z
    off_range = float(
        np.linalg.norm(coeffs[eigvals <= rank_tol])
    )
    if off_range > 1e-9 * (1.0 + float(np.linalg.norm(z))):
        return RateResult(
            x, y, math.inf, None, None, 0, off_range,
            note="singular covariance: point outside the range of C",
        )
    safe = eigvals > rank_tol
    inv = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=safe)
    lam = eigvecs @ (inv * coeffs)
    value = 0.5 * float(z @ lam)
    return RateResult(
        x, y, value, *lam.tolist(), 0, float(np.linalg.norm(c_matrix @ lam - z)),
        note="singular covariance: conjugate taken on the range of C",
    )


# ---------------------------------------------------------------------------
# Moderate-deviations scaling diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModerateScale:
    """The scaling family a_n = n^(-gamma) with 0 < gamma < 1.

    Both conditions a_n -> 0 and n*a_n -> infinity hold exactly on this
    one-parameter family, which is the canonical representative used for
    the convergence diagnostics.
    """

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise InvalidParameterError(
                f"scaling exponent must lie in (0, 1), got {self.gamma}"
            )

    def a(self, n: int) -> float:
        return float(n) ** (-self.gamma)


@dataclass(frozen=True)
class MDConvergenceEntry:
    n: int
    a_n: float
    max_gap: float
    stable: bool = True


@dataclass(frozen=True)
class MDConvergenceReport:
    unit_scale: bool
    gamma: Optional[float]
    lam_grid: tuple
    entries: tuple

    def gaps(self):
        return [e.max_gap for e in self.entries]

    def as_dict(self) -> dict:
        return {
            "unit_scale": self.unit_scale,
            "gamma": self.gamma,
            "lambda_grid": [list(p) for p in self.lam_grid],
            "entries": [
                {"n": e.n, "a_n": e.a_n, "max_gap": e.max_gap, "stable": e.stable}
                for e in self.entries
            ],
        }


def scaled_cumulant_gap(
    lam1: float, lam2: float, n: int, a_n: float, q: StepProbabilities
) -> float:
    """The centered, rescaled log generating function minus its quadratic limit.

    Computes a_n * (log G(e^(lam1/s), e^(lam2/s); n) - lam . m_n / s) with
    s = sqrt(n * a_n), and subtracts (1/2) lam^T C lam.
    """
    s = math.sqrt(n * a_n)
    mean = moments(n, q).mean
    value = a_n * (
        log_pgf(lam1 / s, lam2 / s, n, q) - (lam1 * mean[0] + lam2 * mean[1]) / s
    )
    c_matrix = asymptotic_covariance(q)
    lam = np.array([lam1, lam2])
    return value - 0.5 * float(lam @ c_matrix @ lam)


def md_limit_check(
    q: StepProbabilities,
    n_list: Sequence[int],
    scale: Optional[ModerateScale],
    lam_grid: Sequence[Tuple[float, float]] = _DEFAULT_LAMBDA_GRID,
) -> MDConvergenceReport:
    """Convergence of the rescaled cumulant functions toward (1/2) lam^T C lam.

    ``scale`` selects a_n = n^(-gamma); passing None runs the a_n = 1
    variant, whose limit is the same quadratic (the scaling conditions do
    not hold, but the expansion still goes through).  Each entry reports
    the maximum gap over the lambda grid; a sound implementation shows
    the gaps decaying toward zero as n grows.
    """
    entries = []
    for n in n_list:
        if n < 1:
            raise InvalidParameterError(f"times must be positive, got {n}")
        a_n = 1.0 if scale is None else scale.a(n)
        s = math.sqrt(n * a_n)
        if not (s > 0 and math.isfinite(s) and s > 1e-150):
            entries.append(MDConvergenceEntry(n, a_n, math.nan, stable=False))
            continue
        gaps = [
            abs(scaled_cumulant_gap(l1, l2, n, a_n, q)) for l1, l2 in lam_grid
        ]
        worst = max(gaps)
        entries.append(
            MDConvergenceEntry(n, a_n, worst, stable=math.isfinite(worst))
        )
    return MDConvergenceReport(
        unit_scale=scale is None,
        gamma=None if scale is None else scale.gamma,
        lam_grid=tuple(lam_grid),
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# Empirical decay of halfplane tail probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayEntry:
    n: int
    tail_probability: float
    rate: float
    gap: float


@dataclass(frozen=True)
class DecayReport:
    normal: Tuple[float, float]
    offset: float
    infimum: float
    minimizer: Tuple[float, float]
    entries: tuple

    def rates(self):
        return [e.rate for e in self.entries]

    def as_dict(self) -> dict:
        return {
            "normal": list(self.normal),
            "offset": self.offset,
            "infimum": self.infimum,
            "minimizer": list(self.minimizer),
            "entries": [
                {
                    "n": e.n,
                    "tail_probability": e.tail_probability,
                    "rate": e.rate,
                    "gap": e.gap,
                }
                for e in self.entries
            ],
        }


def _halfplane_infimum(q: StepProbabilities, u: np.ndarray, c: float):
    """Minimize the rate function over the boundary line u . z = c.

    The rate function is convex with minimum at the mean velocity, so
    when the mean lies inside the halfplane the infimum is 0; otherwise
    it is attained on the boundary, which we scan and then refine by
    ternary search along the tangent direction.
    """
    drift = moments(2, q).drift
    if float(u @ drift) >= c - 1e-12 * (1.0 + abs(c)):
        return 0.0, (float(drift[0]), float(drift[1]))
    tangent = np.array([-u[1], u[0]])
    base = c * u
    seen = {}

    def value(t: float) -> float:
        if t not in seen:
            p = base + t * tangent
            seen[t] = legendre(float(p[0]), float(p[1]), q).value
        return seen[t]

    span = 3.0 * ROOT3 * q.a
    ts = np.linspace(-span, span, 61)
    vals = [value(float(t)) for t in ts]
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        raise NumericalFailureError(
            "rate function infinite on the entire scanned boundary segment"
        )
    lo = float(ts[max(best - 1, 0)])
    hi = float(ts[min(best + 1, len(ts) - 1)])
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if value(m1) <= value(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-10:
            break
    value(0.5 * (lo + hi))
    # The rate surface can be infinite off a lower-dimensional set, in
    # which case the refinement brackets but never lands on the finite
    # point; the best evaluated point is the answer either way.
    t_best = min(seen, key=lambda t: (seen[t], abs(t)))
    point = base + t_best * tangent
    return seen[t_best], (float(point[0]), float(point[1]))


def _log_fraction(p: Fraction) -> float:
    # Big-integer logs avoid underflow for exponentially small tails.
    return math.log(p.numerator) - math.log(p.denominator)


def empirical_decay(
    q: StepProbabilities,
    normal: Tuple[float, float],
    offset: float,
    n_list: Sequence[int],
) -> DecayReport:
    """Exact tail decay -(1/n) log P(S_n / n in halfplane) versus its limit.

    The halfplane is {z : u . z >= offset} for the unit normal ``u``.
    Tail masses are summed over the evolution engine's array (float tails
    with ``math.fsum``); in exact mode the log of the rational tail is
    taken on numerator and denominator separately, so no finite ``n`` can
    underflow.  Boundary membership is
    tested with a small tolerance because Cartesian coordinates involve
    sqrt(3).
    """
    u = np.array(normal, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm == 0:
        raise InvalidParameterError("halfplane normal must be nonzero")
    u = u / norm
    c = float(offset)

    infimum, minimizer = _halfplane_infimum(q, u, c)

    n_sorted = sorted(set(int(n) for n in n_list))
    if not n_sorted or n_sorted[0] < 1:
        raise InvalidParameterError("need at least one positive time")
    wanted = set(n_sorted)
    entries = []
    exact = q.exact
    for dist in engine.iterate(q, n_sorted[-1], exact=exact):
        n = dist.n
        if n not in wanted:
            continue
        threshold = c * n - 1e-9 * (1.0 + abs(c) * n)
        j, k = np.indices(dist.grid.shape)
        x, y = to_cartesian(j + dist.origin[0], k + dist.origin[1], parity(n), q.a)
        inside = dist.grid[u[0] * x + u[1] * y >= threshold]
        if exact:
            tail = Fraction(inside.sum(), dist.den)
            if tail == 0:
                rate = math.inf
            else:
                rate = -_log_fraction(tail) / n
            tail_float = float(tail)
        else:
            tail_float = math.fsum(inside.tolist())
            if tail_float <= 0.0:
                # The float tail underflowed to zero during evolution;
                # only the exact engine can resolve it.
                rate = math.inf
            else:
                rate = -math.log(tail_float) / n
        entries.append(DecayEntry(n, tail_float, rate, rate - infimum))
    return DecayReport(
        normal=(float(u[0]), float(u[1])),
        offset=c,
        infimum=infimum,
        minimizer=minimizer,
        entries=tuple(entries),
    )
