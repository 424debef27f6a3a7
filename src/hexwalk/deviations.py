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

    rate(x, y) = sup_lam { lam . (x, y) - cgf(lam) },

computed by safeguarded Newton ascent on the concave objective.  Points
outside the closure of the reachable velocity set make the objective
grow without bound; this is detected operationally (iterate norm beyond
a cap while the objective still climbs) rather than by characterizing
the domain boundary in closed form.

The moderate-deviations rate is the conjugate of the quadratic
(1/2) lam^T C lam, i.e. (1/2) z^T C^{-1} z for invertible C; singular C
is handled through the eigendecomposition (pseudo-inverse on the range,
infinite off it).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import engine
from .errors import InvalidParameterError, NumericalFailureError
from .lattice import ROOT3, StepProbabilities, exponent_vectors, parity, to_cartesian
from .generating import asymptotic_covariance, log_partition, log_pgf, moments

DEFAULT_GRADIENT_TOL = 1e-9
MAX_NEWTON_ITERATIONS = 200

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


@dataclass(frozen=True)
class RateResult:
    """A rate-function evaluation at one velocity point."""

    point: Tuple[float, float]
    value: float
    maximizer: Optional[Tuple[float, float]]
    finite: bool
    iterations: int
    gradient_residual: float
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "x": self.point[0],
            "y": self.point[1],
            "value": None if not self.finite else self.value,
            "finite": self.finite,
            "maximizer": list(self.maximizer) if self.maximizer else None,
            "iterations": self.iterations,
            "gradient_residual": self.gradient_residual,
            "note": self.note,
        }


def legendre(
    x: float,
    y: float,
    q: StepProbabilities,
    tol: float = DEFAULT_GRADIENT_TOL,
    *,
    max_iterations: int = MAX_NEWTON_ITERATIONS,
    norm_cap: Optional[float] = None,
) -> RateResult:
    """Convex conjugate of ``cgf`` at velocity ``(x, y)`` by Newton ascent.

    The objective lam -> lam . (x, y) - cgf(lam) is concave with analytic
    gradient and Hessian; each Newton step is safeguarded by halving the
    step until the objective increases.  A velocity outside the closure
    of the reachable set makes the objective increase along an unbounded
    ray; once the iterate norm passes ``norm_cap`` (default
    1e3 / (sqrt(3) a)) the value is declared infinite.
    """
    if not tol > 0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    if norm_cap is None:
        norm_cap = 1e3 / (ROOT3 * q.a)
    z = np.array([x, y], dtype=float)
    lam = np.zeros(2)

    def objective(l):
        l1, l2 = l.tolist()
        return float(z @ l) - cgf(l1, l2, q)

    f = objective(lam)
    for iteration in range(max_iterations):
        _, mean, cov = _tilt(*lam.tolist(), q)
        grad = z - 0.5 * np.add(*mean)
        residual = float(np.hypot(grad[0], grad[1]))
        if residual <= tol:
            return RateResult(
                point=(x, y),
                value=f,
                maximizer=(float(lam[0]), float(lam[1])),
                finite=True,
                iterations=iteration,
                gradient_residual=residual,
            )
        hess = 0.5 * np.add(*cov)
        push = 1.0 + float(np.linalg.norm(lam))
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
            if np.all(np.isfinite(direction)):
                # Any gradient component the Hessian cannot see is a
                # flat ray of the objective; push along it so divergence
                # is detected.
                null_part = grad - hess @ direction
                null_norm = float(np.linalg.norm(null_part))
                if null_norm > tol:
                    direction = direction + null_part / null_norm * push
        # Far outside the reachable set the Hessian decays to float
        # noise, so the model step can be non-finite (its squared length
        # may overflow), non-ascending, or too long for any number of
        # halvings to tame.  Replace garbage with a gradient push that
        # grows with the iterate, then trust-cap the length; capped steps
        # still grow the iterate norm geometrically, so divergence
        # detection is intact.
        with np.errstate(over="ignore"):
            direction_norm = float(np.linalg.norm(direction))
        if math.isfinite(direction_norm):
            slope = float(grad @ direction)
        else:
            slope = math.nan
        if not (math.isfinite(slope) and slope > 0):
            direction = grad * (push / max(residual, 1e-300))
            direction_norm = push
            slope = residual * push
        max_step = 4.0 * push
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
        if float(np.linalg.norm(lam)) > norm_cap:
            # Objective has increased at every accepted step, so the
            # supremum is not attained inside the cap: unreachable velocity.
            return RateResult(
                point=(x, y),
                value=math.inf,
                maximizer=None,
                finite=False,
                iterations=iteration + 1,
                gradient_residual=residual,
                note="iterate norm exceeded cap with objective still increasing",
            )
    raise NumericalFailureError(
        f"no convergence within {max_iterations} iterations for point ({x}, {y})",
        last_iterate=(float(lam[0]), float(lam[1])),
    )


def moderate_rate(x: float, y: float, q: StepProbabilities) -> RateResult:
    """Conjugate of the quadratic (1/2) lam^T C lam at ``(x, y)``.

    For invertible C this is (1/2) z^T C^{-1} z, attained at C^{-1} z.
    For singular C the supremum is finite only for z in the range of C
    (then given by the pseudo-inverse quadratic) and infinite otherwise.
    """
    c_matrix = asymptotic_covariance(q)
    z = np.array([x, y], dtype=float)
    eigvals, eigvecs = np.linalg.eigh(c_matrix)
    scale = float(eigvals.max(initial=0.0))
    rank_tol = 1e-12 * max(scale, 1.0)
    if eigvals.min() > rank_tol:
        lam = np.linalg.solve(c_matrix, z)
        value = 0.5 * float(z @ lam)
        return RateResult(
            point=(x, y),
            value=value,
            maximizer=(float(lam[0]), float(lam[1])),
            finite=True,
            iterations=0,
            gradient_residual=float(np.linalg.norm(c_matrix @ lam - z)),
        )
    # Singular case: decompose z along the eigenbasis.
    coeffs = eigvecs.T @ z
    off_range = float(
        np.linalg.norm(coeffs[eigvals <= rank_tol])
    )
    if off_range > 1e-9 * (1.0 + float(np.linalg.norm(z))):
        return RateResult(
            point=(x, y),
            value=math.inf,
            maximizer=None,
            finite=False,
            iterations=0,
            gradient_residual=off_range,
            note="singular covariance: point outside the range of C",
        )
    safe = eigvals > rank_tol
    inv = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=safe)
    lam = eigvecs @ (inv * coeffs)
    value = 0.5 * float(z @ lam)
    return RateResult(
        point=(x, y),
        value=value,
        maximizer=(float(lam[0]), float(lam[1])),
        finite=True,
        iterations=0,
        gradient_residual=float(np.linalg.norm(c_matrix @ lam - z)),
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
