"""Probability generating function and exact moments of the walk.

The generating function G(u, v; n) = E[u^X v^Y] factorizes into integer
powers of two positive factors evaluated at lattice-transformed
arguments:

    alpha(u, v) = q10 + q12*u + q11*u/v
    beta(u, v)  = q00 + q01*v/u + q02/u

with u~ = u^(3a/2) * v^(sqrt(3)a/2) and v~ = v^(sqrt(3)a).  At time n
the walk's class is i = parity(n) and

    G(u, v; n) = alpha(u~, v~)^((n-i)/2) * beta(u~, v~)^((n+i)/2) * u^(i*a).

Both exponents are integers because n and i share parity.  alpha and
beta are the class-1 and class-0 partition functions u^dj * v^dk over the
index shifts of ``lattice``.  With u = e^lam1 and v = e^lam2 the
transformed factors are the same sums over the lattice's exponent
vectors, the g1 and g0 of the cumulant generating function in
``deviations``.  One kernel, ``log_partition``, evaluates all of them by
log-sum-exp, so ``log_pgf`` (and ``pgf`` = exp(log_pgf)) can probe
arguments far outside the overflow range of the direct product.

Moments are affine in n with a parity correction: for example
E[X_n] = mu1*n + theta1*i_n.  The ten coefficients and the asymptotic
covariance matrix C are evaluated from the transition probabilities in
closed form; they are floats even for rational inputs since the lattice
geometry brings in sqrt(3).
"""

import math
from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidParameterError
from .lattice import INDEX_SHIFTS, ROOT3, StepProbabilities, exponent_vectors, parity


def log_partition(q: StepProbabilities, vectors, lam1: float, lam2: float):
    """Per-class log-partition function of the exponentially tilted step law.

    For class i, Z_i(lam) = sum_r q_{i,r} * exp(vectors[i][r] . lam), where
    ``vectors`` holds an ``(x, y)`` pair per class and direction.  Returns
    ``(log_z, mean, cov)``, each a pair over the classes: log Z_i, and the
    mean ``(x, y)`` and covariance ``((xx, xy), (xy, yy))`` of
    ``vectors[i]`` under the tilted weights
    q_{i,r} * exp(vectors[i][r] . lam) / Z_i, which are the gradient and
    Hessian of log Z_i.  The log-sum-exp subtracts the largest exponent,
    so large |lam| neither overflows nor underflows.
    """
    log_z, mean, cov = [], [], []
    # Every vertex has three directions.  The sums are written out: this
    # runs once per pgf call and per Newton step, where loops and numpy
    # calls on three-element arrays cost several times the arithmetic.
    for (w0, w1, w2), ((x0, y0), (x1, y1), (x2, y2)) in zip(q.log_weights, vectors):
        e0 = w0 + x0 * lam1 + y0 * lam2
        e1 = w1 + x1 * lam1 + y1 * lam2
        e2 = w2 + x2 * lam1 + y2 * lam2
        top = max(e0, e1, e2)
        p0, p1, p2 = math.exp(e0 - top), math.exp(e1 - top), math.exp(e2 - top)
        total = p0 + p1 + p2
        log_z.append(top + math.log(total))
        p0, p1, p2 = p0 / total, p1 / total, p2 / total
        mx = p0 * x0 + p1 * x1 + p2 * x2
        my = p0 * y0 + p1 * y1 + p2 * y2
        dx0, dx1, dx2 = x0 - mx, x1 - mx, x2 - mx
        dy0, dy1, dy2 = y0 - my, y1 - my, y2 - my
        cxy = p0 * dx0 * dy0 + p1 * dx1 * dy1 + p2 * dx2 * dy2
        mean.append((mx, my))
        cov.append((
            (p0 * dx0 * dx0 + p1 * dx1 * dx1 + p2 * dx2 * dx2, cxy),
            (cxy, p0 * dy0 * dy0 + p1 * dy1 * dy1 + p2 * dy2 * dy2),
        ))
    return log_z, mean, cov


def pgf_factors(u: float, v: float, q: StepProbabilities) -> Tuple[float, float]:
    """The (alpha, beta) pair at already-transformed arguments ``(u, v)``.

    These are the class-1 and class-0 partition functions over the index
    shifts, u^dj * v^dk weighted by the step probabilities.
    """
    if not (u > 0 and v > 0):
        raise InvalidParameterError("generating-function arguments must be positive")
    log_z = log_partition(q, INDEX_SHIFTS, math.log(u), math.log(v))[0]
    return math.exp(log_z[1]), math.exp(log_z[0])


def pgf(u: float, v: float, n: int, q: StepProbabilities) -> float:
    """G(u, v; n) = E[u^X_n v^Y_n] for positive arguments."""
    if not (u > 0 and v > 0):
        raise InvalidParameterError("generating-function arguments must be positive")
    return math.exp(log_pgf(math.log(u), math.log(v), n, q))


def log_pgf(lam1: float, lam2: float, n: int, q: StepProbabilities) -> float:
    """log G(e^lam1, e^lam2; n), stable for large |lam|.

    In exponential coordinates the two factors become
    beta~ = q00 + q01*e^(-A) + q02*e^(-B) and
    alpha~ = q10 + q11*e^(A) + q12*e^(B) with
    A = (3a/2)*lam1 - (sqrt(3)a/2)*lam2 and B = (3a/2)*lam1 + (sqrt(3)a/2)*lam2,
    the partition functions over the lattice's exponent vectors.
    """
    if n < 0:
        raise InvalidParameterError(f"time must be nonnegative, got {n}")
    log_beta, log_alpha = log_partition(q, exponent_vectors(q.a), lam1, lam2)[0]
    i = parity(n)
    return ((n - i) // 2) * log_alpha + ((n + i) // 2) * log_beta + i * q.a * lam1


@dataclass(frozen=True)
class MomentSummary:
    """Exact first and second moments of the position at time ``n``.

    ``drift``, ``parity_shift`` and ``diffusion`` hold the time-free
    coefficients (mu1, mu2), (theta1..theta5) and
    (sigma1^2, sigma2^2, sigma12); ``covariance_matrix`` is the
    asymptotic-covariance matrix C built from the diffusion entries.
    """

    n: int
    mean: Tuple[float, float]
    variance: Tuple[float, float]
    covariance: float
    drift: Tuple[float, float]
    parity_shift: Tuple[float, float, float, float, float]
    diffusion: Tuple[float, float, float]
    covariance_matrix: Tuple[Tuple[float, float], Tuple[float, float]]

    def as_dict(self) -> dict:
        return asdict(self)


def moment_coefficients(q: StepProbabilities):
    """The ten moment coefficients (mu1, mu2, th1..th5, s1sq, s2sq, s12)."""
    a = q.a
    s0 = float(q.q0[1] + q.q0[2])
    s1 = float(q.q1[1] + q.q1[2])
    d0 = float(q.q0[1] - q.q0[2])
    d1 = float(q.q1[1] - q.q1[2])
    mu1 = 0.75 * a * (s1 - s0)
    th1 = a - 0.75 * a * (s1 + s0)
    mu2 = 0.25 * ROOT3 * a * (d0 - d1)
    th2 = 0.25 * ROOT3 * a * (d0 + d1)
    s1sq = 1.125 * a * a * (s0 - s0 * s0 + s1 - s1 * s1)
    th3 = 1.125 * a * a * (s0 - s0 * s0 - s1 + s1 * s1)
    s2sq = 0.375 * a * a * (s0 - d0 * d0 + s1 - d1 * d1)
    th4 = 0.375 * a * a * (s0 - d0 * d0 - s1 + d1 * d1)
    s12 = 0.375 * ROOT3 * a * a * (d0 * (s0 - 1.0) + d1 * (s1 - 1.0))
    th5 = 0.375 * ROOT3 * a * a * (d0 * (s0 - 1.0) - d1 * (s1 - 1.0))
    return mu1, mu2, th1, th2, th3, th4, th5, s1sq, s2sq, s12


def moments(n: int, q: StepProbabilities) -> MomentSummary:
    """Mean, variance and covariance of the position at time ``n``."""
    if n < 0:
        raise InvalidParameterError(f"time must be nonnegative, got {n}")
    mu1, mu2, th1, th2, th3, th4, th5, s1sq, s2sq, s12 = moment_coefficients(q)
    i = parity(n)
    return MomentSummary(
        n=n,
        mean=(mu1 * n + th1 * i, mu2 * n + th2 * i),
        variance=(s1sq * n + th3 * i, s2sq * n + th4 * i),
        covariance=s12 * n + th5 * i,
        drift=(mu1, mu2),
        parity_shift=(th1, th2, th3, th4, th5),
        diffusion=(s1sq, s2sq, s12),
        covariance_matrix=((s1sq, s12), (s12, s2sq)),
    )


def asymptotic_covariance(q: StepProbabilities) -> np.ndarray:
    """The 2x2 covariance matrix C of the Gaussian scaling limit.

    C is the average of the two per-class single-step covariance
    matrices, hence symmetric positive semidefinite by construction.
    """
    *_, s1sq, s2sq, s12 = moment_coefficients(q)
    return np.array([[s1sq, s12], [s12, s2sq]])
