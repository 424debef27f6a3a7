"""Monte Carlo sampling of the walk and Gaussian scaling-limit diagnostics.

Reproducibility model
=====================
All batch sampling is counter-based: replicas live in fixed-size chunks
and chunk ``c`` draws from ``Philox(key=seed).jumped(c)``.  A replica's
draws therefore depend only on ``(seed, replica index)``, never on how
work is scheduled, so generating chunks serially or in parallel (and any
aggregation in replica order) is bit-for-bit reproducible.

Sampling model
==============
The walk takes its odd-numbered steps from class-0 vertices and its
even-numbered steps from class-1 vertices, so over any fixed block of
steps the number taken from each class is deterministic and the
direction counts within a class are multinomial.  Both the endpoint and
any block increment are deterministic functions of those counts, so
batch diagnostics sample six small multinomials per replica instead of
simulating step by step; the sampled law is exactly that of the walk.
Single-trajectory sampling (with the optional path) does walk step by
step.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError
from .lattice import (
    INDEX_SHIFTS,
    CartesianPoint,
    StepProbabilities,
    parity,
    step_vectors,
    to_cartesian,
)
from .generating import asymptotic_covariance, moments

CHUNK = 1 << 14


def _chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    """The Philox stream keyed on ``seed``, jumped ``chunk`` times."""
    base = np.random.Philox(key=seed % (1 << 128))
    return np.random.Generator(base.jumped(chunk) if chunk else base)


def _row_pvals(q: StepProbabilities, i: int) -> np.ndarray:
    p = np.array([float(x) for x in q.row(i)], dtype=float)
    return p / p.sum()


def _class_counts(lo: int, hi: int) -> Tuple[int, int]:
    """How many steps in (lo, hi] start from class 0 and class 1.

    Step s moves the walk from time s-1 to s, so it starts from class
    (s-1) mod 2: odd-numbered steps are class-0 steps.
    """
    odd = (hi + 1) // 2 - (lo + 1) // 2
    return odd, (hi - lo) - odd


# ---------------------------------------------------------------------------
# Endpoint sampling
# ---------------------------------------------------------------------------


def sample_endpoint_indices(
    n: int, q: StepProbabilities, replicas: int, seed: int
) -> np.ndarray:
    """Index endpoints ``(j, k)`` of ``replicas`` independent walks of length ``n``.

    Returns an int64 array of shape (replicas, 2).  The endpoint follows
    from the direction counts alone: it is the sum of the index shifts
    of the steps taken.
    """
    if n < 0:
        raise InvalidParameterError(f"walk length must be nonnegative, got {n}")
    if replicas < 1:
        raise InvalidParameterError(f"need at least one replica, got {replicas}")
    m0, m1 = _class_counts(0, n)
    p0, p1 = _row_pvals(q, 0), _row_pvals(q, 1)
    s0, s1 = np.array(INDEX_SHIFTS, dtype=np.int64)
    out = np.empty((replicas, 2), dtype=np.int64)
    for chunk in range((replicas + CHUNK - 1) // CHUNK):
        gen = _chunk_generator(seed, chunk)
        lo = chunk * CHUNK
        size = min(CHUNK, replicas - lo)
        c0 = gen.multinomial(m0, p0, size=size)
        c1 = gen.multinomial(m1, p1, size=size)
        out[lo : lo + size] = c0 @ s0 + c1 @ s1
    return out


def sample_endpoints(
    n: int, q: StepProbabilities, replicas: int, seed: int
) -> np.ndarray:
    """Cartesian endpoints of ``replicas`` independent walks of length ``n``."""
    jk = sample_endpoint_indices(n, q, replicas, seed)
    return np.column_stack(to_cartesian(jk[:, 0], jk[:, 1], parity(n), q.a))


@dataclass(frozen=True)
class TrajectorySample:
    """One sampled walk: endpoint, optional full path, its seed and replica."""

    steps: int
    endpoint: CartesianPoint
    path: Optional[tuple]
    seed: int
    replica: int = 0


def sample_endpoint(
    n: int,
    q: StepProbabilities,
    seed: int,
    *,
    with_path: bool = False,
    replica: int = 0,
) -> TrajectorySample:
    """Walk a single trajectory of ``n`` steps, step by step.

    Reproducible given ``(seed, replica, n, q)``: replica ``r`` draws from
    the Philox stream keyed on ``seed`` and jumped ``r`` times, the way
    batch chunks are keyed, so no two ``(seed, replica)`` pairs share a
    stream.  When ``with_path`` is set the returned path has ``n + 1``
    Cartesian points starting at the origin, with consecutive points one
    edge length apart.
    """
    if n < 0:
        raise InvalidParameterError(f"walk length must be nonnegative, got {n}")
    if replica < 0:
        raise InvalidParameterError(f"replica index must be nonnegative, got {replica}")
    gen = _chunk_generator(seed, replica)
    thresholds = [np.cumsum(_row_pvals(q, i)) for i in (0, 1)]
    steps = step_vectors(q.a)
    x = y = 0.0
    path = [CartesianPoint(0.0, 0.0)] if with_path else None
    i = 0
    for _ in range(n):
        r = int(np.searchsorted(thresholds[i], gen.random(), side="right"))
        r = min(r, 2)
        dx, dy = steps[i][r]
        x += dx
        y += dy
        if with_path:
            path.append(CartesianPoint(x, y))
        i = 1 - i
    return TrajectorySample(
        steps=n,
        endpoint=CartesianPoint(x, y),
        path=tuple(path) if with_path else None,
        seed=seed,
        replica=replica,
    )


# ---------------------------------------------------------------------------
# Central-limit diagnostic
# ---------------------------------------------------------------------------


def _chi_square_2_quantile(p: float) -> float:
    # chi-square with 2 degrees of freedom has CDF 1 - exp(-x/2).
    return -2.0 * math.log1p(-p)


@dataclass(frozen=True)
class CltReport:
    n: int
    replicas: int
    expected_cov: tuple
    empirical_cov: tuple
    frobenius_rel_error: Optional[float]
    coverage: dict
    coverage_error: dict
    singular: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "replicas": self.replicas,
            "expected_cov": [list(r) for r in self.expected_cov],
            "empirical_cov": [list(r) for r in self.empirical_cov],
            "frobenius_rel_error": self.frobenius_rel_error,
            "coverage": {str(k): v for k, v in self.coverage.items()},
            "coverage_error": {str(k): v for k, v in self.coverage_error.items()},
            "singular": self.singular,
        }


def clt_diagnostic(
    n: int,
    replicas: int,
    q: StepProbabilities,
    seed: int,
    quantiles: Tuple[float, ...] = (0.5, 0.9, 0.99),
) -> CltReport:
    """Compare n^(-1/2)(S_n - m_n) against its Gaussian limit.

    Reports the empirical covariance against the asymptotic matrix C
    (relative Frobenius error) and, when C is invertible, the fraction of
    squared Mahalanobis distances under the chi-square(2) quantiles.
    """
    if n < 1:
        raise InvalidParameterError(f"walk length must be positive, got {n}")
    if replicas < 1000:
        raise InvalidParameterError(
            f"the diagnostic needs at least 1000 replicas, got {replicas}"
        )
    xy = sample_endpoints(n, q, replicas, seed)
    mean = moments(n, q).mean
    z = (xy - np.array(mean)) / math.sqrt(n)
    c_matrix = asymptotic_covariance(q)
    emp = np.cov(z, rowvar=False)
    c_norm = float(np.linalg.norm(c_matrix))
    singular = (
        c_norm == 0.0 or np.linalg.eigvalsh(c_matrix).min() <= 1e-12 * c_norm
    )
    frob = None if singular else float(np.linalg.norm(emp - c_matrix)) / c_norm
    coverage = {}
    coverage_error = {}
    if not singular:
        solved = np.linalg.solve(c_matrix, z.T).T
        d2 = np.einsum("ij,ij->i", z, solved)
        for p in quantiles:
            frac = float(np.mean(d2 <= _chi_square_2_quantile(p)))
            coverage[p] = frac
            coverage_error[p] = abs(frac - p)
    return CltReport(
        n=n,
        replicas=replicas,
        expected_cov=tuple(map(tuple, c_matrix)),
        empirical_cov=tuple(map(tuple, np.atleast_2d(emp))),
        frobenius_rel_error=frob,
        coverage=coverage,
        coverage_error=coverage_error,
        singular=singular,
    )


# ---------------------------------------------------------------------------
# Scaling-limit path processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedPathProcess:
    """A normalized partial-sum path observed on a finite time grid."""

    time_grid: tuple
    values: np.ndarray


def scaled_lattice_process(
    k: int, big_t: float, q: StepProbabilities, seed: int
) -> NormalizedPathProcess:
    """One path of the lattice-rescaled process t -> S_(floor(t) k) / sqrt(k).

    Shrinking the edge length to a / sqrt(k) is the same as dividing the
    unscaled partial sums by sqrt(k), which is how the path is produced.
    Values are reported on the integer grid 0 .. floor(big_t).
    """
    if k < 1:
        raise InvalidParameterError(f"block size must be >= 1, got {k}")
    if not big_t > 0:
        raise InvalidParameterError(f"horizon must be positive, got {big_t}")
    horizon = int(math.floor(big_t))
    gen = _chunk_generator(seed, 0)
    p0, p1 = _row_pvals(q, 0), _row_pvals(q, 1)
    d0, d1 = np.array(step_vectors(q.a))
    values = np.zeros((horizon + 1, 2))
    position = np.zeros(2)
    scale = 1.0 / math.sqrt(k)
    for t in range(1, horizon + 1):
        m0, m1 = _class_counts((t - 1) * k, t * k)
        c0 = gen.multinomial(m0, p0)
        c1 = gen.multinomial(m1, p1)
        position = position + c0 @ d0 + c1 @ d1
        values[t] = position * scale
    return NormalizedPathProcess(tuple(range(horizon + 1)), values)


def scaled_process_endpoints(
    k: int, t: int, q: StepProbabilities, replicas: int, seed: int
) -> np.ndarray:
    """Batch of S_(t k) / sqrt(k) values for covariance diagnostics."""
    if k < 1 or t < 0:
        raise InvalidParameterError("need k >= 1 and t >= 0")
    xy = sample_endpoints(t * k, q, replicas, seed)
    return xy / math.sqrt(k)


# ---------------------------------------------------------------------------
# Donsker diagnostic
# ---------------------------------------------------------------------------


def covariance_factor(c_matrix: np.ndarray):
    """A lower-triangular D with D^T D = C, or an eigen square root.

    Returns ``(D, triangular)``; the eigendecomposition fallback (used
    when C is singular) still satisfies D^T D = C but is not triangular.
    """
    c11, c12 = float(c_matrix[0, 0]), float(c_matrix[0, 1])
    c22 = float(c_matrix[1, 1])
    if c22 > 0:
        d22 = math.sqrt(c22)
        d21 = c12 / d22
        d11 = math.sqrt(max(c11 - d21 * d21, 0.0))
        return np.array([[d11, 0.0], [d21, d22]]), True
    eigvals, eigvecs = np.linalg.eigh(c_matrix)
    root = np.sqrt(np.clip(eigvals, 0.0, None))
    return (root[:, None] * eigvecs.T), False


@dataclass(frozen=True)
class IntervalStat:
    t_start: float
    t_end: float
    covariance: tuple
    frobenius_rel_error: Optional[float]


@dataclass(frozen=True)
class DonskerReport:
    n: int
    replicas: int
    time_grid: tuple
    whitened: bool
    intervals: tuple
    cross_covariance: Optional[tuple]
    cross_standard_error: Optional[tuple]
    max_cross_sigmas: Optional[float]
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "replicas": self.replicas,
            "time_grid": list(self.time_grid),
            "whitened": self.whitened,
            "intervals": [
                {
                    "t_start": s.t_start,
                    "t_end": s.t_end,
                    "covariance": [list(r) for r in s.covariance],
                    "frobenius_rel_error": s.frobenius_rel_error,
                }
                for s in self.intervals
            ],
            "cross_covariance": None
            if self.cross_covariance is None
            else [list(r) for r in self.cross_covariance],
            "cross_standard_error": None
            if self.cross_standard_error is None
            else [list(r) for r in self.cross_standard_error],
            "max_cross_sigmas": self.max_cross_sigmas,
            "note": self.note,
        }


def donsker_diagnostic(
    n: int,
    replicas: int,
    q: StepProbabilities,
    seed: int,
    grid: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> DonskerReport:
    """Finite-dimensional check of the Brownian scaling limit.

    Builds the normalized partial-sum path on ``grid``, whitens its
    increments by the inverse of D (D^T D = C) and compares each
    whitened increment covariance with (t_end - t_start) * Identity;
    disjoint increments are additionally checked for independence via
    the magnitude of their cross-covariance.
    """
    if n < 100:
        raise InvalidParameterError(f"need n >= 100, got {n}")
    if replicas < 1000:
        raise InvalidParameterError(
            f"the diagnostic needs at least 1000 replicas, got {replicas}"
        )
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] != 0.0:
        raise InvalidParameterError("grid must be increasing and start at 0")
    indices = [int(math.floor(n * t)) for t in grid]
    p0, p1 = _row_pvals(q, 0), _row_pvals(q, 1)
    d0, d1 = np.array(step_vectors(q.a))
    root_n = math.sqrt(n)
    c_matrix = asymptotic_covariance(q)
    factor, _triangular = covariance_factor(c_matrix)
    det = float(np.linalg.det(factor))
    whitened = abs(det) > 1e-12 * max(1.0, float(np.linalg.norm(c_matrix)))

    spans = list(zip(indices, indices[1:]))
    increments = np.empty((replicas, len(spans), 2))
    for chunk in range((replicas + CHUNK - 1) // CHUNK):
        gen = _chunk_generator(seed, chunk)
        lo = chunk * CHUNK
        size = min(CHUNK, replicas - lo)
        for g, (i0, i1) in enumerate(spans):
            m0, m1 = _class_counts(i0, i1)
            c0 = gen.multinomial(m0, p0, size=size)
            c1 = gen.multinomial(m1, p1, size=size)
            increments[lo : lo + size, g] = c0 @ d0 + c1 @ d1

    means = {idx: np.array(moments(idx, q).mean) for idx in indices}
    for g, (i0, i1) in enumerate(spans):
        increments[:, g] -= means[i1] - means[i0]
    increments /= root_n

    if whitened:
        inv_factor = np.linalg.inv(factor)
        observed = increments @ inv_factor
    else:
        observed = increments

    stats = []
    for g, (i0, i1) in enumerate(spans):
        dt = grid[g + 1] - grid[g]
        cov = np.cov(observed[:, g], rowvar=False)
        if whitened:
            frob = float(np.linalg.norm(cov - dt * np.eye(2))) / (dt * math.sqrt(2.0))
        else:
            frob = None
        stats.append(
            IntervalStat(grid[g], grid[g + 1], tuple(map(tuple, cov)), frob)
        )

    cross = cross_se = None
    max_sigmas = None
    if len(spans) >= 3:
        a_block = observed[:, 0] - observed[:, 0].mean(axis=0)
        b_block = observed[:, 2] - observed[:, 2].mean(axis=0)
        cross_matrix = a_block.T @ b_block / (replicas - 1)
        products = a_block[:, :, None] * b_block[:, None, :]
        se_matrix = products.std(axis=0, ddof=1) / math.sqrt(replicas)
        cross = tuple(map(tuple, cross_matrix))
        cross_se = tuple(map(tuple, se_matrix))
        # Degenerate walks have zero standard error and zero cross terms.
        positive = se_matrix > 0
        ratios = np.where(
            positive, np.abs(cross_matrix) / np.where(positive, se_matrix, 1.0), 0.0
        )
        max_sigmas = float(ratios.max())

    return DonskerReport(
        n=n,
        replicas=replicas,
        time_grid=tuple(grid),
        whitened=whitened,
        intervals=tuple(stats),
        cross_covariance=cross,
        cross_standard_error=cross_se,
        max_cross_sigmas=max_sigmas,
        note="" if whitened else "singular covariance: whitening skipped",
    )
