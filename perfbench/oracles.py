"""Independent references for the benchmark's correctness checks.

Nothing here imports ``hexwalk``.  Every reference is derived from the
model as the package documents it: class-``i`` vertices step in the
directions ``2*pi*r/3 + i*pi`` with edge length ``a``, and the vertex
``(j, k)`` of class ``i`` sits at ``(1.5*a*j + i*a, (sqrt(3)/2)*a*j +
sqrt(3)*a*k)``.  A check therefore compares two separate computations,
never the program with itself.
"""

import math

import numpy as np

ROOT3 = math.sqrt(3.0)


def displacements(a=1.0):
    """Array (class, direction, xy) of single-step Cartesian displacements."""
    return np.array(
        [
            [
                [a * math.cos(2 * math.pi * r / 3 + i * math.pi),
                 a * math.sin(2 * math.pi * r / 3 + i * math.pi)]
                for r in range(3)
            ]
            for i in range(2)
        ]
    )


def index_shifts():
    """The ``(dj, dk)`` move of each (class, direction), solved from the coordinate map."""
    shifts = []
    for i, row in enumerate(displacements()):
        moves = []
        for dx, dy in row:
            dj = (dx - (1 - 2 * i)) / 1.5
            dk = (dy - 0.5 * ROOT3 * dj) / ROOT3
            moves.append((round(dj), round(dk)))
        shifts.append(tuple(moves))
    return tuple(shifts)


def to_cartesian(j, k, n, a=1.0):
    """Cartesian position of index state(s) ``(j, k)`` occupied at time ``n``."""
    i = n & 1
    return 1.5 * a * j + i * a, 0.5 * ROOT3 * a * j + ROOT3 * a * k


def reachable(j, k, n):
    """Whether ``(j, k)`` can carry mass at time ``n`` when every step weight is positive.

    Two steps move the walk to the origin or one of its six axial
    neighbours, so time ``2m`` reaches the axial ball
    ``max(|j|, |k|, |j + k|) <= m``; an odd time adds one class-0 step.
    """
    j = np.asarray(j)
    k = np.asarray(k)
    m = n // 2

    def ball(jj, kk):
        return np.maximum(np.maximum(abs(jj), abs(kk)), abs(jj + kk)) <= m

    if n % 2 == 0:
        return ball(j, k)
    out = np.zeros(np.broadcast(j, k).shape, dtype=bool)
    for dj, dk in index_shifts()[0]:
        out |= ball(j - dj, k - dk)
    return out


# ---------------------------------------------------------------------------
# Exact distribution
# ---------------------------------------------------------------------------


def exact_numerators(w0, w1, n):
    """Integer masses after ``n`` steps when the rows are ``w0 / sum(w0)`` and ``w1 / sum(w1)``.

    Dense object arrays of Python integers over a box that holds the
    support; the common denominator is ``sum(w0)**ceil(n/2) *
    sum(w1)**floor(n/2)``.  Returns ``{(j, k): numerator}`` for the
    nonzero states and the denominator.
    """
    shifts = index_shifts()
    size = n + 5
    off = n // 2 + 2
    grid = np.zeros((size, size), dtype=object)
    grid[off, off] = 1
    den = 1
    for t in range(n):
        i = t & 1
        weights = (w0, w1)[i]
        den *= sum(weights)
        lo, hi = off - t // 2 - 1, off + t // 2 + 2
        out = np.zeros((size, size), dtype=object)
        for w, (dj, dk) in zip(weights, shifts[i]):
            if w:
                out[lo + dj : hi + dj, lo + dk : hi + dk] += w * grid[lo:hi, lo:hi]
        grid = out
    nonzero = np.argwhere(grid != 0)
    return {(int(j) - off, int(k) - off): grid[j, k] for j, k in nonzero}, den


def distribution_csv(numerators, den):
    """``j,k,p`` CSV text, sorted by state, each mass rounded once to float64."""
    rows = ["j,k,p\n"]
    for (j, k), num in sorted(numerators.items()):
        rows.append(f"{j},{k},{num / den:.17g}\n")
    return "".join(rows)


# ---------------------------------------------------------------------------
# Velocity domain and rate functions
# ---------------------------------------------------------------------------


def _hull(points):
    """Convex hull, counter-clockwise, by the monotone chain."""
    pts = sorted({(round(x, 15), round(y, 15)) for x, y in points})
    if len(pts) < 3:
        return pts

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def velocity_domain(q0, q1, a=1.0):
    """Half-planes ``(normals, offsets)`` of 1/2 hull(supp q0) + 1/2 hull(supp q1).

    The velocity ``v`` is in the closed domain iff ``normals @ v <= offsets``;
    normals are outward unit vectors.
    """
    d = displacements(a)
    s0 = [d[0, r] for r in range(3) if q0[r] > 0]
    s1 = [d[1, r] for r in range(3) if q1[r] > 0]
    vertices = _hull([0.5 * (u + w) for u in s0 for w in s1])
    if len(vertices) < 3:
        raise ValueError("velocity domain is degenerate for these step weights")
    normals, offsets = [], []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        nx, ny = y1 - y0, x0 - x1
        norm = math.hypot(nx, ny)
        normals.append((nx / norm, ny / norm))
        offsets.append((nx * x0 + ny * y0) / norm)
    return np.array(normals), np.array(offsets)


def domain_excess(points, domain):
    """Largest signed half-plane excess: <= 0 inside, distance to the nearest edge line."""
    normals, offsets = domain
    return (np.asarray(points, dtype=float) @ normals.T - offsets).max(axis=1)


def _class_terms(theta, logq, d):
    z = theta @ d.T + logq
    top = z.max(axis=1, keepdims=True)
    e = np.exp(z - top)
    s = e.sum(axis=1, keepdims=True)
    w = e / s
    mean = w @ d
    second = np.einsum("nr,ra,rb->nab", w, d, d)
    return (top + np.log(s))[:, 0], mean, second - mean[:, :, None] * mean[:, None, :]


def _scgf(theta, q0, q1, a):
    """Limit of n^-1 log E exp(theta . S_n): value, gradient and Hessian per row."""
    d = displacements(a)
    value = np.zeros(len(theta))
    grad = np.zeros((len(theta), 2))
    hess = np.zeros((len(theta), 2, 2))
    with np.errstate(divide="ignore"):
        for i, q in enumerate((q0, q1)):
            v, g, h = _class_terms(theta, np.log(np.asarray(q, dtype=float)), d[i])
            value += 0.5 * v
            grad += 0.5 * g
            hess += 0.5 * h
    return value, grad, hess


def rate_reference(points, q0, q1, a=1.0, tol=1e-11, max_iterations=200):
    """Large-deviations rate at velocities inside the domain, by batched damped Newton.

    Maximizes ``theta . v - scgf(theta)`` for all points at once, with a
    closed-form 2x2 solve and per-point step halving.  Raises
    ``ArithmeticError`` if a point does not converge.
    """
    v = np.asarray(points, dtype=float).reshape(-1, 2)
    theta = np.zeros_like(v)
    lam, grad, hess = _scgf(theta, q0, q1, a)
    f = np.einsum("na,na->n", theta, v) - lam
    g = v - grad
    for _ in range(max_iterations):
        active = np.hypot(g[:, 0], g[:, 1]) > tol
        if not active.any():
            return f
        h = hess[active]
        ga = g[active]
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        step = np.stack(
            [h[:, 1, 1] * ga[:, 0] - h[:, 0, 1] * ga[:, 1],
             h[:, 0, 0] * ga[:, 1] - h[:, 1, 0] * ga[:, 0]],
            axis=1,
        ) / det[:, None]
        slope = np.einsum("na,na->n", ga, step)
        base = theta[active]
        fa = f[active]
        t = np.ones(len(base))
        pending = np.ones(len(base), dtype=bool)
        new_theta = base.copy()
        new_f = fa.copy()
        for _ in range(60):
            cand = base[pending] + t[pending, None] * step[pending]
            lam_c, _, _ = _scgf(cand, q0, q1, a)
            fc = np.einsum("na,na->n", cand, v[active][pending]) - lam_c
            floor = 1e-15 * (1.0 + np.abs(fa[pending]))
            ok = fc >= fa[pending] + 1e-4 * t[pending] * slope[pending] - floor
            idx = np.flatnonzero(pending)
            new_theta[idx[ok]] = cand[ok]
            new_f[idx[ok]] = fc[ok]
            pending[idx[ok]] = False
            if not pending.any():
                break
            t[pending] *= 0.5
        theta[active] = new_theta
        lam, grad, hess = _scgf(theta, q0, q1, a)
        f = np.einsum("na,na->n", theta, v) - lam
        g = v - grad
    if (np.hypot(g[:, 0], g[:, 1]) > 1e3 * tol).any():
        raise ArithmeticError("reference Newton solve did not converge")
    return f


def asymptotic_covariance(q0, q1, a=1.0):
    """Average of the two per-class single-step covariance matrices."""
    d = displacements(a)
    total = np.zeros((2, 2))
    for i, q in enumerate((q0, q1)):
        w = np.asarray(q, dtype=float)
        mean = w @ d[i]
        total += np.einsum("r,ra,rb->ab", w, d[i], d[i]) - np.outer(mean, mean)
    return 0.5 * total


def moderate_reference(points, q0, q1, a=1.0):
    """Quadratic rate 1/2 z^T C^-1 z for an invertible asymptotic covariance C."""
    z = np.asarray(points, dtype=float).reshape(-1, 2)
    solved = np.linalg.solve(asymptotic_covariance(q0, q1, a), z.T).T
    return 0.5 * np.einsum("na,na->n", z, solved)
