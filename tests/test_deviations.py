import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hexwalk import (
    InvalidParameterError,
    ModerateScale,
    StepProbabilities,
    cgf,
    cgf_gradient,
    cgf_hessian,
    empirical_decay,
    g,
    legendre,
    log_pgf,
    md_limit_check,
    moderate_rate,
    moments,
)
from hexwalk.lattice import step_displacement
from hexwalk.generating import asymptotic_covariance
from hexwalk.validation import PARAMETER_BATTERY

UNIFORM = StepProbabilities.uniform()
ZIGZAG = dict(PARAMETER_BATTERY)["no-middle"]
ZIGZAG_WIDE = StepProbabilities(ZIGZAG.q0, ZIGZAG.q1, a=1.7)
LAM_GRID = [(x, y) for x in (-2.0, -0.5, 0.0, 1.0) for y in (-1.5, 0.0, 0.5, 2.0)]


def step_mgf(i, lam1, lam2, q):
    """Independent oracle: plain expectation of exp(lam . step) per class."""
    total = 0.0
    for r in range(3):
        d = step_displacement(i, r, q.a)
        total += float(q.row(i)[r]) * math.exp(lam1 * d.x + lam2 * d.y)
    return total


def test_g_at_origin_is_one():
    for _, q in PARAMETER_BATTERY:
        for i in (0, 1):
            assert g(i, 0.0, 0.0, q) == pytest.approx(1.0, abs=1e-14)


def test_g_uniform_direct_substitution():
    # Direct substitution for i=0, lam=(1,0): both non-null exponents
    # are -3/2; for i=1 they are +3/2.
    expected0 = 1 / 3 + (2 / 3) * math.exp(-1.5)
    expected1 = 1 / 3 + (2 / 3) * math.exp(1.5)
    assert g(0, 1.0, 0.0, UNIFORM) == pytest.approx(expected0, rel=1e-14)
    assert g(1, 1.0, 0.0, UNIFORM) == pytest.approx(expected1, rel=1e-14)


def test_g_product_equals_two_step_mgf():
    # g0*g1 and the product of the two per-class step MGFs agree: the
    # per-step lattice offsets cancel over a class-0/class-1 step pair.
    for _, q in PARAMETER_BATTERY:
        for lam1, lam2 in LAM_GRID:
            lhs = g(0, lam1, lam2, q) * g(1, lam1, lam2, q)
            rhs = step_mgf(0, lam1, lam2, q) * step_mgf(1, lam1, lam2, q)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cgf_at_origin_is_zero():
    for _, q in PARAMETER_BATTERY:
        assert cgf(0.0, 0.0, q) == pytest.approx(0.0, abs=1e-14)


def test_cgf_uniform_cosh_form():
    a = 1.0
    r3 = math.sqrt(3.0)
    for lam1, lam2 in LAM_GRID:
        expected = 0.5 * math.log(
            1 / 3
            + (2 / 9)
            * (
                math.cosh(r3 * a * (0.5 * r3 * lam1 - 0.5 * lam2))
                + math.cosh(r3 * a * (0.5 * r3 * lam1 + 0.5 * lam2))
                + math.cosh(lam2 * r3 * a)
            )
        )
        assert cgf(lam1, lam2, UNIFORM) == pytest.approx(expected, abs=1e-12)


def test_cgf_gradient_at_origin_is_drift():
    for _, q in PARAMETER_BATTERY:
        grad = cgf_gradient(0.0, 0.0, q)
        drift = moments(2, q).drift
        assert grad == pytest.approx(drift, abs=1e-12)


def test_cgf_hessian_at_origin_is_covariance():
    for _, q in PARAMETER_BATTERY:
        hess = cgf_hessian(0.0, 0.0, q)
        c = asymptotic_covariance(q)
        assert np.allclose(hess, c, atol=1e-12)


def test_gradient_and_hessian_match_finite_differences():
    h = 1e-5
    for _, q in PARAMETER_BATTERY:
        for lam1, lam2 in [(-1.0, 0.5), (0.3, 0.7), (1.2, -0.4)]:
            grad = cgf_gradient(lam1, lam2, q)
            fd1 = (cgf(lam1 + h, lam2, q) - cgf(lam1 - h, lam2, q)) / (2 * h)
            fd2 = (cgf(lam1, lam2 + h, q) - cgf(lam1, lam2 - h, q)) / (2 * h)
            assert grad == pytest.approx((fd1, fd2), rel=1e-6, abs=1e-8)
            hess = cgf_hessian(lam1, lam2, q)
            g1p = cgf_gradient(lam1 + h, lam2, q)
            g1m = cgf_gradient(lam1 - h, lam2, q)
            g2p = cgf_gradient(lam1, lam2 + h, q)
            g2m = cgf_gradient(lam1, lam2 - h, q)
            fd_hess = np.column_stack([(g1p - g1m) / (2 * h), (g2p - g2m) / (2 * h)])
            assert np.allclose(hess, fd_hess, rtol=1e-6, atol=1e-8)


def test_cgf_midpoint_convexity():
    rng = np.random.default_rng(11)
    for _, q in PARAMETER_BATTERY:
        for _ in range(20):
            a_pt = rng.uniform(-3, 3, size=2)
            b_pt = rng.uniform(-3, 3, size=2)
            mid = 0.5 * (a_pt + b_pt)
            lhs = cgf(mid[0], mid[1], q)
            rhs = 0.5 * (cgf(*a_pt, q) + cgf(*b_pt, q))
            assert lhs <= rhs + 1e-12


def test_scaled_log_pgf_converges_to_cgf():
    # (1/n) log G(e^lam; n) equals the limit exactly at even n and
    # approaches it at odd n with an O(1/n) gap.
    lam1, lam2 = 0.8, -0.6
    limit = cgf(lam1, lam2, UNIFORM)
    for n in (10, 100, 200):
        assert log_pgf(lam1, lam2, n, UNIFORM) / n == pytest.approx(limit, abs=1e-12)
    gaps = []
    for n in (11, 51, 199):
        gaps.append(abs(log_pgf(lam1, lam2, n, UNIFORM) / n - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def velocity_corners(q):
    """Test-local corners of the velocity domain, each with its (r, s) step pair.

    Over a class-0 step r and a class-1 step s the lattice offsets cancel,
    so the two-step velocities are midpoints of ``step_displacement``s.  A
    corner is the unique maximiser of a linear functional over them, found
    by scanning directions one degree apart.
    """
    midpoints = {}
    for r, s in itertools.product(range(3), repeat=2):
        if q.q0[r] > 0 and q.q1[s] > 0:
            d0, d1 = step_displacement(0, r, q.a), step_displacement(1, s, q.a)
            midpoints[(0.5 * (d0.x + d1.x), 0.5 * (d0.y + d1.y))] = (r, s)
    corners = {}
    for degrees in range(360):
        u = (math.cos(math.radians(degrees)), math.sin(math.radians(degrees)))
        (best, p), *rest = sorted(((u[0] * x + u[1] * y, (x, y)) for x, y in midpoints), reverse=True)
        if not rest or best - rest[0][0] > 1e-9:
            corners[p] = midpoints[p]
    return corners


def domain_distances(corners, x, y):
    """Distances from (x, y) to the hull of ``corners`` (0 inside) and to its boundary."""
    cx = sum(p[0] for p in corners) / len(corners)
    cy = sum(p[1] for p in corners) / len(corners)
    ring = sorted(corners, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    edges = list(zip(ring, ring[1:] + ring[:1]))

    def to_segment(a, b):
        d = np.subtract(b, a)
        t = 0.0 if not d.any() else np.clip(np.dot(np.subtract((x, y), a), d) / np.dot(d, d), 0, 1)
        return float(np.hypot(*(np.subtract((x, y), a) - t * d)))

    boundary = min(to_segment(a, b) for a, b in edges)
    inside = len(ring) > 2 and all(
        (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) > 0 for a, b in edges
    )
    return (0.0 if inside else boundary), boundary


class TestLegendre:
    def test_zero_at_mean_velocity(self):
        for _, q in PARAMETER_BATTERY:
            drift = moments(2, q).drift
            r = legendre(drift[0], drift[1], q)
            assert r.finite
            assert r.value == pytest.approx(0.0, abs=1e-12)
            assert r.maximizer == pytest.approx((0.0, 0.0), abs=1e-6)

    def test_duality_recovers_velocity(self):
        rng = np.random.default_rng(3)
        tol = 1e-9
        for _ in range(50):
            lam = rng.uniform(-1.5, 1.5, size=2)
            z = cgf_gradient(lam[0], lam[1], UNIFORM)
            r = legendre(float(z[0]), float(z[1]), UNIFORM, tol)
            assert r.finite
            back = cgf_gradient(r.maximizer[0], r.maximizer[1], UNIFORM)
            assert np.linalg.norm(back - z) <= 10 * tol

    def test_value_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lam = rng.uniform(-1.0, 1.0, size=2)
            z = cgf_gradient(lam[0], lam[1], UNIFORM)
            r = legendre(float(z[0]), float(z[1]), UNIFORM)
            assert r.value >= -1e-12

    def test_grid_oracle_agreement(self):
        # Dense vectorized grid search over the dual plane, refined twice.
        def oracle(x, y, q):
            q00, q01, q02 = (float(p) for p in q.q0)
            q10, q11, q12 = (float(p) for p in q.q1)
            c, s = 1.5 * q.a, 0.5 * math.sqrt(3.0) * q.a

            def objective(l1, l2):
                e_a = -c * l1 + s * l2
                e_b = c * l1 + s * l2
                g0 = q00 + q01 * np.exp(e_a) + q02 * np.exp(-e_b)
                g1 = q10 + q11 * np.exp(-e_a) + q12 * np.exp(e_b)
                return x * l1 + y * l2 - 0.5 * np.log(g0 * g1)

            center, half, step_size = (0.0, 0.0), 20.0, 0.1
            best = -np.inf
            for _ in range(3):
                l1 = np.arange(center[0] - half, center[0] + half + step_size, step_size)
                l2 = np.arange(center[1] - half, center[1] + half + step_size, step_size)
                grid1, grid2 = np.meshgrid(l1, l2, indexing="ij")
                vals = objective(grid1, grid2)
                idx = np.unravel_index(np.argmax(vals), vals.shape)
                best = float(vals[idx])
                center = (float(grid1[idx]), float(grid2[idx]))
                half, step_size = 1.5 * step_size, step_size / 100.0
            return best

        for x, y in [(0.3, 0.0), (0.1, -0.2), (-0.25, 0.15)]:
            newton = legendre(x, y, UNIFORM, 1e-10)
            assert newton.value == pytest.approx(oracle(x, y, UNIFORM), abs=1e-6)

    def test_unreachable_velocity_flagged_infinite(self):
        r = legendre(10.0, 0.0, UNIFORM)
        assert not r.finite
        assert r.value == math.inf
        assert r.maximizer is None

    def test_domain_slack_stays_below_tolerance(self):
        # 5e-13 beyond the uniform hexagon's edge x = 3/4: within the
        # rounding slack at the default tolerance, but outside it when the
        # tolerance is too small for Newton to converge there.
        assert legendre(0.75 + 5e-13, 0.0, UNIFORM).finite
        r = legendre(0.75 + 5e-13, 0.0, UNIFORM, 1e-14)
        assert not r.finite
        assert r.iterations == 0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InvalidParameterError):
            legendre(0.0, 0.0, UNIFORM, 0.0)

    def test_line_confined_walk(self):
        # Increments live on one line through the origin: points on the
        # line get a finite rate, anything off it is unreachable.
        drift = np.array(moments(2, ZIGZAG).drift)
        on_line = 1.3 * drift
        r = legendre(float(on_line[0]), float(on_line[1]), ZIGZAG)
        assert r.finite
        assert r.value > 0
        off_line = on_line + np.array([-drift[1], drift[0]])
        r_off = legendre(float(off_line[0]), float(off_line[1]), ZIGZAG)
        assert not r_off.finite

    @pytest.mark.parametrize(
        "q", [q for _, q in PARAMETER_BATTERY] + [ZIGZAG_WIDE],
        ids=[name for name, _ in PARAMETER_BATTERY] + ["no-middle-a1.7"],
    )
    def test_value_at_domain_corners(self, q):
        # At a corner the tilted law concentrates on the one step pair
        # (r, s) whose velocity it is, so the rate is -log of that pair's
        # probability per step.
        corners = velocity_corners(q)
        assert len(corners) >= 2
        for (x, y), (r, s) in corners.items():
            result = legendre(x, y, q)
            expected = -0.5 * (math.log(q.q0[r]) + math.log(q.q1[s]))
            assert result.finite, (x, y)
            assert result.value == pytest.approx(expected, abs=1e-8)


class TestModerateRate:
    def test_zero_point(self):
        assert moderate_rate(0.0, 0.0, UNIFORM).value == pytest.approx(0.0, abs=1e-15)

    def test_uniform_closed_form(self):
        for x, y in [(1.0, 1.0), (0.25, -0.7), (-2.0, 0.5)]:
            r = moderate_rate(x, y, UNIFORM)
            assert r.finite
            assert r.value == pytest.approx(x * x + y * y, rel=1e-12)
            assert r.maximizer == pytest.approx((2 * x, 2 * y), rel=1e-12)

    def test_quadratic_grid_oracle(self):
        q = dict(PARAMETER_BATTERY)["asymmetric"]
        c = asymptotic_covariance(q)
        x, y = 0.4, -0.3

        def oracle():
            lam = np.linspace(-40, 40, 2001)
            l1, l2 = np.meshgrid(lam, lam, indexing="ij")
            vals = (
                x * l1
                + y * l2
                - 0.5 * (c[0, 0] * l1 * l1 + 2 * c[0, 1] * l1 * l2 + c[1, 1] * l2 * l2)
            )
            return float(vals.max())

        assert moderate_rate(x, y, q).value == pytest.approx(oracle(), abs=1e-4)
        expected = 0.5 * float(np.array([x, y]) @ np.linalg.solve(c, [x, y]))
        assert moderate_rate(x, y, q).value == pytest.approx(expected, rel=1e-12)

    def test_zero_covariance_walk(self):
        q = StepProbabilities(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
        )
        assert moderate_rate(0.0, 0.0, q).value == 0.0
        r = moderate_rate(0.5, 0.0, q)
        assert not r.finite and r.value == math.inf

    def test_rank_one_covariance(self):
        c = asymptotic_covariance(ZIGZAG)
        eigvals, eigvecs = np.linalg.eigh(c)
        direction = eigvecs[:, int(np.argmax(eigvals))]
        z = 0.3 * direction
        r = moderate_rate(float(z[0]), float(z[1]), ZIGZAG)
        assert r.finite
        assert "singular" in r.note
        assert r.value == pytest.approx(0.5 * 0.09 / eigvals.max(), rel=1e-9)
        off = 0.3 * eigvecs[:, int(np.argmin(eigvals))]
        assert not moderate_rate(float(off[0]), float(off[1]), ZIGZAG).finite


class TestModerateScaling:
    def test_scale_validation(self):
        with pytest.raises(InvalidParameterError):
            ModerateScale(0.0)
        with pytest.raises(InvalidParameterError):
            ModerateScale(1.0)
        assert ModerateScale(0.5).a(4) == pytest.approx(0.5)

    def test_zero_lambda_gap_vanishes(self):
        report = md_limit_check(UNIFORM, [100], ModerateScale(0.5), [(0.0, 0.0)])
        assert report.entries[0].max_gap == pytest.approx(0.0, abs=1e-12)

    def test_gaps_decay(self):
        report = md_limit_check(UNIFORM, [100, 1000, 10000], ModerateScale(0.5))
        gaps = report.gaps()
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5 * 10000 ** (-0.25)

    def test_unit_scale_variant(self):
        report = md_limit_check(UNIFORM, [100, 1000, 10000], None)
        assert report.unit_scale
        gaps = report.gaps()
        assert gaps[0] > gaps[1] > gaps[2]

    def test_calibrated_envelope_at_unit_lambda(self):
        # gamma = 1/2, lam = (1, 1): the quadratic target is 1/2 and the
        # gap is within the calibrated 5 * n^(-gamma/2) envelope.
        scale = ModerateScale(0.5)
        for n in (100, 10000):
            report = md_limit_check(UNIFORM, [n], scale, [(1.0, 1.0)])
            assert report.entries[0].max_gap <= 5 * n ** (-0.25)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidParameterError):
            md_limit_check(UNIFORM, [0], ModerateScale(0.5))


class TestEmpiricalDecay:
    def test_halfplane_through_mean(self):
        report = empirical_decay(UNIFORM, (1.0, 0.0), 0.0, [10, 20, 40])
        assert report.infimum == 0.0
        rates = report.rates()
        assert rates[0] > rates[1] > rates[2] > 0
        assert rates[-1] < 0.1

    def test_monotone_approach_uniform(self):
        report = empirical_decay(UNIFORM, (1.0, 0.0), 0.3, [20, 40, 80])
        rates = report.rates()
        assert all(r > report.infimum for r in rates)
        assert rates[0] > rates[1] > rates[2]
        gaps = [e.gap for e in report.entries]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_zigzag_matches_scalar_cramer_oracle(self):
        # Projected onto its free direction the walk is an alternating
        # two-value chain; its conjugate from a dense scalar grid is an
        # independent check on the 2-D machinery.
        e = np.array([math.sqrt(3) / 2, 0.5])
        h = math.sqrt(3) / 2
        q00, _, q02 = (float(p) for p in ZIGZAG.q0)
        q10, _, q12 = (float(p) for p in ZIGZAG.q1)
        c = 0.4

        theta = np.linspace(-30, 30, 600001)
        log_mgf = 0.5 * np.log(
            (q00 * np.exp(theta * h) + q02 * np.exp(-theta * h))
            * (q10 * np.exp(-theta * h) + q12 * np.exp(theta * h))
        )
        oracle = float((theta * c - log_mgf).max())

        report = empirical_decay(ZIGZAG, (float(e[0]), float(e[1])), c, [50, 100, 200])
        assert report.infimum == pytest.approx(oracle, abs=1e-3)
        rates = report.rates()
        assert rates[0] > rates[1] > rates[2] > report.infimum

    def test_rejects_zero_normal(self):
        with pytest.raises(InvalidParameterError):
            empirical_decay(UNIFORM, (0.0, 0.0), 0.3, [10])


def test_scaled_log_pgf_identity_nonunit_edge():
    # At even times the factorization is exact for any edge length.
    q = StepProbabilities((0.5, 0.25, 0.25), (0.2, 0.3, 0.5), a=2.0)
    for lam1, lam2 in [(0.4, -0.3), (-0.2, 0.6)]:
        limit = cgf(lam1, lam2, q)
        for n in (8, 50):
            assert log_pgf(lam1, lam2, n, q) / n == pytest.approx(limit, abs=1e-12)


def test_empirical_decay_float_mode_tracks_exact():
    exact = empirical_decay(UNIFORM, (1.0, 0.0), 0.3, [40])
    approx = empirical_decay(UNIFORM.as_float(), (1.0, 0.0), 0.3, [40])
    assert approx.rates()[0] == pytest.approx(exact.rates()[0], rel=1e-10)


def test_legendre_never_stalls_on_velocity_sweep():
    # Every point converges or is flagged infinite, and the verdict is the
    # test-local domain's, except within 1e-9 of its boundary.
    for _, q in PARAMETER_BATTERY:
        corners = velocity_corners(q)
        for x in np.linspace(-1.2, 1.2, 9):
            for y in np.linspace(-1.2, 1.2, 9):
                r = legendre(float(x), float(y), q)
                outside, boundary = domain_distances(corners, float(x), float(y))
                if boundary > 1e-9:
                    assert r.finite == (outside == 0.0), (x, y)
                if r.finite:
                    assert r.value >= -1e-12
                else:
                    assert r.value == math.inf
    # A point on an edge of the uniform walk's hexagon stays finite.
    assert legendre(0.75, 0.0, UNIFORM).value == 0.7520386978169888
