import math
from fractions import Fraction

import numpy as np
import pytest

from hexwalk import (
    InvalidParameterError,
    ResourceLimitError,
    StepProbabilities,
    clt_diagnostic,
    donsker_diagnostic,
    evolve,
    sample_endpoint,
    sample_endpoints,
    scaled_lattice_process,
)
from hexwalk import montecarlo
from hexwalk.lattice import step_displacement
from hexwalk.generating import asymptotic_covariance

UNIFORM = StepProbabilities.uniform()
RIGHT_ONLY = StepProbabilities(
    (Fraction(1), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))
)


class TestSingleTrajectory:
    def test_zero_steps(self):
        s = sample_endpoint(0, UNIFORM, seed=1)
        assert (s.endpoint.x, s.endpoint.y) == (0.0, 0.0)

    def test_forced_first_step(self):
        s = sample_endpoint(1, RIGHT_ONLY, seed=5)
        assert (s.endpoint.x, s.endpoint.y) == (1.0, 0.0)

    def test_path_invariants(self):
        s = sample_endpoint(40, UNIFORM, seed=9, with_path=True)
        assert len(s.path) == 41
        assert tuple(s.path[0]) == (0.0, 0.0)
        assert tuple(s.path[-1]) == (s.endpoint.x, s.endpoint.y)
        valid = set()
        for i in (0, 1):
            for r in range(3):
                d = step_displacement(i, r, UNIFORM.a)
                valid.add((round(d.x, 12), round(d.y, 12)))
        for p0, p1 in zip(s.path, s.path[1:]):
            dx, dy = p1[0] - p0[0], p1[1] - p0[1]
            assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-12)
            assert (round(dx, 12), round(dy, 12)) in valid

    def test_reproducible(self):
        a = sample_endpoint(100, UNIFORM, seed=123, with_path=True)
        b = sample_endpoint(100, UNIFORM, seed=123, with_path=True)
        assert (a.steps, a.endpoint, a.seed, a.replica) == (b.steps, b.endpoint, b.seed, b.replica)
        assert np.array_equal(a.path.view(np.int64), b.path.view(np.int64))

    def test_seed_changes_sample(self):
        a = sample_endpoint(100, UNIFORM, seed=1)
        b = sample_endpoint(100, UNIFORM, seed=2)
        assert (a.endpoint.x, a.endpoint.y) != (b.endpoint.x, b.endpoint.y)

class TestEndpointBatches:
    def test_deterministic(self):
        a = sample_endpoints(50, UNIFORM, 5000, seed=7)
        b = sample_endpoints(50, UNIFORM, 5000, seed=7)
        assert np.array_equal(a, b)

    def test_chunk_boundary(self):
        n = montecarlo.CHUNK + 17
        xy = sample_endpoints(6, UNIFORM, n, seed=3)
        assert xy.shape == (n, 2)

    def test_forced_walk_endpoint(self):
        xy = sample_endpoints(2, RIGHT_ONLY, 10, seed=0)
        # One step right, one step back: all replicas return to origin.
        assert np.allclose(xy, 0.0)

    def test_empirical_mean_near_drift(self):
        n, reps = 1000, 100_000
        xy = sample_endpoints(n, UNIFORM, reps, seed=21)
        budget = 3.0 * math.sqrt(0.5 * n / reps)
        assert abs(xy[:, 0].mean()) <= budget
        assert abs(xy[:, 1].mean()) <= budget

    def test_empirical_matches_exact_distribution(self):
        # Every state at n=6 within 4 standard errors, one million replicas.
        n, reps = 6, 1_000_000
        jk = montecarlo.sample_endpoint_indices(n, UNIFORM, reps, seed=99)
        exact = evolve(UNIFORM, n)
        values, counts_arr = np.unique(jk, axis=0, return_counts=True)
        observed = {tuple(v): int(c) for v, c in zip(values, counts_arr)}
        assert set(observed) == exact.support()
        for jk_state, p in exact.mass.items():
            p = float(p)
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(observed[jk_state] / reps - p) <= 4 * se

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            sample_endpoints(-1, UNIFORM, 10, seed=0)
        with pytest.raises(InvalidParameterError):
            sample_endpoints(5, UNIFORM, 0, seed=0)

class TestCltDiagnostic:
    def test_uniform_moderate_size(self):
        report = clt_diagnostic(500, 20_000, UNIFORM, seed=17)
        assert not report.singular
        assert report.frobenius_rel_error < 0.05
        for p, err in report.coverage_error.items():
            assert err < 0.015

    def test_deterministic_walk_skips_covariance(self):
        report = clt_diagnostic(100, 2000, RIGHT_ONLY, seed=1)
        assert report.singular
        assert report.frobenius_rel_error is None
        assert report.coverage == {}
        # Centered samples are identically zero.
        emp = np.array(report.empirical_cov)
        assert np.allclose(emp, 0.0)

    def test_replica_floor(self):
        with pytest.raises(InvalidParameterError):
            clt_diagnostic(100, 999, UNIFORM, seed=0)

    def test_report_serializes(self):
        report = clt_diagnostic(100, 2000, UNIFORM, seed=2)
        d = report.as_dict()
        assert d["n"] == 100 and d["replicas"] == 2000

class TestScaledProcess:
    def test_identity_block_size(self):
        path = scaled_lattice_process(1, 5.0, UNIFORM, seed=4)
        assert path.time_grid == (0, 1, 2, 3, 4, 5)
        assert np.allclose(path.values[0], 0.0)
        for t in range(1, 6):
            inc = path.values[t] - path.values[t - 1]
            candidates = [
                step_displacement((t - 1) % 2, r, 1.0) for r in range(3)
            ]
            assert any(
                np.allclose(inc, (c.x, c.y), atol=1e-12) for c in candidates
            )

    def test_starts_at_origin(self):
        path = scaled_lattice_process(400, 3.5, UNIFORM, seed=8)
        assert np.allclose(path.values[0], 0.0)
        assert path.time_grid == (0, 1, 2, 3)

    def test_batch_covariance_scales_linearly(self):
        k, t, reps = 400, 3, 10_000
        values = sample_endpoints(t * k, UNIFORM, reps, seed=33) / math.sqrt(k)
        cov = np.cov(values, rowvar=False)
        target = t * asymptotic_covariance(UNIFORM)
        assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            scaled_lattice_process(0, 5.0, UNIFORM, seed=0)
        with pytest.raises(InvalidParameterError):
            scaled_lattice_process(3, 0.0, UNIFORM, seed=0)

class TestDonskerDiagnostic:
    def test_uniform_moderate_size(self):
        report = donsker_diagnostic(1000, 20_000, UNIFORM, seed=12)
        assert report.whitened
        for stat in report.intervals:
            assert stat.frobenius_rel_error < 0.10
        assert report.max_cross_sigmas < 4.0

    def test_requires_long_walk(self):
        with pytest.raises(InvalidParameterError):
            donsker_diagnostic(99, 2000, UNIFORM, seed=0)

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            donsker_diagnostic(1000, 2000, UNIFORM, seed=0, grid=(0.5, 0.25))

    def test_singular_covariance_skips_whitening(self):
        report = donsker_diagnostic(200, 2000, RIGHT_ONLY, seed=1)
        assert not report.whitened
        assert "whitening" in report.note

    def test_report_serializes(self):
        report = donsker_diagnostic(400, 2000, UNIFORM, seed=3)
        d = report.as_dict()
        assert len(d["intervals"]) == 4

class TestCovarianceFactor:
    def test_lower_triangular_square_root(self):
        c = asymptotic_covariance(
            StepProbabilities((0.5, 0.25, 0.25), (0.2, 0.3, 0.5))
        )
        d, triangular = montecarlo.covariance_factor(c)
        assert triangular
        assert d[0, 1] == 0.0
        assert np.allclose(d.T @ d, c, atol=1e-14)

    def test_eigen_fallback_when_singular(self):
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        d, triangular = montecarlo.covariance_factor(c)
        assert not triangular
        assert np.allclose(d.T @ d, c, atol=1e-14)


class TestCaps:
    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran")

    def test_clt_replicas_refused(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_generator", self.refuse)
        with pytest.raises(ResourceLimitError, match="cap"):
            clt_diagnostic(100, montecarlo.MAX_REPLICAS + 1, UNIFORM, seed=0)

    def test_donsker_replicas_times_spans_refused(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_generator", self.refuse)
        # Four spans on the default grid: under the cap in replicas, over it in increments.
        replicas = montecarlo.MAX_REPLICAS // 4 + 1
        with pytest.raises(ResourceLimitError, match="cap"):
            donsker_diagnostic(1000, replicas, UNIFORM, seed=0)


def test_chunk_streams_are_schedule_independent():
    # Generating the chunks in any order reproduces the sequential
    # batch bit for bit, which is what makes parallel replica
    # generation safe.
    n, reps, seed = 20, 3 * montecarlo.CHUNK + 123, 77
    sequential = montecarlo.sample_endpoint_indices(n, UNIFORM, reps, seed)
    m0, m1 = (n + 1) // 2, n // 2
    p = np.array([1 / 3] * 3)
    p = p / p.sum()
    out = np.empty_like(sequential)
    chunk_count = (reps + montecarlo.CHUNK - 1) // montecarlo.CHUNK
    for chunk in reversed(range(chunk_count)):
        gen = montecarlo._chunk_generator(seed, chunk)
        lo = chunk * montecarlo.CHUNK
        size = min(montecarlo.CHUNK, reps - lo)
        c0 = gen.multinomial(m0, p, size=size)
        c1 = gen.multinomial(m1, p, size=size)
        out[lo : lo + size, 0] = -c0[:, 1] - c0[:, 2] + c1[:, 1] + c1[:, 2]
        out[lo : lo + size, 1] = c0[:, 1] - c1[:, 1]
    assert np.array_equal(out, sequential)
