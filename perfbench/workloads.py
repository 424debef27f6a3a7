"""The three workloads: inputs drawn from the seed, the timed operations and their checks.

Each workload is a fixed list of four operations run in one pass.  An
operation has a timed ``run``, an untimed ``collect`` that summarises
what the pass produced, and a ``check`` that compares that summary with
an independent reference.  References are computed once per process and
cached; nothing in a check is timed.
"""

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("exact-oracle", "float-sample", "rate-surface")

#: Rows of three tenths summing to one, each between 2/10 and 5/10 and at
#: least one odd, so every drawn row has denominator exactly 10.  Every
#: seed then gets the same velocity domain and exact big integers of the
#: same size, and no row is so skewed that its walk is much cheaper to
#: evolve or sample than the others.
ROWS = tuple(
    (a, b, 10 - a - b)
    for a in range(2, 6)
    for b in range(2, 6)
    if 2 <= 10 - a - b <= 5 and any(x % 2 for x in (a, b, 10 - a - b))
)


@dataclass(frozen=True)
class Sizes:
    exact_n: int
    normalize_n: int
    closed_n: int
    validate_m: int
    float_n: int
    float_states: int
    sample_n: int
    replicas: int
    paths_n: int
    paths_replicas: int
    clt: tuple
    donsker: tuple
    wide: str
    interior: str
    points: int
    moderate: str


#: Each operation takes at most about 1.5 s, so a run times every one of
#: them many times and reports medians; see DESIGN.md for the sizes the
#: issue named and why these are smaller.
FULL = Sizes(
    exact_n=100, normalize_n=60, closed_n=36, validate_m=4,
    float_n=100, float_states=10, sample_n=1000, replicas=2 * 10**5,
    paths_n=1000, paths_replicas=50, clt=(1000, 4 * 10**5), donsker=(1000, 10**5),
    wide="-3:3:31,-3:3:31", interior="-0.7:0.7:21,-0.7:0.7:21",
    points=1000, moderate="-3:3:61,-3:3:61",
)

#: Small enough for the self-test; odd step counts exercise the odd-time paths.
TINY = Sizes(
    exact_n=9, normalize_n=7, closed_n=7, validate_m=1,
    float_n=11, float_states=3, sample_n=21, replicas=5000,
    paths_n=15, paths_replicas=4, clt=(1000, 200_000), donsker=(1000, 50_000),
    wide="-3:3:7,-3:3:7", interior="-0.7:0.7:5,-0.7:0.7:5",
    points=20, moderate="-3:3:7,-3:3:7",
)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload passes to the program, drawn from one seed."""

    w0: tuple
    w1: tuple
    mc_seed: int
    points: tuple

    def fraction_flags(self):
        return ["--q0", ",".join(f"{w}/10" for w in self.w0),
                "--q1", ",".join(f"{w}/10" for w in self.w1)]

    def decimal_flags(self):
        return ["--q0", ",".join(f"0.{w}" for w in self.w0),
                "--q1", ",".join(f"0.{w}" for w in self.w1)]

    @property
    def q0(self):
        return tuple(w / 10 for w in self.w0)

    @property
    def q1(self):
        return tuple(w / 10 for w in self.w1)


def draw_inputs(seed, sizes=FULL):
    rng = random.Random(seed)
    w0 = rng.choice(ROWS)
    w1 = rng.choice(ROWS)
    mc_seed = rng.randrange(1 << 32)
    points = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(sizes.points))
    return Inputs(w0, w1, mc_seed, points)


@dataclass
class Op:
    """One timed operation; ``name`` is the end-to-end metric it reports."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, object], list]
    collect: Callable[[object], object] = lambda out: out


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build(workload, inputs, workdir, sizes=FULL):
    """The operation list of ``workload``, writing its files under ``workdir``."""
    from hexwalk import cli, deviations, engine, montecarlo
    from hexwalk.lattice import StepProbabilities

    q_exact = StepProbabilities(
        tuple(Fraction(w, 10) for w in inputs.w0), tuple(Fraction(w, 10) for w in inputs.w1)
    )
    q_float = StepProbabilities(inputs.q0, inputs.q1)

    def cli_op(name, argv, content_check, rerun=False):
        """A CLI command; with ``rerun``, a lone first run is compared with an untimed rerun."""
        out = str(workdir / f"{name}.out")
        content = _cached_by_sha(content_check)
        reruns = {}

        def collect(code):
            return {"exit": code, "sha": sha256(out), "path": out}

        def reference_sha(result, first):
            if result is not first or not rerun:
                return first["sha"]
            if "sha" not in reruns:
                again = str(workdir / f"{name}.rerun")
                reruns["sha"] = sha256(again) if cli.main(argv + ["--out", again]) == 0 else None
            return reruns["sha"]

        def check(result, first):
            problems = [] if result["exit"] == 0 else [f"exit code {result['exit']}"]
            if result["sha"] != reference_sha(result, first):
                problems.append("output bytes differ on a rerun with the same flags")
            return problems + content(result["sha"], result["path"])

        # cli.main is looked up at call time, so the traced pass sees its wrapper.
        return Op(name, lambda: cli.main(argv + ["--out", out]), check, collect)

    ops = {
        "exact-oracle": lambda: [
            cli_op("dist_exact_s", ["dist", *inputs.fraction_flags(), "--n", str(sizes.exact_n)],
                   lambda path: check_exact_csv(path, inputs, sizes.exact_n)),
            Op("normalize_exact_s",
               lambda: [d.total() == 1 for d in engine.iterate(q_exact, sizes.normalize_n)],
               lambda r, _: [] if len(r) == sizes.normalize_n + 1 and all(r)
               else ["a snapshot's total mass is not exactly 1"]),
            cli_op("closed_form_s",
                   ["dist", *inputs.fraction_flags(), "--n", str(sizes.closed_n),
                    "--engine", "closed-form"],
                   lambda path: check_closed_form(path, inputs, sizes.closed_n, workdir, cli)),
            cli_op("validate_s", ["validate", "--m", str(sizes.validate_m)], check_validate),
        ],
        "float-sample": lambda: [
            cli_op("dist_float_s", ["dist", *inputs.decimal_flags(), "--n", str(sizes.float_n)],
                   lambda path: check_float_csv(path, inputs, sizes, q_exact, q_float)),
            cli_op("sample_endpoints_s",
                   ["sample", *inputs.decimal_flags(), "--n", str(sizes.sample_n),
                    "--replicas", str(sizes.replicas), "--seed", str(inputs.mc_seed)],
                   lambda path: check_endpoints(path, sizes, q_float)),
            cli_op("sample_paths_s",
                   ["sample", *inputs.decimal_flags(), "--n", str(sizes.paths_n),
                    "--replicas", str(sizes.paths_replicas), "--seed", str(inputs.mc_seed), "--paths"],
                   lambda path: check_paths(path, sizes), rerun=True),
            Op("mc_diagnostics_s",
               lambda: (montecarlo.clt_diagnostic(*sizes.clt, q_float, inputs.mc_seed),
                        montecarlo.donsker_diagnostic(*sizes.donsker, q_float, inputs.mc_seed)),
               lambda r, _: check_mc(*r)),
        ],
        "rate-surface": lambda: [
            cli_op("rate_grid_wide_s",
                   ["rate", *inputs.decimal_flags(), f"--grid={sizes.wide}"],
                   lambda path: check_rate_grid(path, inputs)),
            cli_op("rate_grid_interior_s",
                   ["rate", *inputs.decimal_flags(), f"--grid={sizes.interior}"],
                   lambda path: check_rate_grid(path, inputs)),
            Op("rate_points_s", lambda: scalar_rates(deviations, inputs.points, q_float),
               lambda r, _: check_scalar_rates(r, inputs)),
            cli_op("rate_grid_moderate_s",
                   ["rate", *inputs.decimal_flags(), "--mode", "moderate",
                    f"--grid={sizes.moderate}"],
                   lambda path: check_moderate_grid(path, inputs)),
        ],
    }
    return ops[workload]()


def _cached_by_sha(check):
    """Run a content check once per distinct output."""
    cache = {}

    def content(sha, path):
        if sha not in cache:
            cache[sha] = check(path)
        return cache[sha]

    return content


def scalar_rates(deviations, points, q):
    """Scalar ``legendre`` calls with their individual latencies in seconds."""
    results, latencies = [], []
    for x, y in points:
        t0 = time.perf_counter()
        results.append(deviations.legendre(x, y, q))
        latencies.append(time.perf_counter() - t0)
    return results, latencies


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def check_exact_csv(path, inputs, n):
    numerators, den = oracles.exact_numerators(inputs.w0, inputs.w1, n)
    expected = hashlib.sha256(oracles.distribution_csv(numerators, den).encode()).hexdigest()
    return [] if sha256(path) == expected else ["exact CSV differs from the integer reference"]


def check_closed_form(path, inputs, n, workdir, cli):
    reference = str(workdir / "closed_form_reference.csv")
    code = cli.main(["dist", *inputs.fraction_flags(), "--n", str(n), "--out", reference])
    if code != 0 or sha256(reference) != sha256(path):
        return ["closed-form CSV differs from the engine's CSV"]
    return []


def check_validate(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return [] if report.get("passed") is True else ["validate reported passed != true"]


def read_csv(path, columns):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2)


def check_float_csv(path, inputs, sizes, q_exact, q_float):
    from hexwalk import closedform, generating

    n = sizes.float_n
    data = read_csv(path, (0, 1, 2))
    j, k, p = data[:, 0].astype(int), data[:, 1].astype(int), data[:, 2]
    problems = []
    if abs(math.fsum(p) - 1.0) > 1e-12:
        problems.append(f"float total mass {math.fsum(p)!r} is not within 1e-12 of 1")
    if not oracles.reachable(j, k, n).all():
        problems.append("float distribution has mass on an unreachable state")
    x, y = oracles.to_cartesian(j, k, n)
    ex, ey = math.fsum(p * x), math.fsum(p * y)
    observed = (ex, ey, math.fsum(p * (x - ex) ** 2), math.fsum(p * (y - ey) ** 2),
                math.fsum(p * (x - ex) * (y - ey)))
    m = generating.moments(n, q_float)
    analytic = (*m.mean, *m.variance, m.covariance)
    worst = max(abs(a - o) / (1.0 + abs(a)) for a, o in zip(analytic, observed))
    if worst > 1e-10:
        problems.append(f"float moments differ from generating.moments by {worst:.3g} relative")
    rng = random.Random(inputs.mc_seed)
    for row in rng.sample(range(len(p)), min(sizes.float_states, len(p))):
        exact = closedform.state_probability(int(j[row]), int(k[row]), n, q_exact)
        if abs(p[row] - float(exact)) > 1e-12:
            problems.append(f"state ({j[row]}, {k[row]}) differs from the exact closed form")
    return problems


def _lattice_sites(x, y, n, a=1.0):
    """Index states of Cartesian points, and whether each point sits on its site."""
    i = n & 1
    j = np.rint((x - i * a) / (1.5 * a)).astype(np.int64)
    k = np.rint((y - 0.5 * oracles.ROOT3 * a * j) / (oracles.ROOT3 * a)).astype(np.int64)
    sx, sy = oracles.to_cartesian(j, k, n, a)
    on_site = (np.abs(sx - x) <= 1e-9 * (1 + np.abs(x))) & (np.abs(sy - y) <= 1e-9 * (1 + np.abs(y)))
    return j, k, on_site


def check_endpoints(path, sizes, q):
    from hexwalk import generating

    n = sizes.sample_n
    xy = read_csv(path, (1, 2))
    problems = []
    if len(xy) != sizes.replicas:
        return [f"{len(xy)} endpoint rows, expected {sizes.replicas}"]
    j, k, on_site = _lattice_sites(xy[:, 0], xy[:, 1], n)
    if not (on_site & oracles.reachable(j, k, n)).all():
        problems.append("an endpoint is not a reachable lattice site")
    m = generating.moments(n, q)
    mean = xy.mean(axis=0)
    centred = xy - mean
    se_mean = centred.std(axis=0, ddof=1) / math.sqrt(len(xy))
    if (np.abs(mean - np.array(m.mean)) > 5 * se_mean).any():
        problems.append("endpoint mean is more than 5 standard errors from generating.moments")
    products = np.stack([centred[:, 0] ** 2, centred[:, 1] ** 2, centred[:, 0] * centred[:, 1]], 1)
    cov = products.sum(axis=0) / (len(xy) - 1)
    se_cov = products.std(axis=0, ddof=1) / math.sqrt(len(xy))
    expected = np.array([*m.variance, m.covariance])
    if (np.abs(cov - expected) > 5 * se_cov).any():
        problems.append("endpoint covariance is more than 5 standard errors from generating.moments")
    return problems


def check_paths(path, sizes):
    data = read_csv(path, (0, 1, 2, 3))
    n, replicas = sizes.paths_n, sizes.paths_replicas
    if len(data) != replicas * (n + 1):
        return [f"{len(data)} path rows, expected {replicas * (n + 1)}"]
    data = data.reshape(replicas, n + 1, 4)
    problems = []
    if (data[:, :, 0] != np.arange(replicas)[:, None]).any() or (data[:, :, 1] != np.arange(n + 1)).any():
        problems.append("path rows are not n+1 consecutive steps per replica")
    if (data[:, 0, 2:] != 0).any():
        problems.append("a path does not start at the origin")
    steps = np.hypot(*np.diff(data[:, :, 2:], axis=1).transpose(2, 0, 1))
    if (np.abs(steps - 1.0) > 1e-9).any():
        problems.append("a path step is not one edge length")
    return problems


#: Points this close to the domain boundary are exempt from the verdict check.
BOUNDARY_SLACK = 1e-9


def _check_rates(x, y, finite, values, inputs):
    points = np.column_stack([x, y])
    excess = oracles.domain_excess(points, oracles.velocity_domain(inputs.q0, inputs.q1))
    decided = np.abs(excess) > BOUNDARY_SLACK
    problems = []
    wrong = int((decided & (finite != (excess <= 0))).sum())
    if wrong:
        problems.append(f"{wrong} finite/infinite verdicts disagree with the analytic domain")
    inside = decided & (excess < 0) & finite
    if inside.any():
        reference = oracles.rate_reference(points[inside], inputs.q0, inputs.q1)
        worst = float(np.abs(values[inside] - reference).max())
        if worst > 1e-8:
            problems.append(f"finite rate values differ from the reference by {worst:.3g}")
    return problems


def _read_grid(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header != "x,y,rate,finite":
        raise ValueError(f"unexpected rate grid header {header!r}")
    return rows


def check_rate_grid(path, inputs):
    rows = _read_grid(path)
    errors = sum(r[3] == "error" for r in rows)
    if errors:
        return [f"{errors} grid rows report a numerical error"]
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    finite = np.array([r[3] == "true" for r in rows])
    values = np.array([float(r[2]) for r in rows])
    return _check_rates(x, y, finite, values, inputs)


def check_scalar_rates(result, inputs):
    results, _ = result
    x = np.array([p[0] for p in inputs.points])
    y = np.array([p[1] for p in inputs.points])
    finite = np.array([r.finite for r in results])
    values = np.array([r.value for r in results])
    return _check_rates(x, y, finite, values, inputs)


def check_moderate_grid(path, inputs):
    rows = _read_grid(path)
    if any(r[3] != "true" for r in rows):
        return ["a moderate-deviations rate is not finite"]
    points = np.array([[float(r[0]), float(r[1])] for r in rows])
    values = np.array([float(r[2]) for r in rows])
    reference = oracles.moderate_reference(points, inputs.q0, inputs.q1)
    worst = float((np.abs(values - reference) / np.maximum(1.0, np.abs(reference))).max())
    return [] if worst <= 1e-9 else [f"moderate rates differ from 1/2 z'C^-1 z by {worst:.3g}"]


#: Acceptance tolerances for the Gaussian diagnostics.  The cross-covariance
#: bound is 5 standard errors rather than the acceptance test's 3: the
#: acceptance test uses one fixed seed, while this check runs at every
#: workload seed, where 3 sigmas over four entries fails about 1% of
#: independent runs by chance; 5 sigmas fails about 2e-6 of them.
CLT_FROBENIUS = 0.05
CLT_COVERAGE = 0.01
DONSKER_FROBENIUS = 0.05
DONSKER_CROSS_SIGMAS = 5.0


def check_mc(clt, donsker):
    problems = []
    if clt.frobenius_rel_error is None or clt.frobenius_rel_error >= CLT_FROBENIUS:
        problems.append(f"CLT covariance error {clt.frobenius_rel_error}")
    if not clt.coverage or max(clt.coverage_error.values()) > CLT_COVERAGE:
        problems.append(f"CLT coverage error {clt.coverage_error}")
    if any(s.frobenius_rel_error is None or s.frobenius_rel_error >= DONSKER_FROBENIUS
           for s in donsker.intervals):
        problems.append("Donsker increment covariance error")
    if donsker.max_cross_sigmas is None or donsker.max_cross_sigmas >= DONSKER_CROSS_SIGMAS:
        problems.append(f"Donsker cross-covariance at {donsker.max_cross_sigmas} sigmas")
    return problems
