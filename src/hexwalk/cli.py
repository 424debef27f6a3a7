"""Command-line front-end.

Subcommands: ``dist`` (exact or closed-form distributions), ``moments``,
``sample`` (Monte Carlo endpoints or paths), ``rate`` (large/moderate
deviation rate points and surfaces) and ``validate`` (the cross-check
battery).  Every command is deterministic given its full flag set.

Exit codes: 0 success, 1 validation failure, 2 bad configuration,
3 numerical failure.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import closedform, deviations, engine, montecarlo, validation
from .errors import (
    HexwalkError,
    InvalidParameterError,
    NumericalFailureError,
    ResourceLimitError,
)
from .lattice import StepProbabilities
from .generating import moments as compute_moments

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3

# Work caps, from the measured cost on one core.  A path step costs about
# 0.3 us and writes one line of about 33 bytes, so 10^6 steps take about
# 0.3 s and write 33 MB.  A rate point inside the velocity domain costs
# about 0.2 ms (Newton) and one outside it 10-20 us, so 10^5 points take
# at most about 20 s.
MAX_PATH_STEPS = 1_000_000
MAX_GRID_POINTS = 100_000


def _parse_probability(text: str):
    """Decimal strings become floats; fraction strings stay exact."""
    text = text.strip()
    try:
        return Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"not a probability: {text!r}") from exc


def _parse_row(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected three comma-separated values, got {text!r}")
    return tuple(_parse_probability(p) for p in parts)


def _model_from_args(args) -> StepProbabilities:
    if args.uniform:
        if args.q0 or args.q1:
            raise InvalidParameterError("--uniform conflicts with --q0/--q1")
        return StepProbabilities.uniform(a=args.a)
    if not (args.q0 and args.q1):
        raise InvalidParameterError("provide --uniform or both --q0 and --q1")
    return StepProbabilities(_parse_row(args.q0), _parse_row(args.q1), args.a)


def _add_model_args(parser):
    parser.add_argument("--q0", help="class-0 probabilities p0,p1,p2 (decimals or fractions)")
    parser.add_argument("--q1", help="class-1 probabilities p0,p1,p2 (decimals or fractions)")
    parser.add_argument("--a", type=float, default=1.0, help="lattice edge length")
    parser.add_argument("--uniform", action="store_true", help="shorthand for q=1/3 everywhere")


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _heatmap(dist, fh) -> None:
    """Text matrix of 100*p over the occupied (j, k) rectangle."""
    js = sorted({j for j, _ in dist.mass})
    ks = sorted({k for _, k in dist.mass})
    fh.write("100*p by (row k desc, column j asc); j in [%d, %d]\n" % (js[0], js[-1]))
    for k in reversed(ks):
        cells = []
        for j in js:
            p = dist.mass.get((j, k))
            cells.append("  ....." if p is None else f"{100 * float(p):7.3f}")
        fh.write(f"k={k:+4d} |" + "".join(cells) + "\n")


def cmd_dist(args) -> int:
    q = _model_from_args(args)
    if args.engine == "closed-form":
        dist = closedform.closed_form_distribution(args.n, q)
    else:
        dist = engine.evolve(q, args.n)
    with _open_out(args.out) as fh:
        if args.format == "csv":
            engine.write_csv(dist, fh)
        else:
            engine.write_json(dist, fh)
    if args.heatmap:
        _heatmap(dist, sys.stdout)
    return EXIT_OK


def cmd_moments(args) -> int:
    q = _model_from_args(args)
    summary = compute_moments(args.n, q)
    with _open_out(args.out) as fh:
        json.dump(summary.as_dict(), fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _formatted(column):
    """``%.17g`` strings of a float64 column, each distinct value formatted once.

    Values are told apart by their bit patterns, so ``-0.0`` and ``0.0``
    keep their own strings.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_rows(fh, xy, lead=""):
    """Write row ``i`` of the (rows, 2) array ``xy`` as ``{lead}{i},{x},{y}``.

    One block of ``montecarlo.CHUNK`` rows is formatted and written at a
    time, so memory stays flat however many rows there are.
    """
    for lo in range(0, len(xy), montecarlo.CHUNK):
        block = xy[lo : lo + montecarlo.CHUNK]
        xs, ys = _formatted(block[:, 0]), _formatted(block[:, 1])
        rows = zip(range(lo, lo + len(block)), xs, ys)
        fh.write("".join([f"{lead}{i},{x},{y}\n" for i, x, y in rows]))


def cmd_sample(args) -> int:
    q = _model_from_args(args)
    if args.replicas < 1:
        raise InvalidParameterError("need at least one replica")
    if not args.paths:
        montecarlo.check_replicas(args.replicas)
    elif args.replicas * args.n > MAX_PATH_STEPS:
        raise ResourceLimitError(
            f"{args.replicas} paths of {args.n} steps exceed the cap of {MAX_PATH_STEPS} steps"
        )
    with _open_out(args.out) as fh:
        if args.paths:
            fh.write("replica,step,x,y\n")
            for r in range(args.replicas):
                sample = montecarlo.sample_endpoint(
                    args.n, q, args.seed, with_path=True, replica=r
                )
                _write_rows(fh, sample.path, f"{r},")
        else:
            xy = montecarlo.sample_endpoints(args.n, q, args.replicas, args.seed)
            fh.write("replica,x,y\n")
            _write_rows(fh, xy)
    return EXIT_OK


def _parse_grid(text: str):
    try:
        x_part, y_part = text.split(",")
        x_min, x_max, x_steps = x_part.split(":")
        y_min, y_max, y_steps = y_part.split(":")
        x_axis = (float(x_min), float(x_max), int(x_steps))
        y_axis = (float(y_min), float(y_max), int(y_steps))
    except ValueError as exc:
        raise InvalidParameterError(
            f"grid must look like xmin:xmax:steps,ymin:ymax:steps, got {text!r}"
        ) from exc
    if x_axis[2] < 1 or y_axis[2] < 1:
        raise InvalidParameterError("grid steps must be >= 1")
    return x_axis, y_axis


def _axis(lo, hi, steps):
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * s / (steps - 1) for s in range(steps)]


def _rate_point(q, mode, x, y, tol):
    if mode == "large":
        return deviations.legendre(x, y, q, tol)
    return deviations.moderate_rate(x, y, q)


def cmd_rate(args) -> int:
    q = _model_from_args(args)
    if (args.point is None) == (args.grid is None):
        raise InvalidParameterError("provide exactly one of --point or --grid")
    if args.point is not None:
        x, y = args.point
        result = _rate_point(q, args.mode, x, y, args.tol)
        with _open_out(args.out) as fh:
            json.dump(result.as_dict(), fh, indent=2)
            fh.write("\n")
        return EXIT_OK
    (x_lo, x_hi, x_steps), (y_lo, y_hi, y_steps) = _parse_grid(args.grid)
    if x_steps * y_steps > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"a {x_steps} x {y_steps} grid exceeds the cap of {MAX_GRID_POINTS} points"
        )
    rows = []
    for x in _axis(x_lo, x_hi, x_steps):
        for y in _axis(y_lo, y_hi, y_steps):
            try:
                r = _rate_point(q, args.mode, x, y, args.tol)
                rate = f"{r.value:.17g}" if r.finite else "inf"
                rows.append(f"{x:.17g},{y:.17g},{rate},{str(r.finite).lower()}\n")
            except NumericalFailureError:
                rows.append(f"{x:.17g},{y:.17g},nan,error\n")
    with _open_out(args.out) as fh:
        fh.write("x,y,rate,finite\n")
        fh.writelines(rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    names = None if args.suite == "all" else [args.suite]
    overrides = {}
    if args.m is not None:
        overrides["m"] = args.m
        overrides["m_max"] = args.m
    results = validation.run_suites(names, **overrides)
    report = {
        "passed": all(r.passed for r in results),
        "suites": [r.as_dict() for r in results],
    }
    with _open_out(args.out) as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexwalk",
        description="Random walk on the hexagonal lattice: exact distributions, "
        "moments, sampling and deviation rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="state distribution at time n")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("exact", "closed-form"), default="exact")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--heatmap", action="store_true", help="print 100*p as a text matrix")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("moments", help="mean/variance/covariance at time n")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("sample", help="Monte Carlo endpoints or paths")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", action="store_true", help="emit full paths instead of endpoints")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("rate", help="deviation rate at a point or over a grid")
    _add_model_args(p)
    p.add_argument("--mode", choices=("large", "moderate"), default="large")
    p.add_argument("--point", nargs=2, type=float, metavar=("X", "Y"))
    p.add_argument("--grid", help="xmin:xmax:steps,ymin:ymax:steps")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("validate", help="run the cross-check battery")
    p.add_argument(
        "--suite",
        choices=("all",) + tuple(validation.SUITES),
        default="all",
    )
    p.add_argument("--m", type=int, default=None, help="override the even-time depth")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HexwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
