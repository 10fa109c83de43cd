"""Command-line interface: ``fracstep <subcommand> ...``.

Exit codes: 0 completed, 1 usage or config error, 2 instability detected
(expected for the unstable figure presets and unstable solve runs).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from fracstep import harness
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.exact_solution import check_profile_size, exact_profile, parabola_ic
from fracstep.mittag_leffler import ml_eval
from fracstep.stability import MAX_PHASE_POINTS, phase_diagram, probe_stability, stability_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSTABLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means "instability
    # detected" here, so route usage problems through exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
        if n < 0:
            raise ValueError
    except ValueError:
        raise _UsageError(f"grid {text!r} must have the form start:stop:count")
    if n > MAX_PHASE_POINTS:
        raise _UsageError(f"grid {text!r} of {n} points exceeds MAX_PHASE_POINTS = {MAX_PHASE_POINTS}")
    return np.linspace(a, b, n)


def _end_time(text: str) -> float:
    try:
        return harness.end_time(float(text))
    except ValueError as exc:
        raise _UsageError(f"--t-end: {exc}")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fracstep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("coeffs", help="print fractional discretization weights")
    p.add_argument("--family", required=True, type=FormulaFamily.parse)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--count", required=True, type=int, help="number of weights to print")

    p = sub.add_parser(
        "ml",
        help="evaluate the Mittag-Leffler function E_gamma(z), 0 < gamma <= 1, z <= 0",
        description="E_gamma(z) by a fixed 17-node contour quadrature in double "
        "precision (absolute error below 1e-12).  The legacy flags --series-cutoff, "
        "--series-tol and --asymptotic-terms are validated but select nothing.",
    )
    p.add_argument("--gamma", required=True, type=float)
    p.add_argument("--z", required=True, type=float)
    legacy = "legacy, validated only"
    p.add_argument("--series-cutoff", type=float, default=10.0, help=legacy)
    p.add_argument("--series-tol", type=float, default=1e-16, help=legacy)
    p.add_argument("--asymptotic-terms", type=int, default=30, help=legacy)

    p = sub.add_parser("exact", help="analytical benchmark profile as CSV")
    p.add_argument("--gamma", required=True, type=float)
    p.add_argument("--kgamma", required=True, type=float)
    p.add_argument("--t", required=True, type=float)
    p.add_argument("--nx", required=True, type=int, help="number of grid intervals")
    p.add_argument("--tol", type=float, default=harness.EXACT_TOL)

    p = sub.add_parser("solve", help="run one experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--dump-history", default=None, metavar="PATH")

    p = sub.add_parser("stability", help="stability bound, probe, or phase sweep")
    ssub = p.add_subparsers(dest="stability_command", required=True, parser_class=_Parser)
    b = ssub.add_parser("bound")
    b.add_argument("--family", required=True, type=FormulaFamily.parse)
    b.add_argument("--gamma", required=True, type=float)
    b.add_argument("--lambda", dest="lam", required=True, type=float)
    pr = ssub.add_parser("probe")
    pr.add_argument("--family", required=True, type=FormulaFamily.parse)
    pr.add_argument("--gamma", required=True, type=float)
    pr.add_argument("--lambda", dest="lam", required=True, type=float)
    pr.add_argument("--s", required=True, type=float)
    pr.add_argument("--nodes", type=int, default=32)
    pr.add_argument("--steps", type=int, default=400)
    ph = ssub.add_parser("phase")
    ph.add_argument("--family", required=True, type=FormulaFamily.parse)
    ph.add_argument("--gamma-grid", required=True, type=_grid)
    ph.add_argument("--lambda-grid", required=True, type=_grid)
    ph.add_argument("--out", required=True)

    p = sub.add_parser("converge", help="convergence study by successive halving")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("refine_dt", "refine_dx", "refine_both"), default="refine_dt")
    p.add_argument("--levels", type=int, default=3)

    p = sub.add_parser("figure", help="emit a bundled figure dataset as CSV")
    p.add_argument("--id", required=True, choices=harness.FIGURE_IDS)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--t-end", type=_end_time, default=None, help="shorten fig3 runs")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "coeffs":
        if args.count < 1:
            raise ValueError("--count must be >= 1")
        table = build_table(args.family, args.alpha, args.count - 1)
        for w in table.weights:
            print(f"{w:.17g}")
        return EXIT_OK

    if args.command == "ml":
        # the legacy flags select nothing, but a bad value is still an error
        if not (args.series_cutoff > 0.0):
            raise ValueError(f"series_cutoff must be > 0, got {args.series_cutoff}")
        if not (args.series_tol > 0.0):
            raise ValueError(f"series_tol must be > 0, got {args.series_tol}")
        if args.asymptotic_terms < 1:
            raise ValueError(f"asymptotic_terms must be >= 1, got {args.asymptotic_terms}")
        print(f"{ml_eval(args.gamma, args.z):.15g}")
        return EXIT_OK

    if args.command == "exact":
        if args.nx < 1:
            raise ValueError(f"--nx must be >= 1, got {args.nx}")
        check_profile_size(args.nx + 1)
        xs = np.arange(args.nx + 1) / args.nx
        profile = exact_profile(parabola_ic(), args.gamma, args.kgamma, xs, args.t, tol=args.tol)
        print("x,u_exact")
        for x, u in zip(xs, profile):
            print(f"{float(x)!r},{float(u)!r}")
        return EXIT_OK

    if args.command == "solve":
        spec = harness.parse_experiment_file(args.config)
        result = harness.run_experiment(spec, args.out_dir, dump_history=args.dump_history)
        for path in result.paths:
            print(path)
        for t, max_err, l2_err in result.summaries:
            print(f"t={t!r} max_error={max_err!r} l2_error={l2_err!r}")
        if result.status == "unstable":
            print(f"UNSTABLE at step {result.unstable_level}")
            return EXIT_UNSTABLE
        return EXIT_OK

    if args.command == "stability":
        return _dispatch_stability(args)

    if args.command == "converge":
        spec = harness.parse_experiment_file(args.config)
        report = harness.convergence_study(spec, args.levels, args.mode)
        print("dt,dx,max_error")
        for dt, dx, err in report.refinement_levels:
            print(f"{dt!r},{dx!r},{err!r}")
        print(f"estimated_order_dt={report.estimated_order_dt!r}")
        print(f"estimated_order_dx={report.estimated_order_dx!r}")
        return EXIT_OK

    if args.command == "figure":
        result = harness.reproduce_figure(args.id, args.out_dir, t_end=args.t_end)
        for path in result.paths:
            print(path)
        return EXIT_UNSTABLE if result.status == "unstable" else EXIT_OK

    raise ValueError(f"unhandled command {args.command!r}")


def _dispatch_stability(args) -> int:
    if args.stability_command == "bound":
        s_cross = stability_bound(args.family, args.gamma, args.lam)
        print(f"s_cross={s_cross!r}")
        print(f"inv_s_cross={(1.0 / s_cross if s_cross != 0 else float('inf'))!r}")
        return EXIT_OK
    if args.stability_command == "probe":
        report = probe_stability(
            args.family, args.gamma, args.lam, args.s, nodes=args.nodes, steps=args.steps
        )
        print(f"s={report.s_value!r}")
        print(f"s_cross={report.s_cross!r}")
        print(f"theoretical_verdict={report.theoretical_verdict}")
        print(f"growth_factor={report.growth_factor!r}")
        print(f"empirical_verdict={report.empirical_verdict}")
        print(f"probe_steps={report.probe_steps}")
        return EXIT_UNSTABLE if report.empirical_verdict == "unstable" else EXIT_OK
    if args.stability_command == "phase":
        rows = phase_diagram(args.family, args.gamma_grid, args.lambda_grid)
        harness._write_csv(
            Path(args.out),
            f"stability phase sweep family={args.family.value}",
            ("gamma", "lambda", "inv_s_cross"),
            [(np.array(rows),)],
        )
        print(args.out)
        return EXIT_OK
    raise ValueError(f"unhandled stability command {args.stability_command!r}")


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
