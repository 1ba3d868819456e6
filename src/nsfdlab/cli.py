"""Command line front end.

Subcommands:

  run          integrate one (model, scheme, dt) case, write the error
               series CSV and print a one-line report
  convergence  step-size sweep, print a dt/max_error/order table (exit 3
               after the table if any step size blew up)
  figure       write the CSV data and gnuplot scripts of one or more named
               figures, or of all, into one directory (ids checked first)
  exact        sample the exact solution of a model into a CSV

main builds its argument parser once per process and reuses it on every
call.

Exit codes: 0 success, 2 usage error (ValueError: unknown ids, bad flags
or values; OSError: an output path that cannot be written; MemoryError: a
horizon of more steps or samples than memory holds), 3 numerical
failure (blow-up, or RuntimeError or OverflowError: a zero pivot, a
singular implicit Euler matrix I - dt A, a negative discriminant,
overflowing coefficients); on blow-up the partial report is still written.

run prints the case as parsed and built (model, scheme, dt, t_end, norm;
the scheme is gamma-nsfd under --coeffs gamma) and then the run's
findings, the only fields of bench.ExperimentReport.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bench, schemes
from .models import make_model
from .schemes import SchemeSpec


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    # no defaults: _build_model passes make_model only the options given
    parser.add_argument("--model", required=True, help="oscillator, biomass, trees or seasonal")
    parser.add_argument("--x0", type=float, help="oscillator initial value (0, 1/2)")
    parser.add_argument("--z0", type=float, help="biomass family initial stock")
    parser.add_argument("--zf", type=float, help="plantation forcing amplitude (trees, seasonal)")
    parser.add_argument("--omega", type=float, help="seasonal forcing frequency")


def _add_scheme_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", required=True, help=", ".join(schemes.SCHEME_KINDS))
    parser.add_argument(
        "--forcing-approx",
        default=schemes.FORCING_HALF,
        choices=schemes.FORCING_APPROXES,
        help="treatment of time-dependent forcing (ignored by the Euler schemes)",
    )
    parser.add_argument(
        "--nonlocal-b",
        default=schemes.NONLOCAL_SEMI_IMPLICIT,
        choices=schemes.NONLOCAL_KINDS,
        help="treatment of state-dependent forcing (ignored by the Euler schemes)",
    )
    parser.add_argument(
        "--coeffs",
        default="exact",
        choices=("exact", "gamma"),
        help="scalar-nsfd coefficient kind (gamma selects the order-n truncation)",
    )


def _build_model(args):
    given = {k: getattr(args, k) for k in ("x0", "z0", "zf", "omega")}
    return make_model(args.model, **{k: v for k, v in given.items() if v is not None})


def _build_scheme(args) -> SchemeSpec:
    kind = args.scheme
    if args.coeffs == "gamma":
        if kind != schemes.SCALAR_NSFD:
            raise ValueError("--coeffs gamma applies only to --scheme scalar-nsfd")
        kind = schemes.GAMMA_NSFD
    return SchemeSpec(
        kind, forcing_approx=args.forcing_approx, nonlocal_b=args.nonlocal_b
    )


def _output_path(args) -> Path:
    """args.out, its directory made once the step sizes are known to be
    valid, so a usage error makes no directory and an output directory
    that cannot be made fails before any integration or sampling."""
    schemes.step_count(args.dt, args.tend)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    model = _build_model(args)
    scheme = _build_scheme(args)
    out = _output_path(args)
    _, series, report = bench.run_experiment(model, scheme, args.dt, args.tend, norm=args.norm)
    bench.write_csv(out, "t,rel_error", args.dt, (series.errors,))
    print("model,scheme,dt,t_end,norm,max_error,final_error,blow_up_step")
    blow = "" if report.blow_up_step is None else report.blow_up_step
    print(
        f"{model.name},{scheme.kind},{bench.dt_label(args.dt)},{args.tend},"
        f"{args.norm},{report.max_error:.16e},{report.final_error:.16e},{blow}"
    )
    return 0 if report.blow_up_step is None else 3


def _cmd_convergence(args) -> int:
    model = _build_model(args)
    scheme = _build_scheme(args)
    dts = [float(tok) for tok in args.dts.split(",") if tok]
    study = bench.convergence_study(model, scheme, dts, args.tend, norm=args.norm)
    print("dt,max_error,order")
    # the first row, and an order without a finite error, are empty cells
    for dt, err, order in zip(study.dts, study.max_errors, (None,) + study.orders):
        if isinstance(order, float):
            order = f"{order:.3f}"
        print(f"{bench.dt_label(dt)},{err:.16e},{'' if order is None else order}")
    # the table is the result; the blow-ups go to stderr, outside its format
    blown = [
        f"dt = {bench.dt_label(dt)} at step {k}"
        for dt, k in zip(study.dts, study.blow_up_steps)
        if k is not None
    ]
    if blown:
        print(f"blow-up: {'; '.join(blown)}", file=sys.stderr)
        return 3
    return 0


def _cmd_figure(args) -> int:
    valid = sorted(bench.FIGURES)
    # in the order given, each figure once: "all" and a repeated id add none
    ids = dict.fromkeys(i for token in args.id for i in (valid if token == "all" else [token]))
    # every id is checked before the first figure makes the directory
    for figure_id in ids:
        if figure_id not in bench.FIGURES:
            raise ValueError(f"unknown figure {figure_id!r}; valid: {', '.join(valid)}, all")
    for figure_id in ids:
        for p in bench.run_figure(figure_id, args.out_dir):
            print(p)
    return 0


def _cmd_exact(args) -> int:
    model = _build_model(args)
    out = _output_path(args)
    bench.write_exact(model, args.dt, args.tend, out)
    print(out)
    return 0


# main parses into a fresh namespace on every call, so one parser serves
# every call in a process: the tests and the benchmark call main many times.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfdlab",
        description="Exact and nonstandard finite-difference schemes on benchmark models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one case and write its error series")
    _add_model_options(p_run)
    _add_scheme_options(p_run)
    p_run.add_argument("--dt", type=float, required=True)
    p_run.add_argument("--tend", type=float, required=True)
    p_run.add_argument("--norm", default=bench.COMPONENT_X, choices=bench.NORM_KINDS)
    p_run.add_argument("--out", required=True, help="error series CSV path")
    p_run.set_defaults(handler=_cmd_run)

    p_conv = sub.add_parser("convergence", help="order table over a step-size sweep")
    _add_model_options(p_conv)
    _add_scheme_options(p_conv)
    p_conv.add_argument("--dts", required=True, help="comma-separated step sizes")
    p_conv.add_argument("--tend", type=float, required=True)
    p_conv.add_argument("--norm", default=bench.COMPONENT_X, choices=bench.NORM_KINDS)
    p_conv.set_defaults(handler=_cmd_convergence)

    p_fig = sub.add_parser("figure", help="write CSV data and gnuplot scripts for figures")
    ids = ", ".join(sorted(bench.FIGURES))
    p_fig.add_argument("--id", required=True, nargs="+", help=f"one or more of {ids}, or all")
    p_fig.add_argument("--out-dir", default="figures")
    p_fig.set_defaults(handler=_cmd_figure)

    p_exact = sub.add_parser("exact", help="sample a model's exact solution")
    _add_model_options(p_exact)
    p_exact.add_argument("--dt", type=float, required=True)
    p_exact.add_argument("--tend", type=float, required=True)
    p_exact.add_argument("--out", required=True)
    p_exact.set_defaults(handler=_cmd_exact)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
