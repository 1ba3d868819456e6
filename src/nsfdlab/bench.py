"""Error measurement, convergence studies and figure data generation.

Errors are measured against the model's exact solution either on the first
component (E_k = |x_k - x^e_k| / |x^e_k|, the natural choice for decaying
positive solutions) or in the full Euclidean norm.  Where the exact value
is zero the entry falls back to the absolute error and is flagged.

Figure data is written as plain CSV plus a gnuplot script, one file per
(scheme, dt) combination, with deterministic formatting so repeated runs
are byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import schemes
from .models import OdeModel, make_model
from .schemes import SchemeSpec, Trajectory, integrate

COMPONENT_X = "x"
EUCLIDEAN_FULL = "full"
NORM_KINDS = (COMPONENT_X, EUCLIDEAN_FULL)

# Errors below this are indistinguishable from rounding noise of an exact
# scheme; convergence ratios of such pairs are reported as "exact".
EXACT_FLOOR = 1e-11

_DENOMINATOR_GUARD = 1e-300


@dataclass(frozen=True)
class ErrorSeries:
    """Per-level error of a trajectory against the exact solution.

    absolute_fallback marks levels where the exact value vanished and the
    entry records the absolute instead of the relative error.
    """

    times: np.ndarray
    errors: np.ndarray
    absolute_fallback: np.ndarray
    norm: str


@dataclass(frozen=True)
class ExperimentReport:
    """Summary of one integration run measured against the exact solution."""

    model: str
    scheme: str
    dt: float
    t_end: float
    norm: str
    max_error: float
    final_error: float
    blow_up_step: int | None


@dataclass(frozen=True)
class ConvergenceStudy:
    """Max errors over a step-size sweep and the observed orders between
    consecutive step sizes (each halving ratio log2(err_i/err_{i+1}), or
    the string "exact" when both errors sit at rounding level).
    blow_up_steps holds each step size's blow-up step, or None."""

    dts: tuple
    max_errors: tuple
    orders: tuple
    blow_up_steps: tuple


def relative_error_series(traj: Trajectory, exact, norm: str = COMPONENT_X) -> ErrorSeries:
    """Errors of traj.states against the exact solution at every trajectory time.

    exact is called once, on the array of times, and returns the states as
    shape (N, n); a result that broadcasts to it (a constant solution) is
    accepted.
    """
    if norm not in NORM_KINDS:
        raise ValueError(f"unknown norm {norm!r}; valid: {', '.join(NORM_KINDS)}")
    reference = np.asarray(exact(traj.times), dtype=float)
    try:
        reference = np.broadcast_to(reference, traj.states.shape)
    except ValueError as exc:
        raise ValueError("exact solution shape does not match trajectory states") from exc
    if norm == COMPONENT_X:
        num = np.abs(traj.states[:, 0] - reference[:, 0])
        den = np.abs(reference[:, 0])
    else:
        num = _row_norms(traj.states - reference)
        den = _row_norms(reference)
    fallback = den < _DENOMINATOR_GUARD
    errors = np.where(fallback, num, num / np.where(fallback, 1.0, den))
    return ErrorSeries(times=traj.times, errors=errors, absolute_fallback=fallback, norm=norm)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row.  np.linalg.norm squares the entries, so
    a row with an entry above about 1e154 overflows; only such rows are
    recomputed, scaled by their largest entry, and every other row keeps
    the plain norm's value to the bit."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    redo = ~np.isfinite(norms)
    if redo.any():
        redo &= np.isfinite(rows).all(axis=1)
        scale = np.max(np.abs(rows[redo]), axis=1)
        norms[redo] = scale * np.linalg.norm(rows[redo] / scale[:, None], axis=1)
    return norms


def observed_order(err_coarse: float, err_fine: float, exact_floor: float = EXACT_FLOOR):
    """log2(err(dt)/err(dt/2)), or "exact" when the errors are at noise level.

    A denominator of exactly zero, or both errors below exact_floor, means
    the scheme reproduces the solution to rounding and no meaningful order
    can be measured.
    """
    if err_coarse < 0 or err_fine < 0:
        raise ValueError("errors must be nonnegative")
    if err_fine == 0.0 or (err_coarse <= exact_floor and err_fine <= exact_floor):
        return "exact"
    return math.log2(err_coarse / err_fine)


def run_experiment(
    model: OdeModel,
    scheme: SchemeSpec,
    dt: float,
    t_end: float,
    norm: str = COMPONENT_X,
    x0=None,
):
    """Integrate, measure against the exact solution, and summarize.

    Returns (trajectory, error_series, report).
    """
    traj = integrate(model, scheme, dt, t_end, x0=x0)
    series = relative_error_series(traj, model.exact, norm=norm)
    report = ExperimentReport(
        model=model.name,
        scheme=scheme.kind,
        dt=dt,
        t_end=t_end,
        norm=norm,
        max_error=float(np.max(series.errors)),
        final_error=float(series.errors[-1]),
        blow_up_step=traj.blow_up_step,
    )
    return traj, series, report


def convergence_study(
    model: OdeModel,
    scheme: SchemeSpec,
    dts,
    t_end: float,
    norm: str = COMPONENT_X,
) -> ConvergenceStudy:
    """Max error for each dt (descending) and orders between neighbors."""
    dts = tuple(sorted((float(d) for d in dts), reverse=True))
    if len(dts) < 2:
        raise ValueError("need at least two step sizes")
    errs, blow_ups = [], []
    for dt in dts:
        _, _, report = run_experiment(model, scheme, dt, t_end, norm=norm)
        errs.append(report.max_error)
        blow_ups.append(report.blow_up_step)
    orders = tuple(observed_order(errs[i], errs[i + 1]) for i in range(len(errs) - 1))
    return ConvergenceStudy(
        dts=dts, max_errors=tuple(errs), orders=orders, blow_up_steps=tuple(blow_ups)
    )


# --------------------------------------------------------------------------
# figure data
# --------------------------------------------------------------------------

_ERROR_SCHEMES_BIOMASS = (
    ("explicit-euler", SchemeSpec(schemes.EXPLICIT_EULER)),
    ("implicit-euler", SchemeSpec(schemes.IMPLICIT_EULER)),
    ("traditional-nsfd", SchemeSpec(schemes.TRADITIONAL_NSFD)),
    ("gamma-nsfd", SchemeSpec(schemes.GAMMA_NSFD)),
    ("scalar-nsfd", SchemeSpec(schemes.SCALAR_NSFD)),
)
_ERROR_SCHEMES_OSC = (
    ("explicit-euler", SchemeSpec(schemes.EXPLICIT_EULER)),
    ("implicit-euler", SchemeSpec(schemes.IMPLICIT_EULER)),
    ("mickens-osc1", SchemeSpec(schemes.MICKENS_OSC1)),
    ("mickens-osc2", SchemeSpec(schemes.MICKENS_OSC2)),
    ("corrected-osc", SchemeSpec(schemes.CORRECTED_OSC)),
)


def _figure_error(model_kind, dts, t_end, scheme_table, norm=COMPONENT_X):
    return {
        "kind": "error",
        "model": model_kind,
        "dts": dts,
        "t_end": t_end,
        "schemes": scheme_table,
        "norm": norm,
    }


def _figure_exact(model_kind, dt, t_end):
    return {"kind": "exact", "model": model_kind, "dt": dt, "t_end": t_end}


FIGURES = {
    "oscillator-error": _figure_error(
        "oscillator", (0.05, 0.01, 0.001, 0.0005), 35.0, _ERROR_SCHEMES_OSC
    ),
    "biomass-error": _figure_error(
        "biomass", (0.1, 0.01, 0.001), 10.0, _ERROR_SCHEMES_BIOMASS
    ),
    "trees-error": _figure_error(
        "trees", (0.1, 0.01, 0.001), 10.0, _ERROR_SCHEMES_BIOMASS
    ),
    "seasonal-error": _figure_error(
        "seasonal", (0.1, 0.01, 0.001), 10.0, _ERROR_SCHEMES_BIOMASS
    ),
    "seasonal-forcing-comparison": {
        "kind": "error",
        "model": "seasonal",
        "dts": (0.001,),
        "t_end": 10.0,
        "schemes": tuple(
            (f"{kind}-{approx}", SchemeSpec(kind, forcing_approx=approx))
            for kind in (schemes.SCALAR_NSFD, schemes.GAMMA_NSFD)
            for approx in (
                schemes.FORCING_LEFT,
                schemes.FORCING_MIDDLE,
                schemes.FORCING_HALF,
                schemes.FORCING_MEAN,
            )
        ),
        "norm": COMPONENT_X,
    },
    "oscillator-exact": _figure_exact("oscillator", 0.01, 35.0),
    "biomass-exact": _figure_exact("biomass", 0.01, 10.0),
    "trees-exact": _figure_exact("trees", 0.01, 10.0),
    "seasonal-exact": _figure_exact("seasonal", 0.01, 10.0),
}

def dt_label(dt: float) -> str:
    """A step size as it appears in file names and reports: fixed point,
    trailing zeros dropped (0.05, 0.0005, 1.0)."""
    s = f"{dt:.10f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def write_csv(path, header: str, table) -> None:
    """Write the rows of a 2-d table under a header line, every value in
    %.16e, so repeated runs are byte-identical."""
    table = np.asarray(table, dtype=float)
    row_format = ",".join(["%.16e"] * table.shape[1])
    lines = [header] + [row_format % tuple(row) for row in table.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_exact(model: OdeModel, dt: float, t_end: float, path) -> None:
    """Sample the exact solution at t = k dt, k = 0..floor(t_end/dt), in one
    call, and write it as CSV with columns t,x,y[,z]."""
    times = np.arange(schemes.step_count(dt, t_end) + 1) * dt
    header = ",".join(("t", "x", "y", "z")[: model.n + 1])
    write_csv(path, header, np.column_stack((times, model.exact(times))))


def run_figure(figure_id: str, out_dir) -> list[Path]:
    """Write the CSV data and gnuplot script for one figure.

    Error figures produce <figure>_<scheme>_<dt>.csv with columns
    t,rel_error; exact figures a single <figure>.csv with the state
    columns.  Returns the written paths (script last).
    """
    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure {figure_id!r}; valid: {', '.join(sorted(FIGURES))}"
        )
    spec = FIGURES[figure_id]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if spec["kind"] == "exact":
        model = make_model(spec["model"])
        path = out / f"{figure_id}.csv"
        write_exact(model, spec["dt"], spec["t_end"], path)
        written.append(path)
        script = _exact_script(figure_id, model.n)
    else:
        model = make_model(spec["model"])
        csv_names = []
        for label, scheme in spec["schemes"]:
            for dt in spec["dts"]:
                _, series, _ = run_experiment(
                    model, scheme, dt, spec["t_end"], norm=spec["norm"]
                )
                name = f"{figure_id}_{label}_{dt_label(dt)}.csv"
                write_csv(out / name, "t,rel_error", np.column_stack((series.times, series.errors)))
                written.append(out / name)
                csv_names.append((name, label, dt))
        script = _error_script(figure_id, spec, csv_names)
    script_path = out / f"{figure_id}.gp"
    script_path.write_text(script)
    written.append(script_path)
    return written


def _error_script(figure_id, spec, csv_names) -> str:
    """Gnuplot script: one log-y panel per step size, all schemes overlaid."""
    dts = spec["dts"]
    lines = [
        f"# data panels for {figure_id}",
        "set terminal pngcairo size 1200,800",
        f"set output '{figure_id}.png'",
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 't'",
        "set ylabel 'relative error'",
        "set key outside right",
        f"set multiplot layout {max(1, (len(dts) + 1) // 2)},{min(2, len(dts))}",
    ]
    for dt in dts:
        plots = [
            f"'{name}' skip 1 using 1:2 with lines title '{label}'"
            for name, label, d in csv_names
            if d == dt
        ]
        lines.append(f"set title 'dt = {dt_label(dt)}'")
        lines.append("plot " + ", \\\n     ".join(plots))
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def _exact_script(figure_id, n) -> str:
    cols = ["x", "y", "z"][:n]
    plots = [
        f"'{figure_id}.csv' skip 1 using 1:{i + 2} with lines title '{c}'"
        for i, c in enumerate(cols)
    ]
    lines = [
        f"# exact solution for {figure_id}",
        "set terminal pngcairo size 900,600",
        f"set output '{figure_id}.png'",
        "set datafile separator ','",
        "set xlabel 't'",
        "plot " + ", \\\n     ".join(plots),
    ]
    return "\n".join(lines) + "\n"
