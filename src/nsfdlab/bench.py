"""Error measurement, convergence studies and figure data generation.

Errors are measured against the model's exact solution either on the first
component (E_k = |x_k - x^e_k| / |x^e_k|, the natural choice for decaying
positive solutions) or in the full Euclidean norm.  Where the exact value
is zero the entry falls back to the absolute error and is flagged.

run_experiment and write_exact sample the exact solution on a grid
through schemes.grid_samples, keyed by the exact callable, dt and the
number of levels, so the schemes of a figure measured on one grid share
one sampling, and so do the figures and models built later on the same
grid and parameters.

Figure data is written as plain CSV plus a gnuplot script, one file per
(scheme, dt) combination, in binary mode so every line ends in '\n' on
every platform.  write_csv, the one CSV writer, gives every value the
bytes of Python's '%.16e' % v, so repeated runs are byte-identical,
without formatting the values one by one: a vectorized kernel rounds
|v| 10^p, formed as a double-double product, to the 17-digit mantissa and
writes each value's text as one 24-byte record of six aligned uint32
words, each taken from a lookup table, column by column, 2,048 rows at a
time.  The few values it cannot decide (zeros, non-finite and extreme
magnitudes, near-ties of the decimal rounding, a log10 rounded across a
power of ten) go to Python's formatter.  The rows of a block are built in
one buffer.  A block of non-negative values with two-digit exponents,
the common case, is fixed-width, and the file takes its buffer without a
copy; any other block has the records' NUL padding stripped.

Every table is its time grid plus value columns: write_csv takes the
step dt, and formats the grid's time column once, through
schemes.grid_samples too, keyed by dt and the number of levels.
"""
from __future__ import annotations

import functools
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

# run_experiment's bound on the gap between the exact solution at t = 0 and
# the initial state: rounding of a closed form, relative to the larger
# state's largest entry, or to 1 when that is smaller.
_START_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ErrorSeries:
    """Per-level error of a trajectory against the exact solution.

    errors[k] is the error at level k, time k dt of the trajectory's step,
    in the norm the caller chose; absolute_fallback marks levels where the
    exact value vanished and the entry records the absolute instead of the
    relative error.
    """

    errors: np.ndarray
    absolute_fallback: np.ndarray


@dataclass(frozen=True)
class ExperimentReport:
    """What one integration run found against the exact solution; the
    model, scheme, dt, t_end and norm are run_experiment's arguments.

    t_reached is the time of the last level computed, step_count(dt, t_end)
    steps of dt, or of the last finite level after a blow-up.
    """

    max_error: float
    final_error: float
    blow_up_step: int | None
    t_reached: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Max errors over a step-size sweep and the observed orders between
    consecutive step sizes (observed_order: a float, "exact" or None).
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
    _check_norm(norm)
    return _error_series(traj, exact(traj.times), norm)


def _check_norm(norm: str) -> None:
    """Raise ValueError for a norm that is not one of NORM_KINDS, before
    any integrating or sampling is spent on it."""
    if norm not in NORM_KINDS:
        raise ValueError(f"unknown norm {norm!r}; valid: {', '.join(NORM_KINDS)}")


def _error_series(traj: Trajectory, reference, norm: str) -> ErrorSeries:
    """relative_error_series against the exact states already sampled at
    traj.times, in a norm already checked."""
    reference = np.asarray(reference, dtype=float)
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
    # a finite state far from a tiny exact value has the relative error inf
    with np.errstate(over="ignore"):
        errors = np.where(fallback, num, num / np.where(fallback, 1.0, den))
    return ErrorSeries(errors=errors, absolute_fallback=fallback)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, its squares summed column by column:
    for up to 3 columns the additions of np.linalg.norm(rows, axis=1) in
    its order, so the same bits, without its per-call overhead.  Squaring
    overflows for a row with an entry above about 1e154; only such finite
    rows are recomputed, scaled by their largest entry, and every other row
    keeps the plain norm's value to the bit."""
    with np.errstate(over="ignore"):
        sums = rows[:, 0] * rows[:, 0]
        for j in range(1, rows.shape[1]):
            sums += rows[:, j] * rows[:, j]
    norms = np.sqrt(sums, out=sums)
    redo = ~np.isfinite(norms)
    if redo.any():
        redo &= np.isfinite(rows).all(axis=1)
        scale = np.max(np.abs(rows[redo]), axis=1)
        norms[redo] = scale * _row_norms(rows[redo] / scale[:, None])
    return norms


def observed_order(err_coarse: float, err_fine: float):
    """log2(err(dt)/err(dt/2)), "exact" when the errors are at noise level,
    or None when either error is not finite or only err(dt) is 0.

    A denominator of exactly zero, or both errors below EXACT_FLOOR, means
    the scheme reproduces the solution to rounding and no meaningful order
    can be measured; a zero err(dt) beside err(dt/2) > EXACT_FLOOR has none.
    """
    if err_coarse < 0 or err_fine < 0:
        raise ValueError("errors must be nonnegative")
    if not (math.isfinite(err_coarse) and math.isfinite(err_fine)):
        return None
    if err_fine == 0.0 or (err_coarse <= EXACT_FLOOR and err_fine <= EXACT_FLOOR):
        return "exact"
    return math.log2(err_coarse / err_fine) if err_coarse else None


def run_experiment(
    model: OdeModel,
    scheme: SchemeSpec,
    dt: float,
    t_end: float,
    norm: str = COMPONENT_X,
):
    """Integrate from the model's initial state, measure against its exact
    solution, and summarize.

    The exact solution is sampled through schemes.grid_samples, keyed by
    (model.exact, dt, number of levels), so runs on one grid sample it
    once.  The series equals relative_error_series(traj, model.exact,
    norm) bitwise, on the grid schemes.time_grid(N, dt) of traj.times and
    write_csv.

    The exact solution must start at the model's initial state: if its
    level 0 differs from traj.states[0] by more than rounding (a model
    whose initial_state was replaced without its exact), the errors would
    measure the distance to another solution, and ValueError is raised.

    Returns (trajectory, error_series, report).  The series and the report
    hold only what the run found; the model, scheme, dt, t_end and norm
    are the caller's own arguments.
    """
    _check_norm(norm)
    traj = integrate(model, scheme, dt, t_end)
    n_levels = len(traj.states)
    reference = schemes.grid_samples(_sampled_exact, model.exact, traj.dt, n_levels)
    series = _error_series(traj, reference, norm)
    _check_start(model, traj.states[0], np.broadcast_to(reference, traj.states.shape)[0])
    report = ExperimentReport(
        max_error=float(np.max(series.errors)),
        final_error=float(series.errors[-1]),
        blow_up_step=traj.blow_up_step,
        # the product k dt of time_grid, so the grid's last time to the bit
        t_reached=(n_levels - 1) * traj.dt,
    )
    return traj, series, report


def _check_start(model: OdeModel, start: np.ndarray, exact_start: np.ndarray) -> None:
    """Raise ValueError, naming the model, both states and their gap, unless
    the exact solution's level 0 is the trajectory's start to within
    _START_TOLERANCE."""
    gap = float(np.max(np.abs(start - exact_start)))
    scale = max(1.0, float(np.max(np.abs(start))), float(np.max(np.abs(exact_start))))
    if not gap <= _START_TOLERANCE * scale:  # a NaN gap fails too
        raise ValueError(
            f"model {model.name!r}: the exact solution starts at {exact_start.tolist()}, "
            f"not at the initial state {start.tolist()} (largest gap {gap:.3e}); "
            "its errors would be measured against another solution"
        )


def _sampled_exact(exact, dt: float, n_levels: int) -> np.ndarray:
    """exact at t = k dt, k = 0..n_levels - 1: the grid traj.times of a
    trajectory of n_levels levels of dt, bit for bit, as a new array."""
    return np.array(exact(schemes.time_grid(n_levels, dt)), dtype=float)


def convergence_study(
    model: OdeModel,
    scheme: SchemeSpec,
    dts,
    t_end: float,
    norm: str = COMPONENT_X,
) -> ConvergenceStudy:
    """Max error for each dt (descending) and orders between neighbors.

    The step sizes must be distinct, at least two of them.  Each run goes
    through run_experiment, so repeating a study on one model takes its
    exact samples from schemes.grid_samples.
    """
    dts = tuple(sorted((float(d) for d in dts), reverse=True))
    if len(dts) < 2:
        raise ValueError("need at least two step sizes")
    if len(set(dts)) < len(dts):
        raise ValueError(f"step sizes must be distinct, got {', '.join(map(dt_label, dts))}")
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
_ERROR_SCHEMES_FORCING = tuple(
    (f"{kind}-{approx}", SchemeSpec(kind, forcing_approx=approx))
    for kind in (schemes.SCALAR_NSFD, schemes.GAMMA_NSFD)
    for approx in (
        schemes.FORCING_LEFT, schemes.FORCING_MIDDLE, schemes.FORCING_HALF, schemes.FORCING_MEAN
    )
)


def _figure_error(model_kind, dts, t_end, scheme_table):
    return {
        "kind": "error",
        "model": model_kind,
        "dts": dts,
        "t_end": t_end,
        "schemes": scheme_table,
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
    "seasonal-forcing-comparison": _figure_error(
        "seasonal", (0.001,), 10.0, _ERROR_SCHEMES_FORCING
    ),
    "oscillator-exact": _figure_exact("oscillator", 0.01, 35.0),
    "biomass-exact": _figure_exact("biomass", 0.01, 10.0),
    "trees-exact": _figure_exact("trees", 0.01, 10.0),
    "seasonal-exact": _figure_exact("seasonal", 0.01, 10.0),
}

def dt_label(dt: float) -> str:
    """A step size as it appears in file names and reports: the shortest
    digits that round-trip, in fixed point (0.05, 0.0005, 1.0, 0.00001), so
    distinct step sizes get distinct labels."""
    return np.format_float_positional(dt, trim="0")


def write_csv(path, header: str, dt: float, columns) -> None:
    """Write the time grid of dt and equal-length 1-d value columns as a
    table under a header line: the times schemes.time_grid(N, dt) first,
    every value as the bytes of Python's '%.16e' % v, comma-separated,
    each line ending in '\\n', so repeated runs are byte-identical.

    The time column's records (_time_records) come through
    schemes.grid_samples.  A vectorized kernel (_records) formats each value
    column, _BLOCK_ROWS rows at a time straight into the file; a block of
    non-negative values with two-digit exponents is written as fixed-width
    rows (_joined).  Zero-length columns write the header only.  A dt that
    is not positive and finite (step_count's check), no value columns, a
    column that is not 1-d, columns of unequal length or a 2-d array in
    place of the columns raise ValueError, opening no file.
    """
    if isinstance(columns, np.ndarray):
        raise ValueError(f"write_csv takes columns, not an array of shape {columns.shape}")
    columns = [np.asarray(column, dtype=float) for column in columns]
    if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
        shapes = [column.shape for column in columns]
        raise ValueError(f"write_csv needs 1-d columns of one length, got shapes {shapes}")
    schemes.step_count(dt, dt)  # ValueError unless dt is positive and finite
    times = schemes.grid_samples(_time_records, dt, len(columns[0]))
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for start in range(0, len(times), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            out.write(_joined([times[rows]] + [_records(c[rows]) for c in columns]))


def _time_records(dt: float, n_levels: int) -> np.ndarray:
    """The records of the times schemes.time_grid(n_levels, dt): write_csv's
    first column of every table on the grid, as a new array."""
    times = schemes.time_grid(n_levels, dt)
    records = np.empty((n_levels, _RECORD_BYTES), np.uint8)
    for start in range(0, n_levels, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        records[rows] = _records(times[rows])
    return records


# Rows per block of write_csv: bounds the transient buffers.
_BLOCK_ROWS = 2048
# The kernel's domain: within it the scale 10^p and its split stay finite
# and the scale's low word stays a normal number.
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
# Scaled values whose fraction lies within this of 1/2 are too close to a
# decimal tie to decide with the double-double product, whose tail is off
# by up to a few 1e-15.
_TIE_BAND = 1e-6
# Dekker's splitting constant 2^27 + 1.
_SPLIT = 134217729.0
# The decimal exponents floor(log10|x|) of the kernel's domain lie in
# [-_EXP_MAX, _EXP_MAX], with one to spare for a log10 rounded across a
# power of ten; the tables below are indexed by exponent + _EXP_MAX.
_EXP_MAX = 281
# The record of one value, the longest '%.16e' text: sign ('-' or NUL),
# lead digit, '.', the 16 further digits, 'e' and the exponent (sign and
# two or three digits, NUL-padded to 4 bytes), built as six uint32 words.
_RECORD_BYTES = 24
# A non-negative value with a two-digit exponent has a '%.16e' text of
# _STANDARD_LENGTH bytes, which its record holds in the _FIXED bytes 1..22.
_STANDARD_LENGTH = 22
_FIXED = slice(1, _STANDARD_LENGTH + 1)


@functools.cache
def _scales() -> tuple[np.ndarray, np.ndarray]:
    """The scale 10^(16 - e) of each exponent e as a double-double
    (hi, lo): with p = 16 - e, hi is 10^p rounded to nearest and lo the
    residual 10^p - hi rounded to nearest, both from exact integers (Python's int-to-float
    conversion and int / int division round correctly)."""
    pairs = []
    for p in range(16 + _EXP_MAX, 15 - _EXP_MAX, -1):
        if p >= 0:
            exact = 10**p
            hi = float(exact)
            pairs.append((hi, float(exact - int(hi))))
        else:
            den = 10**-p
            hi = 1 / den
            num, pow2 = hi.as_integer_ratio()
            pairs.append((hi, (pow2 - num * den) / (pow2 * den)))
    table = np.array(pairs)
    table.setflags(write=False)
    return tuple(table.T)


def _ascii_words(texts) -> np.ndarray:
    """Each text of at most 4 ASCII characters as the 4 bytes of one uint32,
    NUL-padded, so that storing the word writes the text (read-only: the
    callers cache it)."""
    words = np.array(texts, dtype="S4").view(np.uint32)
    words.setflags(write=False)
    return words


@functools.cache
def _digit_quads() -> np.ndarray:
    """The digits 0000..9999, indexed by their value."""
    return _ascii_words([f"{i:04d}" for i in range(10000)])


@functools.cache
def _leads() -> np.ndarray:
    """A record's first word, NUL (a non-negative value's sign), the lead
    digit, '.' and the next digit, indexed by the value of the two digits
    (12: NUL '1.2')."""
    return _ascii_words([f"\0{i // 10}.{i % 10}" for i in range(100)])


@functools.cache
def _tails() -> np.ndarray:
    """The last three digits and 'e' ('000e'..'999e'), indexed by the
    value of the digits."""
    return _ascii_words([f"{i:03d}e" for i in range(1000)])


@functools.cache
def _exponents() -> np.ndarray:
    """The exponent field of %.16e ('+05', '-280') of each exponent, as the
    record's exponent word."""
    return _ascii_words([f"{e:+03d}" for e in range(-_EXP_MAX, _EXP_MAX + 1)])


def _split(v):
    """Dekker's split of v into a 26-bit high part and the exact rest."""
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


def _records(values: np.ndarray) -> np.ndarray:
    """'%.16e' % v for every value, as one NUL-padded 24-byte record per
    value: a (len(values), 24) uint8 array whose rows _joined turns into
    text.

    With p = 16 - floor(log10|v|), the 17-digit mantissa is |v| 10^p
    rounded to an integer.  That product is formed as Dekker's two-product
    of |v| and the double-double 10^p (Dekker, Numer. Math. 18, 1971):
    its high word s is an integer above 2^53, and its tail is within a few
    1e-15 of |v| 10^p - s.  The mantissa is s + floor(tail), plus one when
    the tail's fraction exceeds 1/2.  A value goes to Python's formatter
    instead when it is zero, not finite or outside [1e-280, 1e280], when
    its fraction lies within _TIE_BAND of 1/2 (ties included), or when its
    scaled floor or mantissa leaves [10^16, 10^17) (log10 rounded across a
    power of ten, or a mantissa rounding up to 10^17); its mantissa is set
    to 10^16 first, so that every table lookup stays in range.

    The digits are split off by division and subtraction (numpy's integer
    division by a constant is several times cheaper than its remainder)
    into the keys of the record's six aligned uint32 words, each stored
    from a lookup table: NUL, the lead digit, '.' and the next digit
    (_leads, by the first two digits); three groups of four digits
    (_digit_quads); the last three digits and 'e' (_tails); the exponent
    (_exponents).  A negative value then gets '-' in byte 0.
    """
    mag = np.abs(values)
    inside = (mag >= _KERNEL_MIN) & (mag <= _KERNEL_MAX)
    mag[~inside] = 1.0
    index = _EXP_MAX + np.floor(np.log10(mag)).astype(np.int64)
    hi_table, lo_table = _scales()
    hi, lo = hi_table[index], lo_table[index]
    s = mag * hi
    mag_hi, mag_lo = _split(mag)
    hi_hi, hi_lo = _split(hi)
    tail = ((mag_hi * hi_hi - s) + mag_hi * hi_lo + mag_lo * hi_hi) + mag_lo * hi_lo
    tail += mag * lo
    whole = np.floor(tail)
    frac = tail - whole
    floor = s.astype(np.int64) + whole.astype(np.int64)
    mantissa = floor + (frac > 0.5)
    kernel = (
        inside
        & (np.abs(frac - 0.5) > _TIE_BAND)
        & (floor >= 10**16)
        & (mantissa < 10**17)
    )

    fallback = np.flatnonzero(~kernel)
    mantissa[fallback] = 10**16

    # int64 keys: numpy indexes about twice as fast with them as with
    # narrower ones, which it converts first
    high = mantissa // 10**7  # the lead digit and the next 9
    low = mantissa - high * 10**7
    lead = high // 10**8  # the lead digit and the next one
    middle = high - lead * 10**8
    middle_quad, low_quad = middle // 10**4, low // 10**3
    quads = _digit_quads()
    words = np.empty((len(values), _RECORD_BYTES // 4), np.uint32)
    words[:, 0] = _leads()[lead]
    words[:, 1] = quads[middle_quad]
    words[:, 2] = quads[middle - middle_quad * 10**4]
    words[:, 3] = quads[low_quad]
    words[:, 4] = _tails()[low - low_quad * 10**3]
    words[:, 5] = _exponents()[index]
    raw = words.view(np.uint8)
    raw[values < 0, 0] = ord("-")
    for i in fallback:
        text = ("%.16e" % values[i]).encode()
        # a text of the standard length sits where the kernel's would
        at = _FIXED.start if len(text) == _STANDARD_LENGTH else 0
        raw[i] = 0
        raw[i, at : at + len(text)] = np.frombuffer(text, np.uint8)
    return raw


def _fixed_width(fields) -> bool:
    """Whether no record of the record arrays has a sign or a last byte (a
    three-digit exponent, or a fallback text placed at byte 0):
    every value is non-negative with a two-digit exponent, and every
    fallback text has the standard length.  The _FIXED slices of such
    records are their whole text."""
    return not any(f[:, 0].any() or f[:, -1].any() for f in fields)


def _joined(fields):
    """The text of the record arrays' rows, side by side (equal-length
    arrays, such as a table's columns), comma-separated and each ending in
    '\\n', built in one (rows, width) uint8 buffer.  When the rows are
    fixed-width the buffer holds the _FIXED slices and is returned as it
    is, for the file to take without a copy; otherwise it holds the whole
    records, and their text with the NUL bytes stripped is returned as
    bytes."""
    fixed = _fixed_width(fields)
    field = _FIXED if fixed else slice(0, _RECORD_BYTES)
    step = field.stop - field.start + 1
    text = np.empty((len(fields[0]), step * len(fields)), np.uint8)
    for k, f in enumerate(fields):
        text[:, k * step : (k + 1) * step - 1] = f[:, field]
    text[:, step - 1 :: step] = ord(",")
    text[:, -1] = ord("\n")
    return text if fixed else text.tobytes().translate(None, b"\0")


def write_exact(model: OdeModel, dt: float, t_end: float, path) -> None:
    """Sample the exact solution at t = k dt, k = 0..floor(t_end/dt), in one
    call through schemes.grid_samples, as run_experiment does, and write it
    as CSV with columns t,x,y[,z] (n <= 3, or ValueError)."""
    if model.n > 3:
        raise ValueError(f"exact CSV columns t,x,y,z name at most 3 states, got n = {model.n}")
    n_levels = schemes.step_count(dt, t_end) + 1
    header = ",".join(("t", "x", "y", "z")[: model.n + 1])
    samples = schemes.grid_samples(_sampled_exact, model.exact, float(dt), n_levels)
    write_csv(path, header, dt, tuple(samples.T))


def run_figure(figure_id: str, out_dir) -> list[Path]:
    """Write the CSV data and gnuplot script for one figure.

    Error figures produce <figure>_<scheme>_<dt>.csv with columns
    t,rel_error; exact figures a single <figure>.csv with the state
    columns.  Every table goes through write_csv on its step size's grid,
    so the tables of a figure share each step size's formatted time
    column.  Returns the written paths (script last).
    """
    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure {figure_id!r}; valid: {', '.join(sorted(FIGURES))}"
        )
    spec = FIGURES[figure_id]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = make_model(spec["model"])
    written = []
    if spec["kind"] == "exact":
        path = out / f"{figure_id}.csv"
        write_exact(model, spec["dt"], spec["t_end"], path)
        written.append(path)
        script = _exact_script(figure_id, model.n)
    else:
        csv_names = []
        for label, scheme in spec["schemes"]:
            for dt in spec["dts"]:
                _, series, _ = run_experiment(model, scheme, dt, spec["t_end"])
                name = f"{figure_id}_{label}_{dt_label(dt)}.csv"
                write_csv(out / name, "t,rel_error", dt, (series.errors,))
                written.append(out / name)
                csv_names.append((name, label, dt))
        script = _error_script(figure_id, spec, csv_names)
    script_path = out / f"{figure_id}.gp"
    script_path.write_bytes(script.encode())
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
