"""Time steppers for X' = A X + B and the driver that produces trajectories.

Reference schemes: explicit and implicit Euler and the traditional
per-component nonstandard scheme with denominators (1 - exp(a_ii dt))/(-a_ii).

Exponential-fitted schemes: the matrix form

    X_{k+1} = X_k + Q (A X_k + B-hat),   Q = dt phi1(dt A),

which reproduces exp(dt A) without inverting A, and the scalar form, the
same step with Q = sum_j q_j A^j from the Cayley-Hamilton coefficients
alpha_j (exact) or gamma_j (order-n truncation).  B-hat is a per-step
approximation of the forcing: left/right/middle endpoint values, the
endpoint average, or the exact integral mean over the step.

Every one of these one-step schemes is X+ = X + Q (A X + B-hat) with its
own denominator matrix Q, Mickens' denominator function in matrix form,
which StepContext compiles once.  march, the one stepping kernel, runs the
recurrence of a forcing that does not depend on the state for all levels
at once, as a log-depth prefix scan (_affine_scan).

A state forcing declared as the rank-one quadratic B(x) = b (u.x)^2 (the
oscillator's) is stepped in closed form on Python floats: the explicit
value, the semi-implicit product (Kahan's symmetric form of a quadratic
vector field; Celledoni, McLachlan, Owren & Quispel, J. Phys. A 46, 2013)
and implicit Euler each reduce to a scalar equation in s = u.X+ with an
explicit solution (_quadratic_march).  That declaration is the only form a
state forcing takes (models.Forcing), so no step needs an iterative solve.

For the conservative oscillator x'' + x + x^2 = 0 three dedicated two-level
recurrences are provided, all sharing the exact linear denominator
(2 sin(dt/2))^2; they differ in the discretization of the quadratic term.
Their context is that of their one-step start-up, and march runs each
recurrence as one loop on Python floats (_osc_levels).

Every closed-form loop allocates the run's states before its first step and
writes each level into them through a memoryview of each row, so the
levels are held once, and the states are the transposed view of a
component-major array, as on the affine route.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .models import OdeModel

EXPLICIT_EULER = "explicit-euler"
IMPLICIT_EULER = "implicit-euler"
TRADITIONAL_NSFD = "traditional-nsfd"
MATRIX_NSFD = "matrix-nsfd"
SCALAR_NSFD = "scalar-nsfd"
GAMMA_NSFD = "gamma-nsfd"
MICKENS_OSC1 = "mickens-osc1"
MICKENS_OSC2 = "mickens-osc2"
CORRECTED_OSC = "corrected-osc"

SCHEME_KINDS = (
    EXPLICIT_EULER,
    IMPLICIT_EULER,
    TRADITIONAL_NSFD,
    MATRIX_NSFD,
    SCALAR_NSFD,
    GAMMA_NSFD,
    MICKENS_OSC1,
    MICKENS_OSC2,
    CORRECTED_OSC,
)
SECOND_ORDER_KINDS = (MICKENS_OSC1, MICKENS_OSC2, CORRECTED_OSC)

FORCING_LEFT = "left"
FORCING_RIGHT = "right"
FORCING_MIDDLE = "middle"
FORCING_HALF = "half"
FORCING_MEAN = "mean"
FORCING_APPROXES = (FORCING_LEFT, FORCING_RIGHT, FORCING_MIDDLE, FORCING_HALF, FORCING_MEAN)

NONLOCAL_EXPLICIT = "explicit"
NONLOCAL_SEMI_IMPLICIT = "semi-implicit-product"
NONLOCAL_KINDS = (NONLOCAL_EXPLICIT, NONLOCAL_SEMI_IMPLICIT)

# _affine_scan holds a power of P as P^s - I until an entry exceeds this
_POWER_FORM_SWITCH = 0.5
# ... and leaves a step whose powers have an entry above this to the loop
_POWER_GROWTH_LIMIT = 4.0


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme choice: kind plus the forcing treatment.

    forcing_approx selects B-hat for time-dependent forcing: the left,
    right or middle value, their endpoint average ("half"), or the integral
    mean ("mean"), each step's as _time_forcing samples it.  The Euler
    schemes ignore it: explicit is the left value, implicit the right one
    by definition.  A constant or absent forcing has one B-hat for every
    step, so the choice does not apply to it either.  nonlocal_b selects
    the discretization of state-dependent forcing: the explicit one-level
    value B(X_k) or the semi-implicit two-level product, which is linear
    in X_{k+1}.  The Euler schemes ignore it too: explicit Euler takes
    B(X_k) and implicit Euler B(X_{k+1}) by definition.
    """

    kind: str
    forcing_approx: str = FORCING_HALF
    nonlocal_b: str = NONLOCAL_SEMI_IMPLICIT

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; valid: {', '.join(SCHEME_KINDS)}")
        if self.forcing_approx not in FORCING_APPROXES:
            raise ValueError(
                f"unknown forcing approximation {self.forcing_approx!r}; "
                f"valid: {', '.join(FORCING_APPROXES)}"
            )
        if self.nonlocal_b not in NONLOCAL_KINDS:
            raise ValueError(
                f"unknown nonlocal form {self.nonlocal_b!r}; valid: {', '.join(NONLOCAL_KINDS)}"
            )
        if self.kind in SECOND_ORDER_KINDS and self.nonlocal_b != NONLOCAL_SEMI_IMPLICIT:
            raise ValueError(
                f"scheme {self.kind!r} starts with the semi-implicit product; "
                f"nonlocal form {self.nonlocal_b!r} does not apply"
            )


@dataclass(frozen=True)
class Trajectory:
    """Computed states on the time grid of the step dt.

    states, of shape (N, n), has the n-vector at level k, time k dt, as
    states[k], with states[0] the given initial state; times is that grid,
    time_grid(N, dt), built on each read.  The memory layout of states is
    not part of the contract: it may be a transposed view.  On every route
    a trajectory ends before its first non-finite state: every entry of
    states is finite, and blow_up_step is the index of the first level with
    a non-finite entry (None if there is none); a two-level recurrence's
    y_k needs x_{k+1}.
    """

    dt: float
    states: np.ndarray
    blow_up_step: int | None = None

    @property
    def times(self) -> np.ndarray:
        return time_grid(len(self.states), self.dt)


class StepContext:
    """Everything a stepper needs, precomputed once per (model, scheme, dt).

    A one-step scheme is its denominator matrix Q, the matrix form of
    Mickens' denominator function, and compiles to the affine map
    X+ = X + Q (A X + B-hat) = P X + Q B-hat, with P = I + Q A:

      explicit-euler     Q = dt I
      implicit-euler     Q = dt (I - dt A)^-1
      traditional-nsfd   Q = diag(phi)
      matrix-nsfd        Q = dt phi1(dt A)
      scalar/gamma-nsfd  Q = sum_j q_j A^j   (matkit.forcing_weight)

    with phi_i = (1 - exp(a_ii dt))/(-a_ii) (dt where a_ii = 0) and q_j from
    the alpha (exact) or gamma (order-n) coefficients.  The map is held as
    q and d = P - I = Q A, and applied as X + (D X + Q B-hat):
    P is within O(dt) of I, so a stored P would round away the low digits
    of every step's increment, and with them the forced equilibrium
    (P - I) X* = -Q B.  march's prefix scan keeps the same increment form
    for the powers P^s while max|P^s - I| <= 1/2, and squares P^s itself
    beyond that.  A two-level oscillator scheme compiles the q and d of its
    start-up, scalar-nsfd with the semi-implicit product, and nothing
    else; a model that does not declare x'' + x + x^2 = 0 (by A and the
    quadratic, not by name) raises ValueError.  A was checked when the
    model was built (models.OdeModel).

    A build never warns: every kind raises OverflowError naming the scheme
    and dt when Q or D is not finite (or dt A, matkit's coefficients or
    phi1 overflow on the way), and implicit Euler raises RuntimeError,
    naming them too, when I - dt A is singular.

    A state forcing is stepped in closed form for n = 2 only; any other n
    raises ValueError.
    """

    def __init__(self, model: OdeModel, scheme: SchemeSpec, dt: float):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError("dt must be positive and finite")
        if model.forcing.kind == "state" and model.n != 2:
            raise ValueError(
                f"a quadratic forcing is stepped in closed form for n = 2, got n = {model.n}"
            )
        self.model = model
        self.scheme = scheme
        self.dt = float(dt)
        a = model.a_matrix
        kind = scheme.kind
        if kind in SECOND_ORDER_KINDS:
            # x'' + x + x^2 = 0: A = [[0, 1], [-1, 0]], b = (0, -1), u = e_1
            f = model.forcing
            if not (f.kind == "state" and np.array_equal(a, [[0.0, 1.0], [-1.0, 0.0]])
                    and np.array_equal(f.quadratic, [[0.0, -1.0], [1.0, 0.0]])):
                raise ValueError(f"scheme {kind!r} applies only to the oscillator equation")
            # then the start-up's Q, as scalar-nsfd's
        context = f"scheme {kind!r} at dt = {self.dt!r}"
        # Q's failures name the scheme and dt; an overflow is OverflowError
        # for every kind, from matkit, _denominator or the check below, and
        # never a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                self.q = _denominator(model, kind, dt)
            except (OverflowError, RuntimeError) as exc:
                raise type(exc)(f"{context}: {exc}") from None
            # P - I = Q A for every kind (M - I = dt M A as M (I - dt A) = I,
            # and exp(dt z) - 1 = z q(z)), and this form does not cancel in
            # alpha_0 - 1
            self.d = self.q @ a
        if not (matkit._all_finite(self.q) and matkit._all_finite(self.d)):
            raise OverflowError(f"{context}: Q or D = Q A overflowed")


def _denominator(model: OdeModel, kind: str, dt: float) -> np.ndarray:
    """The denominator matrix Q of a kind, as tabled in StepContext.  An
    overflowing dt A, which implicit Euler and phi1 take, raises
    OverflowError, and a singular I - dt A RuntimeError."""
    a = model.a_matrix
    if kind == EXPLICIT_EULER:
        return dt * np.eye(model.n)
    if kind == TRADITIONAL_NSFD:
        diag = np.diag(a)
        safe = np.where(diag == 0.0, 1.0, diag)
        # (1 - exp(lam dt))/(-lam) = expm1(lam dt)/lam, and dt for lam = 0
        return np.diag(np.where(diag == 0.0, dt, np.expm1(diag * dt) / safe))
    if kind in (IMPLICIT_EULER, MATRIX_NSFD):
        dt_a = dt * a
        if not matkit._all_finite(dt_a):
            raise OverflowError("dt A overflowed")
        if kind == MATRIX_NSFD:
            return dt * matkit.phi1(dt_a)
        try:
            return dt * np.linalg.inv(np.eye(model.n) - dt_a)
        except np.linalg.LinAlgError:  # a ValueError, which the CLI calls a usage error
            raise RuntimeError("I - dt A is singular") from None
    if kind == GAMMA_NSFD:
        coeffs = matkit.gamma_coeffs(matkit.char_poly(a), dt)
    else:  # scalar-nsfd, and the two-level kinds' start-up
        coeffs = matkit.alpha_coeffs(a, model.spectrum, dt)
    return matkit.forcing_weight(a, coeffs)


# the Euler schemes fix their time sample by definition
_EULER_FORCING = {EXPLICIT_EULER: FORCING_LEFT, IMPLICIT_EULER: FORCING_RIGHT}


@functools.cache
def _gauss_legendre_5() -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss-Legendre nodes and weights, loading numpy.polynomial on first use."""
    return np.polynomial.legendre.leggauss(5)


def _step_columns(ctx: StepContext, n_steps: int) -> np.ndarray:
    """The forcing columns c_k = Q B-hat_k of n_steps steps of ctx.dt from
    t = 0, which march writes into levels[:, 1:].

    A time forcing gives one column per step, (n, n_steps), from its
    B-hat samples through grid_samples, keyed by _time_forcing and the
    rule (the Euler schemes' fixed time sample, or forcing_approx).  A
    constant forcing gives the one column Q b and an absent one a zero
    column, (n, 1), which broadcast over every step.  A state forcing never
    gets here: march steps it in closed form.
    """
    f = ctx.model.forcing
    if f.kind == "time":
        rule = _EULER_FORCING.get(ctx.scheme.kind, ctx.scheme.forcing_approx)
        b_hat = grid_samples(_time_forcing, f.time_fn, f.antiderivative, rule, ctx.dt, n_steps)
        return ctx.q @ b_hat.T
    if f.kind == "constant":
        return (ctx.q @ f.constant)[:, None]
    return np.zeros((ctx.model.n, 1))


def _time_forcing(time_fn, antiderivative, rule: str, dt: float, n_steps: int) -> np.ndarray:
    """B-hat of a time forcing by one rule on each of n_steps steps of dt,
    at their start times time_grid(n_steps, dt), shape (n_steps, n), as a
    new array.

    The rules are the left, right or middle value, their endpoint average
    ("half"), or the integral mean (1/dt) int B(t) dt over the step
    ("mean"), from the antiderivative when there is one and by 5-point
    Gauss-Legendre quadrature otherwise.  The quadrature is the only "mean"
    route for a time forcing declared without an antiderivative (none of
    the stock models is), so it stays: it is exact for a polynomial forcing
    up to degree 9 and off by O(dt^10) for a smooth one, far below the
    O(dt^2) error of stepping with the mean.
    """
    t_k = time_grid(n_steps, dt)
    if rule == FORCING_LEFT:
        values = time_fn(t_k)
    elif rule == FORCING_RIGHT:
        values = time_fn(t_k + dt)
    elif rule == FORCING_MIDDLE:
        values = time_fn(t_k + dt / 2.0)
    elif rule == FORCING_HALF:
        values = 0.5 * (time_fn(t_k) + time_fn(t_k + dt))
    elif antiderivative is not None:
        values = (antiderivative(t_k + dt) - antiderivative(t_k)) / dt
    else:
        half = dt / 2.0
        gl_nodes, gl_weights = _gauss_legendre_5()
        # one evaluation at all nodes of all steps, node-major: shape
        # (5, n_steps, n), contracted as one (5,) @ (5, n_steps n) product
        nodes = (t_k + half) + half * gl_nodes[:, None]
        samples = time_fn(nodes)
        values = (gl_weights @ samples.reshape(5, -1)).reshape(samples.shape[1:]) * half / dt
    return np.array(values, dtype=float)


def _quadratic_march(ctx: StepContext, x0: np.ndarray, n_steps: int) -> np.ndarray:
    """The levels of a planar one-step scheme under the quadratic forcing
    B(x) = b (u.x)^2, stepped in closed form on Python floats.

    With p = X_k + D X_k, w = Q b, c = u.w and s = u.X, a step is
    X+ = X_k + (D X_k + w sigma), in the increment form of march, with

      explicit value          sigma = s_k^2
      semi-implicit product   sigma = s_k s+,  s+ = u.p / (1 - c s_k)
      implicit Euler          sigma = s+^2,    s+ = 2 u.p / (1 + sqrt(1 - 4 c u.p))

    Implicit Euler's s+ is the root of s = u.p + c s^2 that tends to u.p as
    dt -> 0, in the form that does not cancel.  Each rule is one loop, which
    writes level k straight into the states through a memoryview of each
    row, so the levels are held once.  A zero pivot raises RuntimeError with
    the step index, from the division's ZeroDivisionError; so does a
    negative or overflowing discriminant of a finite state.  The levels are
    raw: finiteness is left to _finite_prefix.  Every level after the first
    non-finite one is NaN or +-inf, and so is its pivot, so a run that blows
    up steps on to its horizon (implicit Euler stops at its discriminant
    test, and returns the levels before it) and costs what a finite run
    costs.  The states are the (N + 1, 2) transposed view of a
    component-major (2, N + 1) array.
    """
    # allocated first, so a step count that cannot be held fails before
    # the loop steps until memory runs out
    states = np.empty((2, n_steps + 1))
    kind = ctx.scheme.kind
    b, u = ctx.model.forcing.quadratic
    (dxx, dxy), (dyx, dyy) = ctx.d.tolist()
    wx, wy = (ctx.q @ b).tolist()
    ux, uy = u.tolist()
    c = ux * wx + uy * wy
    x, y = (float(v) for v in x0)
    # element stores into the rows as raw doubles: no float object per level
    xs, ys = memoryview(states[0]), memoryview(states[1])
    xs[0], ys[0] = x, y
    if kind == IMPLICIT_EULER:
        inf, sqrt = math.inf, math.sqrt
        for k in range(1, n_steps + 1):
            dx = dxx * x + dxy * y
            dy = dyx * x + dyy * y
            up = ux * (x + dx) + uy * (y + dy)
            disc = 1.0 - 4.0 * c * up
            if not 0.0 <= disc < inf:
                if not (math.isfinite(x) and math.isfinite(y)):
                    # the blow-up's first non-finite level is the last one
                    return states[:, :k].T
                raise RuntimeError(
                    f"step {k - 1}: implicit quadratic step has no real solution "
                    f"(discriminant {disc:.3e})"
                )
            s_next = 2.0 * up / (1.0 + sqrt(disc))
            sigma = s_next * s_next
            x += dx + wx * sigma
            y += dy + wy * sigma
            xs[k] = x
            ys[k] = y
    elif kind == EXPLICIT_EULER or ctx.scheme.nonlocal_b == NONLOCAL_EXPLICIT:
        for k in range(1, n_steps + 1):
            dx = dxx * x + dxy * y
            dy = dyx * x + dyy * y
            s = ux * x + uy * y
            sigma = s * s
            x += dx + wx * sigma
            y += dy + wy * sigma
            xs[k] = x
            ys[k] = y
    else:
        try:
            for k in range(1, n_steps + 1):
                dx = dxx * x + dxy * y
                dy = dyx * x + dyy * y
                s = ux * x + uy * y
                up = ux * (x + dx) + uy * (y + dy)
                sigma = s * (up / (1.0 - c * s))
                x += dx + wx * sigma
                y += dy + wy * sigma
                xs[k] = x
                ys[k] = y
        except ZeroDivisionError:
            raise RuntimeError(
                f"step {k - 1}: semi-implicit product step has a zero pivot"
            ) from None
    return states.T


def _affine_scan(d: np.ndarray, states: np.ndarray) -> bool:
    """Run x_{k+1} = P x_k + c_k, P = I + D, in place by a doubling prefix scan.

    states holds the levels component-major, one column per level: on entry
    states[:, 0] = x_0 and states[:, k + 1] = c_k.  The pass with shift
    s = 1, 2, 4, ... adds P^s states[:, k - s] to states[:, k]; after it,
    states[:, k] holds sum_{j = k-2s+1..k} P^{k-j} y_j (y_0 = x_0,
    y_j = c_{j-1}), so ceil(log2(N + 1)) passes leave
    states[:, k] = P^k x_0 + sum_{j<k} P^{k-1-j} c_j (Hillis & Steele, 1986;
    Blelloch, "Prefix sums and their applications", 1990).  Each pass is one
    (n x n) @ (n x N) product, with the levels along the contiguous axis.

    While P^s is near I the power is held as E = P^s - I (E <- 2E + E E) and
    applied as src + E src, for the same reason the context holds D: a stored
    P^s would round away the low digits of the increments.  Once
    max|E| > 1/2 that reason is gone, and P^s = I + E is squared instead,
    which keeps the relative accuracy of decaying states.

    Returns True when every level is finite.  Returns False, leaving states
    partly scanned, if a power has an entry above _POWER_GROWTH_LIMIT (or
    not finite) or a state is not finite.  Such a P is unstable or strongly
    non-normal: its powers overflow, or the rounding error of the squarings,
    which grows as the square of the powers' size (the sequential loop's
    grows linearly), is no longer small.
    """
    n_levels = states.shape[1]
    e, p = d, None
    shift = 1
    while shift < n_levels:
        if p is None and np.max(np.abs(e)) > _POWER_FORM_SWITCH:
            p = np.eye(e.shape[0]) + e
        if p is not None and not np.max(np.abs(p)) <= _POWER_GROWTH_LIMIT:
            return False
        src = states[:, :-shift]
        if p is None:
            inc = e @ src
            inc += src
            e = 2.0 * e + e @ e
        else:
            inc = p @ src
            p = p @ p
        states[:, shift:] += inc
        shift *= 2
    return bool(np.isfinite(states).all())


def _affine_loop(d: np.ndarray, states: np.ndarray) -> None:
    """The same recurrence as _affine_scan, on the same component-major
    levels, one level at a time."""
    levels = list(states.T)  # column views: level k + 1 starts as c_k
    for x, nxt in zip(levels, levels[1:]):
        nxt += d @ x
        nxt += x


def march(ctx: StepContext, x0: np.ndarray, n_steps: int) -> Trajectory:
    """n_steps of ctx's scheme from x0 at t = 0: the one stepping kernel.

    Forcing that does not depend on the state enters as the columns
    c_k = Q B-hat_k of _step_columns, written into the levels after x0: a
    time forcing's one column per step, sampled through grid_samples keyed
    by (_time_forcing, time_fn, antiderivative, rule, dt, n_steps), so the
    schemes that share a rule on a grid evaluate it once; a constant or
    absent forcing's one column, broadcast over every step.  The recurrence
    x_{k+1} = x_k + (D x_k + c_k) runs as a log-depth prefix scan over all
    levels (_affine_scan), held component-major as an (n, N + 1) array,
    with the powers P^s held as P^s - I until an entry exceeds 1/2.  The
    trajectory's states are the (N + 1, n) transposed view of that array.
    If a power has an entry above 4 (an unstable or strongly non-normal
    step) or a state overflows, the run is redone one level at a time
    (_affine_loop, on the same columns), so its accuracy and blow_up_step
    are the sequential recurrence's.
    A state forcing, the declared quadratic, steps in closed form
    (_quadratic_march), and a two-level oscillator scheme runs its
    recurrence from that closed form's first step (_two_level_states).
    Both write each level into their preallocated (n, N + 1) array, and
    their states are its transposed view too.
    Solver failures raise RuntimeError with the step index attached; the
    trajectory ends before its first non-finite state (_finite_prefix).
    """
    # overflow is a recorded outcome, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        if ctx.scheme.kind in SECOND_ORDER_KINDS:
            states = _two_level_states(ctx, x0, n_steps)
        elif ctx.model.forcing.kind == "state":
            states = _quadratic_march(ctx, x0, n_steps)
        else:
            levels = np.empty((ctx.model.n, n_steps + 1))
            levels[:, 0] = x0
            c = _step_columns(ctx, n_steps)
            levels[:, 1:] = c
            if not _affine_scan(ctx.d, levels):
                levels[:, 1:] = c  # the scan never writes level 0
                _affine_loop(ctx.d, levels)
            states = levels.T
    return _finite_prefix(ctx, states)


def _finite_prefix(ctx: StepContext, states: np.ndarray) -> Trajectory:
    """The trajectory of the raw levels states[k] with ctx's step, ending
    before its first level with a non-finite entry, the blow_up_step.
    march, the one stepping kernel, returns every route through here."""
    blow_up = None
    if not np.isfinite(states).all():
        blow_up = int(np.argmin(np.isfinite(states).all(axis=1)))
        states = states[:blow_up]
    return Trajectory(ctx.dt, states, blow_up)


def integrate(model: OdeModel, scheme: SchemeSpec, dt: float, t_end: float, x0=None) -> Trajectory:
    """March from t = 0 to t_end = floor(t_end/dt) steps of size dt.

    x0 defaults to the model's initial state and must be finite, like dt
    and t_end; every scheme then runs through march on its StepContext.
    Solver failures raise with the step index attached; the trajectory ends
    before its first non-finite state and records it as blow_up_step
    instead of raising.
    """
    n_steps = step_count(dt, t_end)
    state0 = np.array(model.initial_state if x0 is None else x0, dtype=float)
    if state0.shape != (model.n,):
        raise ValueError(f"initial state must have shape ({model.n},)")
    if not np.isfinite(state0).all():
        raise ValueError("initial state must be finite")
    return march(StepContext(model, scheme, dt), state0, n_steps)


def step_count(dt: float, t_end: float) -> int:
    """Steps of size dt that fit in [0, t_end], forgiving rounding in t_end/dt.

    dt must be positive and finite, t_end finite and at least dt, and
    t_end / dt finite (a subnormal dt can overflow it), or ValueError is
    raised: integrate and bench.write_exact reject the same inputs with the
    same messages.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValueError("t_end must be finite and at least dt")
    # on Python floats an overflowing quotient is inf, with no warning
    dt, t_end = float(dt), float(t_end)
    count = t_end / dt + 1e-9
    if not math.isfinite(count):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} = {count!r} steps is not a finite count")
    return int(math.floor(count))


def time_grid(n_levels: int, dt: float) -> np.ndarray:
    """The times t_k = k dt, k = 0..n_levels - 1, of every trajectory.

    Each level's time is the one product k * dt, never a running sum, so
    every caller that builds a grid of n levels of dt gets the same bits:
    the trajectories, the forcing times of march, and the samples that
    grid_samples keys by (dt, n_levels).
    """
    return np.arange(n_levels) * dt


def grid_samples(fn, *args) -> np.ndarray:
    """fn(*args), an array sampled on a time grid, kept in one LRU cache
    shared by every such sampler: the forcing values of march
    (_time_forcing), and bench's exact samples and time-column text.

    fn must be a pure function of its arguments that returns a new array,
    and the arguments must compare by value: the exact and forcing
    functions of the stock models do (models.make_model), so models built
    apart with equal parameters share their samples.  A cached entry is
    read-only, since every caller on the grid shares it.  When an argument
    is unhashable (a mutable callable, such as a dataclass instance),
    fn(*args) is returned and nothing is kept.
    """
    try:
        hash(args)
    except TypeError:
        return fn(*args)
    return _grid_cache(fn, *args)


# 4 grids, the most step sizes one figure sweeps (oscillator-error), of
# each kind of sample: exact states, time-column text and the forcing under
# each rule.  Every grid of a figure keeps its samples while its schemes run.
@functools.lru_cache(maxsize=4 * (2 + len(FORCING_APPROXES)))
def _grid_cache(fn, *args) -> np.ndarray:
    samples = fn(*args)
    samples.setflags(write=False)
    return samples


def _osc_levels(ctx: StepContext, xs: np.ndarray, n_steps: int) -> None:
    """Write the levels x_2 .. x_{n_steps+1} of a two-level recurrence into
    xs, a 1-D float64 array of n_steps + 2 entries that starts with
    (x_0, x_1).

    All three variants share (x_{k+1} - 2 x_k + x_{k-1})/(2 sin(dt/2))^2
    + x_k for the linear part and differ in the quadratic term:

      mickens-osc1   cos^2(dt/2) x_k^2                     (explicit)
      mickens-osc2   cos^2(dt/2) x_k (x_{k+1} + x_{k-1})/2 (linear solve)
      corrected-osc  x_k (x_{k+1} + x_{k-1})/2 on the right-hand side,
                     i.e. the averaged product form with no cos^2 factor
                     (linear solve)

    Each variant is one loop on Python floats, which writes each level
    through a memoryview of xs.  A zero pivot 1 + g x_k raises RuntimeError
    with the step index and x_k, from the division's ZeroDivisionError.  The
    levels are raw, and a blow-up steps on to the horizon, as in
    _quadratic_march.  The constants come from ctx.dt.
    """
    kind = ctx.scheme.kind
    s2 = (2.0 * math.sin(ctx.dt / 2.0)) ** 2
    c2 = math.cos(ctx.dt / 2.0) ** 2
    xs = memoryview(xs)
    x_prev, x_curr = xs[0], xs[1]
    if kind == MICKENS_OSC1:
        for k in range(2, n_steps + 2):
            x_prev, x_curr = x_curr, 2.0 * x_curr - x_prev - s2 * (x_curr + c2 * x_curr * x_curr)
            xs[k] = x_curr
    else:
        # pivot = 1 + g x_k, product term h x_k x_{k-1}
        if kind == MICKENS_OSC2:
            g, h = 0.5 * s2 * c2, 0.5 * c2
        else:
            g, h = 0.5 * s2, 0.5
        try:
            for k in range(2, n_steps + 2):
                x_prev, x_curr = x_curr, (
                    2.0 * x_curr - x_prev - s2 * (x_curr + h * x_curr * x_prev)
                ) / (1.0 + g * x_curr)
                xs[k] = x_curr
        except ZeroDivisionError:
            # the tuple assignment did not complete: x_curr is still x_k
            raise RuntimeError(
                f"step {k - 1}: degenerate pivot in {kind} update (x_k = {x_curr!r})"
            ) from None


def _two_level_states(ctx: StepContext, state0: np.ndarray, n_steps: int) -> np.ndarray:
    """The raw (x, y) states of a two-level recurrence, levels 0..n_steps.

    x_1 is the x of one step of ctx's start-up, the corrected one-step
    system form, finite or not, so convergence measurements reflect the
    recurrence, not an exact-solution seed.  y_0 is given; y_k, k >= 1,
    is the system row (x_{k+1} - cos(dt) x_k)/sin(dt), plus tan(dt/2)
    x_k x_{k+1} for corrected-osc, from the recurrence's levels up to a
    spare x_{n_steps+1}, with dt = ctx.dt.  The levels are held once, in
    a (2, n_steps + 2) array: _osc_levels writes x into row 0, and y is
    computed into row 1 in place.  The states are its (n_steps + 1, 2)
    transposed view without the spare level.  Runs under march's
    np.errstate.
    """
    # allocated first, so a step count that cannot be held fails before
    # the loop steps until memory runs out
    levels = np.empty((2, n_steps + 2))
    x, y = levels
    x[0] = state0[0]
    x[1] = _quadratic_march(ctx, state0, 1)[1, 0]
    _osc_levels(ctx, x, n_steps)
    y[0] = state0[1]
    # y_k = (x_{k+1} - cos(dt) x_k)/sin(dt), computed in its own row
    x_k, x_next, y_k = x[1:-1], x[2:], y[1:-1]
    np.multiply(x_k, math.cos(ctx.dt), out=y_k)
    np.subtract(x_next, y_k, out=y_k)
    y_k /= math.sin(ctx.dt)
    if ctx.scheme.kind == CORRECTED_OSC:
        product = math.tan(ctx.dt / 2.0) * x_k
        product *= x_next
        y_k += product
    return levels[:, :-1].T
