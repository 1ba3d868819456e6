"""Stepper behavior: exactness, hand-checked single steps, forcing
treatments, equilibria, reversibility, and blow-up bookkeeping."""
import dataclasses
import math
import re
import tracemalloc
import types
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nsfdlab as nl
import nsfdlab.matkit as mk
import nsfdlab.models as mo
import nsfdlab.schemes as sch


def make_linear_model(diag, x0=None):
    """Decoupled test system X' = diag(lambda) X with a known solution."""
    diag = np.asarray(diag, dtype=float)
    n = diag.size
    return mo.OdeModel(
        name="diag",
        a_matrix=np.diag(diag),
        spectrum=tuple((lam, 1) for lam in diag),
        forcing=mo.Forcing(kind="none"),
        initial_state=np.ones(n) if x0 is None else np.asarray(x0, dtype=float),
        exact=None,
        params={},
    )


def rk4_linear(a, x, dt):
    k1 = a @ x
    k2 = a @ (x + dt / 2 * k1)
    k3 = a @ (x + dt / 2 * k2)
    k4 = a @ (x + dt * k3)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# scheme spec and context validation
# ---------------------------------------------------------------------------


def test_scheme_spec_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        nl.SchemeSpec("rk4")
    with pytest.raises(ValueError, match="forcing"):
        nl.SchemeSpec("explicit-euler", forcing_approx="upwind")
    with pytest.raises(ValueError, match="nonlocal"):
        nl.SchemeSpec("explicit-euler", nonlocal_b="downwind")
    # a two-level scheme starts with the semi-implicit product, and its
    # start-up reads the spec's own rule
    with pytest.raises(ValueError, match="nonlocal form 'explicit'"):
        nl.SchemeSpec("mickens-osc1", nonlocal_b=sch.NONLOCAL_EXPLICIT)


def test_step_context_rejects_bad_dt(biomass):
    for dt in (0.0, -0.1, math.inf):
        with pytest.raises(ValueError):
            sch.StepContext(biomass, nl.SchemeSpec("explicit-euler"), dt)


def test_second_order_schemes_require_the_oscillator(biomass, oscillator):
    # admitted by the equation the model declares, not by its name: the
    # unforced oscillator has no x^2 term to discretize, and a renamed copy
    # is the same equation
    unforced = dataclasses.replace(
        oscillator, forcing=dataclasses.replace(oscillator.forcing, kind="none")
    )
    renamed = dataclasses.replace(oscillator, name="anharmonic")
    for kind in sch.SECOND_ORDER_KINDS:
        for model in (biomass, unforced):
            with pytest.raises(ValueError, match="oscillator"):
                sch.StepContext(model, nl.SchemeSpec(kind), 0.1)
        assert_bitwise_equal(
            nl.integrate(renamed, nl.SchemeSpec(kind), 0.01, 5.0).states,
            nl.integrate(oscillator, nl.SchemeSpec(kind), 0.01, 5.0).states,
        )


@pytest.mark.parametrize(
    "kind, diag, dt",
    [(kind, [1e308, -1.0], 10.0)
     for kind in sch.SCHEME_KINDS if kind not in sch.SECOND_ORDER_KINDS]
    # expm1(800 dt) overflows: Q itself is not finite
    + [("traditional-nsfd", [800.0, -1.0], 1.0)],
)
def test_every_one_step_context_raises_overflow_naming_the_scheme_and_dt(kind, diag, dt):
    # one rule for every kind, with no numpy warning on the way (the suite
    # turns RuntimeWarning into an error); explicit Euler's Q = 10 I is
    # finite and its D = 10 A is not
    with pytest.raises(OverflowError, match=re.escape(f"scheme '{kind}' at dt = {dt!r}: ")):
        sch.StepContext(make_linear_model(diag), nl.SchemeSpec(kind), dt)


def test_implicit_euler_on_a_singular_step_matrix_raises_runtime_error():
    # I - dt A = 0: numpy's LinAlgError is a ValueError, which the CLI
    # would report as a usage error
    message = re.escape("scheme 'implicit-euler' at dt = 1.0: I - dt A is singular")
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        sch.StepContext(make_linear_model([1.0]), nl.SchemeSpec("implicit-euler"), 1.0)


SINGULAR_MATRICES = {
    "nilpotent-2": (np.array([[0.0, 1.0], [0.0, 0.0]]), ((0.0, 2),)),
    "nilpotent-3": (np.diag([1.0, 1.0], 1), ((0.0, 3),)),
    "zero-eigenvalue": (
        np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 2.0], [0.0, 0.0, -2.0]]),
        ((0.0, 1), (-1.0, 1), (-2.0, 1)),
    ),
    # invertible, but its determinant 6e-360 underflows to 0
    "tiny-diagonal": (1e-120 * np.diag([1.0, 2.0, 3.0]), ((1e-120, 1), (2e-120, 1), (3e-120, 1))),
}


@pytest.mark.parametrize("dt", [0.1, 1.0])
@pytest.mark.parametrize("name", list(SINGULAR_MATRICES))
def test_scalar_scheme_on_singular_matrices_matches_expm_and_phi1(name, dt):
    # Q = sum_j q_j A^j needs no inverse, so a singular (or
    # determinant-underflowing) A steps like any other
    a, spectrum = SINGULAR_MATRICES[name]
    n = a.shape[0]
    model = mo.OdeModel(
        name=name,
        a_matrix=a,
        spectrum=spectrum,
        forcing=mo.Forcing(kind="none"),
        initial_state=np.ones(n),
        exact=None,
    )
    ctx = sch.StepContext(model, nl.SchemeSpec("scalar-nsfd"), dt)
    np.testing.assert_allclose(np.eye(n) + ctx.d, scipy.linalg.expm(dt * a), rtol=0, atol=2e-15)
    np.testing.assert_allclose(ctx.q, dt * mk.phi1(dt * a), rtol=0, atol=2e-15)


@pytest.mark.parametrize("b", [0.0, 0.8])
def test_scalar_scheme_is_mickens_exact_scheme_for_n_equal_one(b):
    # x' = lam x + b: Q = (exp(lam dt) - 1)/lam, Mickens' exact denominator,
    # so 1,000 steps follow the 40-digit flow to rounding
    lam, dt, x0 = -0.7, 0.01, 1.3
    model = mo.OdeModel(
        name="scalar",
        a_matrix=np.array([[lam]]),
        spectrum=((lam, 1),),
        forcing=mo.Forcing(kind="constant", constant=np.array([b])),
        initial_state=np.array([x0]),
        exact=None,
    )
    traj = nl.integrate(model, nl.SchemeSpec("scalar-nsfd"), dt, 1000 * dt)
    assert traj.states.shape == (1001, 1) and traj.blow_up_step is None
    with mpmath.workdps(40):
        lam_mp, x_eq = mpmath.mpf(lam), -mpmath.mpf(b) / mpmath.mpf(lam)
        flow = [x_eq + mpmath.exp(lam_mp * k * mpmath.mpf(dt)) * (x0 - x_eq) for k in range(1001)]
        exact = np.array([float(v) for v in flow])
    scale = np.arange(1001) * np.finfo(float).eps * np.max(np.abs(exact))
    assert np.all(np.abs(traj.states[:, 0] - exact) <= scale)
    with pytest.raises(ValueError, match="gamma coefficients need matrix dimension n >= 2"):
        nl.integrate(model, nl.SchemeSpec("gamma-nsfd"), dt, 1000 * dt)


# ---------------------------------------------------------------------------
# Euler pair
# ---------------------------------------------------------------------------


def test_explicit_euler_biomass_hand_steps(biomass):
    traj = nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), 0.1, 0.2)
    np.testing.assert_allclose(traj.states[1], [0.0, 0.5, 0.5], rtol=0, atol=1e-15)
    np.testing.assert_allclose(traj.states[2], [0.15, 0.6, 0.25], rtol=0, atol=1e-15)


def test_explicit_euler_oscillator_hand_step(oscillator):
    dt, x0 = 0.05, 0.25
    ctx = sch.StepContext(oscillator, nl.SchemeSpec("explicit-euler"), dt)
    step = sch.march(ctx, np.array([x0, 0.0]), 1).states[1]
    np.testing.assert_allclose(step, [x0, -dt * (x0 + x0 * x0)], rtol=0, atol=1e-16)


@pytest.mark.parametrize("kind", ["explicit-euler", "implicit-euler"])
@pytest.mark.parametrize("dt, t_end", [(0.01, 10.0), (0.5, 200.0)])
def test_the_euler_schemes_ignore_the_nonlocal_form(oscillator, kind, dt, t_end):
    # each Euler scheme fixes its own state-forcing step, B(X_k) or
    # B(X_{k+1}), so both nonlocal forms run the same loop (dt 0.5 blows
    # up under explicit Euler)
    explicit, semi = (
        nl.integrate(oscillator, nl.SchemeSpec(kind, nonlocal_b=form), dt, t_end)
        for form in sch.NONLOCAL_KINDS
    )
    assert explicit.blow_up_step == semi.blow_up_step
    assert_bitwise_equal(explicit.states, semi.states)


def test_explicit_euler_closed_form_on_decoupled_system():
    diag = np.array([-1.0, -2.5])
    model = make_linear_model(diag)
    traj = nl.integrate(model, nl.SchemeSpec("explicit-euler"), 0.1, 2.0)
    for k, state in enumerate(traj.states):
        np.testing.assert_allclose(state, (1.0 + 0.1 * diag) ** k, rtol=1e-13, atol=0)


def test_implicit_euler_is_a_linear_solve(biomass, trees):
    dt = 0.1
    ctx = sch.StepContext(biomass, nl.SchemeSpec("implicit-euler"), dt)
    x0 = biomass.initial_state
    expected = np.linalg.solve(np.eye(3) - dt * biomass.a_matrix, x0)
    np.testing.assert_allclose(
        sch.march(ctx, x0, 1).states[1], expected, rtol=0, atol=1e-14
    )
    ctx = sch.StepContext(trees, nl.SchemeSpec("implicit-euler"), dt)
    expected = np.linalg.solve(
        np.eye(3) - dt * trees.a_matrix, x0 + dt * trees.forcing.constant
    )
    np.testing.assert_allclose(
        sch.march(ctx, x0, 1).states[1], expected, rtol=0, atol=1e-14
    )


def test_implicit_euler_oscillator_fixed_point_residual(oscillator):
    dt = 0.01
    ctx = sch.StepContext(oscillator, nl.SchemeSpec("implicit-euler"), dt)
    x0 = np.array([0.25, 0.0])
    x1 = sch.march(ctx, x0, 1).states[1]
    residual = x1 - (x0 + dt * oscillator.rhs(dt, x1))
    assert np.max(np.abs(residual)) <= 1e-14


def test_fixed_point_divergence_reports_step_index():
    # x' = x^2 from x = 1 blows up at t = 1: at dt = 1 the implicit step
    # x_1 = x_0 + x_1^2 has no real fixed point (discriminant 1 - 4 x_0 < 0),
    # so the stepper error must carry "step 0"
    model = mo.OdeModel(
        name="runaway",
        a_matrix=np.zeros((2, 2)),
        spectrum=((0.0, 2),),
        forcing=mo.Forcing(kind="state", quadratic=([1.0, 0.0], [1.0, 0.0])),
        initial_state=np.array([1.0, 0.0]),
        exact=None,
        params={},
    )
    with pytest.raises(RuntimeError, match="step 0"):
        nl.integrate(model, nl.SchemeSpec("implicit-euler"), 1.0, 5.0)


# ---------------------------------------------------------------------------
# traditional scheme
# ---------------------------------------------------------------------------


def test_traditional_decay_component_is_exact(biomass):
    dt = 0.1
    traj = nl.integrate(biomass, nl.SchemeSpec("traditional-nsfd"), dt, 2.0)
    for k, state in enumerate(traj.states):
        assert abs(state[2] - math.exp(-5.0 * dt * k)) <= 1e-14


def test_traditional_hand_step(biomass):
    dt = 0.1
    ctx = sch.StepContext(biomass, nl.SchemeSpec("traditional-nsfd"), dt)
    x1 = sch.march(ctx, biomass.initial_state, 1).states[1]
    phi3 = (1.0 - math.exp(-3.0 * dt)) / 3.0
    np.testing.assert_allclose(
        x1, [0.0, phi3 * 5.0, math.exp(-5.0 * dt)], rtol=1e-14, atol=1e-16
    )


def test_traditional_forced_decay_row(trees):
    dt, zf = 0.1, trees.params["zf"]
    ctx = sch.StepContext(trees, nl.SchemeSpec("traditional-nsfd"), dt)
    z0 = trees.initial_state[2]
    x1 = sch.march(ctx, trees.initial_state, 1).states[1]
    phi5 = (1.0 - math.exp(-5.0 * dt)) / 5.0
    assert abs(x1[2] - (z0 + phi5 * (-5.0 * z0 + zf))) <= 1e-15


def test_traditional_zero_rate_rows_reduce_to_explicit_euler(oscillator):
    # the oscillator matrix has a zero diagonal, so every denominator is dt
    x0 = oscillator.initial_state
    ctx_t = sch.StepContext(oscillator, nl.SchemeSpec("traditional-nsfd"), 0.1)
    ctx_e = sch.StepContext(oscillator, nl.SchemeSpec("explicit-euler"), 0.1)
    np.testing.assert_array_equal(
        sch.march(ctx_t, x0, 1).states[1], sch.march(ctx_e, x0, 1).states[1]
    )


# ---------------------------------------------------------------------------
# matrix and scalar one-step forms
# ---------------------------------------------------------------------------


def test_matrix_scheme_is_exponential_on_linear_systems(biomass):
    traj = nl.integrate(biomass, nl.SchemeSpec("matrix-nsfd"), 0.1, 3.0)
    propagator = scipy.linalg.expm(0.1 * biomass.a_matrix)
    state = biomass.initial_state.copy()
    for k in range(traj.states.shape[0]):
        np.testing.assert_allclose(traj.states[k], state, rtol=0, atol=1e-13)
        state = propagator @ state


def test_matrix_scheme_exact_on_constant_forcing(trees):
    traj = nl.integrate(trees, nl.SchemeSpec("matrix-nsfd"), 0.1, 10.0)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(state, trees.exact(t), rtol=0, atol=1e-12)


def test_matrix_scheme_handles_singular_matrices():
    # shear flow: A^2 = 0, X(t) = (I + tA) X0; no inverse exists anywhere
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = mo.OdeModel(
        name="shear",
        a_matrix=a,
        spectrum=((0.0, 2),),
        forcing=mo.Forcing(kind="none"),
        initial_state=np.array([1.0, 1.0]),
        exact=None,
        params={},
    )
    traj = nl.integrate(model, nl.SchemeSpec("matrix-nsfd"), 0.25, 2.0)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(
            state, (np.eye(2) + t * a) @ model.initial_state, rtol=0, atol=1e-14
        )


def test_scalar_step_is_the_coefficient_polynomial(biomass):
    dt = 0.1
    ctx = sch.StepContext(biomass, nl.SchemeSpec("scalar-nsfd"), dt)
    x0 = biomass.initial_state
    x1 = sch.march(ctx, x0, 1).states[1]
    values = mk.alpha_coeffs(biomass.a_matrix, biomass.spectrum, dt).values
    a = biomass.a_matrix
    direct = values[0] * x0 + values[1] * a @ x0 + values[2] * a @ a @ x0
    np.testing.assert_allclose(x1, direct, rtol=0, atol=1e-14)
    # frozen 50-digit exponential-step value
    expected = [0.055746818222169871189, 0.33571890242271110616, 0.6065306597126334236]
    np.testing.assert_allclose(x1, expected, rtol=1e-13, atol=0)


def test_scalar_scheme_preserves_the_rotation_orbit():
    rotation = mo.OdeModel(
        name="rotation",
        a_matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        spectrum=((1j, 1), (-1j, 1)),
        forcing=mo.Forcing(kind="none"),
        initial_state=np.array([1.0, 0.0]),
        exact=None,
        params={},
    )
    traj = nl.integrate(rotation, nl.SchemeSpec("scalar-nsfd"), 0.1, 50.0)
    radii = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-12
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(
            state, [math.cos(t), -math.sin(t)], rtol=0, atol=1e-11
        )


def test_matrix_and_scalar_forms_agree(biomass):
    tm = nl.integrate(biomass, nl.SchemeSpec("matrix-nsfd"), 0.1, 10.0)
    ts = nl.integrate(biomass, nl.SchemeSpec("scalar-nsfd"), 0.1, 10.0)
    assert np.max(np.abs(tm.states - ts.states)) <= 1e-12


def test_scalar_step_does_not_drift_at_small_dt(biomass):
    # D = Q A carries no rounding of alpha0 - 1, which cancels as dt -> 0:
    # formed as a0 I + a1 (I + R1) A - I, this error reads 1.3e-13
    _, _, report = nl.run_experiment(biomass, nl.SchemeSpec("scalar-nsfd"), 0.001, 10.0, "full")
    assert report.max_error <= 2e-14


def test_gamma_step_is_the_truncated_polynomial(biomass):
    dt = 0.1
    ctx = sch.StepContext(biomass, nl.SchemeSpec("gamma-nsfd"), dt)
    x0 = biomass.initial_state
    values = mk.gamma_coeffs(mk.char_poly(biomass.a_matrix), dt).values
    a = biomass.a_matrix
    direct = values[0] * x0 + values[1] * a @ x0 + values[2] * a @ a @ x0
    np.testing.assert_allclose(
        sch.march(ctx, x0, 1).states[1], direct, rtol=0, atol=1e-14
    )


def test_gamma_on_4x4_matches_classical_rk4_on_linear_systems():
    # order-4 truncation and the classical four-stage method agree exactly
    # when the right-hand side is linear
    model = make_linear_model([-1.0, -2.0, -3.0, -4.0])
    dt = 0.05
    traj = nl.integrate(model, nl.SchemeSpec("gamma-nsfd"), dt, 1.0)
    state = model.initial_state.copy()
    for k in range(traj.states.shape[0]):
        np.testing.assert_allclose(traj.states[k], state, rtol=1e-13, atol=1e-16)
        state = rk4_linear(model.a_matrix, state, dt)


def test_gamma_on_5x5_is_the_fifth_order_taylor_sum():
    model = make_linear_model([-1.0, -2.0, -3.0, -4.0, -5.0])
    dt = 0.05
    a = model.a_matrix
    ctx = sch.StepContext(model, nl.SchemeSpec("gamma-nsfd"), dt)
    x0 = model.initial_state
    x1 = sch.march(ctx, x0, 1).states[1]
    taylor = sum(
        np.linalg.matrix_power(dt * a, j) @ x0 / math.factorial(j) for j in range(6)
    )
    np.testing.assert_allclose(x1, taylor, rtol=1e-13, atol=1e-16)
    # the gap to the four-stage classical step is exactly the dt^5 term; the
    # subtraction of two O(1) states leaves rounding noise of a few 1e-16
    gap = x1 - rk4_linear(a, x0, dt)
    fifth = np.linalg.matrix_power(dt * a, 5) @ x0 / 120.0
    np.testing.assert_allclose(gap, fifth, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# one-step consistency against the exponential propagator
# ---------------------------------------------------------------------------


def test_one_step_consistency_orders(biomass):
    x0 = biomass.initial_state

    def one_step_error(kind, dt):
        ctx = sch.StepContext(biomass, nl.SchemeSpec(kind), dt)
        step = sch.march(ctx, x0, 1).states[1]
        return np.max(np.abs(step - scipy.linalg.expm(dt * biomass.a_matrix) @ x0))

    for kind in ("explicit-euler", "implicit-euler", "traditional-nsfd"):
        ratio = one_step_error(kind, 0.02) / one_step_error(kind, 0.01)
        assert 3.4 <= ratio <= 4.6, kind  # local error O(dt^2)
    for kind in ("matrix-nsfd", "scalar-nsfd"):
        assert one_step_error(kind, 0.02) <= 2e-15, kind  # exact
    ratio = one_step_error("gamma-nsfd", 0.02) / one_step_error("gamma-nsfd", 0.01)
    assert 12.0 <= ratio <= 20.0  # local error O(dt^4)


ONE_STEP_KINDS = (
    "explicit-euler", "implicit-euler", "traditional-nsfd", "matrix-nsfd", "scalar-nsfd", "gamma-nsfd"
)


def block_pair(m, order=None):
    """(exp(M), phi1(M)) from the block matrix [[M, I], [0, 0]], whose
    exponential is [[exp(M), phi1(M)], [0, I]]; with order set, the Taylor
    sum of that order in place of the exponential."""
    n = m.shape[0]
    block = np.block([[m, np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    if order is None:
        e = scipy.linalg.expm(block)
    else:
        e = sum(np.linalg.matrix_power(block, j) / math.factorial(j) for j in range(order + 1))
    return e[:n, :n], e[:n, n:]


def affine_oracle(kind, a, dt):
    """The (P, Q) each one-step scheme defines, from independent routes."""
    n = a.shape[0]
    eye = np.eye(n)
    if kind == "explicit-euler":
        return eye + dt * a, dt * eye
    if kind == "implicit-euler":
        m = scipy.linalg.solve(eye - dt * a, eye)
        return m, dt * m
    if kind == "traditional-nsfd":
        phi = np.array([dt * block_pair(np.array([[dt * d]]))[1][0, 0] for d in np.diag(a)])
        return eye + np.diag(phi) @ a, np.diag(phi)
    order = n if kind == "gamma-nsfd" else None
    e, phi1 = block_pair(dt * a, order)
    return e, dt * phi1


@st.composite
def well_conditioned_systems(draw):
    """A = V diag(lambda) V^T with a random orthogonal V and real eigenvalues
    at least 0.3 apart and 0.1 away from zero, and a step."""
    n = draw(st.integers(2, 4))
    lam = np.cumsum(
        [draw(st.floats(-5.0, -1.0))] + draw(st.lists(st.floats(0.3, 1.5), min_size=n - 1, max_size=n - 1))
    )
    assume(np.min(np.abs(lam)) >= 0.1)
    seed = draw(st.integers(0, 2**32 - 1))
    v, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    dt = draw(st.floats(1e-3, 0.2))
    return v @ np.diag(lam) @ v.T, lam, dt


@given(system=well_conditioned_systems())
@settings(max_examples=60, deadline=None)
def test_compiled_affine_maps_match_independent_oracles(system):
    a, lam, dt = system
    model = mo.OdeModel(
        name="random",
        a_matrix=a,
        spectrum=tuple((complex(v), 1) for v in lam),
        forcing=mo.Forcing(kind="none"),
        initial_state=np.ones(a.shape[0]),
        exact=None,
        params={},
    )
    eye = np.eye(a.shape[0])
    for kind in ONE_STEP_KINDS:
        ctx = sch.StepContext(model, nl.SchemeSpec(kind), dt)
        p, q = affine_oracle(kind, a, dt)
        # the context holds D = P - I; compare it, not I + D, so the test
        # sees the digits of the per-step increment
        for got, oracle in ((ctx.d, p - eye), (ctx.q, q)):
            gap = np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))
            assert gap <= 1e-10, (kind, gap)
        # every kind is its Q: D = Q A, to the bit and the sign of zero
        assert ctx.d.tobytes() == (ctx.q @ a).tobytes(), kind


SPECTRUM_CLASSES = ("distinct", "clustered", "jordan", "complex", "zero")
LONG_RUN_CHECKPOINTS = (1, 10, 100, 1000, 10_000)


def long_run_system(n, spectrum_class):
    """A = V J V^-1 on a fixed seed: J carries the spectrum class on its
    leading 2 x 2 block and distinct negative reals after it, and V has
    singular values from 1 down to 1/cond with cond(V) in [1, 1e3].  Every
    mode decays or, for a zero eigenvalue, stays.  Odd n + class index
    adds a constant forcing.  Returns the model, cond(V) and the forcing
    vector (None if unforced)."""
    index = SPECTRUM_CLASSES.index(spectrum_class)
    rng = np.random.default_rng(100 * n + index)
    lam = -np.sort(rng.uniform(0.05, 1.0, n))
    j = np.diag(lam)
    spectrum = [(complex(v), 1) for v in lam]
    if spectrum_class == "clustered":
        j[1, 1] = lam[0] + 1e-6
        spectrum[1] = (complex(j[1, 1]), 1)
    elif spectrum_class == "jordan":
        j[:2, :2] = [[lam[0], 1.0], [0.0, lam[0]]]
        spectrum[:2] = [(complex(lam[0]), 2)]
    elif spectrum_class == "complex":
        re, im = lam[0], rng.uniform(0.5, 3.0)
        j[:2, :2] = [[re, im], [-im, re]]
        spectrum[:2] = [(complex(re, im), 1), (complex(re, -im), 1)]
    elif spectrum_class == "zero":
        j[0, 0] = 0.0
        spectrum[0] = (0j, 1)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v = u @ np.diag(np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 3.0), n)) @ w.T
    a = np.linalg.solve(v.T, (v @ j).T).T
    b = rng.uniform(-1.0, 1.0, n) if (n + index) % 2 else None
    model = mo.OdeModel(
        name=spectrum_class,
        a_matrix=a,
        spectrum=tuple(spectrum),
        forcing=mo.Forcing(kind="none") if b is None else mo.Forcing(kind="constant", constant=b),
        initial_state=rng.uniform(-1.0, 1.0, n),
        exact=None,
    )
    return model, np.linalg.cond(v), b


def augmented_flow(model, b, times):
    """The exact flow of X' = A X + b at each time, in 40 digits: the top
    block of expm(t [[A, b], [0, 0]]) [x0; 1], which needs no A^-1."""
    n = model.n
    with mpmath.workdps(40):
        m = mpmath.zeros(n + 1, n + 1)
        m[:n, :n] = mpmath.matrix(model.a_matrix.tolist())
        if b is not None:
            m[:n, n] = mpmath.matrix(b.tolist())
        start = mpmath.matrix(model.initial_state.tolist() + [1.0])
        return np.array(
            [[float(v) for v in (mpmath.expm(m * t) * start)[:n]] for t in times]
        )


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("spectrum_class", SPECTRUM_CLASSES)
def test_exact_schemes_stay_exact_over_ten_thousand_steps(n, spectrum_class):
    # the abstract's "exact schemes in the linear case" over many steps: the
    # only error left is rounding, at most linear in the step count k and
    # amplified by at most cond(V) in the eigenbasis, so the bound is
    # 4 k eps cond(V) max_{j <= k} |x_j| (measured: at most 0.68 of it on
    # 240 seeded systems, and up to 178 k eps max|x_j| without the cond(V)
    # factor on non-normal 2 x 2 Jordan and complex blocks)
    model, cond, b = long_run_system(n, spectrum_class)
    dt, ks = 0.01, np.array(LONG_RUN_CHECKPOINTS)
    exact = augmented_flow(model, b, [mpmath.mpf(dt) * int(k) for k in ks])
    for kind in ("matrix-nsfd", "scalar-nsfd"):
        traj = nl.integrate(model, nl.SchemeSpec(kind), dt, dt * ks[-1])
        assert traj.blow_up_step is None and traj.states.shape == (ks[-1] + 1, n)
        scale = np.maximum.accumulate(np.max(np.abs(traj.states), axis=1))[ks]
        err = np.max(np.abs(traj.states[ks] - exact), axis=1)
        bound = 4.0 * ks * np.finfo(float).eps * cond * scale
        assert np.all(err <= bound), (kind, err / bound)


# ---------------------------------------------------------------------------
# second-order oscillator recurrences
# ---------------------------------------------------------------------------


def step_osc_second_order(ctx, x_prev, x_curr):
    """One step of a two-level oscillator recurrence, (x_{k-1}, x_k) ->
    x_{k+1}, with the scheme chosen and the pivot tested per step: the
    per-step reference whose levels the loops of schemes._osc_levels equal
    bitwise.

    The recurrences are invariant under swapping x_{k+1} and x_{k-1}, so
    stepping with the reversed pair walks the same orbit backwards.
    """
    s2 = (2.0 * math.sin(ctx.dt / 2.0)) ** 2
    c2 = math.cos(ctx.dt / 2.0) ** 2
    kind = ctx.scheme.kind
    if kind == "mickens-osc1":
        return 2.0 * x_curr - x_prev - s2 * (x_curr + c2 * x_curr * x_curr)
    if kind == "mickens-osc2":
        pivot = 1.0 + 0.5 * s2 * c2 * x_curr
        rhs = 2.0 * x_curr - x_prev - s2 * (x_curr + 0.5 * c2 * x_curr * x_prev)
    else:
        pivot = 1.0 + 0.5 * s2 * x_curr
        rhs = 2.0 * x_curr - x_prev - s2 * (x_curr + 0.5 * x_curr * x_prev)
    if pivot == 0.0:
        raise RuntimeError(f"degenerate pivot in {kind} update (x_k = {x_curr!r})")
    return rhs / pivot


def osc_row(x0, x1, n_steps):
    """(x_0, x_1) and room for the n_steps levels that _osc_levels writes."""
    row = np.full(n_steps + 2, np.nan)
    row[:2] = x0, x1
    return row


def velocity_oracle(ctx, x_k, x_next):
    """y_k from the one-step system row, on Python floats, which overflow
    with no warning: (x_next - cos(dt) x_k)/sin(dt), plus tan(dt/2) x_k
    x_next for corrected-osc."""
    y = (x_next - math.cos(ctx.dt) * x_k) / math.sin(ctx.dt)
    if ctx.scheme.kind == "corrected-osc":
        y += math.tan(ctx.dt / 2.0) * x_k * x_next
    return y


def test_second_order_hand_steps(oscillator):
    dt = 0.1
    s2 = (2.0 * math.sin(dt / 2.0)) ** 2
    c2 = math.cos(dt / 2.0) ** 2
    x_prev, x_curr = 0.25, 0.24

    ctx = sch.StepContext(oscillator, nl.SchemeSpec("mickens-osc1"), dt)
    expected = 2 * x_curr - x_prev - s2 * (x_curr + c2 * x_curr * x_curr)
    assert step_osc_second_order(ctx, x_prev, x_curr) == expected

    ctx = sch.StepContext(oscillator, nl.SchemeSpec("mickens-osc2"), dt)
    expected = (2 * x_curr - x_prev - s2 * (x_curr + 0.5 * c2 * x_curr * x_prev)) / (
        1.0 + 0.5 * s2 * c2 * x_curr
    )
    assert abs(step_osc_second_order(ctx, x_prev, x_curr) - expected) <= 1e-16

    ctx = sch.StepContext(oscillator, nl.SchemeSpec("corrected-osc"), dt)
    expected = (2 * x_curr - x_prev - s2 * (x_curr + 0.5 * x_curr * x_prev)) / (
        1.0 + 0.5 * s2 * x_curr
    )
    assert abs(step_osc_second_order(ctx, x_prev, x_curr) - expected) <= 1e-16


@pytest.mark.parametrize("kind", ["mickens-osc1", "mickens-osc2", "corrected-osc"])
def test_second_order_recurrence_residual(oscillator, kind):
    dt = 0.01
    traj = nl.integrate(oscillator, nl.SchemeSpec(kind), dt, 10.0)
    xs = traj.states[:, 0]
    s2 = (2.0 * math.sin(dt / 2.0)) ** 2
    c2 = math.cos(dt / 2.0) ** 2
    xm, x, xp = xs[:-2], xs[1:-1], xs[2:]
    if kind == "mickens-osc1":
        residual = xp - (2 * x - xm - s2 * (x + c2 * x * x))
    elif kind == "mickens-osc2":
        residual = xp * (1.0 + 0.5 * s2 * c2 * x) - (2 * x - xm - s2 * (x + 0.5 * c2 * x * xm))
    else:
        residual = xp * (1.0 + 0.5 * s2 * x) - (2 * x - xm - s2 * (x + 0.5 * x * xm))
    assert np.max(np.abs(residual)) <= 1e-14


@pytest.mark.parametrize("kind", ["mickens-osc2", "corrected-osc"])
def test_second_order_degenerate_pivot_raises(oscillator, kind):
    dt = 0.1
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
    s2 = (2.0 * math.sin(dt / 2.0)) ** 2
    c2 = math.cos(dt / 2.0) ** 2
    bad = -2.0 / (s2 * c2) if kind == "mickens-osc2" else -2.0 / s2
    with pytest.raises(RuntimeError, match="degenerate pivot"):
        step_osc_second_order(ctx, 0.0, bad)
    # the loop's own path: the division raises at step 1 (x_2 from x_0, x_1)
    expected = f"step 1: degenerate pivot in {kind} update (x_k = {bad!r})"
    with pytest.raises(RuntimeError, match=re.escape(expected)):
        sch._osc_levels(ctx, osc_row(0.0, bad, 3), 3)


@pytest.mark.parametrize("kind", ["mickens-osc1", "mickens-osc2", "corrected-osc"])
def test_second_order_time_reversal(oscillator, kind):
    # the recurrences are symmetric in x_{k+1} <-> x_{k-1}, so stepping the
    # computed tail backwards must walk the same orbit
    dt = 0.1
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
    xs = [0.25, 0.24]
    for _ in range(50):
        xs.append(step_osc_second_order(ctx, xs[-2], xs[-1]))
    back = [xs[-1], xs[-2]]
    for _ in range(50):
        back.append(step_osc_second_order(ctx, back[-2], back[-1]))
    assert abs(back[-1] - xs[0]) <= 1e-10
    assert abs(back[-2] - xs[1]) <= 1e-10


def test_second_order_startup_is_shared_with_the_scalar_form(oscillator):
    dt = 0.05
    x1 = {
        kind: nl.integrate(oscillator, nl.SchemeSpec(kind), dt, dt).states[1, 0]
        for kind in ("mickens-osc1", "mickens-osc2", "corrected-osc", "scalar-nsfd")
    }
    assert len(set(x1.values())) == 1
    # a two-level context is the one-step context of its start-up
    scalar = sch.StepContext(oscillator, nl.SchemeSpec("scalar-nsfd"), dt)
    for kind in sch.SECOND_ORDER_KINDS:
        ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
        assert_bitwise_equal(ctx.q, scalar.q)
        assert_bitwise_equal(ctx.d, scalar.d)


@pytest.mark.parametrize("kind", sch.SCHEME_KINDS)
def test_every_context_is_its_affine_map(oscillator, kind):
    # the two-level recurrences take their constants from dt, so every
    # context holds the same five things
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), 0.05)
    assert sorted(vars(ctx)) == ["d", "dt", "model", "q", "scheme"]


def test_velocity_reconstruction_identities(oscillator):
    dt = 0.05
    cos, sin, tan_half = math.cos(dt), math.sin(dt), math.tan(dt / 2.0)

    traj = nl.integrate(oscillator, nl.SchemeSpec("corrected-osc"), dt, 2.0)
    xs, ys = traj.states[:, 0], traj.states[:, 1]
    # the start-up step is the same system form, so the identity already
    # holds at k = 0 with the given y_0 = 0
    resid = (xs[1:] - cos * xs[:-1]) / sin + tan_half * xs[:-1] * xs[1:] - ys[:-1]
    assert np.max(np.abs(resid)) <= 1e-12

    traj = nl.integrate(oscillator, nl.SchemeSpec("mickens-osc1"), dt, 2.0)
    xs, ys = traj.states[:, 0], traj.states[:, 1]
    assert ys[0] == 0.0
    resid = (xs[2:] - cos * xs[1:-1]) / sin - ys[1:-1]
    assert np.max(np.abs(resid)) <= 1e-12


@pytest.mark.parametrize(
    "kind, dt, x0, blow_up",
    [(kind, 1e-3, 0.25, None) for kind in ("mickens-osc1", "mickens-osc2", "corrected-osc")]
    # a blow-up: x_42 is not finite, so neither is y_41
    + [("mickens-osc1", 0.1, 2.0, 41)],
)
def test_velocities_equal_the_per_level_formula_bitwise(oscillator, kind, dt, x0, blow_up):
    traj = nl.integrate(oscillator, nl.SchemeSpec(kind), dt, 5.0, x0=np.array([x0, 0.0]))
    assert traj.blow_up_step == blow_up
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
    xs = [float(x) for x in traj.states[:, 0]]
    # the level past the kept ones: the spare level past the horizon, or the
    # blow-up level's finite x
    xs.append(step_osc_second_order(ctx, xs[-2], xs[-1]))
    ys = [0.0] + [velocity_oracle(ctx, xs[k], xs[k + 1]) for k in range(1, len(xs) - 1)]
    np.testing.assert_array_equal(traj.states[:, 1], ys)
    if blow_up is not None:
        x_next = step_osc_second_order(ctx, xs[-2], xs[-1])
        assert math.isfinite(xs[-1]) and not math.isfinite(velocity_oracle(ctx, xs[-1], x_next))


def test_scalar_and_corrected_forms_walk_the_same_orbit(oscillator):
    ts = nl.integrate(oscillator, nl.SchemeSpec("scalar-nsfd"), 0.01, 10.0)
    tc = nl.integrate(oscillator, nl.SchemeSpec("corrected-osc"), 0.01, 10.0)
    assert np.max(np.abs(ts.states - tc.states)) <= 1e-12


@pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
def test_mickens_osc2_is_corrected_osc_on_a_rescaled_orbit(oscillator, dt):
    # both recurrences are x_{k+1} + x_{k-1} = (2 - s2) x_k / (1 + g x_k)
    # up to their g, which differ by c2 = cos^2(dt/2): c2 times
    # mickens-osc2's levels is corrected-osc's recurrence from
    # (c2 x_0, c2 x_1).  An identity between the two schemes, so it holds
    # whatever code computes them; the rounding gap grows with the steps
    # (3.8e-12 after 35,000 steps of 0.001)
    c2 = math.cos(dt / 2.0) ** 2
    n_steps = sch.step_count(dt, 35.0)
    mickens = nl.integrate(oscillator, nl.SchemeSpec("mickens-osc2"), dt, 35.0).states[:, 0]
    corrected = osc_row(c2 * mickens[0], c2 * mickens[1], n_steps - 1)
    ctx = sch.StepContext(oscillator, nl.SchemeSpec("corrected-osc"), dt)
    sch._osc_levels(ctx, corrected, n_steps - 1)
    gap = np.max(np.abs(c2 * mickens - corrected))
    assert gap <= 1e-15 * n_steps, gap


def _component_errors(oscillator, kind, dt, t_end=35.0):
    """max |error| / max |exact| of x and of y on the trajectory's grid."""
    traj = nl.integrate(oscillator, nl.SchemeSpec(kind), dt, t_end)
    exact = oscillator.exact(traj.times)
    return np.max(np.abs(traj.states - exact), axis=0) / np.max(np.abs(exact), axis=0)


@pytest.mark.parametrize(
    "kind, y_order",
    [("mickens-osc1", 1), ("mickens-osc2", 1), ("corrected-osc", 2)],
)
def test_each_oscillator_component_converges_at_its_order(oscillator, kind, y_order):
    # x is second order for all three recurrences; Mickens' velocity
    # readout (x_{k+1} - cos dt x_k)/sin dt is first order, and
    # corrected-osc's added tan(dt/2) x_k x_{k+1} makes it second order
    # (at dt 0.001: x errors 6.4e-7, 1.37e-6, 7.46e-7; y 1.69e-4 for both
    # Mickens kinds and 8.91e-7)
    coarse, fine = (_component_errors(oscillator, kind, dt) for dt in (0.01, 0.001))
    orders = np.log10(coarse / fine)
    assert abs(orders[0] - 2.0) <= 0.05, orders
    assert abs(orders[1] - y_order) <= 0.05, orders
    assert fine[0] <= 2e-6 and fine[1] <= (2e-4 if y_order == 1 else 1e-6), fine


# ---------------------------------------------------------------------------
# forcing treatments
# ---------------------------------------------------------------------------


# the Euler schemes' fixed time samples, whatever forcing_approx says
EULER_RULES = {"explicit-euler": "left", "implicit-euler": "right"}


def forcing_oracle(model, rule, dt, n_steps):
    """B-hat of n_steps steps of dt from t = 0, shape (n_steps, n), straight
    from model.forcing: the time function at the rule's sample times, the
    antiderivative's difference over each step for "mean", or scipy's quad
    where the forcing has no antiderivative."""
    f = model.forcing
    t = np.arange(n_steps) * dt
    if f.kind == "none":
        return np.zeros((n_steps, model.n))
    if f.kind == "constant":
        return np.tile(f.constant, (n_steps, 1))
    if rule == "left":
        return f.time_fn(t)
    if rule == "right":
        return f.time_fn(t + dt)
    if rule == "middle":
        return f.time_fn(t + dt / 2)
    if rule == "half":
        return 0.5 * (f.time_fn(t) + f.time_fn(t + dt))
    if f.antiderivative is not None:
        return (f.antiderivative(t + dt) - f.antiderivative(t)) / dt
    return np.array([
        [
            scipy.integrate.quad(lambda s: f.time_fn(s)[i], tk, tk + dt, epsabs=1e-14)[0] / dt
            for i in range(model.n)
        ]
        for tk in t
    ])


def without_antiderivative(model):
    return dataclasses.replace(
        model, forcing=dataclasses.replace(model.forcing, antiderivative=None)
    )


def test_constant_forcing_ignores_the_strategy(trees):
    # one column Q b broadcast over the steps, to the bit the product of Q
    # with b repeated on every step
    b, n_steps = trees.forcing.constant, 1000
    for kind in ONE_STEP_KINDS:
        for dt in (0.5, 0.1, 0.05, 0.01, 0.005, 0.001):
            for approx in sch.FORCING_APPROXES:
                ctx = sch.StepContext(trees, nl.SchemeSpec(kind, forcing_approx=approx), dt)
                columns = sch._step_columns(ctx, n_steps)
                assert columns.shape == (3, 1)
                repeated = ctx.q @ np.broadcast_to(b, (n_steps, 3)).T
                assert np.array_equal(np.broadcast_to(columns, (3, n_steps)), repeated)


def test_absent_forcing_is_one_zero_column(biomass):
    ctx = sch.StepContext(biomass, nl.SchemeSpec("scalar-nsfd", forcing_approx="mean"), 0.1)
    columns = sch._step_columns(ctx, 100)
    assert columns.shape == (3, 1) and not columns.any()


def test_time_forcing_strategy_values(seasonal):
    # every step's B-hat is the rule applied to scalar calls of the forcing
    # at that step's times
    dt, n_steps = 0.1, 101
    f = seasonal.forcing
    scalar = {
        "left": lambda t: f.time_fn(t),
        "right": lambda t: f.time_fn(t + dt),
        "middle": lambda t: f.time_fn(t + dt / 2),
        "half": lambda t: 0.5 * (f.time_fn(t) + f.time_fn(t + dt)),
        "mean": lambda t: (f.antiderivative(t + dt) - f.antiderivative(t)) / dt,
    }
    for approx, rule in scalar.items():
        values = sch._time_forcing(f.time_fn, f.antiderivative, approx, dt, n_steps)
        assert values.shape == (n_steps, 3)
        stacked = [rule(k * dt) for k in range(n_steps)]
        np.testing.assert_allclose(values, stacked, rtol=0, atol=1e-15, err_msg=approx)
        oracle = forcing_oracle(seasonal, approx, dt, n_steps)
        np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-15, err_msg=approx)
    # averaged endpoints at t = 0: 0.5 (1 + (1 + cos(0.2 pi))/2) in the
    # third component for the default amplitude and frequency
    half = sch._time_forcing(f.time_fn, f.antiderivative, "half", dt, 1)
    assert abs(half[0, 2] - 0.5 * (1.0 + (1.0 + math.cos(0.2 * math.pi)) / 2.0)) <= 1e-15


def test_mean_forcing_matches_quadrature_oracle(seasonal):
    dt, n_steps = 0.1, 4
    f = seasonal.forcing
    via_antiderivative = sch._time_forcing(f.time_fn, f.antiderivative, "mean", dt, n_steps)
    via_quadrature = sch._time_forcing(f.time_fn, None, "mean", dt, n_steps)
    reference = forcing_oracle(without_antiderivative(seasonal), "mean", dt, n_steps)
    np.testing.assert_allclose(via_antiderivative, reference, rtol=0, atol=1e-12)
    np.testing.assert_allclose(via_quadrature, reference, rtol=0, atol=1e-12)


def test_array_calls_equal_stacked_scalar_calls():
    times = np.linspace(0.0, 10.0, 101)
    for kind in ("oscillator", "biomass", "trees", "seasonal"):
        model = nl.make_model(kind)
        stacked = np.array([model.exact(t) for t in times])
        assert model.exact(times).shape == (times.size, model.n)
        np.testing.assert_allclose(model.exact(times), stacked, rtol=0, atol=1e-15)
    f = nl.make_model("seasonal", zf=0.3, omega=1.3).forcing
    for fn in (f.time_fn, f.antiderivative):
        np.testing.assert_allclose(fn(times), [fn(t) for t in times], rtol=0, atol=1e-15)


def _forcing_entries(count_grid_samples, cases, n_steps):
    """The forcing columns of every (model, scheme, dt) case from a cold
    cache, with the B-hat samples their runs got and the samples'
    (misses, hits)."""
    forcing = count_grid_samples(sch, "_time_forcing")
    columns = [
        sch._step_columns(sch.StepContext(model, scheme, dt), n_steps)
        for model, scheme, dt in cases
    ]
    return columns, forcing.samples, forcing.counts()


def test_each_forcing_rule_has_its_own_entries(seasonal, count_grid_samples):
    dt, n_steps = 0.1, 10
    rules = [
        (seasonal, nl.SchemeSpec("scalar-nsfd", forcing_approx=approx), dt)
        for approx in sch.FORCING_APPROXES
    ]
    # the Euler schemes override their approximation: explicit is "left",
    # implicit "right", and share those rules' entries
    euler = [
        (seasonal, nl.SchemeSpec("explicit-euler", forcing_approx="mean"), dt),
        (seasonal, nl.SchemeSpec("implicit-euler", forcing_approx="left"), dt),
    ]
    columns, values, counts = _forcing_entries(count_grid_samples, rules + euler, n_steps)
    assert counts == (5, 2)
    for (model, scheme, _), column, value in zip(rules + euler, columns, values):
        rule = EULER_RULES.get(scheme.kind, scheme.forcing_approx)
        expected = forcing_oracle(model, rule, dt, n_steps)
        assert value.shape == (n_steps, 3)
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-15, err_msg=scheme)
        q = sch.StepContext(model, scheme, dt).q
        np.testing.assert_allclose(column, q @ expected.T, rtol=0, atol=1e-15, err_msg=scheme)
    assert len({value.tobytes() for value in values[:5]}) == 5
    assert values[5] is values[0] and values[6] is values[1]


def test_forcing_entries_of_other_parameters_are_kept_apart(count_grid_samples):
    dt, n_steps = 0.1, 10
    scheme = nl.SchemeSpec("scalar-nsfd")
    models = [nl.make_model("seasonal", zf=zf) for zf in (0.5, 0.4, 0.5)]
    cases = [(m, scheme, dt) for m in models]
    _, values, counts = _forcing_entries(count_grid_samples, cases, n_steps)
    assert counts == (2, 1)  # a model built apart with equal parameters hits
    np.testing.assert_allclose(values[1], 0.8 * values[0], rtol=1e-15, atol=0)
    # and so are other step sizes and step counts on one model
    forcing = count_grid_samples(sch, "_time_forcing")
    for d, n in ((0.1, n_steps), (0.2, n_steps), (dt, 5)):
        assert sch._step_columns(sch.StepContext(models[0], scheme, d), n).shape == (3, n)
    assert forcing.counts() == (3, 0)


def test_a_forcing_without_antiderivative_takes_the_quadrature_mean(seasonal, count_grid_samples):
    dt, n_steps = 0.1, 10
    scheme = nl.SchemeSpec("scalar-nsfd", forcing_approx="mean")
    stripped = without_antiderivative(seasonal)
    _, (closed, quadrature), counts = _forcing_entries(
        count_grid_samples, [(seasonal, scheme, dt), (stripped, scheme, dt)], n_steps
    )
    assert counts == (2, 0)
    f = seasonal.forcing
    gauss = sch._time_forcing(f.time_fn, None, "mean", dt, n_steps)
    assert quadrature.tobytes() == gauss.tobytes()
    assert closed.tobytes() != quadrature.tobytes()
    primitive = forcing_oracle(seasonal, "mean", dt, n_steps)
    np.testing.assert_allclose(closed, primitive, rtol=0, atol=1e-15)
    reference = forcing_oracle(stripped, "mean", dt, n_steps)
    np.testing.assert_allclose(quadrature, reference, rtol=0, atol=1e-14)


def test_forcing_entries_are_read_only(seasonal, count_grid_samples):
    _, (value,), _ = _forcing_entries(
        count_grid_samples, [(seasonal, nl.SchemeSpec("scalar-nsfd"), 0.1)], 10
    )
    assert not value.flags.writeable
    with pytest.raises(ValueError):
        value[0, 2] = 1.0


def test_an_unhashable_time_forcing_is_evaluated_on_every_run(seasonal):
    @dataclasses.dataclass
    class CountingForcing:
        calls: int = 0

        def __call__(self, t):
            self.calls += 1
            return seasonal.forcing.time_fn(t)

    time_fn = CountingForcing()
    forcing = dataclasses.replace(seasonal.forcing, time_fn=time_fn)
    model = dataclasses.replace(seasonal, forcing=forcing)
    sch._grid_cache.cache_clear()
    for _ in range(2):
        traj = nl.integrate(model, nl.SchemeSpec("scalar-nsfd", forcing_approx="left"), 0.1, 1.0)
    assert time_fn.calls == 2 and sch._grid_cache.cache_info().currsize == 0
    expected = nl.integrate(seasonal, nl.SchemeSpec("scalar-nsfd", forcing_approx="left"), 0.1, 1.0)
    assert traj.states.tobytes() == expected.states.tobytes()


def test_explicit_product_choice_changes_the_orbit(oscillator):
    semi = nl.integrate(oscillator, nl.SchemeSpec("scalar-nsfd"), 0.1, 1.0)
    expl = nl.integrate(oscillator, nl.SchemeSpec("scalar-nsfd", nonlocal_b="explicit"), 0.1, 1.0)
    gap = np.max(np.abs(semi.states - expl.states))
    assert 1e-12 < gap < 1e-2  # same order of accuracy, different scheme


# ---------------------------------------------------------------------------
# closed-form steps of the quadratic state forcing
# ---------------------------------------------------------------------------


def solve_loop_oracle(ctx, x0, n_steps):
    """The state-forced steps one level at a time on numpy vectors: the
    explicit value x + (D x + Q B(x)); the semi-implicit product
    b (u.x)(u.X+) of the declared B(x) = b (u.x)^2 as the linear system
    (I - Q J) X+ = P x, J = (u.x) b u^T; implicit Euler as the fixed-point
    iteration X -> P x + Q B(X)."""
    f = ctx.model.forcing
    b, u = f.quadratic
    eye = np.eye(2)
    kind = ctx.scheme.kind
    semi = kind != "explicit-euler" and ctx.scheme.nonlocal_b == sch.NONLOCAL_SEMI_IMPLICIT
    states = [np.asarray(x0, dtype=float)]
    for _ in range(n_steps):
        x = states[-1]
        p = x + ctx.d @ x
        if kind == "implicit-euler":
            nxt = p
            for _ in range(100):
                nxt, prev = p + ctx.q @ f.state_fn(nxt), nxt
                if np.array_equal(nxt, prev):
                    break
        elif semi:
            jac = (u @ x) * np.outer(b, u)
            nxt = np.linalg.solve(eye - ctx.q @ jac, p)
        else:
            nxt = x + (ctx.d @ x + ctx.q @ f.state_fn(x))
        states.append(nxt)
    return np.array(states)


def quadratic_step(ctx, k, x, y):
    """Step k of the closed form of a quadratic state forcing on Python
    floats, with the rule chosen and the pivot and discriminant tested per
    step: the per-step reference whose levels, and step-indexed errors, the
    loops of schemes._quadratic_march equal bitwise."""
    b, u = ctx.model.forcing.quadratic
    (dxx, dxy), (dyx, dyy) = ctx.d.tolist()
    wx, wy = (ctx.q @ b).tolist()
    ux, uy = u.tolist()
    c = ux * wx + uy * wy
    kind = ctx.scheme.kind
    if kind == "implicit-euler":
        rule = "implicit"
    elif kind == "explicit-euler" or ctx.scheme.nonlocal_b == sch.NONLOCAL_EXPLICIT:
        rule = "explicit"
    else:
        rule = "semi-implicit"
    dx = dxx * x + dxy * y
    dy = dyx * x + dyy * y
    s = ux * x + uy * y
    if rule == "explicit":
        sigma = s * s
    else:
        up = ux * (x + dx) + uy * (y + dy)
        if rule == "semi-implicit":
            pivot = 1.0 - c * s
            if pivot == 0.0:
                raise RuntimeError(f"step {k}: semi-implicit product step has a zero pivot")
            sigma = s * (up / pivot)
        else:
            disc = 1.0 - 4.0 * c * up
            if not 0.0 <= disc < math.inf:
                raise RuntimeError(
                    f"step {k}: implicit quadratic step has no real solution "
                    f"(discriminant {disc:.3e})"
                )
            s_next = 2.0 * up / (1.0 + math.sqrt(disc))
            sigma = s_next * s_next
    return x + (dx + wx * sigma), y + (dy + wy * sigma)


def quadratic_levels_oracle(ctx, x0, n_steps):
    """The levels of quadratic_step from x0, up to and including the first
    non-finite one."""
    x, y = (float(v) for v in x0)
    levels = [(x, y)]
    for k in range(n_steps):
        x, y = quadratic_step(ctx, k, x, y)
        levels.append((x, y))
        if not (math.isfinite(x) and math.isfinite(y)):
            break
    return np.array(levels)


def assert_bitwise_equal(actual, expected):
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("nonlocal_b", sch.NONLOCAL_KINDS)
@pytest.mark.parametrize("kind", ONE_STEP_KINDS)
def test_quadratic_steps_match_the_solve_loop_oracle(oscillator, kind, nonlocal_b):
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind, nonlocal_b=nonlocal_b), 0.01)
    x0 = oscillator.initial_state
    traj = sch.march(ctx, x0, 2000)
    oracle = solve_loop_oracle(ctx, x0, 2000)
    assert traj.blow_up_step is None
    gap = np.max(np.abs(traj.states - oracle)) / np.max(np.abs(oracle))
    assert gap <= 1e-13, gap


@pytest.mark.parametrize("nonlocal_b", sch.NONLOCAL_KINDS)
@pytest.mark.parametrize("kind", ONE_STEP_KINDS)
def test_quadratic_loops_equal_the_per_step_oracle_bitwise(oscillator, kind, nonlocal_b):
    general = quadratic_model([0.3, -0.7], [0.6, 0.8])
    for model, x0 in ((oscillator, oscillator.initial_state), (general, np.array([0.2, -0.1]))):
        ctx = sch.StepContext(model, nl.SchemeSpec(kind, nonlocal_b=nonlocal_b), 0.01)
        traj = sch.march(ctx, x0, 2000)
        assert traj.blow_up_step is None
        assert_bitwise_equal(traj.states, quadratic_levels_oracle(ctx, x0, 2000))


_normal_unit = st.floats(-1.0, 1.0, allow_subnormal=False)


@given(x=st.tuples(_normal_unit, _normal_unit), dt=st.floats(1e-4, 0.1))
@example(x=(0.25, 0.0), dt=0.01)
@example(x=(-1.0, 1.0), dt=0.1)
@settings(max_examples=80, deadline=None)
def test_implicit_quadratic_step_matches_a_40_digit_root(x, dt):
    # X = P x_k + Q B(X), B(X) = (0, -X_0^2), solved by Newton's method in
    # 40 digits from the explicit guess P x_k, with P = I + D and Q the
    # context's floats taken exactly
    model = nl.make_model("oscillator")
    ctx = sch.StepContext(model, nl.SchemeSpec("implicit-euler"), dt)
    x_k = np.array(x)
    step = sch.march(ctx, x_k, 1).states[1]
    with mpmath.workdps(40):
        d = mpmath.matrix(ctx.d.tolist())
        q = mpmath.matrix(ctx.q.tolist())
        xk = mpmath.matrix(x_k.tolist())
        p = xk + d * xk

        def residual(a, b):
            return [
                a - p[0] - q[0, 1] * (-a * a),
                b - p[1] - q[1, 1] * (-a * a),
            ]

        root = mpmath.findroot(residual, (p[0], p[1]))
        oracle = np.array([float(root[0]), float(root[1])])
    assert np.max(np.abs(step - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_implicit_quadratic_step_without_a_real_root_raises(oscillator):
    # at dt = 1, c = u.Q b = -1/2 and u.p = x_0/2, so the discriminant
    # 1 - 4 c u.p = 1 + x_0 is negative for x_0 = -5
    with pytest.raises(RuntimeError, match="step 0: .*discriminant"):
        nl.integrate(oscillator, nl.SchemeSpec("implicit-euler"), 1.0, 5.0, x0=np.array([-5.0, 0.0]))


def quadratic_model(b, u, a_matrix=None, spectrum=((1j, 1), (-1j, 1)), x0=(2.0, 0.0)):
    return mo.OdeModel(
        name="quadratic",
        a_matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]) if a_matrix is None else a_matrix,
        spectrum=spectrum,
        forcing=mo.Forcing(kind="state", quadratic=(b, u)),
        initial_state=np.array(x0),
        exact=None,
    )


def test_semi_implicit_quadratic_zero_pivot_raises():
    # traditional-nsfd on a zero-diagonal A has Q = dt I; with b = u = e_1,
    # c = dt = 1/2 and s_0 = 2 make the pivot 1 - c s_0 exactly zero
    model = quadratic_model([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(RuntimeError, match="step 0: .*zero pivot"):
        nl.integrate(model, nl.SchemeSpec("traditional-nsfd"), 0.5, 1.0)


def test_quadratic_steps_follow_a_general_declaration():
    # b and u not on the axes: the closed form against the solve loop
    model = quadratic_model([0.3, -0.7], [0.6, 0.8])
    x0 = np.array([0.2, -0.1])
    for kind in ONE_STEP_KINDS:
        ctx = sch.StepContext(model, nl.SchemeSpec(kind), 0.01)
        oracle = solve_loop_oracle(ctx, x0, 500)
        gap = np.max(np.abs(sch.march(ctx, x0, 500).states - oracle)) / np.max(np.abs(oracle))
        assert gap <= 1e-13, (kind, gap)


def test_hand_written_product_needs_the_quadratic_declaration(oscillator):
    # the declared quadratic is the only state forcing the steppers take:
    # a hand-written state_fn alone, or a copy that drops the declaration,
    # is refused when the forcing is built
    with pytest.raises(ValueError, match="quadratic declaration"):
        mo.Forcing(kind="state", state_fn=oscillator.forcing.state_fn)
    with pytest.raises(ValueError, match="quadratic declaration"):
        dataclasses.replace(oscillator.forcing, quadratic=None)


def test_quadratic_declaration_is_planar():
    a = np.diag([-1.0, -2.0, -3.0])
    model = quadratic_model(
        [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], a_matrix=a, spectrum=None, x0=(2.0, 0.0, 0.0)
    )
    with pytest.raises(ValueError, match="n = 3"):
        sch.StepContext(model, nl.SchemeSpec("explicit-euler"), 0.1)


def test_replaced_forcing_keeps_its_route(oscillator):
    # a wrapped state_fn keeps the closed form (and is not called); an
    # unforced copy takes the linear prefix scan, an exact rotation here
    calls = []

    def counting(x):
        calls.append(1)
        return oscillator.forcing.state_fn(x)

    traced = dataclasses.replace(
        oscillator, forcing=dataclasses.replace(oscillator.forcing, state_fn=counting)
    )
    for kind in ("explicit-euler", "implicit-euler", "scalar-nsfd"):
        np.testing.assert_array_equal(
            nl.integrate(traced, nl.SchemeSpec(kind), 0.01, 1.0).states,
            nl.integrate(oscillator, nl.SchemeSpec(kind), 0.01, 1.0).states,
        )
    assert calls == []
    unforced = dataclasses.replace(
        oscillator, forcing=dataclasses.replace(oscillator.forcing, kind="none")
    )
    traj = nl.integrate(unforced, nl.SchemeSpec("matrix-nsfd"), 0.01, 1.0)
    t = traj.times
    rotation = 0.25 * np.column_stack((np.cos(t), -np.sin(t)))
    np.testing.assert_allclose(traj.states, rotation, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "kind, dt, x0",
    [(kind, 0.01, 0.25) for kind in sch.SECOND_ORDER_KINDS] + [("mickens-osc1", 0.1, 2.0)],
)
def test_second_order_loop_equals_the_per_step_function_bitwise(oscillator, kind, dt, x0):
    traj = nl.integrate(oscillator, nl.SchemeSpec(kind), dt, 10.0, x0=np.array([x0, 0.0]))
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
    xs = [float(traj.states[0, 0]), float(traj.states[1, 0])]
    while len(xs) <= traj.states.shape[0] + 1:
        xs.append(step_osc_second_order(ctx, xs[-2], xs[-1]))
    np.testing.assert_array_equal(traj.states[:, 0], xs[:-2])
    # the level past the kept ones is finite: the spare level, or the x of
    # the blow-up level, whose successor is not finite
    assert math.isfinite(xs[-2])
    assert math.isfinite(xs[-1]) == (traj.blow_up_step is None)


def osc_levels_oracle(ctx, xs, n_steps):
    """Extend the list xs, ending in (x_0, x_1), by the per-step function up
    to x_{n_steps+1}, ending before the first non-finite level; a zero
    pivot at step k raises with "step k: " prefixed."""
    for k in range(1, n_steps + 1):
        try:
            nxt = step_osc_second_order(ctx, xs[-2], xs[-1])
        except RuntimeError as exc:
            raise RuntimeError(f"step {k}: {exc}") from None
        if not math.isfinite(nxt):
            break
        xs.append(nxt)
    return xs


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except RuntimeError as exc:
        return type(exc), str(exc)


def assert_same_outcome(actual, expected):
    """Each is (levels, blow_up_step), the levels compared bitwise, or the
    (type, message) of an error."""
    if isinstance(expected[0], type):
        assert isinstance(actual[0], type) and actual == expected, actual
    else:
        assert not isinstance(actual[0], type), actual
        assert actual[1] == expected[1]
        assert_bitwise_equal(actual[0], expected[0])


def quadratic_outcomes(ctx, x0, n_steps):
    """The outcomes of march and of the per-step oracle, whose levels are
    cut before their first non-finite one."""
    traj = outcome(sch.march, ctx, x0, n_steps)
    if isinstance(traj, sch.Trajectory):
        traj = traj.states, traj.blow_up_step
    oracle = outcome(quadratic_levels_oracle, ctx, x0, n_steps)
    if not isinstance(oracle[0], type):
        blow_up = first_non_finite(oracle)
        oracle = oracle[:blow_up], blow_up
    return traj, oracle


def second_order_outcomes(ctx, x0, n_steps):
    """The outcomes, as (x, y) states, of march on a two-level context and of
    the per-step oracles, whose states are cut before their first row with
    a non-finite entry."""
    traj = outcome(sch.march, ctx, x0, n_steps)
    if isinstance(traj, sch.Trajectory):
        traj = traj.states, traj.blow_up_step
    # x_1 is the start-up's, finite or not
    x1 = float(quadratic_levels_oracle(ctx, x0, 1)[1, 0])
    xs = outcome(osc_levels_oracle, ctx, [float(x0[0]), x1], n_steps)
    if isinstance(xs[0], type):
        return traj, xs
    # xs ends before its first non-finite level after x_1, or at the spare
    # level x_{n_steps+1}; each level's velocity needs the next level
    rows = [(xs[0], float(x0[1]))]
    rows += [
        (xs[k], velocity_oracle(ctx, xs[k], xs[k + 1])) for k in range(1, min(len(xs) - 1, n_steps + 1))
    ]
    states = np.array(rows)
    blow_up = first_non_finite(states)
    if blow_up is None and len(states) <= n_steps:
        blow_up = len(states)
    return traj, (states[:blow_up], blow_up)


# starts whose levels overflow to inf and then NaN, or meet a negative or
# overflowing discriminant, within a few steps
EDGE_STARTS = (
    (1e80, 0.0), (-1e154, 1e154), (1e300, -1e300), (1e308, 0.0), (1e308, 1e308),
    (3.0, 1e308), (5e307, -1e308), (-5.0, 0.0), (3.0, -2.0),
)


@pytest.mark.parametrize(
    "kind, nonlocal_b",
    [(kind, sch.NONLOCAL_SEMI_IMPLICIT) for kind in ONE_STEP_KINDS]
    + [("scalar-nsfd", sch.NONLOCAL_EXPLICIT), ("matrix-nsfd", sch.NONLOCAL_EXPLICIT)]
    + [(kind, sch.NONLOCAL_SEMI_IMPLICIT) for kind in sch.SECOND_ORDER_KINDS],
)
def test_blow_ups_and_raises_match_the_per_step_oracles(oscillator, kind, nonlocal_b):
    spec = nl.SchemeSpec(kind, nonlocal_b=nonlocal_b)
    models, outcomes = (oscillator, quadratic_model([0.3, -0.7], [0.6, 0.8])), quadratic_outcomes
    if kind in sch.SECOND_ORDER_KINDS:
        models, outcomes = (oscillator,), second_order_outcomes
    for model in models:
        for dt in (0.1, 0.5, 1.0, 2.5):
            ctx = sch.StepContext(model, spec, dt)
            for start in EDGE_STARTS:
                actual, expected = outcomes(ctx, np.array(start), 40)
                assert_same_outcome(actual, expected)
                if not isinstance(actual[0], type):
                    assert np.isfinite(actual[0]).all()


@pytest.mark.parametrize(
    "kind, forcing, dt, start, expected",
    [
        # level 1 overflows; the non-finite state then reaches the
        # discriminant test: a blow-up, not a raise
        ("implicit-euler", "oscillator", 0.1, (1e308, 0.0), 1),
        # finite states whose discriminant overflows, or is negative
        ("implicit-euler", "oscillator", 1.0, (1e308, 1e308), "step 0: .*discriminant inf"),
        ("implicit-euler", "oscillator", 0.1, (-5.0, 0.0), "step 7: .*discriminant -"),
        # Q = dt I and b = u = e_1: s_1 = 2 = 1/c, a zero pivot at step 1
        ("traditional-nsfd", "e1", 0.5, (1.0, 0.0), "step 1: .*zero pivot"),
    ],
)
def test_quadratic_edges_match_the_per_step_oracle(oscillator, kind, forcing, dt, start, expected):
    model = oscillator if forcing == "oscillator" else quadratic_model([1.0, 0.0], [1.0, 0.0])
    ctx = sch.StepContext(model, nl.SchemeSpec(kind), dt)
    traj, oracle = quadratic_outcomes(ctx, np.array(start), 40)
    assert_same_outcome(traj, oracle)
    if isinstance(expected, int):
        assert oracle[1] == expected
    else:
        assert oracle[0] is RuntimeError and re.match(expected, oracle[1]), oracle


@pytest.mark.parametrize("kind", ["mickens-osc2", "corrected-osc"])
def test_second_order_zero_pivot_after_the_first_step(oscillator, kind):
    # x_0 is searched one ulp at a time near the time-reversed step from
    # (bad, x_1), so that x_2 has the zero pivot of
    # test_second_order_degenerate_pivot_raises: the loop raises at step 2
    dt, x1 = 0.1, 0.5
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
    s2 = (2.0 * math.sin(dt / 2.0)) ** 2
    c2 = math.cos(dt / 2.0) ** 2
    bad = -2.0 / (s2 * c2) if kind == "mickens-osc2" else -2.0 / s2
    up = down = step_osc_second_order(ctx, bad, x1)
    for _ in range(5000):
        x0 = next((x for x in (up, down) if pivot_is_zero(ctx, x, x1)), None)
        if x0 is not None:
            break
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    expected = outcome(osc_levels_oracle, ctx, [x0, x1], 5)
    assert expected[0] is RuntimeError and expected[1].startswith("step 2: "), expected
    assert_same_outcome(outcome(sch._osc_levels, ctx, osc_row(x0, x1, 5), 5), expected)


def pivot_is_zero(ctx, x0, x1):
    """Whether x_2, the step from (x_0, x_1), has a zero pivot."""
    try:
        step_osc_second_order(ctx, x1, step_osc_second_order(ctx, x0, x1))
    except RuntimeError:
        return True
    return False


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind",
    ["explicit-euler", "implicit-euler", "traditional-nsfd", "matrix-nsfd", "scalar-nsfd", "gamma-nsfd"],
)
def test_forced_equilibrium_is_a_fixed_point(trees, kind):
    eq = np.asarray(trees.equilibrium)
    traj = nl.integrate(trees, nl.SchemeSpec(kind), 0.1, 2.0, x0=eq)
    assert np.max(np.abs(traj.states - eq)) <= 1e-12


@pytest.mark.parametrize(
    "kind",
    ["explicit-euler", "implicit-euler", "scalar-nsfd", "mickens-osc1", "mickens-osc2", "corrected-osc"],
)
def test_oscillator_rest_state_is_a_fixed_point(oscillator, kind):
    traj = nl.integrate(oscillator, nl.SchemeSpec(kind), 0.1, 2.0, x0=np.zeros(2))
    assert np.max(np.abs(traj.states)) <= 1e-12


# ---------------------------------------------------------------------------
# dynamic consistency at every step size
# ---------------------------------------------------------------------------

# An exact scheme has P = exp(dt A), so on a stable A it decays to the
# equilibrium at every dt, and it keeps every state nonnegative when the
# flow does, with A Metzler, B >= 0 and X_0 >= 0 (Mickens, "Nonstandard
# Finite Difference Models of Differential Equations", 1994; Anguelov &
# Lubuma, Numer. Methods PDE 17, 2001).
CONSISTENCY_DTS = (0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
# both hold to rounding only: over this sweep the lowest state is -2.9e-15
# (scalar-nsfd) and -1.2e-15 (matrix-nsfd) of the largest, both on biomass
# at dt 50, and the largest final distance to the equilibrium is 3.1e-15 of
# the initial one
CONSISTENCY_ROUNDING = 2e-14


def metzler_model(seed):
    """A random stable upper triangular Metzler system X' = A X + B with
    n = 2..4, B >= 0 and X_0 >= 0.  The diagonal is the declared spectrum,
    with a repeated eigenvalue on odd seeds."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    diag = -rng.uniform(0.1, 5.0, n)
    if seed % 2:
        diag[1] = diag[0]
    lams, counts = np.unique(diag, return_counts=True)
    return mo.OdeModel(
        name=f"metzler-{seed}",
        a_matrix=np.diag(diag) + np.triu(rng.uniform(0.0, 2.0, (n, n)), 1),
        spectrum=tuple((lam, int(count)) for lam, count in zip(lams, counts)),
        forcing=mo.Forcing(kind="constant", constant=rng.uniform(0.0, 1.0, n)),
        initial_state=rng.uniform(0.0, 1.0, n),
        exact=None,
    )


@pytest.mark.parametrize("kind", ["matrix-nsfd", "scalar-nsfd"])
@pytest.mark.parametrize("model_name", ["biomass", "trees"])
def test_exact_schemes_decay_to_the_equilibrium_at_every_step_size(model_name, kind):
    model = nl.make_model(model_name)
    start_gap = np.max(np.abs(model.initial_state - model.equilibrium))
    for dt in CONSISTENCY_DTS:
        # the slowest mode is exp(-t), below 1e-21 by t = 50
        traj = nl.integrate(model, nl.SchemeSpec(kind), dt, 60.0)
        assert traj.blow_up_step is None
        gap = np.max(np.abs(traj.states[-1] - model.equilibrium))
        assert gap <= CONSISTENCY_ROUNDING * start_gap, (dt, gap / start_gap)


@pytest.mark.parametrize("kind", ["matrix-nsfd", "scalar-nsfd"])
def test_exact_schemes_stay_nonnegative_at_every_step_size(kind):
    models = [nl.make_model(name) for name in ("biomass", "trees", "seasonal")]
    for model in models + [metzler_model(seed) for seed in range(6)]:
        for dt in CONSISTENCY_DTS:
            traj = nl.integrate(model, nl.SchemeSpec(kind), dt, 60.0)
            assert traj.blow_up_step is None
            low = np.min(traj.states) / np.max(np.abs(traj.states))
            assert low >= -CONSISTENCY_ROUNDING, (model.name, dt, low)


def gamma_order_system(n, seed):
    """A = Q diag(lambda) Q^T with Q a random orthogonal matrix and lambda
    uniform in [-2, 1], unforced, from a random start."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(-2.0, 1.0, n)
    return mo.OdeModel(
        name=f"gamma-order-{seed}",
        a_matrix=q @ np.diag(lam) @ q.T,
        spectrum=tuple((float(v), 1) for v in lam),
        forcing=mo.Forcing(kind="none"),
        initial_state=rng.uniform(-1.0, 1.0, n),
        exact=None,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_is_order_n_on_random_systems(n):
    # the truncation gamma_j(dt) = dt^j/j! + (dt^n/n!) c_j matches exp(dt A)
    # to order n; criterion 04 checks biomass (n = 3) only.  Observed orders
    # between dt 0.1, 0.05 and 0.025 to t = 1 against scipy's expm measured
    # n - 0.06 to n + 0.12 on 200 systems per n; these are 5 of them
    dts = (0.1, 0.05, 0.025)
    for seed in range(5):
        model = gamma_order_system(n, 1000 * n + seed)
        errors = []
        for dt in dts:
            traj = nl.integrate(model, nl.SchemeSpec("gamma-nsfd"), dt, 1.0)
            exact = [scipy.linalg.expm(t * model.a_matrix) @ model.initial_state for t in traj.times]
            errors.append(np.max(np.linalg.norm(traj.states - exact, axis=1)))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(np.abs(orders - n) <= 0.2), (seed, orders)


def energy_drifts(oscillator, nonlocal_b, dt, t_end=350.0):
    """The relative drifts |E(X_k) - E_0| / E_0 of the energy
    E = y^2/2 + x^2/2 + x^3/3 and of Kahan's modified energy along a
    scalar-nsfd and a matrix-nsfd run from the stock start.

    With the semi-implicit product x_k x_{k+1} the exact scheme is Kahan's
    method at the step h = 2 tan(dt/2): the Cayley transform of h A is
    exp(dt A), and (I - h A/2)^-1 h = A^-1 (exp(dt A) - I) is its forcing
    weight.  On the cubic Hamiltonian Kahan's method conserves
    E + (h/3) grad E^T (I - (h/2) f')^-1 f (Celledoni, McLachlan, Owren &
    Quispel, J. Phys. A 46, 2013), where f(X) = (y, -x - x^2)."""
    h = 2.0 * math.tan(dt / 2.0)
    for kind in ("scalar-nsfd", "matrix-nsfd"):
        traj = nl.integrate(oscillator, nl.SchemeSpec(kind, nonlocal_b=nonlocal_b), dt, t_end)
        assert traj.blow_up_step is None
        x, y = traj.states.T
        energy = y**2 / 2 + x**2 / 2 + x**3 / 3
        # (I - (h/2) f')^-1 f, with f' = [[0, 1], [-1 - 2x, 0]]
        fx, fy = y, -x - x**2
        det = 1.0 + h * h / 4 * (1 + 2 * x)
        vx, vy = (fx + h / 2 * fy) / det, (fy - h / 2 * (1 + 2 * x) * fx) / det
        modified = energy + h / 3 * ((x + x**2) * vx + y * vy)
        yield (
            kind,
            traj.times,
            np.abs(energy - energy[0]) / energy[0],
            np.abs(modified - modified[0]) / modified[0],
        )


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_one_step_exact_schemes_keep_the_oscillator_energy_bounded(oscillator, dt):
    # the paper's Hamiltonian claim for the one-step exact schemes, which
    # criterion 06 checks for the two-level kinds only: the late/early
    # window ratio of the energy error reads 1.000 at dt 0.1 and 0.01 to
    # t = 350, and the modified energy drifts by at most 1.6e-14 (rounding
    # over 35,000 steps); the explicit product is the negative control, at
    # 4.1 and 6.0
    for nonlocal_b in sch.NONLOCAL_KINDS:
        for kind, times, drift, modified in energy_drifts(oscillator, nonlocal_b, dt):
            ratio = np.max(drift[times >= 300.0]) / np.max(drift[times <= 50.0])
            if nonlocal_b == sch.NONLOCAL_SEMI_IMPLICIT:
                assert ratio <= 1.05 and np.max(modified) <= 1e-13, (kind, ratio, np.max(modified))
            else:
                assert ratio >= 3.0, (kind, ratio)


# ---------------------------------------------------------------------------
# the linear stepping kernel against the sequential recurrence
# ---------------------------------------------------------------------------


def sequential_oracle(ctx, x0, n_steps):
    """x_{k+1} = x_k + (D x_k + Q B-hat_k), one level at a time, with
    B-hat from forcing_oracle."""
    rule = EULER_RULES.get(ctx.scheme.kind, ctx.scheme.forcing_approx)
    c = forcing_oracle(ctx.model, rule, ctx.dt, n_steps) @ ctx.q.T
    states = np.empty((n_steps + 1, ctx.model.n))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            states[k + 1] = states[k] + (ctx.d @ states[k] + c[k])
    return states


def first_non_finite(states):
    finite = np.all(np.isfinite(states), axis=1)
    return None if finite.all() else int(np.argmin(finite))


def assert_matches_oracle(traj, oracle, rel):
    """traj is the oracle truncated at its first non-finite level, within
    rel times the largest kept oracle state."""
    blow_up = first_non_finite(oracle)
    assert traj.blow_up_step == blow_up
    kept = oracle[:blow_up]
    assert traj.states.shape == kept.shape
    assert np.all(np.isfinite(traj.states))
    gap = np.max(np.abs(traj.states - kept))
    assert gap <= rel * np.max(np.abs(kept)), gap / np.max(np.abs(kept))


@pytest.mark.parametrize("model_name", ["biomass", "trees", "seasonal"])
@pytest.mark.parametrize("kind", ONE_STEP_KINDS)
def test_march_matches_the_sequential_recurrence(model_name, kind):
    model = nl.make_model(model_name)
    x0 = model.initial_state
    for dt in (0.1, 0.01, 0.001):
        full = sch.step_count(dt, 10.0)
        # 1, 2, 3 and both sides of a power of two cover the scan's first
        # passes and its pass count
        counts = (1, 2, 3, 1023, 1024, 1025, full)
        for approx in ("left", "middle", "half", "mean"):
            ctx = sch.StepContext(model, nl.SchemeSpec(kind, forcing_approx=approx), dt)
            oracle = sequential_oracle(ctx, x0, max(counts))
            for n_steps in counts:
                traj = sch.march(ctx, x0, n_steps)
                assert_matches_oracle(traj, oracle[: n_steps + 1], 1e-13)


def test_decaying_states_keep_their_relative_accuracy(biomass):
    # every biomass component decays like exp(-t) or faster; held only in
    # the increment form P^s - I, the scan's large powers lose the small
    # components' digits (relative error up to 9e-13 in x and 1 in z)
    traj = nl.integrate(biomass, nl.SchemeSpec("matrix-nsfd"), 1e-3, 10.0)
    exact = biomass.exact(traj.times[1:])
    rel = np.abs(traj.states[1:] - exact) / np.abs(exact)
    assert np.max(rel) <= 1e-13


@pytest.mark.parametrize(
    "dt, x0, blow_up",
    [
        (0.5, None, 1748),
        (0.45, None, 3175),
        # e1 is an eigenvector of P with eigenvalue 0.5; the unstable mode
        # (-1.5) grows only from rounding and stays finite in 4000 steps
        (0.5, [1.0, 0.0, 0.0], None),
    ],
)
def test_unstable_linear_steps_record_the_sequential_blow_up(biomass, dt, x0, blow_up):
    x0 = biomass.initial_state if x0 is None else np.array(x0)
    ctx = sch.StepContext(biomass, nl.SchemeSpec("explicit-euler"), dt)
    oracle = sequential_oracle(ctx, x0, 4000)
    assert first_non_finite(oracle) == blow_up
    assert_matches_oracle(sch.march(ctx, x0, 4000), oracle, 1e-13)


@st.composite
def stable_spectra(draw):
    """Real A = V blockdiag(...) V^-1 with n <= 4: distinct, clustered (gaps
    1e-3 .. 1e-9) or complex-pair eigenvalues in the left half plane; plus a
    step, a step count and a forcing sequence c."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["distinct", "clustered", "complex"]))
    if shape == "complex" and n >= 2:
        re, im = draw(st.floats(-3.0, -0.01)), draw(st.floats(0.1, 5.0))
        blocks = [np.array([[re, im], [-im, re]])]
        blocks += [np.array([[draw(st.floats(-5.0, -0.01))]]) for _ in range(n - 2)]
    elif shape == "clustered":
        base = draw(st.floats(-5.0, -0.01))
        gap = 10.0 ** draw(st.floats(-9.0, -3.0))
        blocks = [np.array([[base - j * gap]]) for j in range(n)]
    else:
        blocks = [np.array([[draw(st.floats(-5.0, -0.01))]]) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    assume(np.linalg.cond(v) <= 1e2)
    a = v @ scipy.linalg.block_diag(*blocks) @ np.linalg.inv(v)
    dt = draw(st.floats(1e-3, 0.5))
    n_steps = draw(st.integers(1, 3000))
    return a, dt, rng.standard_normal((n_steps, n)), rng.standard_normal(n)


# strongly non-normal: ||P|| = 40 with spectral radius 0.83.  Powers of P
# formed by squaring lose digits as the square of their size, so the scan
# leaves this step to the loop; scanned, the gap would be 1.4e-12.
TRANSIENT_GROWTH_CASE = (
    np.array(
        [
            [-26.67193746, -0.62234736, -23.80225352],
            [-76.87882669, -5.5156194, -69.37557686],
            [34.09163965, 1.06487686, 30.43755686],
        ]
    ),
    0.5,
    np.array(
        [
            [-0.26262121, 0.21718388, -1.28507609],
            [0.60274956, -0.42483343, -0.13061654],
            [0.07394756, -0.53900679, 1.31302318],
            [-0.12409604, 0.33823947, -0.18905451],
            [0.22818334, 0.86939435, -0.44177908],
            [0.83319524, -0.30296146, 0.51623159],
        ]
    ),
    np.array([-1.40444705, -0.10537734, -1.37610358]),
)


@given(case=stable_spectra())
@example(case=TRANSIENT_GROWTH_CASE)
@settings(max_examples=60, deadline=None)
def test_march_matches_the_sequential_recurrence_on_random_spectra(case):
    a, dt, c, x0 = case
    n_steps, n = c.shape
    # a synthetic context: P = exp(dt A) held as P - I, Q = I, and a
    # left-endpoint time forcing that reads c_k off the step index
    forcing = mo.Forcing(
        kind="time", time_fn=lambda t: c[np.rint(np.asarray(t) / dt).astype(int)]
    )
    ctx = types.SimpleNamespace(
        model=types.SimpleNamespace(n=n, forcing=forcing),
        scheme=nl.SchemeSpec("matrix-nsfd", forcing_approx="left"),
        dt=dt,
        d=dt * mk.phi1(dt * a) @ a,
        q=np.eye(n),
        coeffs=None,
    )
    assert_matches_oracle(sch.march(ctx, x0, n_steps), sequential_oracle(ctx, x0, n_steps), 1e-13)


# ---------------------------------------------------------------------------
# component-major levels: the scan and the loop on (n, N + 1) arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_scan_matches_the_loop_on_random_stable_steps(seed):
    # A = V S V^-1 with cond(V) <= 3 and S real (or one rotation block) in
    # the left half plane: every power of P = exp(dt A) has entries <= 3,
    # under the growth guard's 4, so the scan runs to the end.  Over 300
    # seeds the worst gap is 1.5e-15 of the largest level; the bound is
    # 1e-14.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    v = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    while np.linalg.cond(v) > 3.0:
        v = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    s = np.diag(-rng.uniform(0.01, 5.0, n))
    if n >= 2 and rng.random() < 0.5:
        s[0, 1] = rng.uniform(0.1, 5.0)
        s[1, 0], s[1, 1] = -s[0, 1], s[0, 0]
    a = v @ s @ np.linalg.inv(v)
    dt = rng.uniform(1e-3, 0.5)
    d = dt * mk.phi1(dt * a) @ a
    levels = np.empty((n, int(rng.integers(1, 5001)) + 1))
    levels[:, 0] = rng.standard_normal(n)
    levels[:, 1:] = rng.standard_normal((n, levels.shape[1] - 1))
    looped = levels.copy()
    sch._affine_loop(d, looped)
    assert sch._affine_scan(d, levels) is True
    assert np.max(np.abs(levels - looped)) <= 1e-14 * np.max(np.abs(looped))


@pytest.mark.parametrize(
    "model_name, dt, blow_up",
    [("biomass", 0.5, 1748), ("biomass", 0.45, 3175), ("seasonal", 0.5, 1750)],
)
def test_growing_steps_fall_back_to_the_loops_bits(model_name, dt, blow_up):
    model = nl.make_model(model_name)
    ctx = sch.StepContext(model, nl.SchemeSpec("explicit-euler"), dt)
    x0 = model.initial_state
    levels = np.zeros((model.n, 4001))
    levels[:, 0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        assert sch._affine_scan(ctx.d, levels) is False
    traj = sch.march(ctx, x0, 4000)
    assert traj.blow_up_step == blow_up
    assert np.array_equal(traj.states, sequential_oracle(ctx, x0, 4000)[:blow_up])


@pytest.mark.parametrize("norm", [nl.COMPONENT_X, nl.EUCLIDEAN_FULL])
def test_states_are_the_levels_in_any_memory_layout(seasonal, norm):
    ctx = sch.StepContext(seasonal, nl.SchemeSpec("scalar-nsfd"), 0.01)
    traj = sch.march(ctx, seasonal.initial_state, 1000)
    assert traj.states.shape == (1001, 3)
    assert np.array_equal(traj.states[0], seasonal.initial_state)
    assert_matches_oracle(traj, sequential_oracle(ctx, seasonal.initial_state, 1000), 1e-13)
    contiguous = dataclasses.replace(traj, states=np.ascontiguousarray(traj.states))
    assert np.array_equal(
        nl.relative_error_series(traj, seasonal.exact, norm).errors,
        nl.relative_error_series(contiguous, seasonal.exact, norm).errors,
    )


# ---------------------------------------------------------------------------
# the grid driver
# ---------------------------------------------------------------------------


def test_integrate_grid_shapes(biomass):
    assert nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), 0.1, 0.1).states.shape == (2, 3)
    traj = nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), 0.3, 1.0)
    assert traj.states.shape == (4, 3)  # floor(1.0/0.3) + 1 levels
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9], rtol=0, atol=1e-15)


def assert_times_are_the_grid(traj, dt):
    """traj.times is time_grid's k dt, k = 0..N - 1, to the bit: the grid
    that bench's caches of exact samples and time-column text key by
    (dt, N)."""
    grid = sch.time_grid(len(traj.times), dt)
    assert traj.times.tobytes() == grid.tobytes()
    assert grid.tobytes() == np.array([k * dt for k in range(len(grid))]).tobytes()


@pytest.mark.parametrize(
    "model_name, kind",
    [("oscillator", kind) for kind in sch.SCHEME_KINDS]
    + [("seasonal", kind) for kind in ONE_STEP_KINDS],
)
def test_trajectory_times_are_the_time_grid_bitwise(model_name, kind):
    # dt 0.001 over 10,001 levels, where a running sum of dt drifts off k dt
    traj = nl.integrate(nl.make_model(model_name), nl.SchemeSpec(kind), 0.001, 10.0)
    assert traj.blow_up_step is None and len(traj.times) == 10001
    assert_times_are_the_grid(traj, 0.001)


@pytest.mark.parametrize(
    "model_name, kind, dt, t_end, x0, scans, blow_up",
    [
        ("seasonal", "scalar-nsfd", 0.001, 10.0, None, [True], None),  # prefix scan
        ("seasonal", "explicit-euler", 0.5, 2000.0, None, [False], 1750),  # level loop
        ("oscillator", "explicit-euler", 2.5, 250.0, None, [], 18),  # closed-form quadratic
        ("oscillator", "mickens-osc1", 0.5, 50.0, (2.0, 0.0), [], 15),  # two-level recurrence
    ],
    ids=["scan", "loop-blow-up", "quadratic-blow-up", "second-order-blow-up"],
)
def test_times_are_the_time_grid_on_every_route(
    monkeypatch, model_name, kind, dt, t_end, x0, scans, blow_up
):
    taken = []
    affine_scan = sch._affine_scan

    def recording(d, levels):
        taken.append(affine_scan(d, levels))
        return taken[-1]

    monkeypatch.setattr(sch, "_affine_scan", recording)
    x0 = None if x0 is None else np.array(x0)
    traj = nl.integrate(nl.make_model(model_name), nl.SchemeSpec(kind), dt, t_end, x0=x0)
    assert taken == scans
    assert traj.blow_up_step == blow_up
    assert len(traj.times) == (sch.step_count(dt, t_end) + 1 if blow_up is None else blow_up)
    assert_times_are_the_grid(traj, dt)


def test_integrate_rejects_bad_grids(biomass):
    with pytest.raises(ValueError):
        nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), 0.0, 1.0)
    with pytest.raises(ValueError):
        nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), -0.1, 1.0)
    with pytest.raises(ValueError):
        nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), 0.3, 0.2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("to_float", [float, np.float64])
@pytest.mark.parametrize("dt, t_end", [(1e-320, 1.0), (5e-324, 1e-8), (1e-310, 1e300)])
def test_step_count_rejects_a_step_count_that_is_not_finite(dt, t_end, to_float):
    # t_end / dt overflows: a usage error naming dt, t_end and the count,
    # with no overflow warning, raised before any stepping starts
    message = f"t_end / dt = {t_end!r} / {dt!r} = inf steps is not a finite count"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sch.step_count(to_float(dt), to_float(t_end))


def test_step_count_keeps_the_largest_finite_counts():
    # a finite count is counted, however large
    count = sch.step_count(1e-300, 1.0)
    assert isinstance(count, int) and 0.99e300 < count < 1.01e300
    assert sch.step_count(0.1, 1.0) == 10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "model_name, kind",
    [("biomass", "matrix-nsfd"), ("oscillator", "implicit-euler"), ("oscillator", "corrected-osc")],
    ids=["linear-one-step", "state-forced-one-step", "second-order"],
)
def test_integrate_rejects_a_non_finite_initial_state(model_name, kind, bad, request):
    # one scheme per stepping route: the linear prefix scan, the closed
    # form of a state-forced step, and the two-level oscillator recurrence
    model = request.getfixturevalue(model_name)
    x0 = model.initial_state.copy()
    x0[0] = bad
    with pytest.raises(ValueError, match="initial state must be finite"):
        nl.integrate(model, nl.SchemeSpec(kind), 0.1, 1.0, x0=x0)


def test_blow_up_is_recorded_not_raised(oscillator):
    traj = nl.integrate(oscillator, nl.SchemeSpec("explicit-euler"), 2.5, 250.0)
    assert traj.blow_up_step == 18
    assert traj.states.shape[0] == 18  # truncated to the finite prefix
    assert np.all(np.isfinite(traj.states))
    np.testing.assert_allclose(traj.times, 2.5 * np.arange(18), rtol=0, atol=0)


def test_second_order_blow_up_is_recorded(oscillator):
    traj = nl.integrate(
        oscillator, nl.SchemeSpec("mickens-osc1"), 0.1, 5.0, x0=np.array([1e80, 0.0])
    )
    assert traj.blow_up_step is not None
    assert traj.states.shape[0] == traj.blow_up_step
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize(
    "dt, start, blow_up", [(0.1, (3.0, 1e308), 1), (0.5, (5e307, -1e308), 2)]
)
def test_two_level_run_ends_before_its_first_overflowing_velocity(oscillator, dt, start, blow_up):
    # x stays finite past blow_up, but y_{blow_up} overflows: the run ends
    # there, without numpy's overflow warnings
    spec = nl.SchemeSpec("corrected-osc")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = nl.integrate(oscillator, spec, dt, 4.0, x0=np.array(start))
    assert traj.blow_up_step == blow_up
    assert traj.states.shape == (blow_up, 2) and np.isfinite(traj.states).all()
    ctx = sch.StepContext(oscillator, spec, dt)
    x1 = float(quadratic_levels_oracle(ctx, start, 1)[1, 0])
    xs = osc_levels_oracle(ctx, [start[0], x1], blow_up)
    assert len(xs) == blow_up + 2  # x_0 .. x_{blow_up+1}, all finite
    assert math.isinf(velocity_oracle(ctx, xs[blow_up], xs[blow_up + 1]))


@pytest.mark.parametrize("kind", sch.SECOND_ORDER_KINDS)
def test_two_level_run_takes_the_start_ups_x_whatever_its_velocity(oscillator, kind):
    # from (1e308, 0) at dt 1 the start-up step gives x_1 = 0 and y_1 = -inf;
    # the run keeps x_1 and reports the recurrence's own y_1, which is finite
    start, dt = np.array([1e308, 0.0]), 1.0
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), dt)
    x1, startup_y1 = quadratic_levels_oracle(ctx, start, 1)[1]
    assert math.isfinite(x1) and math.isinf(startup_y1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = nl.integrate(oscillator, nl.SchemeSpec(kind), dt, 40.0, x0=start)
    xs = osc_levels_oracle(ctx, [start[0], float(x1)], 1)
    assert traj.blow_up_step == 2
    assert traj.states[1, 0] == x1
    assert traj.states[1, 1] == velocity_oracle(ctx, xs[1], xs[2])


@pytest.mark.parametrize("kind", ["explicit-euler", "implicit-euler", "scalar-nsfd"])
def test_a_quadratic_run_memory_cannot_hold_fails_before_it_steps(oscillator, monkeypatch, kind):
    # the states are allocated before the closed-form steps, which write
    # each level into them through a memoryview of each row, so a count
    # beyond any array raises at once instead of stepping until memory runs
    # out
    monkeypatch.setattr(
        sch, "memoryview", lambda *args: pytest.fail("the steps ran"), raising=False
    )
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind), 0.1)
    with pytest.raises(ValueError, match="array is too big"):
        sch.march(ctx, oscillator.initial_state, 2**62)


def test_a_two_level_run_memory_cannot_hold_fails_before_it_steps(oscillator, monkeypatch):
    # the states are allocated before the recurrence runs, so a count
    # beyond any array raises at once instead of stepping until memory
    # runs out
    monkeypatch.setattr(sch, "_osc_levels", lambda *args: pytest.fail("the recurrence ran"))
    ctx = sch.StepContext(oscillator, nl.SchemeSpec("corrected-osc"), 0.1)
    with pytest.raises(ValueError, match="array is too big"):
        sch.march(ctx, oscillator.initial_state, 2**62)


@pytest.mark.parametrize(
    "kind, nonlocal_b",
    [
        ("explicit-euler", "semi-implicit-product"),
        ("implicit-euler", "semi-implicit-product"),
        ("scalar-nsfd", "semi-implicit-product"),
        ("scalar-nsfd", "explicit"),
        ("mickens-osc1", "semi-implicit-product"),
        ("mickens-osc2", "semi-implicit-product"),
        ("corrected-osc", "semi-implicit-product"),
    ],
)
def test_a_closed_form_run_holds_its_levels_once(oscillator, kind, nonlocal_b):
    # every closed-form loop writes its levels into the states, and the
    # two-level velocities are computed in place, so the peak of a run is
    # its states plus at most one product temporary (corrected-osc's
    # tan(dt/2) x_k x_{k+1}, half the states), not a second copy of its
    # levels (2.0x the states for a quadratic rule, 2.5x for a two-level
    # recurrence)
    ctx = sch.StepContext(oscillator, nl.SchemeSpec(kind, nonlocal_b=nonlocal_b), 1e-3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = sch.march(ctx, oscillator.initial_state, 50_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert traj.blow_up_step is None and len(traj.states) == 50_001
    assert peak < 1.6 * traj.states.nbytes, peak / traj.states.nbytes


def test_stable_schemes_do_not_blow_up(biomass):
    for kind in ("matrix-nsfd", "scalar-nsfd", "gamma-nsfd"):
        assert nl.integrate(biomass, nl.SchemeSpec(kind), 0.1, 10.0).blow_up_step is None


def test_euler_error_grows_over_successive_periods(oscillator):
    traj, series, _ = nl.run_experiment(
        oscillator, nl.SchemeSpec("explicit-euler"), 0.05, 35.0, norm="full"
    )
    period = nl.oscillator_period(0.25)
    t, e = traj.times, series.errors
    window_max = [np.max(e[(t >= k * period) & (t < (k + 1) * period)]) for k in range(5)]
    assert all(a < b for a, b in zip(window_max, window_max[1:]))
