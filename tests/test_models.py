"""Elliptic special functions, the oscillator's closed-form solution, and
the biomass model family with its forced variants."""
import dataclasses
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nsfdlab as nl
import nsfdlab.matkit as mk
import nsfdlab.models as mo

# complete elliptic integral, frozen from a 50-digit AGM evaluation
ELLIPTIC_K = {
    0.1: 1.6124413487202193982,
    0.25: 1.6857503548125960429,
    0.5: 1.8540746773013719184,
    0.9: 2.5780921133481731882,
    0.99: 3.6956373629898746778,
}

# (u, m) -> (sn, cn, dn), frozen from a 50-digit evaluation of the
# incomplete-integral inversions
JACOBI_POINTS = {
    (0.5, 0.3): (0.4742156227118206254, 0.88040873642646243009, 0.96567896474595119881),
    (1.0, 0.3): (0.81877071453448891903, 0.57412064674655487955, 0.89380330895908230398),
    (0.8, 0.7): (0.68022653339595181152, 0.73300195311071719877, 0.82225561979526065043),
    (1.3, 0.9): (0.87462620904282036508, 0.48479789031655726857, 0.55814522752581717534),
}

# amplitude, frequency, parameter of the x0 = 0.25 orbit (50-digit values)
OSC_A = -0.55217803813051999918
OSC_OMEGA = 0.531949553038863514
OSC_M = 0.32522729151324799802
OSC_PERIOD = 6.5004139010610660296
OSC_ENERGY = 7.0 / 192.0


# ---------------------------------------------------------------------------
# elliptic_k
# ---------------------------------------------------------------------------


def test_elliptic_k_at_zero_is_half_pi():
    assert abs(mo.elliptic_k(0.0) - math.pi / 2) <= 1e-15


@pytest.mark.parametrize("m, expected", sorted(ELLIPTIC_K.items()))
def test_elliptic_k_frozen_values(m, expected):
    assert abs(mo.elliptic_k(m) - expected) <= 1e-13 * expected


def test_elliptic_k_is_increasing_in_m():
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999]
    values = [mo.elliptic_k(m) for m in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
def test_elliptic_k_domain(m):
    with pytest.raises(ValueError):
        mo.elliptic_k(m)


# ---------------------------------------------------------------------------
# jacobi elliptic functions
# ---------------------------------------------------------------------------


def test_jacobi_m_zero_degenerates_to_circular_functions():
    for u in np.linspace(-6.0, 6.0, 25):
        sn, cn, dn = mo.jacobi_sn_cn_dn(u, 0.0)
        assert abs(sn - math.sin(u)) <= 1e-12
        assert abs(cn - math.cos(u)) <= 1e-12
        assert abs(dn - 1.0) <= 1e-12


def test_jacobi_m_one_degenerates_to_hyperbolic_functions():
    for u in np.linspace(-4.0, 4.0, 17):
        sn, cn, dn = mo.jacobi_sn_cn_dn(u, 1.0)
        assert abs(sn - math.tanh(u)) <= 1e-12
        assert abs(cn - 1.0 / math.cosh(u)) <= 1e-12
        assert abs(dn - 1.0 / math.cosh(u)) <= 1e-12


@pytest.mark.parametrize("point, expected", sorted(JACOBI_POINTS.items()))
def test_jacobi_frozen_values(point, expected):
    u, m = point
    got = mo.jacobi_sn_cn_dn(u, m)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
    assert mo.jacobi_sn(u, m) == got[0]


def test_jacobi_at_origin():
    sn, cn, dn = mo.jacobi_sn_cn_dn(0.0, 0.6)
    assert (sn, cn, dn) == (0.0, 1.0, 1.0)


def test_jacobi_pythagorean_identities_on_a_grid():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = rng.uniform(-20.0, 20.0)
        m = rng.uniform(0.0, 0.999)
        sn, cn, dn = mo.jacobi_sn_cn_dn(u, m)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) <= 1e-12


@pytest.mark.parametrize("m", [0.3, 0.7, 0.95])
def test_jacobi_periodicity(m):
    period = 4.0 * mo.elliptic_k(m)
    for u in np.linspace(-3.0, 3.0, 11):
        assert abs(mo.jacobi_sn(u + period, m) - mo.jacobi_sn(u, m)) <= 1e-10
        assert abs(mo.jacobi_sn(u + period / 2.0, m) + mo.jacobi_sn(u, m)) <= 1e-10


def test_jacobi_sn_derivative_is_cn_dn():
    h = 1e-6
    for u in np.linspace(-2.0, 2.0, 9):
        for m in (0.2, 0.8):
            fd = (mo.jacobi_sn(u + h, m) - mo.jacobi_sn(u - h, m)) / (2 * h)
            _, cn, dn = mo.jacobi_sn_cn_dn(u, m)
            assert abs(fd - cn * dn) <= 1e-7


@given(u=st.floats(-30.0, 30.0), m=st.floats(0.0, 0.99))
@settings(max_examples=200, deadline=None)
def test_jacobi_sn_bounded_and_consistent(u, m):
    sn, cn, dn = mo.jacobi_sn_cn_dn(u, m)
    assert abs(sn) <= 1.0 + 1e-12
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-11


@pytest.mark.parametrize("m", [-0.5, 1.2])
def test_jacobi_domain(m):
    with pytest.raises(ValueError):
        mo.jacobi_sn_cn_dn(0.3, m)


def test_jacobi_matches_a_40_digit_oracle_over_the_oscillator_horizon():
    # the oscillator's m over u = omega t for t in [0, 35]: about 2.7
    # periods of sn, where the frozen points above stay in the first quarter
    _, omega, m = mo.oscillator_params(0.25)
    u = np.linspace(0.0, 35.0 * omega, 401)
    with mpmath.workdps(40):
        expected = np.array(
            [[float(mpmath.ellipfun(kind, x, m=m)) for kind in ("sn", "cn", "dn")] for x in u]
        )
        k_expected = float(mpmath.ellipk(m))
    got = np.stack(mo.jacobi_sn_cn_dn(u, m), axis=1)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
    assert abs(mo.elliptic_k(m) - k_expected) <= 1e-13


def test_import_and_model_building_leave_scipy_special_unloaded():
    # the special functions load on first use only, so a fresh import of
    # the package plus the four builders stays cheap
    src = str(Path(nl.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from nsfdlab import make_model\n"
        "for kind in ('oscillator', 'biomass', 'trees', 'seasonal'):\n"
        "    make_model(kind)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_and_model_building_load_no_scipy_module():
    # no nsfdlab module imports scipy.linalg, and scipy.special waits for
    # the first elliptic function, so neither the import nor a model build
    # loads any part of scipy
    src = str(Path(nl.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import nsfdlab\n"
        "for kind in ('oscillator', 'biomass', 'trees', 'seasonal'):\n"
        "    nsfdlab.make_model(kind)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# oscillator orbit
# ---------------------------------------------------------------------------


def test_oscillator_params_frozen_values():
    a, omega, m = mo.oscillator_params(0.25)
    assert abs(a - OSC_A) <= 1e-12
    assert abs(omega - OSC_OMEGA) <= 1e-12
    assert abs(m - OSC_M) <= 1e-12
    assert abs(mo.oscillator_period(0.25) - OSC_PERIOD) <= 1e-12


@pytest.mark.parametrize("x0", [0.0, 0.5, 0.7, -0.1])
def test_oscillator_params_domain(x0):
    with pytest.raises(ValueError):
        mo.oscillator_params(x0)


def test_oscillator_exact_initial_state(oscillator):
    state = oscillator.exact(0.0)
    assert state[0] == 0.25
    assert abs(state[1]) <= 1e-15


@pytest.mark.parametrize("kind", ["oscillator", "biomass", "trees", "seasonal"])
def test_exact_at_zero_is_the_initial_state_bitwise(kind):
    model = nl.make_model(kind)
    bits = model.initial_state.view(np.uint64)
    assert np.array_equal(np.asarray(model.exact(0.0)).view(np.uint64), bits)
    assert np.array_equal(model.exact(np.zeros(1))[0].view(np.uint64), bits)


def test_oscillator_energy_values(oscillator):
    assert mo.oscillator_energy(np.array([0.0, 0.0])) == 0.0
    assert abs(mo.oscillator_energy(oscillator.exact(0.0)) - OSC_ENERGY) <= 1e-15


def test_oscillator_exact_conserves_energy(oscillator):
    for t in np.linspace(0.0, 35.0, 141):
        drift = mo.oscillator_energy(oscillator.exact(t)) - OSC_ENERGY
        assert abs(drift) <= 1e-9


def test_oscillator_exact_solves_the_ode(oscillator):
    # centered-difference residual of X' = AX + B(X) is O(h^2)
    def residual(h):
        worst = 0.0
        for t in np.linspace(0.2, 34.8, 101):
            fd = (oscillator.exact(t + h) - oscillator.exact(t - h)) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - oscillator.rhs(t, oscillator.exact(t)))))
        return worst

    coarse, fine = residual(1e-4), residual(5e-5)
    assert coarse <= 1e-6
    assert 3.5 <= coarse / fine <= 4.5


def test_oscillator_exact_period(oscillator):
    delta = oscillator.exact(OSC_PERIOD) - oscillator.exact(0.0)
    assert np.max(np.abs(delta)) <= 1e-6


# ---------------------------------------------------------------------------
# biomass family
# ---------------------------------------------------------------------------


def test_biomass_exact_matches_matrix_exponential(biomass):
    # independent route for the linear unforced system: X(t) = expm(tA) X(0)
    x0 = biomass.exact(0.0)
    np.testing.assert_array_equal(x0, [0.0, 0.0, 1.0])
    for t in (0.1, 1.0, 3.7, 10.0):
        oracle = scipy.linalg.expm(t * biomass.a_matrix) @ x0
        np.testing.assert_allclose(biomass.exact(t), oracle, rtol=0, atol=1e-12)


def test_trees_exact_matches_variation_of_constants(trees):
    # X(t) = eq + expm(tA)(X0 - eq) with eq = -A^{-1} B
    x0 = trees.exact(0.0)
    eq = np.linalg.solve(trees.a_matrix, -trees.forcing.constant)
    for t in (0.1, 1.0, 5.0, 10.0):
        oracle = eq + scipy.linalg.expm(t * trees.a_matrix) @ (x0 - eq)
        np.testing.assert_allclose(trees.exact(t), oracle, rtol=0, atol=1e-12)


def test_trees_long_time_limit_is_equilibrium(trees):
    np.testing.assert_allclose(trees.exact(60.0), trees.equilibrium, rtol=0, atol=1e-12)


def test_trees_equilibrium_zeroes_the_rhs(trees):
    residual = trees.rhs(0.0, np.asarray(trees.equilibrium))
    assert np.max(np.abs(residual)) <= 1e-15


@pytest.mark.parametrize("kind", ["biomass", "trees", "seasonal"])
def test_biomass_family_exact_solves_the_ode(kind):
    model = nl.make_model(kind)
    h = 1e-4
    for t in np.linspace(0.1, 9.9, 50):
        fd = (model.exact(t + h) - model.exact(t - h)) / (2 * h)
        assert np.max(np.abs(fd - model.rhs(t, model.exact(t)))) <= 1e-6


def test_seasonal_forcing_vector(seasonal):
    zf, omega = seasonal.params["zf"], seasonal.params["omega"]
    for t in (0.0, 0.3, 1.7):
        expected = np.array([0.0, 0.0, zf * (1.0 + math.cos(omega * t))])
        np.testing.assert_allclose(seasonal.forcing.time_fn(t), expected, rtol=0, atol=1e-15)


def test_seasonal_antiderivative_matches_quadrature(seasonal):
    f = seasonal.forcing
    for t0, t1 in ((0.0, 0.1), (0.3, 0.45), (2.0, 3.0)):
        diff = f.antiderivative(t1) - f.antiderivative(t0)
        for i in range(3):
            ref, _ = scipy.integrate.quad(lambda s: f.time_fn(s)[i], t0, t1, epsabs=1e-14)
            assert abs(diff[i] - ref) <= 1e-12


# ---------------------------------------------------------------------------
# make_model
# ---------------------------------------------------------------------------


def test_make_model_unknown_kind_lists_valid_ones():
    with pytest.raises(ValueError, match="oscillator"):
        nl.make_model("pendulum")


def test_make_model_oscillator_structure(oscillator):
    np.testing.assert_array_equal(oscillator.a_matrix, [[0.0, 1.0], [-1.0, 0.0]])
    assert oscillator.forcing.kind == "state"
    np.testing.assert_array_equal(
        oscillator.forcing.state_fn(np.array([2.0, 0.0])), [0.0, -4.0]
    )
    np.testing.assert_array_equal(oscillator.equilibrium, [0.0, 0.0])


def test_oscillator_forcing_is_a_declared_quadratic(oscillator):
    b, u = oscillator.forcing.quadratic
    np.testing.assert_array_equal(b, [0.0, -1.0])
    np.testing.assert_array_equal(u, [1.0, 0.0])
    # overflow gives an infinite forcing, with no NaN and no warning, even
    # when the component that u ignores has overflowed too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e200, 0.0], [1e200, math.inf]):
            np.testing.assert_array_equal(oscillator.forcing.state_fn(np.array(x)), [0.0, -math.inf])


@pytest.mark.parametrize(
    "fields, match",
    [
        # a kind the steppers and rhs do not know would drop the forcing
        ({"kind": "Constant", "constant": np.ones(3)}, "unknown forcing kind 'Constant'"),
        ({"kind": "quadratic", "quadratic": ([0.0, -1.0], [1.0, 0.0])}, "unknown forcing kind"),
        # a kind without the field it reads
        ({"kind": "constant"}, "constant forcing needs its constant"),
        ({"kind": "time", "antiderivative": np.sin}, "time forcing needs its time_fn"),
        ({"kind": "state", "constant": np.ones(2)}, "state forcing needs its quadratic"),
    ],
)
def test_forcing_rejects_unknown_kinds_and_missing_fields(fields, match):
    with pytest.raises(ValueError, match=match):
        mo.Forcing(**fields)


def test_quadratic_declaration_needs_matching_vectors():
    with pytest.raises(ValueError, match="one length"):
        mo.Forcing(kind="state", quadratic=([0.0, -1.0], [1.0, 0.0, 0.0]))


def test_make_model_oscillator_rejects_bad_x0():
    with pytest.raises(ValueError, match="x0"):
        nl.make_model("oscillator", x0=0.6)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kind, param",
    [
        ("oscillator", "x0"),
        ("biomass", "z0"),
        ("trees", "z0"),
        ("trees", "zf"),
        ("seasonal", "z0"),
        ("seasonal", "zf"),
        ("seasonal", "omega"),
    ],
)
def test_make_model_rejects_non_finite_parameters(kind, param, value):
    # NaN fails every comparison, so a sign check alone would let it through
    with pytest.raises(ValueError, match=f"^{param} must"):
        nl.make_model(kind, **{param: value})


def test_make_model_biomass_structure(biomass):
    np.testing.assert_array_equal(
        biomass.a_matrix, [[-1.0, 3.0, 0.0], [0.0, -3.0, 5.0], [0.0, 0.0, -5.0]]
    )
    assert biomass.forcing.kind == "none"
    np.testing.assert_array_equal(biomass.initial_state, [0.0, 0.0, 1.0])


def _bad_a_matrix(a, change):
    if change == "3x2":
        return a[:, :2].copy()
    bad = a.astype(complex) if change == "complex" else a.copy()
    bad[0, 1] = {"nan": math.nan, "inf": math.inf, "complex": 3.0 + 1e-3j}[change]
    return bad


BAD_A_MESSAGES = {
    "nan": "^matrix entries must be finite$",
    "inf": "^matrix entries must be finite$",
    "3x2": r"^expected a square matrix, got shape \(3, 2\)$",
    "complex": "^expected a real matrix$",
}


@pytest.mark.parametrize("change", sorted(BAD_A_MESSAGES))
def test_a_bad_a_matrix_is_refused_when_the_model_is_built(biomass, change):
    # one answer whatever scheme would follow: the copy is never built, so
    # no scheme can step it (a NaN entry used to pass explicit Euler as a
    # blow-up at step 1 and raise under the matkit schemes)
    with pytest.raises(ValueError, match=BAD_A_MESSAGES[change]):
        dataclasses.replace(biomass, a_matrix=_bad_a_matrix(biomass.a_matrix, change))


def test_the_size_is_read_off_the_matrix(biomass):
    assert "n" not in {f.name for f in dataclasses.fields(mo.OdeModel)}
    for kind in ("oscillator", "biomass", "trees", "seasonal"):
        model = nl.make_model(kind)
        assert model.n == model.a_matrix.shape[0]
    with pytest.raises(TypeError):
        dataclasses.replace(biomass, n=2)
    # a C-ordered float64 matrix is kept as it is; a list becomes one
    a = np.array(biomass.a_matrix)
    assert dataclasses.replace(biomass, a_matrix=a).a_matrix is a
    listed = dataclasses.replace(biomass, a_matrix=a.tolist()).a_matrix
    assert listed.dtype == np.float64 and listed.flags.c_contiguous
    np.testing.assert_array_equal(listed, a)


def test_a_declared_spectrum_must_fit_the_matrix(biomass):
    with pytest.raises(ValueError, match="multiplicities sum to 2, expected matrix dimension 3"):
        dataclasses.replace(biomass, spectrum=((-1.0, 1), (-3.0, 1)))
    # None is the eigenvalue fallback, and scalar-nsfd steps on it
    undeclared = dataclasses.replace(biomass, spectrum=None)
    spec = nl.SchemeSpec("scalar-nsfd")
    traj = nl.integrate(undeclared, spec, 0.1, 2.0)
    declared = nl.integrate(biomass, spec, 0.1, 2.0)
    assert traj.blow_up_step is None and traj.states.shape == declared.states.shape
    np.testing.assert_allclose(traj.states, declared.states, rtol=0, atol=1e-14)


WRONG_LENGTHS = {
    # a length-1 constant used to be broadcast to every component
    "constant-1": ("biomass", "forcing.constant", (1,)),
    "constant-2": ("biomass", "forcing.constant", (2,)),
    "quadratic": ("oscillator", "forcing.quadratic", (3,)),
    "initial-state-2": ("biomass", "initial_state", (2,)),
    "initial-state-column": ("biomass", "initial_state", (3, 1)),
}


def _with_wrong_length(model, field, shape):
    if field == "initial_state":
        return dataclasses.replace(model, initial_state=np.ones(shape))
    if field == "forcing.constant":
        return dataclasses.replace(model, forcing=mo.Forcing(kind="constant", constant=np.ones(shape)))
    return dataclasses.replace(
        model, forcing=mo.Forcing(kind="state", quadratic=(np.ones(shape), np.ones(shape)))
    )


@pytest.mark.parametrize("case", sorted(WRONG_LENGTHS))
def test_vectors_of_another_length_are_refused_when_the_model_is_built(case):
    kind, field, shape = WRONG_LENGTHS[case]
    model = nl.make_model(kind)
    message = rf"^{field} must have length n = {model.n}, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        _with_wrong_length(model, field, shape)
    # the same fields at the model's length build
    assert _with_wrong_length(model, field, (model.n,)).n == model.n


NON_FINITE_ENTRIES = {
    "initial-state": ("biomass", "initial_state"),
    "constant": ("trees", "forcing.constant"),
    "quadratic-b": ("oscillator", "forcing.quadratic"),
    "quadratic-u": ("oscillator", "forcing.quadratic"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_ENTRIES))
def test_vectors_with_a_non_finite_entry_are_refused_when_the_model_is_built(case, value):
    # refused at build: a NaN forcing is not a blow-up at step 1, and a NaN
    # initial state does not wait for integrate
    kind, field = NON_FINITE_ENTRIES[case]
    model = nl.make_model(kind)
    if case == "initial-state":
        vector = model.initial_state.copy()
        vector[-1] = value
        changes = {"initial_state": vector}
    elif case == "constant":
        vector = model.forcing.constant.copy()
        vector[-1] = value
        changes = {"forcing": mo.Forcing(kind="constant", constant=vector)}
    else:
        b, u = (v.copy() for v in model.forcing.quadratic)
        (b if case == "quadratic-b" else u)[-1] = value
        changes = {"forcing": mo.Forcing(kind="state", quadratic=(b, u))}
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
        dataclasses.replace(model, **changes)


def test_make_model_parameters_propagate():
    sea = nl.make_model("seasonal", zf=0.25, omega=3.0)
    assert sea.params["zf"] == 0.25 and sea.params["omega"] == 3.0
    np.testing.assert_allclose(
        sea.forcing.time_fn(0.0), [0.0, 0.0, 0.5], rtol=0, atol=1e-15
    )
    custom = nl.make_model("oscillator", x0=0.3)
    assert custom.exact(0.0)[0] == 0.3


def _model_functions(model):
    """The model's pure functions by name: exact, and a time forcing's."""
    f = model.forcing
    named = {"exact": model.exact, "time_fn": f.time_fn, "antiderivative": f.antiderivative}
    return {name: fn for name, fn in named.items() if fn is not None}


@pytest.mark.parametrize(
    "kind, changed",
    [
        ("oscillator", {"x0": 0.3}),
        ("biomass", {"z0": 2.0}),
        ("trees", {"zf": 0.4}),
        ("seasonal", {"zf": 0.4}),
        ("seasonal", {"omega": 3.0}),
    ],
)
def test_model_functions_compare_by_value(kind, changed):
    # the grid-sample cache keys samples by these functions: equal
    # parameters share them, other parameters do not
    first, second = _model_functions(nl.make_model(kind)), _model_functions(nl.make_model(kind))
    other = _model_functions(nl.make_model(kind, **changed))
    assert first.keys() == second.keys() == other.keys()
    for name, fn in first.items():
        assert fn == second[name] and hash(fn) == hash(second[name]), name
        assert fn != other[name], name


def test_model_functions_are_named_by_function_and_parameters():
    # error messages name a model's functions by repr: the same text in
    # every process, with no memory address
    seasonal = nl.make_model("seasonal", zf=0.25, omega=3.0)
    assert repr(seasonal.forcing.time_fn) == "_seasonal_forcing(0.25, 3.0)"
    assert repr(seasonal.exact) == "_seasonal_exact(1.0, 0.25, 3.0)"
    assert repr(nl.make_model("biomass").exact) == "_biomass_homogeneous(1.0)"


@pytest.mark.parametrize("kind", ["trees", "seasonal"])
def test_a_negative_zero_parameter_is_built_as_zero(kind):
    # -0.0 == 0.0 with one hash, so the twins share cache keys: they must
    # give the same bytes
    signed, plain = nl.make_model(kind, zf=-0.0), nl.make_model(kind, zf=0.0)
    assert math.copysign(1.0, signed.params["zf"]) == 1.0
    times = np.linspace(0.0, 10.0, 101)
    for name, fn in _model_functions(plain).items():
        assert _model_functions(signed)[name](times).tobytes() == fn(times).tobytes(), name
    if kind == "trees":
        assert signed.forcing.constant.tobytes() == plain.forcing.constant.tobytes()


@pytest.mark.parametrize("kind", ["oscillator", "biomass", "trees", "seasonal"])
def test_declared_spectrum_matches_characteristic_roots(kind):
    model = nl.make_model(kind)
    declared = sorted(
        (complex(lam) for lam, mult in model.spectrum for _ in range(mult)),
        key=lambda z: (z.real, z.imag),
    )
    # lambda^n - sum_j c_j lambda^j, in descending powers
    monic = np.concatenate(([1.0], -mk.char_poly(model.a_matrix)[::-1]))
    computed = sorted(np.roots(monic), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(computed, declared, rtol=0, atol=1e-10)


def test_rhs_assembles_linear_part_and_forcing(seasonal, oscillator):
    x = np.array([0.1, 0.2, 0.3])
    expected = seasonal.a_matrix @ x + seasonal.forcing.time_fn(0.7)
    np.testing.assert_allclose(seasonal.rhs(0.7, x), expected, rtol=0, atol=1e-15)
    y = np.array([0.25, 0.1])
    expected = oscillator.a_matrix @ y + oscillator.forcing.state_fn(y)
    np.testing.assert_allclose(oscillator.rhs(0.0, y), expected, rtol=0, atol=1e-15)
