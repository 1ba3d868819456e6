"""Characteristic polynomials, matrix functions, step coefficients and the
correction factors of the scalar one-step form."""
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nsfdlab.matkit as mk
import nsfdlab.models as mo
import nsfdlab.schemes as sch

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
ROT_SPECTRUM = ((1j, 1), (-1j, 1))
BIO = np.array([[-1.0, 3.0, 0.0], [0.0, -3.0, 5.0], [0.0, 0.0, -5.0]])
BIO_SPECTRUM = ((-1.0, 1), (-3.0, 1), (-5.0, 1))
JORDAN = np.array([[2.0, 1.0], [0.0, 2.0]])
JORDAN_SPECTRUM = ((2.0, 2),)
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])

# integer matrices keep every brute-force power exact in float64
int_matrices = st.integers(2, 4).flatmap(
    lambda n: hnp.arrays(np.int64, (n, n), elements=st.integers(-5, 5))
)


# ---------------------------------------------------------------------------
# char_poly
# ---------------------------------------------------------------------------


def test_char_poly_biomass_coefficients():
    c = mk.char_poly(BIO)
    assert c.shape == (3,)
    np.testing.assert_allclose(c, [-15.0, -23.0, -9.0], rtol=0, atol=1e-12)


def test_char_poly_rotation_coefficients():
    np.testing.assert_allclose(mk.char_poly(ROT), [-1.0, 0.0], rtol=0, atol=1e-15)


def test_char_poly_identity_2x2():
    np.testing.assert_allclose(mk.char_poly(np.eye(2)), [-1.0, 2.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("a", [ROT, BIO, JORDAN], ids=["rotation", "biomass", "jordan"])
def test_char_poly_reconstructs_top_power(a):
    c = mk.char_poly(a)
    n = a.shape[0]
    top = np.linalg.matrix_power(a, n)
    rebuilt = sum(c[j] * np.linalg.matrix_power(a, j) for j in range(n))
    np.testing.assert_allclose(rebuilt, top, rtol=0, atol=1e-10)


def test_char_poly_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        mk.char_poly(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mk.char_poly(np.ones((2, 3)))


# Cast to float, a complex matrix would lose its imaginary part with only
# numpy's ComplexWarning: phi1([[1j, 0], [0, 0]]) would be the identity.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m", [[[1j, 0.0], [0.0, 0.0]], ROT.astype(complex)], ids=["list", "complex-dtype"]
)
def test_complex_matrices_are_rejected_not_cast(m):
    co = mk.gamma_coeffs(mk.char_poly(ROT), 0.1)
    for call in (
        lambda: mk.phi1(m),
        lambda: mk.char_poly(m),
        lambda: mk.correction_factors(m, co),
        lambda: mk.alpha_coeffs(m, ROT_SPECTRUM, 0.1),
        lambda: mk.alpha_coeffs(m, None, 0.1),
    ):
        with pytest.raises(ValueError, match="expected a real matrix"):
            call()


@given(a=int_matrices)
@settings(max_examples=80, deadline=None)
def test_char_poly_constant_term_is_signed_determinant(a):
    a = a.astype(float)
    n = a.shape[0]
    det = np.linalg.det(a)
    c0 = mk.char_poly(a)[0]
    assert abs(c0 - (-1.0) ** (n - 1) * det) <= 1e-8 * max(1.0, abs(det))


# ---------------------------------------------------------------------------
# power_reduction
# ---------------------------------------------------------------------------


def test_power_reduction_below_n_is_unit_row():
    c = mk.char_poly(BIO)
    np.testing.assert_array_equal(mk.power_reduction(c, 0), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(mk.power_reduction(c, 2), [0.0, 0.0, 1.0])


def test_power_reduction_at_n_returns_charpoly_row():
    c = mk.char_poly(BIO)
    np.testing.assert_allclose(mk.power_reduction(c, 3), c, rtol=0, atol=1e-12)


@given(a=int_matrices, extra=st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_power_reduction_matches_matrix_powers(a, extra):
    a = a.astype(float)
    n = a.shape[0]
    k = min(n + extra, 2 * n)
    beta = mk.power_reduction(mk.char_poly(a), k)
    rebuilt = sum(beta[j] * np.linalg.matrix_power(a, j) for j in range(n))
    direct = np.linalg.matrix_power(a, k)
    scale = max(1.0, np.max(np.abs(direct)))
    np.testing.assert_allclose(rebuilt, direct, rtol=0, atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# phi1
# ---------------------------------------------------------------------------


# The overflow tests turn warnings into errors: the routines must raise
# OverflowError, not let a RuntimeWarning escape on the way.
@pytest.mark.filterwarnings("error")
def test_phi1_overflow_raises():
    # exp(800) overflows in the squarings, and so do the exponentials of the
    # 1-norms above 2^1022, scaled by two powers of two; a 1-norm that
    # overflows itself gives the kernel's all-inf result
    for m in (
        800.0 * np.eye(2),
        np.diag([1.5 * 2.0**1022, 0.0]),
        np.diag([1e308, 0.0]),
        np.array([[1e308, 0.0], [1e308, 0.0]]),
    ):
        with pytest.raises(OverflowError, match=re.escape("phi1 overflowed (norm too large)")):
            mk.phi1(m)


@pytest.mark.filterwarnings("error")
def test_a_1_norm_above_2_1022_runs_every_doubling():
    # 2^squarings overflows float64 here, but phi1(-s) = (1 - e^-s)/s is
    # 1e-308 at s = 1e308, and alpha's doublings reset the diagonal of exp:
    # on the eigenvalues -1e308 and -1 at dt 1, alpha_1 = e^-1 / (1e308 - 1)
    # and q_1 = (1 - e^-1 - 1e-308) / (1e308 - 1)
    assert mk.phi1(np.diag([-1e308, 0.0])).tobytes() == np.diag([1e-308, 1.0]).tobytes()
    e1 = math.exp(-1.0)
    for spectrum in (((-1e308, 1), (-1.0, 1)), None):
        co = mk.alpha_coeffs(np.diag([-1e308, -1.0]), spectrum, 1.0)
        np.testing.assert_allclose(co.values, [e1, e1 * 1e-308], rtol=1e-12, atol=0)
        np.testing.assert_allclose(co.q_values, [1 - e1, (1 - e1) * 1e-308], rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("declared", [True, False], ids=["declared", "fallback"])
def test_alpha_overflow_raises(declared):
    # exp(800) overflows in the squarings; dt times the eigenvalue 1e200
    # overflows before them; dt 1e308 on the eigenvalues 1 and -1 gives a
    # 1-norm that overflows
    coefficients = re.escape("alpha coefficients overflowed (dt times the spectrum too large)")
    for diagonal, dt, message in (
        ([800.0, -1.0], 1.0, coefficients),
        ([1e200, -1.0], 1e200, "dt times the spectrum overflowed"),
        ([1.0, -1.0], 1e308, coefficients),
    ):
        spectrum = tuple((lam, 1) for lam in diagonal) if declared else None
        with pytest.raises(OverflowError, match=message):
            mk.alpha_coeffs(np.diag(diagonal), spectrum, dt)


@pytest.mark.filterwarnings("error")
def test_gamma_overflow_raises():
    with pytest.raises(OverflowError):
        mk.gamma_coeffs(mk.char_poly(np.diag([1e200, -1.0])), 1e200)
    with pytest.raises(OverflowError):  # 171! is beyond float64
        mk.gamma_coeffs(np.zeros(171), 0.1)


def test_phi1_zero_is_identity():
    np.testing.assert_allclose(mk.phi1(np.zeros((2, 2))), np.eye(2), rtol=0, atol=1e-15)


def test_phi1_nilpotent_closed_form():
    # series terminates: phi1(N) = I + N/2 when N^2 = 0
    np.testing.assert_allclose(
        mk.phi1(NILPOTENT), np.eye(2) + NILPOTENT / 2.0, rtol=0, atol=1e-15
    )


@pytest.mark.parametrize(
    "m",
    [0.1 * BIO, ROT, 2.0 * ROT, np.diag([0.0, 1.0]), NILPOTENT, 0.5 * JORDAN],
    ids=["biomass", "rotation", "rotation-2", "singular-diag", "nilpotent", "jordan"],
)
def test_phi1_satisfies_exponential_identity(m):
    lhs = m @ mk.phi1(m)
    rhs = scipy.linalg.expm(m) - np.eye(m.shape[0])
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_phi1_matches_scipy_series_on_random_matrix():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    # independent route: solve M X = expm(M) - I (M is generically invertible)
    expected = np.linalg.solve(m, scipy.linalg.expm(m) - np.eye(4))
    np.testing.assert_allclose(mk.phi1(m), expected, rtol=0, atol=1e-11)


def _exp_phi1_reference(m, triangular_diagonal=None):
    """The exp/phi1 kernel as matkit first wrote it: the norm by ndarray
    methods, the stack of powers from np.zeros, M / 2^s copied in, all
    under one error state.  The reference bits of mk._exp_phi1."""
    n = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.abs(m).sum(axis=0).max()  # inf if it overflows
        if not math.isfinite(nrm):
            return np.full_like(m, np.inf), np.full_like(m, np.inf)
        if nrm <= 2.0**1022:
            squarings = 0 if nrm <= 0.5 else math.ceil(math.log2(nrm / 0.5))
        else:  # nrm / 0.5 may overflow
            squarings = math.ceil(math.log2(nrm)) + 1
        powers = np.zeros((4, n, n), dtype=m.dtype)  # I, X, X^2, X^3
        flat = powers.reshape(4, n * n)
        flat[0, :: n + 1] = 1.0
        _, x, x2, x3 = powers
        x[...] = _halved_reference(m, squarings)
        np.matmul(x, x, out=x2)
        np.matmul(x2, x, out=x3)
        x4 = x2 @ x2
        blocks = (mk._PHI1_BLOCKS @ flat).reshape(4, n, n)
        acc = x4 * mk._PHI1_TOP
        acc += blocks[3]
        for i in (2, 1, 0):
            acc = x4 @ acc
            acc += blocks[i]
        ex = x @ acc
        ex.reshape(-1)[:: n + 1] += 1.0
        for k in range(squarings, 0, -1):
            if triangular_diagonal is not None:
                ex.reshape(-1)[:: n + 1] = np.exp(_halved_reference(triangular_diagonal, k))
            acc = (ex @ acc + acc) / 2.0
            ex = ex @ ex
        if triangular_diagonal is not None:
            ex.reshape(-1)[:: n + 1] = np.exp(triangular_diagonal)
    return ex, acc


def _halved_reference(v, k):
    return v / 2.0**k if k <= 1023 else v / 2.0**1023 / 2.0 ** (k - 1023)


@st.composite
def kernel_arguments(draw):
    """A finite n x n real or complex matrix, n = 1..6, full or upper
    triangular, with the diagonal to pass as triangular_diagonal (None for
    a full one).  Its largest entry has magnitude 2^e times a mantissa in
    [1, 2): e near 0 (none to a few halvings) mostly, down to -1074
    (subnormal entries), and from 1020 to 1023 (a 1-norm above 2^1022,
    scaled in two steps, or one that overflows); a 1-norm of 2^60 to
    2^1020 takes the same paths with fewer doublings.  Some entries may be
    signed zeros."""
    triangular = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 7))
    m = rng.standard_normal((n, n))
    if draw(st.booleans()):
        m = m + 1j * rng.standard_normal((n, n))
    if triangular:
        m = np.triu(m)
    m[rng.random((n, n)) < rng.choice([0.0, 0.0, 0.3, 1.0])] *= 0.0
    low, high = ((-8, 8), (-8, 8), (-8, 8), (-1074, 60), (1020, 1023))[rng.integers(5)]
    largest = np.abs(m).max()
    if largest:
        m = m / largest * math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(low, high + 1)))
    return m, (m.diagonal() if triangular else None)


@pytest.mark.filterwarnings("error")
@given(case=kernel_arguments())
@settings(max_examples=100, deadline=None)
def test_exp_phi1_keeps_the_reference_bits(case):
    m, triangular_diagonal = case
    got = mk._exp_phi1(m, triangular_diagonal)
    expected = _exp_phi1_reference(m, triangular_diagonal)
    assert [(r.dtype, r.tobytes()) for r in got] == [(r.dtype, r.tobytes()) for r in expected]


# ---------------------------------------------------------------------------
# alpha_coeffs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dt", [0.1, 0.01, 1.0])
def test_alpha_rotation_is_cos_sin(dt):
    co = mk.alpha_coeffs(ROT, ROT_SPECTRUM, dt)
    assert co.warning is None
    np.testing.assert_allclose(co.values, [math.cos(dt), math.sin(dt)], rtol=0, atol=1e-14)
    # q(i) = (exp(i dt) - 1)/i: dt phi1(dt A) on the spectrum, exactly
    np.testing.assert_allclose(co.q_values, [math.sin(dt), 1.0 - math.cos(dt)], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_alpha_biomass_closed_forms(dt):
    e1, e3, e5 = math.exp(-dt), math.exp(-3 * dt), math.exp(-5 * dt)
    expected = [
        15 / 8 * e1 - 5 / 4 * e3 + 3 / 8 * e5,
        e1 - 3 / 2 * e3 + 1 / 2 * e5,
        1 / 8 * e1 - 1 / 4 * e3 + 1 / 8 * e5,
    ]
    co = mk.alpha_coeffs(BIO, BIO_SPECTRUM, dt)
    np.testing.assert_allclose(co.values, expected, rtol=1e-13, atol=1e-16)


def test_alpha_biomass_frozen_point():
    # 50-digit Hermite-interpolation evaluation at dt = 0.1
    co = mk.alpha_coeffs(BIO, BIO_SPECTRUM, 0.1)
    expected = [0.99799638035751440095, 0.096875416869699485866, 0.0037164545481446580793]
    np.testing.assert_allclose(co.values, expected, rtol=1e-13, atol=0)


def test_alpha_and_gamma_at_dt_zero_are_identity_coefficients():
    np.testing.assert_allclose(
        mk.alpha_coeffs(BIO, BIO_SPECTRUM, 0.0).values, [1.0, 0.0, 0.0], rtol=0, atol=1e-13
    )
    np.testing.assert_allclose(
        mk.gamma_coeffs(mk.char_poly(BIO), 0.0).values, [1.0, 0.0, 0.0], rtol=0, atol=0
    )


def test_alpha_output_is_real_for_conjugate_pairs():
    values = np.asarray(mk.alpha_coeffs(ROT, ROT_SPECTRUM, 0.3).values)
    assert values.dtype.kind == "f"


@pytest.mark.parametrize(
    "a, spectrum",
    [(ROT, ROT_SPECTRUM), (BIO, BIO_SPECTRUM), (JORDAN, JORDAN_SPECTRUM)],
    ids=["rotation", "biomass", "jordan"],
)
@pytest.mark.parametrize("dt", [0.001, 0.01, 0.1])
def test_alpha_reconstructs_matrix_exponential(a, spectrum, dt):
    values = mk.alpha_coeffs(a, spectrum, dt).values
    n = a.shape[0]
    rebuilt = sum(values[j] * np.linalg.matrix_power(a, j) for j in range(n))
    np.testing.assert_allclose(rebuilt, scipy.linalg.expm(dt * a), rtol=0, atol=1e-11)


def test_alpha_jordan_block_uses_derivative_conditions():
    # confluent case has the closed form p(z) = e^{2dt}(1 - 2dt) + dt e^{2dt} z
    dt = 0.2
    co = mk.alpha_coeffs(JORDAN, JORDAN_SPECTRUM, dt)
    e = math.exp(2 * dt)
    np.testing.assert_allclose(co.values, [e * (1 - 2 * dt), dt * e], rtol=1e-13, atol=0)


def test_alpha_small_dt_limits():
    co = mk.alpha_coeffs(BIO, BIO_SPECTRUM, 1e-3)
    assert abs(co.values[0] - 1.0) <= 1e-5
    assert abs(co.values[1] - 1e-3) <= 1e-5


def test_alpha_rejects_bad_multiplicities_and_negative_dt():
    with pytest.raises(ValueError):
        mk.alpha_coeffs(BIO, ((-1.0, 1), (-3.0, 1)), 0.1)
    with pytest.raises(ValueError):
        mk.alpha_coeffs(BIO, BIO_SPECTRUM, -0.1)


def test_alpha_clustered_eigenvalues_reproduce_expm():
    # the divided-difference table never divides by the 1e-9 gap
    a = np.diag([1.0, 1.0 + 1e-9, -1.0])
    co = mk.alpha_coeffs(a, ((1.0, 1), (1.0 + 1e-9, 1), (-1.0, 1)), 0.1)
    assert co.warning is None
    rebuilt = sum(value * np.linalg.matrix_power(a, j) for j, value in enumerate(co.values))
    np.testing.assert_allclose(rebuilt, scipy.linalg.expm(0.1 * a), rtol=0, atol=1e-13)


def test_alpha_root_fallback_warns_and_agrees():
    declared = mk.alpha_coeffs(BIO, BIO_SPECTRUM, 0.1)
    fallback = mk.alpha_coeffs(BIO, None, 0.1)
    assert fallback.warning is not None and "fallback" in fallback.warning
    np.testing.assert_allclose(fallback.values, declared.values, rtol=0, atol=1e-9)


@st.composite
def orthogonally_similar_matrices(draw):
    """Real A = Q J Q^T with n <= 6 and Q orthogonal, its spectrum as
    (eigenvalue, multiplicity) pairs, and a step dt.  J is diagonal
    (distinct reals), carries as many 2 x 2 rotation-scaling blocks
    (complex pairs re +- i im) as fit, is one Jordan block (repeated,
    n >= 2), or is diagonal with its first two eigenvalues 1e-9 .. 1e-3
    apart (clustered, n >= 2).  Otherwise real parts step up by 0.1 .. 2
    from a start in [-5, 1], so no two eigenvalues coincide."""
    cls = draw(st.sampled_from(["distinct", "complex", "repeated", "clustered"]))
    n = draw(st.integers(2 if cls in ("repeated", "clustered") else 1, 6))
    pairs = n // 2 if cls == "complex" else 0
    re = draw(st.floats(-5.0, 1.0))
    blocks = []
    if cls == "repeated":
        blocks.append(re * np.eye(n) + np.eye(n, k=1))
        spectrum = ((re, n),)
    else:
        spectrum = ()
        for j in range(n - pairs):
            if j == 1 and cls == "clustered":
                re += 10.0 ** draw(st.floats(-9.0, -3.0))
            elif j:
                re += draw(st.floats(0.1, 2.0))
            if j < pairs:
                im = draw(st.floats(0.1, 5.0))
                blocks.append(np.array([[re, im], [-im, re]]))
                spectrum += ((complex(re, im), 1), (complex(re, -im), 1))
            else:
                blocks.append(np.array([[re]]))
                spectrum += ((re, 1),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ scipy.linalg.block_diag(*blocks) @ q.T, spectrum, draw(st.floats(1e-3, 0.5))


@given(case=orthogonally_similar_matrices())
@settings(max_examples=100, deadline=None)
def test_alpha_eigenvalue_fallback_reproduces_expm(case):
    # the fallback is held to the declared spectrum's bound on the same
    # draws: relative Frobenius error 1e-12 of expm on both routes
    a, spectrum, dt = case
    expected = scipy.linalg.expm(dt * a)
    for route in (None, spectrum):
        co = mk.alpha_coeffs(a, route, dt)
        assert (co.warning is not None and "fallback" in co.warning) == (route is None)
        rebuilt = sum(value * np.linalg.matrix_power(a, j) for j, value in enumerate(co.values))
        assert np.linalg.norm(rebuilt - expected) <= 1e-12 * np.linalg.norm(expected)


def _alpha_reference(a, spectrum, dt):
    """alpha_coeffs' arithmetic around the reference kernel, in numpy: the
    bidiagonal as np.diag + dt np.eye(n, k=1), and the products dt lambda
    and dt phi1 as arrays under np.errstate.  The reference bits of
    alpha_coeffs, and its errors."""
    a = mk.as_square_matrix(a)
    n = a.shape[0]
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError("dt must be nonnegative and finite")
    warning = None
    if spectrum is None:
        lams = np.linalg.eigvals(a).tolist()
        warning = "spectrum recovered by eigenvalue fallback"
    else:
        lams = mk._normalize_spectrum(spectrum, n)
    if not any(lam.imag for lam in lams):
        lams = [lam.real for lam in lams]
    nodes = np.array(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        dt_nodes = dt * nodes
    if not np.isfinite(dt_nodes).all():
        raise OverflowError("dt times the spectrum overflowed")
    exp_dt_j, phi1_dt_j = _exp_phi1_reference(np.diag(dt_nodes) + dt * np.eye(n, k=1), dt_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        q_newton = dt * phi1_dt_j[0]
    alpha = mk._newton_to_monomial(exp_dt_j[0].tolist(), lams)
    q = mk._newton_to_monomial(q_newton.tolist(), lams)
    values = np.array([c.real for c in alpha])
    q_values = np.array([c.real for c in q])
    if not (np.isfinite(values).all() and np.isfinite(q_values).all()):
        raise OverflowError("alpha coefficients overflowed (dt times the spectrum too large)")
    return mk.StepCoefficients(values, q_values, warning)


def _alpha_outcome(fn, a, spectrum, dt):
    """The bits of a result, (values, q_values, warning), or the type and
    message of the error raised."""
    try:
        co = fn(a, spectrum, dt)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return co.values.tobytes(), co.q_values.tobytes(), co.warning


def _assert_alpha_keeps_the_reference_bits(a, spectrum, dt):
    got = _alpha_outcome(mk.alpha_coeffs, a, spectrum, dt)
    assert got == _alpha_outcome(_alpha_reference, a, spectrum, dt), (spectrum, dt)
    return got


@pytest.mark.filterwarnings("error")
@given(
    case=orthogonally_similar_matrices(),
    dt=st.one_of(st.none(), st.sampled_from([0.0, 1e-300, 3.0, 50.0, 1e300])),
)
@settings(max_examples=150, deadline=None)
def test_alpha_keeps_the_reference_bits(case, dt):
    # both routes on distinct, clustered, repeated and complex spectra, at
    # the drawn step or at one from zero up to an overflowing one
    a, spectrum, drawn_dt = case
    for route in (spectrum, None):
        _assert_alpha_keeps_the_reference_bits(a, route, drawn_dt if dt is None else dt)


@pytest.mark.filterwarnings("error")
def test_alpha_keeps_the_reference_bits_and_messages_at_the_edges():
    # spectra not closed under conjugation raise; one closed under it whose
    # pairs are split unevenly does not
    unclosed = (ValueError, "spectrum is not closed under conjugation, so no real matrix has it")
    for spectrum in (((1j, 2),), ((1 + 2j, 1), (1 - 2j, 1), (3j, 1)), ((-0.5 + 1e-9j, 2),)):
        n = sum(mult for _, mult in spectrum)
        got = _assert_alpha_keeps_the_reference_bits(np.eye(n), spectrum, 0.1)
        assert got == unclosed
    got = _assert_alpha_keeps_the_reference_bits(np.eye(4), ((1j, 2), (-1j, 1), (-1j, 1)), 0.1)
    assert got[2] is None
    # signed zeros: dt = 0 on negative eigenvalues, and eigenvalues -0.0
    conjugate_pair = ((complex(-0.0, -1.0), 1), (complex(-0.0, 1.0), 1))
    for spectrum in (((-1.0, 3),), ((-0.0, 2),), conjugate_pair):
        n = sum(mult for _, mult in spectrum)
        for dt in (0.0, 0.1):
            _assert_alpha_keeps_the_reference_bits(np.eye(n), spectrum, dt)
    # test_alpha_overflow_raises pins both overflow messages; a product
    # dt lambda with components near the float64 limit is finite, though
    # its abs() would raise Python's own OverflowError, and the kernel's
    # 1-norm overflows instead
    spectrum = ((complex(1.5e308, 1.5e308), 1), (complex(1.5e308, -1.5e308), 1))
    got = _assert_alpha_keeps_the_reference_bits(np.eye(2), spectrum, 1.0)
    assert got == (OverflowError, "alpha coefficients overflowed (dt times the spectrum too large)")


def test_alpha_spectrum_not_closed_under_conjugation_raises():
    # no real matrix has such a spectrum: an input error, from alpha_coeffs
    # and from building a model that declares it
    message = "spectrum is not closed under conjugation"
    with pytest.raises(ValueError, match=message):
        mk.alpha_coeffs(ROT, ((1j, 2),), 0.1)
    with pytest.raises(ValueError, match=message):
        mo.OdeModel(
            name="rotation",
            a_matrix=ROT,
            spectrum=((1j, 2),),
            forcing=mo.Forcing(kind="none"),
            initial_state=np.array([1.0, 0.0]),
            exact=None,
        )
    # the multisets are compared, not the pairs: 1j twice against -1j twice
    uneven = mk.alpha_coeffs(np.eye(4), ((1j, 2), (-1j, 1), (-1j, 1)), 0.1)
    paired = mk.alpha_coeffs(np.eye(4), ((1j, 2), (-1j, 2)), 0.1)
    assert uneven.values.tobytes() == paired.values.tobytes()


# ---------------------------------------------------------------------------
# gamma_coeffs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dt", [0.1, 0.05, 0.01])
def test_gamma_biomass_closed_form(dt):
    values = mk.gamma_coeffs(mk.char_poly(BIO), dt).values
    expected = [1 - 5 / 2 * dt**3, dt - 23 / 6 * dt**3, dt**2 / 2 - 3 / 2 * dt**3]
    np.testing.assert_allclose(values, expected, rtol=1e-13, atol=1e-18)


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_gamma_rotation_closed_form(dt):
    co = mk.gamma_coeffs(mk.char_poly(ROT), dt)
    np.testing.assert_allclose(co.values, [1 - dt**2 / 2, dt], rtol=1e-14, atol=0)
    # the Taylor sum of dt phi1(dt A): q_j = dt^{j+1}/(j+1)!
    np.testing.assert_allclose(co.q_values, [dt, dt**2 / 2], rtol=1e-15, atol=0)
    assert co.warning is None


def test_gamma_matches_alpha_to_order_n():
    # |gamma - alpha| = O(dt^{n+1}) for the biomass matrix (n = 3), so
    # halving dt shrinks the gap by about 16
    c = mk.char_poly(BIO)

    def gap(dt):
        g = np.asarray(mk.gamma_coeffs(c, dt).values)
        a = np.asarray(mk.alpha_coeffs(BIO, BIO_SPECTRUM, dt).values)
        return np.max(np.abs(g - a))

    ratio = gap(0.02) / gap(0.01)
    assert 12.0 <= ratio <= 20.0


def test_gamma_needs_dimension_at_least_two():
    with pytest.raises(ValueError):
        mk.gamma_coeffs(np.array([-1.0]), 0.1)


# ---------------------------------------------------------------------------
# correction_factors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dt", [0.1, 0.5])
def test_correction_rotation_closed_form(dt):
    cf = mk.correction_factors(ROT, mk.alpha_coeffs(ROT, ROT_SPECTRUM, dt))
    a_inv = np.linalg.inv(ROT)
    np.testing.assert_allclose(cf.r0, -math.tan(dt / 2) * a_inv, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cf.r1, np.zeros((2, 2)), rtol=0, atol=0)


def test_correction_biomass_r1_is_alpha_ratio_times_a():
    co = mk.alpha_coeffs(BIO, BIO_SPECTRUM, 0.1)
    cf = mk.correction_factors(BIO, co)
    np.testing.assert_allclose(
        cf.r1, co.values[2] / co.values[1] * BIO, rtol=1e-13, atol=0
    )
    # frozen ratio from the 50-digit coefficient evaluation
    assert abs(co.values[2] / co.values[1] - 0.038363236703728537712) <= 1e-14


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_correction_form_equals_exponential_step(dt):
    # the rearranged update alpha_0 X + alpha_1 [(I+R1)(AX+B) + R0 B] must
    # reproduce the exponential step expm(dt A) X + dt phi1(dt A) B
    rng = np.random.default_rng(42)
    co = mk.alpha_coeffs(BIO, BIO_SPECTRUM, dt)
    cf = mk.correction_factors(BIO, co)
    a0, a1 = co.values[0], co.values[1]
    eye = np.eye(3)
    for _ in range(5):
        x = rng.normal(size=3)
        b = rng.normal(size=3)
        stepped = a0 * x + a1 * ((eye + cf.r1) @ (BIO @ x + b) + cf.r0 @ b)
        oracle = scipy.linalg.expm(dt * BIO) @ x + dt * mk.phi1(dt * BIO) @ b
        np.testing.assert_allclose(stepped, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "a, spectrum", [(ROT, ROT_SPECTRUM), (BIO, BIO_SPECTRUM)], ids=["rotation", "biomass"]
)
def test_correction_r0_leading_term(a, spectrum):
    # R0 = (dt^{n-1}/n!) (-1)^{n-1} det(A) A^{-1} + higher order; at
    # dt = 0.01 the remainder is under ten percent
    dt = 0.01
    n = a.shape[0]
    cf = mk.correction_factors(a, mk.alpha_coeffs(a, spectrum, dt))
    lead = (
        dt ** (n - 1)
        / math.factorial(n)
        * (-1.0) ** (n - 1)
        * np.linalg.det(a)
        * np.linalg.inv(a)
    )
    rel = np.linalg.norm(cf.r0 - lead) / np.linalg.norm(lead)
    assert rel <= 0.10


def test_correction_r0_scales_like_dt_power_n_minus_1():
    def r0_norm(a, spectrum, dt):
        return np.linalg.norm(
            mk.correction_factors(a, mk.alpha_coeffs(a, spectrum, dt)).r0
        )

    ratio_rot = r0_norm(ROT, ROT_SPECTRUM, 0.02) / r0_norm(ROT, ROT_SPECTRUM, 0.01)
    ratio_bio = r0_norm(BIO, BIO_SPECTRUM, 0.02) / r0_norm(BIO, BIO_SPECTRUM, 0.01)
    assert 1.8 <= ratio_rot <= 2.2  # n = 2
    assert 3.4 <= ratio_bio <= 4.6  # n = 3


def test_correction_r1_leading_term_is_half_dt_a():
    def gap(dt):
        cf = mk.correction_factors(BIO, mk.alpha_coeffs(BIO, BIO_SPECTRUM, dt))
        return np.linalg.norm(cf.r1 - dt / 2 * BIO)

    # remainder is O(dt^2): halving dt divides the gap by about 4
    ratio = gap(0.02) / gap(0.01)
    assert 3.4 <= ratio <= 4.6


@pytest.mark.parametrize("dt", [0.1, 0.5])
@pytest.mark.parametrize("a", [ROT, BIO], ids=["rotation", "biomass"])
def test_correction_from_gamma_keeps_the_inverse_formula(a, dt):
    co = mk.gamma_coeffs(mk.char_poly(a), dt)
    gamma = co.values
    expected = (gamma[0] - 1.0) / gamma[1] * np.linalg.inv(a)
    np.testing.assert_allclose(
        mk.correction_factors(a, co).r0, expected, rtol=0, atol=1e-13
    )


def _mp_exp_and_phi(a, dt):
    """exp(dt A) and dt phi1(dt A) to 40 digits, as the two top blocks of
    the exponential of [[dt A, dt I], [0, 0]], rounded to float64."""
    n = a.shape[0]
    with mpmath.workdps(40):
        aug = mpmath.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                aug[i, j] = mpmath.mpf(dt) * mpmath.mpf(a[i, j])
            aug[i, n + i] = mpmath.mpf(dt)
        e = mpmath.expm(aug)
        return (
            np.array(e[:n, :n].tolist(), dtype=float),
            np.array(e[:n, n:].tolist(), dtype=float),
        )


@pytest.mark.parametrize("n", range(1, 7))
def test_phi1_matches_a_40_digit_oracle(n):
    # 1-norms from 1e-3 to 6 take 0 to 4 halvings down to 1/2
    rng = np.random.default_rng(100 + n)
    for norm in (1e-3, 1e-2, 0.1, 0.5, 0.9, 1.8, 3.5, 6.0):
        m = rng.standard_normal((n, n))
        m *= norm / np.linalg.norm(m, 1)
        _, expected = _mp_exp_and_phi(m, 1.0)
        err = np.linalg.norm(mk.phi1(m) - expected) / np.linalg.norm(expected)
        assert err <= 1e-14, (norm, err)


_TRIANGULAR_1E8 = np.array([[-1e8, 1.0, 0.5], [0.0, -1.0, 2.0], [0.0, 0.0, -0.5]])


@pytest.mark.parametrize(
    "m",
    [
        np.diag([-1e16, -1.0]),
        np.diag([-1e15, -1.0]),
        _TRIANGULAR_1E8,
        np.array([[-1e16, 0.0], [1.0, -1.0]]),
        np.array([[-1e15, 0.0], [1.0, -1.0]]),
        _TRIANGULAR_1E8.T,
    ],
    ids=["diag-1e16", "diag-1e15", "triangular-1e8", "lower-1e16", "lower-1e15", "lower-1e8"],
)
def test_phi1_keeps_a_small_eigenvalue_beside_a_large_one(m):
    # scaled by 2^50 and more, exp(-1) rounds to 1, so the diagonal of the
    # triangular argument's exp must be reset before each doubling; a lower
    # triangular argument is run as its transpose, phi1(M) = phi1(M^T)^T
    _, expected = _mp_exp_and_phi(m, 1.0)
    got = mk.phi1(m)
    assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(mk.phi1(m.T).T).tobytes()


def _char_poly_loop(a):
    """Faddeev-LeVerrier with an explicit identity and np.trace: the
    reference arithmetic of char_poly."""
    n = a.shape[0]
    eye = np.eye(n)
    m = eye
    p = np.empty(n)
    for k in range(1, n + 1):
        am = a @ m
        pk = -np.trace(am) / k
        p[n - k] = pk
        m = am + pk * eye
    return -p


def _correction_loop(a, coeffs):
    """R0 and R1 summed term by term from q_0 I and a zero matrix: the
    reference arithmetic of correction_factors."""
    n = a.shape[0]
    alpha, q = coeffs.values, coeffs.q_values
    eye = np.eye(n)
    r1 = np.zeros_like(a)
    q_mat = q[0] * eye
    power = eye
    for j in range(1, n):
        power = power @ a
        q_mat = q_mat + q[j] * power
        if j < n - 1:
            r1 = r1 + alpha[j + 1] / alpha[1] * power
    return q_mat / alpha[1] - eye - r1, r1


@pytest.mark.parametrize("n", range(2, 7))
def test_char_poly_and_correction_keep_the_reference_arithmetic(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        a = rng.standard_normal((n, n))
        c = mk.char_poly(a)
        assert np.array_equal(c, _char_poly_loop(a))
        for dt in (0.1, 0.01):
            for co in (mk.alpha_coeffs(a, None, dt), mk.gamma_coeffs(c, dt)):
                cf = mk.correction_factors(a, co)
                r0, r1 = _correction_loop(a, co)
                assert np.array_equal(cf.r0, r0) and np.array_equal(cf.r1, r1)


# an integer matrix, whose powers are exact, and its gamma coefficients at
# dt = 0.1: the frozen R0, R1 depend on scalar rounding alone
FROZEN_A = np.array(
    [[-2.0, 1.0, 0.0, 3.0], [1.0, -4.0, 2.0, 0.0], [0.0, 1.0, -1.0, 1.0], [2.0, 0.0, 1.0, -3.0]]
)
FROZEN_R0 = [
    "0x1.5d867c3ed1000p-14 0x1.b4e81b4e81b00p-13 0x1.89374bc6a7f00p-11 0x1.5d867c3ece200p-12",
    "0x1.0624dd2f1aa00p-12 -0x1.5d867c3ece800p-14 0x1.0624dd2f1a800p-13 0x1.31d5acb6f4650p-12",
    "0x1.e098ead65b7a0p-12 0x1.5d867c3ece000p-14 -0x1.0624dd2f1be00p-13 0x1.b4e81b4e81a80p-12",
    "0x1.b4e81b4e81c00p-13 0x1.5d867c3ece2a0p-13 0x1.e098ead65b780p-12 0x1.0624dd2f1a800p-13",
]
FROZEN_R1 = [
    "-0x1.58bf258bf258cp-4 0x1.53a06d3a06d3ap-5 0x1.999999999999bp-8 0x1.0666666666666p-3",
    "0x1.53a06d3a06d3ap-5 -0x1.606d3a06d3a07p-3 0x1.5dddddddddddep-4 0x1.999999999999bp-8",
    "0x1.eb851eb851ebap-9 0x1.5dddddddddddep-5 -0x1.681b4e81b4e82p-5 0x1.681b4e81b4e82p-5",
    "0x1.5dddddddddddep-4 0x1.eb851eb851ebap-9 0x1.681b4e81b4e82p-5 -0x1.03d70a3d70a3ep-3",
]


def test_correction_factors_keep_their_frozen_bits():
    cf = mk.correction_factors(FROZEN_A, mk.gamma_coeffs(mk.char_poly(FROZEN_A), 0.1))
    for got, frozen in ((cf.r0, FROZEN_R0), (cf.r1, FROZEN_R1)):
        assert [" ".join(v.hex() for v in row) for row in got.tolist()] == frozen


def test_forcing_weight_is_the_q_polynomial():
    # q_0 I + q_1 A + ... for n = 2..4, and q_0 for n = 1, where the
    # correction factors are not defined
    for a in (ROT, BIO, FROZEN_A):
        co = mk.gamma_coeffs(mk.char_poly(a), 0.1)
        expected = sum(q * np.linalg.matrix_power(a, j) for j, q in enumerate(co.q_values))
        np.testing.assert_allclose(mk.forcing_weight(a, co), expected, rtol=1e-15, atol=0)
    one = np.array([[-0.7]])
    co = mk.alpha_coeffs(one, ((-0.7, 1),), 0.1)
    assert mk.forcing_weight(one, co).tolist() == [[co.q_values[0]]]
    with pytest.raises(ValueError, match="n >= 2"):
        mk.correction_factors(one, co)
    with pytest.raises(ValueError, match="dimension"):
        mk.forcing_weight(BIO, mk.gamma_coeffs(mk.char_poly(ROT), 0.1))


def test_coefficients_of_another_dimension_are_rejected():
    # the dimension of a coefficient set is the length of its q_values
    message = "coefficient dimension does not match the matrix"
    for a, co in (
        (BIO, mk.gamma_coeffs(mk.char_poly(ROT), 0.1)),
        (ROT, mk.alpha_coeffs(BIO, BIO_SPECTRUM, 0.1)),
    ):
        with pytest.raises(ValueError, match=message):
            mk.forcing_weight(a, co)
        with pytest.raises(ValueError, match=message):
            mk.correction_factors(a, co)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_results_do_not_depend_on_the_memory_layout(layout):
    # flat diagonal views of a non-C-ordered input would miss the matrix
    rng = np.random.default_rng(300)
    for n in range(2, 7):
        a = rng.standard_normal((n, n))
        if layout == "fortran":
            other = np.asfortranarray(a)
        else:
            other = np.zeros((2 * n, 2 * n))[::2, ::2]
            other[...] = a
        c = mk.char_poly(a)
        assert np.array_equal(mk.char_poly(other), c)
        assert np.array_equal(mk.phi1(other), mk.phi1(a))
        for co in (mk.alpha_coeffs(a, None, 0.1), mk.gamma_coeffs(c, 0.1)):
            cf, cf_other = mk.correction_factors(a, co), mk.correction_factors(other, co)
            assert np.array_equal(cf_other.r0, cf.r0) and np.array_equal(cf_other.r1, cf.r1)
            # forcing_weight does not validate, so it takes the layout as given
            assert np.array_equal(mk.forcing_weight(other, co), mk.forcing_weight(a, co))


def _triangular(diagonal):
    """Upper triangular matrix with the given diagonal and a fixed dense
    upper part, so its spectrum is exactly the diagonal and a repeated
    diagonal entry forms one Jordan block."""
    n = len(diagonal)
    upper = np.random.default_rng(n).uniform(0.5, 1.5, (n, n))
    return np.diag(diagonal) + np.triu(upper, 1)


@pytest.mark.parametrize(
    "a, spectrum",
    [(_triangular([-0.7] * n), ((-0.7, n),)) for n in range(2, 7)]
    + [(_triangular([0.5, 0.5 + 1e-9, -1.0]), ((0.5, 1), (0.5 + 1e-9, 1), (-1.0, 1)))],
    ids=[f"jordan-{n}" for n in range(2, 7)] + ["clustered"],
)
def test_alpha_and_correction_match_a_40_digit_oracle(a, spectrum):
    dt = 0.1
    n = a.shape[0]
    exp_dt_a, dt_phi1 = _mp_exp_and_phi(a, dt)
    co = mk.alpha_coeffs(a, spectrum, dt)
    rebuilt = sum(value * np.linalg.matrix_power(a, j) for j, value in enumerate(co.values))
    assert np.linalg.norm(rebuilt - exp_dt_a) <= 1e-14 * np.linalg.norm(exp_dt_a)
    cf = mk.correction_factors(a, co)
    q = co.values[1] * (np.eye(n) + cf.r1 + cf.r0)
    assert np.linalg.norm(q - dt_phi1) <= 1e-14 * np.linalg.norm(dt_phi1)


def _test_spectra(n, rng):
    """Eigenvalue lists, each eigenvalue repeated by its multiplicity:
    distinct, one pair 1e-3 / 1e-6 / 1e-9 apart, one Jordan block of size
    n or 2, complex pairs, a wide spread over [-30, 2], and a stiff one
    with one eigenvalue in [-1e5, -1e2]."""
    base = np.sort(rng.uniform(-5.0, 1.0, n)).tolist()
    pairs = [complex(re, im) for re, im in zip(base, rng.uniform(0.5, 5.0, n // 2))]
    spectra = {
        "distinct": base,
        "jordan": [base[0]] * n,
        "jordan-2": [base[0]] * 2 + base[1 : n - 1],
        "complex": [z for p in pairs for z in (p, p.conjugate())] + base[: n % 2],
        "wide": np.sort(rng.uniform(-30.0, 2.0, n)).tolist(),
        "stiff": base[:-1] + [-(10.0 ** rng.uniform(2.0, 5.0))],
    }
    for e in (3, 6, 9):
        spectra[f"cluster-1e-{e}"] = [base[0], base[0] + 10.0**-e] + base[1 : n - 1]
    return spectra


def _mp_newton_rows(nodes, dt):
    """Newton coefficients of exp(dt z) and (exp(dt z) - 1)/z on nodes, and
    the monomial coefficients expanded from them, to 40 digits.

    The rows are rows 1 and 0 of the exponential of dt Z, with 0 and then
    the nodes on the diagonal of Z and ones above it (Opitz's table)."""
    n = len(nodes)
    with mpmath.workdps(40):
        mp_nodes = [mpmath.mpmathify(lam) for lam in nodes]
        dt_z = mpmath.zeros(n + 1)
        for i in range(n):
            dt_z[i, i + 1] = dt
            dt_z[i + 1, i + 1] = dt * mp_nodes[i]
        table = mpmath.expm(dt_z)
        rows = [[table[r, k] for k in range(1, n + 1)] for r in (1, 0)]
        expanded = []
        for coef in rows:
            coef = list(coef)
            for k in range(n - 2, -1, -1):
                for j in range(k, n - 1):
                    coef[j] -= mp_nodes[k] * coef[j + 1]
            expanded.append(coef)
        return [np.array([complex(c) for c in r]) for r in rows + expanded]


@pytest.mark.parametrize("n", range(2, 7))
def test_newton_rows_and_coefficients_match_a_40_digit_oracle(n):
    # row 0 of exp(dt J) and of dt phi1(dt J), J the eigenvalues with ones
    # above them, and alpha and q expanded from them, each entry against
    # the oracle.  Measured at worst: rows 7.2e-15 (wide spreads at
    # dt = 3), coefficients 1.4e-14 (a complex pair at dt = 3).
    # scipy.linalg.expm of the (n+1) x (n+1) table, which alpha_coeffs
    # used before, put the coefficients of these same cases off by up to
    # 4.6e-8 (1e-9 clusters), 1.0e-9 (wide spreads), 3.4e-12 (Jordan
    # blocks), 6.8e-13 (complex pairs) and 1.0e-13 (stiff spreads)
    rng = np.random.default_rng(400 + n)
    for dt in (0.01, 0.1, 1.0, 3.0):
        for name, lams in _test_spectra(n, rng).items():
            exp_row, q_row, alpha, q = _mp_newton_rows(lams, dt)
            dt_nodes = dt * np.array(lams)
            exp_dt_j, phi1_dt_j = mk._exp_phi1(np.diag(dt_nodes) + dt * np.eye(n, k=1), dt_nodes)
            assert np.array_equal(np.diag(exp_dt_j), np.exp(dt_nodes))
            co = mk.alpha_coeffs(np.eye(n), tuple((lam, 1) for lam in lams), dt)
            for got, exact in (
                (exp_dt_j[0], exp_row),
                (dt * phi1_dt_j[0], q_row),
                (co.values, alpha.real),
                (co.q_values, q.real),
            ):
                err = np.max(np.abs(got - exact) / np.abs(exact))
                assert err <= 5e-14, (name, dt, err)


def test_correction_vanishing_alpha1_is_step_size_error():
    bad = mk.StepCoefficients(values=np.array([1.0, 0.0]), q_values=np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match="step size"):
        mk.correction_factors(ROT, bad)

