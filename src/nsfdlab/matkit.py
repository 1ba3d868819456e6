"""Small-matrix machinery for exponential-fitted one-step schemes.

Matrices are plain float64 numpy arrays.  The Cayley-Hamilton theorem
turns the matrix exponential of an n x n matrix into a finite expansion

    exp(dt A) = sum_{j=0}^{n-1} alpha_j(dt) A^j,

so a one-step method can be written with n scalar coefficients instead of a
matrix function; the forcing weight dt phi1(dt A) = sum_j q_j(dt) A^j
expands the same way.  This module computes the reduction coefficients
c_j of the characteristic polynomial, A^n = sum_j c_j A^j (by the
Faddeev-LeVerrier recursion), the exact coefficients alpha_j and q_j
(Hermite interpolation on the spectrum, read off divided-difference tables
of exp and phi1), an order-n truncation gamma_j that needs only the
characteristic polynomial, the scalar steps' forcing weight Q, and the
paper's correction factors R0, R1, which no stepper uses.  One
Paterson-Stockmeyer kernel evaluates exp and phi1 together, for
matrix-nsfd's forcing weight dt phi1(dt A) and alpha_coeffs' tables.

The matrices are small (n <= 6 in the models and the benchmark), so a call
spends more time in numpy's per-call dispatch than in arithmetic.  The
routines therefore call np.add.reduce itself rather than the ndarray
methods that wrap it, take maxima of a few column sums in Python and
check finiteness by counting, and the kernel copies its stack of powers
from a cached template; each such step computes the same bits as the
method it replaces.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Spectrum entries are (eigenvalue, algebraic multiplicity) pairs.
Spectrum = tuple[tuple[complex, int], ...]

# j! for j = 0..170, every factorial that float64 holds, each rounded once
# from the exact integer.
_FACTORIALS = np.array(list(itertools.accumulate(range(1, 171), operator.mul, initial=1)), dtype=float)
# Taylor coefficients 1/(k+1)! of phi1 for its Paterson-Stockmeyer
# evaluation: row i holds those of X^{4i}, ..., X^{4i+3}, and the degree-16
# term is on its own.
_PHI1_BLOCKS = (1.0 / _FACTORIALS[1:17]).reshape(4, 4)
_PHI1_TOP = 1.0 / _FACTORIALS[17]


def as_square_matrix(a) -> np.ndarray:
    """Validate and return `a` as a C-contiguous n x n float64 array (n >= 1).

    The routines below write to diagonals through flat views, which only
    reach the matrix itself in C order.  A complex matrix, one that is not
    square (or is empty) and one with a non-finite entry raise ValueError.
    A C-contiguous float64 array is returned as it is, not copied.
    """
    m = np.asarray(a, order="C")
    if m.dtype.kind == "c":
        raise ValueError("expected a real matrix")
    m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not _all_finite(m):
        raise ValueError("matrix entries must be finite")
    return m


def _all_finite(v) -> bool:
    """Whether every entry of the array v is finite: isfinite(v).all(), by
    counting, which skips the reduction machinery."""
    return np.count_nonzero(np.isfinite(v)) == v.size


@dataclass(frozen=True)
class StepCoefficients:
    """Scalar coefficients of one step of an n x n system: the propagator
    sum_j values[j] A^j and the forcing weight Q = sum_j q_values[j] A^j,
    j < n, so both arrays have length n.

    alpha_coeffs reproduces exp(dt A) and dt phi1(dt A) exactly on the
    spectrum; gamma_coeffs is order-n accurate, with
    Q = sum_{j<n} dt^{j+1}/(j+1)! A^j.  In both, A Q equals
    sum_j values[j] A^j - I.  warning is None, or the note that alpha's
    spectrum came from the eigenvalue fallback.
    """

    values: np.ndarray
    q_values: np.ndarray
    warning: str | None = None


@dataclass(frozen=True)
class CorrectionFactors:
    """Matrices R1 = sum_{j=2}^{n-1} (alpha_j/alpha_1) A^{j-1} and
    R0 = Q/alpha_1 - I - R1, Q the forcing weight of the coefficients.

    They recast X_{k+1} = sum_j alpha_j A^j X_k as
    X_{k+1} = alpha_0 X_k + alpha_1 [(I + R1)(A X_k + B) + R0 B], so that
    alpha_1 (I + R1 + R0) is Q.  For invertible A, R0 equals
    ((alpha_0 - 1)/alpha_1) A^{-1}; it is defined for singular A as well.
    """

    r0: np.ndarray
    r1: np.ndarray


def char_poly(a) -> np.ndarray:
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion.

    Returns the array c of length n with A^n = sum_{j=0}^{n-1} c_j A^j, so
    the characteristic polynomial is lambda^n - sum_j c_j lambda^j.  Exact
    up to rounding; no eigenvalue computation involved.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    p = np.empty(n)  # p[j] = coefficient of lambda^j in the monic polynomial
    am = a.copy()  # A M_k, with M_1 = I
    for k in range(1, n + 1):
        diagonal = am.reshape(-1)[:: n + 1]
        pk = -np.add.reduce(diagonal) / k
        p[n - k] = pk
        if k < n:
            diagonal += pk  # M_{k+1} = A M_k + p_k I
            am = a @ am
    return -p


def power_reduction(c: np.ndarray, k: int) -> np.ndarray:
    """Coefficients beta_{k,j} with A^k = sum_{j<n} beta_{k,j} A^j, for
    c = char_poly(A) and n = len(c).

    beta_{k,j} = delta_{k,j} for k < n, c_j for k = n, and for k > n the
    recursion beta_{k,0} = c_0 beta_{k-1,n-1},
    beta_{k,j} = c_j beta_{k-1,n-1} + beta_{k-1,j-1} for j > 0.
    """
    if k < 0:
        raise ValueError("power k must be nonnegative")
    n = len(c)
    if k < n:
        beta = np.zeros(n)
        beta[k] = 1.0
        return beta
    beta = np.array(c, dtype=float)
    for _ in range(k - n):
        top = beta[n - 1]
        new = np.empty(n)
        new[0] = c[0] * top
        new[1:] = c[1:] * top + beta[:-1]
        beta = new
    return beta


def phi1(m) -> np.ndarray:
    """The entire function phi1(M) = sum_{k>=0} M^k/(k+1)!.

    Satisfies phi1(M) M = exp(M) - I, but is defined for singular M too.
    An upper triangular M hands its diagonal to the kernel, so a small
    eigenvalue beside a large one keeps its exponential.  A lower triangular
    M is run as its transpose in the same way, since phi1(M) = phi1(M^T)^T,
    and the result is copied back to C order.  Both triangularity checks
    read one list of the entries and stop at the first nonzero one.  A full
    matrix with such a spread of eigenvalues still loses the small one (that
    would need a Schur form).  Overflow raises OverflowError, and a complex
    M ValueError.
    """
    m = as_square_matrix(m)
    lower, upper = _strictly_lower_and_upper(m.shape[0])
    entries = m.reshape(-1).tolist()
    if not any(map(entries.__getitem__, lower)):
        acc = _exp_phi1(m, m.diagonal())[1]
    elif not any(map(entries.__getitem__, upper)):  # phi1(M) = phi1(M^T)^T
        acc = _exp_phi1(m.T, m.diagonal())[1].T.copy()
    else:
        acc = _exp_phi1(m)[1]
    if not _all_finite(acc):
        raise OverflowError("phi1 overflowed (norm too large)")
    return acc


@functools.cache
def _strictly_lower_and_upper(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Flat indices of the entries below and above the diagonal of an
    n x n matrix."""
    lower = tuple(i * n + j for i in range(n) for j in range(i))
    return lower, tuple(j * n + i for i in range(n) for j in range(i))


def _exp_phi1(m: np.ndarray, triangular_diagonal=None) -> tuple[np.ndarray, np.ndarray]:
    """(exp(M), phi1(M)) for a finite square float or complex array M.

    M is scaled down to 1-norm <= 1/2, where the Taylor polynomial of
    degree 16 leaves a tail below 1e-19.  The polynomial is evaluated by
    the Paterson-Stockmeyer scheme (SIAM J. Comput. 2, 1973) in blocks of
    X^4: the four block polynomials in I, X, X^2, X^3 come from one product
    with the coefficient table, and Horner's rule in X^4 joins them, 7
    matrix products in all against 17 for Horner's rule in X.  The scaling
    is undone with the doubling identities phi1(2X) = (exp(X) + I) phi1(X)/2
    and exp(2X) = exp(X)^2.  For an upper triangular M, pass its diagonal
    as triangular_diagonal: the diagonal of exp(X) is then set to the
    exponentials of X's diagonal before each squaring and at the end (Al-Mohy
    & Higham, SIAM J. Matrix Anal. Appl. 31, 2009, Code Fragment 2.1), so
    the squarings do not magnify its rounding, which a wide spread of the
    diagonal would otherwise raise to about ||M||_1 eps.  One error state
    covers the whole kernel: overflow leaves non-finite entries and no
    warning, a 1-norm above 2^1022 is scaled in two steps (_halved), and
    one that overflows makes both results all inf, for each caller to report.

    For n <= 6 the matrix products are a small part of a call; the rest is
    numpy's per-call dispatch, about a microsecond for each operation (the
    error state, the 1-norm, each product and update).  So the column sums
    of the 1-norm come from np.add.reduce itself and their maximum from
    Python's max, the stack I, X, X^2, X^3 is a copy of a cached read-only
    (I, 0, 0, 0) per (n, dtype) (_identity_stack), and M / 2^s is written
    into its slot by _halved's out=.  The tests hold the kernel to a
    reference copy bit for bit.
    """
    n = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = max(np.add.reduce(np.abs(m), axis=0).tolist())  # inf if it overflows
        if not math.isfinite(nrm):
            return np.full_like(m, np.inf), np.full_like(m, np.inf)
        if nrm <= 2.0**1022:
            squarings = 0 if nrm <= 0.5 else math.ceil(math.log2(nrm / 0.5))
        else:  # nrm / 0.5 may overflow
            squarings = math.ceil(math.log2(nrm)) + 1
        powers = _identity_stack(n, m.dtype).copy()  # I, X, X^2, X^3
        flat = powers.reshape(4, n * n)
        x, x2, x3 = powers[1], powers[2], powers[3]
        _halved(m, squarings, out=x)
        np.matmul(x, x, out=x2)
        np.matmul(x2, x, out=x3)
        x4 = x2 @ x2
        blocks = (_PHI1_BLOCKS @ flat).reshape(4, n, n)
        acc = x4 * _PHI1_TOP
        acc += blocks[3]
        for i in (2, 1, 0):
            acc = x4 @ acc
            acc += blocks[i]
        ex = x @ acc
        ex.reshape(-1)[:: n + 1] += 1.0
        for k in range(squarings, 0, -1):
            if triangular_diagonal is not None:
                ex.reshape(-1)[:: n + 1] = np.exp(_halved(triangular_diagonal, k))
            acc = (ex @ acc + acc) / 2.0
            ex = ex @ ex
        if triangular_diagonal is not None:
            ex.reshape(-1)[:: n + 1] = np.exp(triangular_diagonal)
    return ex, acc


def _halved(v, k: int, out=None):
    """v / 2^k, into out if given, in two steps where 2^k overflows
    (k > 1023)."""
    if k <= 1023:
        return np.divide(v, 2.0**k, out=out)
    return np.divide(np.divide(v, 2.0**1023, out=out), 2.0 ** (k - 1023), out=out)


@functools.cache
def _identity_stack(n: int, dtype) -> np.ndarray:
    """The read-only 4 x n x n stack (I, 0, 0, 0) of dtype, which
    _exp_phi1 copies for its powers I, X, X^2, X^3."""
    stack = np.zeros((4, n, n), dtype=dtype)
    stack.reshape(4, n * n)[0, :: n + 1] = 1.0
    stack.flags.writeable = False
    return stack


def _normalize_spectrum(spectrum, n: int) -> list[complex]:
    """The eigenvalues of (eigenvalue, multiplicity) pairs, each repeated
    by its multiplicity.  Multiplicities that are not positive or do not sum
    to n, and a spectrum that is not closed under conjugation (no real
    matrix has one), raise ValueError."""
    items = [(complex(lam), int(mult)) for lam, mult in spectrum]
    if any(mult < 1 for _, mult in items):
        raise ValueError("spectrum multiplicities must be positive")
    total = sum(mult for _, mult in items)
    if total != n:
        raise ValueError(f"spectrum multiplicities sum to {total}, expected matrix dimension {n}")
    lams = [lam for lam, mult in items for _ in range(mult)]
    if any(z.imag for z in lams) and sorted((z.real, z.imag) for z in lams) != sorted(
        (z.real, -z.imag) for z in lams
    ):
        raise ValueError("spectrum is not closed under conjugation, so no real matrix has it")
    return lams


def _newton_to_monomial(dd: list, nodes: list) -> list:
    """Monomial coefficients of sum_k dd[k] prod_{i<k} (z - nodes[i]).

    Horner form: multiply by (z - nodes[k]) and add dd[k], innermost first,
    in place on the coefficients of the inner polynomial.
    """
    coef = list(dd)
    for k in range(len(dd) - 2, -1, -1):
        lam = nodes[k]
        for j in range(k, len(dd) - 1):
            coef[j] -= lam * coef[j + 1]
    return coef


def alpha_coeffs(a, spectrum: Spectrum | None, dt: float) -> StepCoefficients:
    """Exact expansion coefficients alpha_j(dt) of exp(dt A).

    p(z) = sum_j alpha_j z^j is the Hermite interpolant of exp(dt z) on the
    spectrum (derivatives matched up to multiplicity), so p(A) = exp(dt A);
    q(z) = sum_j q_values[j] z^j interpolates (exp(dt z) - 1)/z the same way,
    so q(A) = dt phi1(dt A).  Both come from divided-difference tables
    (Opitz, ZAMM 44, 1964): with the eigenvalues, each repeated by its
    multiplicity, on the diagonal of an n x n upper bidiagonal J with ones
    above it, row 0 of exp(dt J) holds the Newton coefficients of exp(dt z)
    and row 0 of dt phi1(dt J) those of (exp(dt z) - 1)/z, confluent ones
    included.  One call of phi1's kernel, in its one error state, evaluates
    both and is the only n x n work; dt times the eigenvalues, the overflow
    checks and the Newton forms run on Python scalars.  No division by
    eigenvalue gaps occurs, so clustered and repeated eigenvalues lose no
    accuracy (McCurdy, Ng & Parlett, Math. Comp. 43, 1984): the tests hold both rows, alpha and q to 5e-14 of a
    40-digit oracle.  Newton forms on a complex spectrum are expanded in
    complex arithmetic, and the real parts kept.  If spectrum is None the
    eigenvalues of A come from the LAPACK fallback np.linalg.eigvals, and
    the result's warning says so; the tests hold that route to 1e-12 of
    expm, as they do a declared spectrum.  A declared spectrum that is not
    closed under conjugation raises ValueError (_normalize_spectrum), and
    coefficients that overflow raise OverflowError.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError("dt must be nonnegative and finite")
    warning = None
    if spectrum is None:
        lams = np.linalg.eigvals(a).tolist()
        warning = "spectrum recovered by eigenvalue fallback"
    else:
        lams = _normalize_spectrum(spectrum, n)
    if not any(lam.imag for lam in lams):
        lams = [lam.real for lam in lams]
    dt_lams = [dt * lam for lam in lams]  # inf on overflow, with no warning
    if not all(map(cmath.isfinite, dt_lams)):
        raise OverflowError("dt times the spectrum overflowed")
    dt_j = np.zeros((n, n), dtype=complex if isinstance(lams[0], complex) else float)
    dt_j.reshape(-1)[:: n + 1] = dt_lams
    dt_j.reshape(-1)[1 :: n + 1] = dt
    exp_dt_j, phi1_dt_j = _exp_phi1(dt_j, dt_j.diagonal())
    alpha = _newton_to_monomial(exp_dt_j[0].tolist(), lams)
    q = _newton_to_monomial([dt * c for c in phi1_dt_j[0].tolist()], lams)
    values = [c.real for c in alpha]
    q_values = [c.real for c in q]
    if not all(map(math.isfinite, values + q_values)):
        raise OverflowError("alpha coefficients overflowed (dt times the spectrum too large)")
    return StepCoefficients(np.array(values), np.array(q_values), warning)


def gamma_coeffs(c: np.ndarray, dt: float) -> StepCoefficients:
    """Order-n truncation gamma_j(dt) = dt^j/j! + (dt^n/n!) c_j, for
    c = char_poly(A) and n = len(c).

    Agrees with alpha_j(dt) through O(dt^n); by Cayley-Hamilton the induced
    propagator sum_j gamma_j A^j equals the Taylor sum of exp(dt A) through
    order n.  Its forcing weight is the matching Taylor sum of
    dt phi1(dt A), q_j = dt^{j+1}/(j+1)!.  Needs only the characteristic
    polynomial, no eigenvalues.  Coefficients that overflow raise
    OverflowError.
    """
    n = len(c)
    if n < 2:
        raise ValueError("gamma coefficients need matrix dimension n >= 2")
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError("dt must be nonnegative and finite")
    if n >= len(_FACTORIALS):
        raise OverflowError(f"gamma coefficients need {n}!, beyond the float64 range")
    with np.errstate(over="ignore", invalid="ignore"):
        taylor = dt ** np.arange(n + 1) / _FACTORIALS[: n + 1]
        values = taylor[:-1] + taylor[-1] * c
    # dt^j/j! is finite for j < n whenever dt^n/n! is, and an infinite
    # dt^n/n! makes every value infinite or NaN
    if not _all_finite(values):
        raise OverflowError("gamma coefficients overflowed (dt or the matrix norm too large)")
    return StepCoefficients(values=values, q_values=taylor[1:])


def forcing_weight(a, coeffs: StepCoefficients) -> np.ndarray:
    """Q = sum_j q_j A^j, summed as q_1 A + q_0 I + q_2 A^2 + ... (q_0 I for
    n = 1): dt phi1(dt A) for exact alpha coefficients, its Taylor sum for
    gamma.  a, the float array coeffs came from, is not validated again."""
    return _weight_and_powers(a, coeffs)[0]


def _weight_and_powers(a, coeffs: StepCoefficients) -> tuple[np.ndarray, list]:
    """forcing_weight's Q and the powers [A, A^2, ..., A^(n-1)] it summed."""
    n = a.shape[0]
    if len(coeffs.q_values) != n:
        raise ValueError("coefficient dimension does not match the matrix")
    q = coeffs.q_values.tolist()
    # C order, so the flat view reaches the diagonal
    q_mat = np.multiply(q[1] if n > 1 else 0.0, a, order="C")
    q_mat.reshape(-1)[:: n + 1] += q[0]
    powers = [a]
    for qj in q[2:]:
        powers.append(powers[-1] @ a)
        q_mat += qj * powers[-1]
    return q_mat, powers


def correction_factors(a, coeffs: StepCoefficients) -> CorrectionFactors:
    """Correction matrices R0, R1 of the paper's scalar one-step form.

    R1 = sum_{j=2}^{n-1} (alpha_j/alpha_1) A^{j-1} vanishes identically for
    n = 2.  R0 = Q/alpha_1 - I - R1 with Q = forcing_weight(a, coeffs); for
    invertible A this is ((alpha_0 - 1)/alpha_1) A^{-1}, computed without
    the inverse and without the cancellation in alpha_0 - 1, so a singular
    A needs no special case.  R1 reuses the powers of A that Q summed.
    alpha_1 = 0 marks a degenerate step size and raises ValueError.  The
    steppers use Q itself, not R0 and R1.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("correction factors need matrix dimension n >= 2")
    q_mat, powers = _weight_and_powers(a, coeffs)
    alpha = coeffs.values.tolist()
    if alpha[1] == 0.0:
        raise ValueError("alpha_1 vanishes: degenerate step size for this spectrum")
    # 0 + (alpha_2/alpha_1) A + (alpha_3/alpha_1) A^2 + ..., term by term
    r1 = np.zeros((n, n))
    for alpha_j, power in zip(alpha[2:], powers):
        r1 += alpha_j / alpha[1] * power
    q_mat /= alpha[1]
    q_mat.reshape(-1)[:: n + 1] -= 1.0
    q_mat -= r1
    return CorrectionFactors(r0=q_mat, r1=r1)
