"""Small-matrix machinery for exponential-fitted one-step schemes.

Everything works on plain float64 numpy arrays.  The Cayley-Hamilton theorem
turns the matrix exponential of an n x n matrix into a finite expansion

    exp(dt A) = sum_{j=0}^{n-1} alpha_j(dt) A^j,

so a one-step method can be written with n scalar coefficients instead of a
matrix function.  This module computes the characteristic polynomial (by the
Faddeev-LeVerrier recursion), the exact coefficients alpha_j (by Hermite
interpolation of z -> exp(dt z) on the spectrum), an order-n truncation
gamma_j that needs only the characteristic polynomial, and the correction
factors R0, R1 that recast the expansion as a perturbation of a first-order
update.  phi1 and expm are the reference routes used to cross-check all of
the above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Coefficient kinds carried by StepCoefficients.
EXACT_ALPHA = "exact-alpha"
TRUNCATED_ORDER_N = "truncated-order-n"

# Spectrum entries are (eigenvalue, algebraic multiplicity) pairs.
Spectrum = tuple[tuple[complex, int], ...]

_COND_WARN_THRESHOLD = 1e8


def as_square_matrix(a) -> np.ndarray:
    """Validate and return `a` as an n x n float64 array (n >= 1)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class CharPoly:
    """Reduction coefficients c_j with A^n = sum_{j<n} c_j A^j.

    Equivalently the characteristic polynomial is
    p(lambda) = lambda^n - sum_j c_j lambda^j.
    """

    n: int
    c: np.ndarray

    def monic(self) -> np.ndarray:
        """Coefficients of p in descending powers, [1, -c_{n-1}, ..., -c_0]."""
        return np.concatenate(([1.0], -self.c[::-1]))


@dataclass(frozen=True)
class StepCoefficients:
    """Scalar coefficients of the one-step expansion sum_j values[j] A^j.

    kind is EXACT_ALPHA (exponential reproduced exactly on the spectrum) or
    TRUNCATED_ORDER_N (gamma coefficients, order-n accurate).  warning is
    None or a human-readable note (ill conditioning, eigenvalue fallback).
    """

    n: int
    dt: float
    values: np.ndarray
    kind: str
    warning: str | None = None


@dataclass(frozen=True)
class CorrectionFactors:
    """Matrices R0 = ((alpha_0 - 1)/alpha_1) A^{-1} and
    R1 = sum_{j=2}^{n-1} (alpha_j/alpha_1) A^{j-1}.

    They recast X_{k+1} = sum_j alpha_j A^j X_k as
    X_{k+1} = alpha_0 X_k + alpha_1 [(I + R1)(A X_k + B) + R0 B].
    """

    r0: np.ndarray
    r1: np.ndarray


def char_poly(a) -> CharPoly:
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion.

    Returns c with A^n = sum_{j=0}^{n-1} c_j A^j.  Exact up to rounding;
    no eigenvalue computation involved.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    eye = np.eye(n)
    m = eye
    p = np.empty(n)  # p[j] = coefficient of lambda^j in the monic polynomial
    for k in range(1, n + 1):
        am = a @ m
        pk = -np.trace(am) / k
        p[n - k] = pk
        m = am + pk * eye
    return CharPoly(n=n, c=-p)


def power_reduction(cp: CharPoly, k: int) -> np.ndarray:
    """Coefficients beta_{k,j} with A^k = sum_{j<n} beta_{k,j} A^j.

    beta_{k,j} = delta_{k,j} for k < n, c_j for k = n, and for k > n the
    recursion beta_{k,0} = c_0 beta_{k-1,n-1},
    beta_{k,j} = c_j beta_{k-1,n-1} + beta_{k-1,j-1} for j > 0.
    """
    if k < 0:
        raise ValueError("power k must be nonnegative")
    n = cp.n
    if k < n:
        beta = np.zeros(n)
        beta[k] = 1.0
        return beta
    beta = cp.c.astype(float).copy()
    for _ in range(k - n):
        top = beta[n - 1]
        new = np.empty(n)
        new[0] = cp.c[0] * top
        new[1:] = cp.c[1:] * top + beta[:-1]
        beta = new
    return beta


def expm(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a diagonal Pade core).

    Thin validated front end over scipy.linalg.expm; overflow surfaces as
    OverflowError instead of silent non-finite entries.
    """
    m = as_square_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed (norm too large)")
    return out


def phi1(m) -> np.ndarray:
    """The entire function phi1(M) = sum_{k>=0} M^k/(k+1)!.

    Satisfies phi1(M) M = exp(M) - I, but is defined for singular M too.
    Evaluated by the truncated series after scaling M down to norm <= 1/2,
    then undone with the doubling identities
    phi1(2X) = (exp(X) + I) phi1(X)/2 and exp(2X) = exp(X)^2.
    """
    m = as_square_matrix(m)
    n = m.shape[0]
    eye = np.eye(n)
    nrm = np.linalg.norm(m, 1)
    squarings = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    x = m / (2.0 ** squarings)
    # Horner evaluation of sum_{k=0}^{16} X^k/(k+1)!; the tail at norm 1/2
    # is below 1e-19.
    acc = eye / math.factorial(17)
    for k in range(15, -1, -1):
        acc = acc @ x + eye / math.factorial(k + 1)
    ex = eye + x @ acc
    for _ in range(squarings):
        acc = (ex + eye) @ acc / 2.0
        ex = ex @ ex
    return acc


def cluster_spectrum(roots, tol: float = 1e-8) -> Spectrum:
    """Group nearby roots into (eigenvalue, multiplicity) pairs.

    Roots within tol*(1 + |root|) of a cluster mean are merged; conjugate
    symmetry of real matrices is restored by zeroing tiny imaginary parts.
    """
    remaining = list(np.asarray(roots, dtype=complex))
    spectrum = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        kept = []
        for r in remaining:
            if abs(r - seed) <= tol * (1.0 + abs(seed)):
                members.append(r)
            else:
                kept.append(r)
        remaining = kept
        center = complex(np.mean(members))
        if abs(center.imag) <= tol * (1.0 + abs(center)):
            center = complex(center.real, 0.0)
        spectrum.append((center, len(members)))
    return tuple(spectrum)


def _normalize_spectrum(spectrum, n: int) -> list[tuple[complex, int]]:
    items = [(complex(lam), int(mult)) for lam, mult in spectrum]
    if any(mult < 1 for _, mult in items):
        raise ValueError("spectrum multiplicities must be positive")
    total = sum(mult for _, mult in items)
    if total != n:
        raise ValueError(
            f"spectrum multiplicities sum to {total}, expected matrix dimension {n}"
        )
    return items


def _hermite_rows(lam: complex, mult: int, n: int, dt: float):
    """Rows of the confluent Vandermonde system for one eigenvalue.

    Row r enforces p^{(r)}(lam) = dt^r exp(dt lam) for r < mult, where
    p(z) = sum_{j<n} alpha_j z^j.
    """
    rows = np.zeros((mult, n), dtype=complex)
    rhs = np.zeros(mult, dtype=complex)
    for r in range(mult):
        for j in range(r, n):
            rows[r, j] = math.perm(j, r) * lam ** (j - r)
        rhs[r] = dt ** r * np.exp(dt * lam)
    return rows, rhs


def alpha_coeffs(a, spectrum: Spectrum | None, dt: float) -> StepCoefficients:
    """Exact expansion coefficients alpha_j(dt) of exp(dt A).

    Solves the Hermite interpolation problem p(z) = exp(dt z) on the
    spectrum (matching derivatives up to multiplicity), so that
    p(A) = exp(dt A) exactly.  Complex-conjugate eigenvalue pairs are
    combined into real and imaginary part equations, keeping the solve and
    the result real.  If spectrum is None the eigenvalues of A are computed
    by the LAPACK fallback np.linalg.eigvals, grouped by cluster_spectrum,
    and the result carries a warning.  Clustered-but-unequal eigenvalues
    make the interpolation ill conditioned; that also attaches a warning.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if not (np.isfinite(dt) and dt >= 0):
        raise ValueError("dt must be nonnegative and finite")
    warning = None
    if spectrum is None:
        spectrum = cluster_spectrum(np.linalg.eigvals(a))
        warning = "spectrum recovered by eigenvalue fallback (lower trust)"
    items = _normalize_spectrum(spectrum, n)

    imag_tol = 1e-12
    reals = [(lam, m) for lam, m in items if abs(lam.imag) <= imag_tol * (1 + abs(lam))]
    complexes = [(lam, m) for lam, m in items if abs(lam.imag) > imag_tol * (1 + abs(lam))]

    # Pair each eigenvalue having positive imaginary part with its conjugate.
    pairs = []
    unmatched = list(complexes)
    for lam, mult in [it for it in complexes if it[0].imag > 0]:
        partner = next(
            (
                it
                for it in unmatched
                if it[0].imag < 0
                and it[1] == mult
                and abs(it[0] - lam.conjugate()) <= 1e-9 * (1 + abs(lam))
            ),
            None,
        )
        if partner is not None:
            unmatched.remove(partner)
            unmatched.remove((lam, mult))
            pairs.append((lam, mult))

    if not unmatched:
        rows = np.zeros((n, n))
        rhs = np.zeros(n)
        filled = 0
        for lam, mult in reals:
            r, b = _hermite_rows(complex(lam.real, 0.0), mult, n, dt)
            rows[filled : filled + mult] = r.real
            rhs[filled : filled + mult] = b.real
            filled += mult
        for lam, mult in pairs:
            r, b = _hermite_rows(lam, mult, n, dt)
            rows[filled : filled + mult] = r.real
            rhs[filled : filled + mult] = b.real
            rows[filled + mult : filled + 2 * mult] = r.imag
            rhs[filled + mult : filled + 2 * mult] = b.imag
            filled += 2 * mult
        values = np.linalg.solve(rows, rhs)
        cond = np.linalg.cond(rows)
    else:
        # Spectrum not closed under conjugation (inconsistent input or noisy
        # fallback spectra): solve in complex arithmetic and keep the real part.
        rows = np.zeros((n, n), dtype=complex)
        rhs = np.zeros(n, dtype=complex)
        filled = 0
        for lam, mult in items:
            r, b = _hermite_rows(lam, mult, n, dt)
            rows[filled : filled + mult] = r
            rhs[filled : filled + mult] = b
            filled += mult
        sol = np.linalg.solve(rows, rhs)
        resid = float(np.max(np.abs(sol.imag)))
        warning = (
            f"spectrum not closed under conjugation; dropped imaginary parts "
            f"of magnitude {resid:.2e}"
        )
        values = sol.real
        cond = np.linalg.cond(rows)
    if cond > _COND_WARN_THRESHOLD and warning is None:
        warning = (
            f"ill-conditioned spectrum interpolation (cond ~ {cond:.2e}); "
            "clustered eigenvalues degrade coefficient accuracy"
        )
    return StepCoefficients(n=n, dt=dt, values=values, kind=EXACT_ALPHA, warning=warning)


def gamma_coeffs(cp: CharPoly, dt: float) -> StepCoefficients:
    """Order-n truncation gamma_j(dt) = dt^j/j! + (dt^n/n!) c_j.

    Agrees with alpha_j(dt) through O(dt^n); by Cayley-Hamilton the induced
    propagator sum_j gamma_j A^j equals the Taylor sum of exp(dt A) through
    order n.  Needs only the characteristic polynomial, no eigenvalues.
    """
    if cp.n < 2:
        raise ValueError("gamma coefficients need matrix dimension n >= 2")
    if not (np.isfinite(dt) and dt >= 0):
        raise ValueError("dt must be nonnegative and finite")
    j = np.arange(cp.n)
    values = dt ** j / np.array([math.factorial(int(i)) for i in j])
    values = values + dt ** cp.n / math.factorial(cp.n) * cp.c
    return StepCoefficients(
        n=cp.n, dt=dt, values=values, kind=TRUNCATED_ORDER_N, warning=None
    )


def correction_factors(a, coeffs: StepCoefficients) -> CorrectionFactors:
    """Correction matrices R0, R1 for the scalar one-step form.

    R0 = ((alpha_0 - 1)/alpha_1) A^{-1} requires invertible A; for singular
    A use the matrix-form scheme (phi1 based), which needs no inverse.
    R1 = sum_{j=2}^{n-1} (alpha_j/alpha_1) A^{j-1} vanishes identically for
    n = 2.  alpha_1 = 0 marks a degenerate step size.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("correction factors need matrix dimension n >= 2")
    if coeffs.n != n:
        raise ValueError("coefficient dimension does not match the matrix")
    alpha = coeffs.values
    if alpha[1] == 0.0:
        raise ValueError("alpha_1 vanishes: degenerate step size for this spectrum")
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "matrix is singular; R0 needs A^{-1}, use the matrix-form scheme instead"
        ) from exc
    if not np.all(np.isfinite(a_inv)):
        raise np.linalg.LinAlgError(
            "matrix is numerically singular; use the matrix-form scheme instead"
        )
    r0 = (alpha[0] - 1.0) / alpha[1] * a_inv
    r1 = np.zeros_like(a)
    power = np.eye(n)  # A^{j-1} running power
    for j in range(2, n):
        power = power @ a
        r1 = r1 + alpha[j] / alpha[1] * power
    return CorrectionFactors(r0=r0, r1=r1)
