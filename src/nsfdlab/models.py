"""Benchmark models X' = A X + B with known exact solutions.

Four model families:

  oscillator   x'' + x + x^2 = 0 written as a 2d system; exact solution
               x(t) = x0 + a sn^2(omega t | m) in Jacobi elliptic functions.
               Its forcing (0, -x^2) is the one state forcing, declared as
               the rank-one quadratic b (u.x)^2.
  biomass      linear 3d cascade (young biomass, old biomass, dead trees)
               with triangular A and spectrum {-1, -3, -5}.
  trees        biomass plus a constant plantation term z_f.
  seasonal     biomass plus the periodic plantation z_f (1 + cos(omega t)).

The oscillator solution needs the Jacobi functions and the complete
elliptic integral; elliptic_k and jacobi_sn_cn_dn check the domain and
shape of their arguments and leave the evaluation to scipy.special.  The
second argument is the parameter m (the squared modulus), the convention
with sn(u, 0) = sin(u).
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matkit


# --------------------------------------------------------------------------
# elliptic integral and Jacobi functions
# --------------------------------------------------------------------------

# scipy.special is imported on first use: loaded with the package, it
# would slow every import for the sake of the oscillator alone.


def elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m) = int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt.

    m is the parameter (squared modulus), 0 <= m < 1.  Evaluated by
    scipy.special.ellipk.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter m must be in [0, 1), got {m}")
    from scipy.special import ellipk

    return float(ellipk(m))


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic sn, cn, dn of real u with parameter m in [0, 1].

    u is a number (the result is three floats) or an array (three arrays of
    its shape).  Evaluated by scipy.special.ellipj.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"parameter m must be in [0, 1], got {m}")
    from scipy.special import ellipj

    u_arr = np.asarray(u, dtype=float)
    sn, cn, dn, _ = ellipj(u_arr, m)
    if u_arr.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn


def jacobi_sn(u, m: float):
    """sn(u | m) of a number or an array; see jacobi_sn_cn_dn."""
    return jacobi_sn_cn_dn(u, m)[0]


# --------------------------------------------------------------------------
# oscillator closed form
# --------------------------------------------------------------------------

def oscillator_params(x0: float) -> tuple[float, float, float]:
    """Amplitude a, frequency omega, parameter m of the exact solution
    x(t) = x0 + a sn^2(omega t | m) of x'' + x + x^2 = 0 with x(0) = x0,
    x'(0) = 0.

    Valid for 0 < x0 < 1/2 (bounded oscillations); then a < 0, omega > 0
    and 0 < m < 1.  The three coefficient identities
    2 a omega^2 = -x0 (1 + x0), 4 omega^2 (1 + m) = 1 + 2 x0 and
    6 m omega^2 = -a make the ansatz solve the equation exactly.
    """
    if not 0.0 < x0 < 0.5:
        raise ValueError(f"x0 must lie in (0, 1/2), got {x0}")
    s = math.sqrt(3.0 * (1.0 - 2.0 * x0) * (3.0 + 2.0 * x0))
    a = -12.0 * x0 * (1.0 + x0) / (s + 3.0 * (1.0 + 2.0 * x0))
    omega = 0.5 * math.sqrt(0.5 + x0 + s / 6.0)
    m = 0.5 + 3.0 * (2.0 * x0 * x0 + 2.0 * x0 - 1.0) / (3.0 + (1.0 + 2.0 * x0) * s)
    return a, omega, m


def oscillator_period(x0: float) -> float:
    """Period of the exact oscillator solution, 2 K(m) / omega."""
    _, omega, m = oscillator_params(x0)
    return 2.0 * elliptic_k(m) / omega


def oscillator_energy(state) -> float:
    """Conserved energy E = y^2/2 + x^2/2 + x^3/3 of x'' + x + x^2 = 0."""
    x, y = float(state[0]), float(state[1])
    return 0.5 * y * y + 0.5 * x * x + x ** 3 / 3.0


# --------------------------------------------------------------------------
# model container
# --------------------------------------------------------------------------

# the field each forcing kind reads
_KIND_FIELDS = {"none": None, "constant": "constant", "time": "time_fn", "state": "quadratic"}


@dataclass(frozen=True)
class Forcing:
    """Forcing term B of X' = A X + B.

    kind is one of "none", "constant", "time", "state"; each but "none"
    needs the field it reads (constant, time_fn, quadratic).  For "time",
    antiderivative (if set) is the componentwise primitive of time_fn, used
    for the exact integral-mean approximation.  Both take a time or an
    array of times; an array of shape S gives shape S + (n,), so the
    steppers evaluate the forcing of every step in one call.  Both must be
    pure functions of t, like OdeModel.exact: schemes.march samples them on
    a grid through schemes.grid_samples.

    For "state", quadratic = (b, u) declares the rank-one quadratic
    B(x) = b (u.x)^2 as data, and the steppers step it in closed form; a
    state forcing without it raises ValueError.  state_fn(x) = b (u.x)^2,
    the pointwise value, is derived from it when not given (a caller may
    pass a wrapped one back through dataclasses.replace).  Zero entries of
    b and u take no part, so an overflowed state component gives an
    infinite, not a NaN, forcing.
    """

    kind: str
    constant: np.ndarray | None = None
    time_fn: Callable[[float | np.ndarray], np.ndarray] | None = None
    antiderivative: Callable[[float | np.ndarray], np.ndarray] | None = None
    state_fn: Callable[[np.ndarray], np.ndarray] | None = None
    quadratic: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown forcing kind {self.kind!r}; valid: {', '.join(_KIND_FIELDS)}")
        needed = _KIND_FIELDS[self.kind]
        if needed and getattr(self, needed) is None:
            raise ValueError(f"a {self.kind} forcing needs its {needed} declaration")
        if self.quadratic is None:
            return
        b, u = (np.array(v, dtype=float) for v in self.quadratic)
        if b.ndim != 1 or b.shape != u.shape:
            raise ValueError("quadratic forcing needs two vectors b, u of one length")
        object.__setattr__(self, "quadratic", (b, u))
        # dataclasses.replace passes the derived state_fn back in, and a
        # caller may pass a wrapped one: a given state_fn is kept
        if self.state_fn is None:
            object.__setattr__(self, "state_fn", _rank_one_square(b, u))


def _rank_one_square(b: np.ndarray, u: np.ndarray):
    """x -> b (u.x)^2 over the nonzero entries of b and u."""
    ib, iu = np.flatnonzero(b), np.flatnonzero(u)
    b_nz, u_nz = b[ib], u[iu]

    def square(x) -> np.ndarray:
        # a Python float: an overflowed square is inf, with no warning
        s = float(u_nz @ np.asarray(x, dtype=float)[iu])
        out = np.zeros(b.shape)
        out[ib] = b_nz * (s * s)
        return out

    return square


@dataclass(frozen=True)
class OdeModel:
    """A benchmark system X' = A X + B with its exact solution.

    n is a_matrix's size.  spectrum lists (eigenvalue, multiplicity) pairs
    of a_matrix, or is None for matkit.alpha_coeffs' eigenvalue fallback;
    exact(t) returns the analytic state at a time, or the states at an
    array of N times as shape (N, n); equilibrium, if not None, is a fixed
    point of the flow; energy, if not None, is a conserved quantity
    evaluator.  exact must be a pure function of t: bench samples it on a
    grid through schemes.grid_samples.  The stock models' exact, time_fn
    and antiderivative are _Bound functions, which compare by value: two
    make_model calls with equal parameters give equal functions of equal
    hash, and so share those samples.

    Every build, dataclasses.replace included, checks a_matrix
    (matkit.as_square_matrix: real, square, finite; a C-ordered float64
    array is kept as it is), a declared spectrum (_normalize_spectrum:
    positive multiplicities summing to n, closed under conjugation) and that
    initial_state and the forcing's constant or quadratic vectors (b and u)
    have length n and finite entries, and raises ValueError, naming the
    field, so every scheme sees a valid model.
    """

    name: str
    a_matrix: np.ndarray
    spectrum: tuple[tuple[complex, int], ...] | None
    forcing: Forcing
    initial_state: np.ndarray
    exact: Callable[[float | np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    equilibrium: np.ndarray | None = None
    energy: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "a_matrix", matkit.as_square_matrix(self.a_matrix))
        n = self.n
        if self.spectrum is not None:
            matkit._normalize_spectrum(self.spectrum, n)
        quadratic = self.forcing.quadratic
        vectors = {
            "initial_state": self.initial_state,
            "forcing.constant": self.forcing.constant,
            # b and u share one shape (Forcing checks it)
            "forcing.quadratic": None if quadratic is None else quadratic[0],
        }
        for name, vector in vectors.items():
            if vector is not None and np.shape(vector) != (n,):
                raise ValueError(f"{name} must have length n = {n}, got shape {np.shape(vector)}")
        vectors["forcing.quadratic"] = quadratic  # b and u, as one (2, n) array
        for name, vector in vectors.items():
            if vector is not None and not np.isfinite(vector).all():
                raise ValueError(f"{name} must be finite, got {np.asarray(vector).tolist()}")

    @property
    def n(self) -> int:
        return self.a_matrix.shape[0]

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        """The vector field A x + B(t, x)."""
        x = np.asarray(x, dtype=float)
        f = self.forcing
        if f.kind == "constant":
            b = f.constant
        elif f.kind == "time":
            b = f.time_fn(t)
        elif f.kind == "state":
            b = f.state_fn(x)
        else:  # "none"
            b = 0.0
        return self.a_matrix @ x + b


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Bound:
    """fn(t, *args): a module-level function of (t, params) bound to a
    model's parameters.  It compares and hashes by (fn, args), so the
    bindings of equal parameters are one cache key, and it holds nothing
    but them."""

    fn: Callable[..., np.ndarray]
    args: tuple

    def __call__(self, t) -> np.ndarray:
        return self.fn(t, *self.args)


def _oscillator_exact(t, x0: float, a_par: float, omega: float, m_par: float) -> np.ndarray:
    sn, cn, dn = jacobi_sn_cn_dn(omega * np.asarray(t, dtype=float), m_par)
    x = x0 + a_par * sn * sn
    # + 0.0 maps the -0.0 at sn = 0 (a < 0) to 0.0: exact(0) is the initial state bitwise
    y = 2.0 * a_par * omega * sn * cn * dn + 0.0
    return np.stack((x, y), axis=-1)


def _make_oscillator(x0: float = 0.25) -> OdeModel:
    a_par, omega, m_par = oscillator_params(x0)
    return OdeModel(
        name="oscillator",
        a_matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        spectrum=((1j, 1), (-1j, 1)),
        # B(x) = (0, -x^2): b = (0, -1), u = e_1
        forcing=Forcing(kind="state", quadratic=(np.array([0.0, -1.0]), np.array([1.0, 0.0]))),
        initial_state=np.array([x0, 0.0]),
        exact=_Bound(_oscillator_exact, (x0, a_par, omega, m_par)),
        params={"x0": x0, "a": a_par, "omega": omega, "m": m_par},
        equilibrium=np.array([0.0, 0.0]),
        energy=oscillator_energy,
    )


_BIOMASS_A = np.array(
    [
        [-1.0, 3.0, 0.0],
        [0.0, -3.0, 5.0],
        [0.0, 0.0, -5.0],
    ]
)
_BIOMASS_SPECTRUM = ((-1.0 + 0j, 1), (-3.0 + 0j, 1), (-5.0 + 0j, 1))


# The closed forms below are factored so that every term is a product of
# nonnegative factors, with u = exp(-t):
#   1 - 2u^2 + u^4 = (1 - u^2)^2,
#   8 - 15u + 10u^3 - 3u^5 = (1 - u)^3 (8 + 9u + 3u^2),
#   2 - 5u^3 + 3u^5 = (1 - u)^2 (2 + 4u + 6u^2 + 3u^3).
# Written out in powers of u they cancel O(1) terms down to the O(t^2)
# solution near t = 0; factored, with 1 - u^k from expm1, they keep full
# relative precision at every t, and x, y vanish exactly at t = 0.


def _biomass_homogeneous(t, z0: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    one_minus_u2 = -np.expm1(-2.0 * t)
    return np.stack(
        (
            15.0 / 8.0 * z0 * np.exp(-t) * one_minus_u2 * one_minus_u2,
            5.0 / 2.0 * z0 * np.exp(-3.0 * t) * one_minus_u2,
            z0 * np.exp(-5.0 * t),
        ),
        axis=-1,
    )


def _trees_exact(t, z0: float, zf: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    u = np.exp(-t)
    one_minus_u = -np.expm1(-t)
    out = _biomass_homogeneous(t, z0)
    out[..., 0] += zf / 8.0 * one_minus_u**3 * (8.0 + u * (9.0 + 3.0 * u))
    out[..., 1] += zf / 6.0 * one_minus_u**2 * (2.0 + u * (4.0 + u * (6.0 + 3.0 * u)))
    out[..., 2] += zf / 5.0 * -np.expm1(-5.0 * t)
    return out


def _make_biomass(z0: float = 1.0) -> OdeModel:
    if not (math.isfinite(z0) and z0 > 0):
        raise ValueError(f"z0 must be positive and finite, got {z0}")
    return OdeModel(
        name="biomass",
        a_matrix=_BIOMASS_A.copy(),
        spectrum=_BIOMASS_SPECTRUM,
        forcing=Forcing(kind="none"),
        initial_state=np.array([0.0, 0.0, z0]),
        exact=_Bound(_biomass_homogeneous, (z0,)),
        params={"z0": z0},
        equilibrium=np.zeros(3),
    )


def _make_trees(z0: float = 1.0, zf: float = 0.5) -> OdeModel:
    if not (math.isfinite(z0) and z0 > 0):
        raise ValueError(f"z0 must be positive and finite, got {z0}")
    if not (math.isfinite(zf) and zf >= 0):
        raise ValueError(f"zf must be nonnegative and finite, got {zf}")
    return OdeModel(
        name="trees",
        a_matrix=_BIOMASS_A.copy(),
        spectrum=_BIOMASS_SPECTRUM,
        forcing=Forcing(kind="constant", constant=np.array([0.0, 0.0, zf])),
        initial_state=np.array([0.0, 0.0, z0]),
        exact=_Bound(_trees_exact, (z0, zf)),
        params={"z0": z0, "zf": zf},
        # A X + B vanishes at (zf, zf/3, zf/5): long-time limit of every orbit
        equilibrium=np.array([zf, zf / 3.0, zf / 5.0]),
    )


def _third_component(values: np.ndarray) -> np.ndarray:
    """Vectors (0, 0, v) for each v of values, shape values.shape + (3,)."""
    out = np.zeros(np.shape(values) + (3,))
    out[..., 2] = values
    return out


def _seasonal_exact(t, z0: float, zf: float, omega: float) -> np.ndarray:
    # the seasonal part in partial fractions: every term carries a factor
    # cos(omega t) - exp(-k t) or sin(omega t), so each vanishes exactly at
    # t = 0 and exact(0) is the initial state to the bit;
    # cos(omega t) - exp(-k t) = (cos(omega t) - 1) - (exp(-k t) - 1) keeps
    # its digits near t = 0
    w2 = omega * omega
    d1, d3, d5 = 1.0 + w2, 9.0 + w2, 25.0 + w2
    t = np.asarray(t, dtype=float)
    m1, m3, m5 = np.expm1(-t), np.expm1(-3.0 * t), np.expm1(-5.0 * t)
    cm = -2.0 * np.sin(0.5 * omega * t) ** 2  # cos(omega t) - 1
    sw = np.sin(omega * t)
    c1, c3, c5 = cm - m1, cm - m3, cm - m5
    out = _trees_exact(t, z0, zf)
    out[..., 0] += 15.0 / 8.0 * zf * (
        c1 / d1 - 6.0 * c3 / d3 + 5.0 * c5 / d5 + omega * sw * (1.0 / d1 - 2.0 / d3 + 1.0 / d5)
    )
    out[..., 1] += zf * (7.5 * c3 / d3 - 12.5 * c5 / d5 + 2.5 * omega * sw * (1.0 / d3 - 1.0 / d5))
    out[..., 2] += zf * (5.0 * c5 + omega * sw) / d5
    return out


def _seasonal_forcing(t, zf: float, omega: float) -> np.ndarray:
    return _third_component(zf * (1.0 + np.cos(omega * np.asarray(t, dtype=float))))


def _seasonal_antiderivative(t, zf: float, omega: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return _third_component(zf * (t + np.sin(omega * t) / omega))


def _make_seasonal(z0: float = 1.0, zf: float = 0.5, omega: float = 2.0 * math.pi) -> OdeModel:
    if not (math.isfinite(z0) and z0 > 0):
        raise ValueError(f"z0 must be positive and finite, got {z0}")
    if not (math.isfinite(zf) and zf >= 0):
        raise ValueError(f"zf must be nonnegative and finite, got {zf}")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return OdeModel(
        name="seasonal",
        a_matrix=_BIOMASS_A.copy(),
        spectrum=_BIOMASS_SPECTRUM,
        forcing=Forcing(
            kind="time",
            time_fn=_Bound(_seasonal_forcing, (zf, omega)),
            antiderivative=_Bound(_seasonal_antiderivative, (zf, omega)),
        ),
        initial_state=np.array([0.0, 0.0, z0]),
        exact=_Bound(_seasonal_exact, (z0, zf, omega)),
        params={"z0": z0, "zf": zf, "omega": omega},
    )


_BUILDERS = {
    "oscillator": _make_oscillator,
    "biomass": _make_biomass,
    "trees": _make_trees,
    "seasonal": _make_seasonal,
}


def make_model(kind: str, **params) -> OdeModel:
    """Build a benchmark model by id.

    kind is one of "oscillator" (param x0), "biomass" (z0), "trees"
    (z0, zf), "seasonal" (z0, zf, omega).  Parameter domains are checked,
    and a parameter the model does not take raises ValueError; defaults
    reproduce the reference configurations (x0 = 0.25; z0 = 1, zf = 0.5,
    omega = 2 pi).  A parameter -0.0 is built as 0.0: the two compare
    equal with one hash, so the model functions' cache keys could not tell
    their samples apart.
    """
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ValueError(f"unknown model {kind!r}; valid kinds: {', '.join(_BUILDERS)}")
    takes = inspect.signature(builder).parameters
    if unknown := [name for name in params if name not in takes]:
        raise ValueError(
            f"model {kind!r} takes no parameter {', '.join(unknown)}; valid: {', '.join(takes)}"
        )
    # x + 0.0 is x for every float but -0.0, which it maps to 0.0
    return builder(**{k: v + 0.0 if isinstance(v, float) else v for k, v in params.items()})
