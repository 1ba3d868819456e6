"""End-to-end acceptance checks, one test per shipped guarantee.

Every tolerance is fixed here, not tuned at run time.  Each test prints a
single "criterion NN name: PASS/FAIL (...)" line outside the capture, so
the verdict of every criterion is visible in the console log even when the
suite is run without -s, and then asserts on the same condition.
"""
import math
import time

import numpy as np
import pytest

import nsfdlab.bench as bench
import nsfdlab.matkit as mk
import nsfdlab.schemes as sc
from nsfdlab.bench import EUCLIDEAN_FULL, run_experiment
from nsfdlab.schemes import SchemeSpec


@pytest.fixture
def announce(capsys):
    def _announce(num: int, name: str, ok: bool, detail: str) -> str:
        line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        return line

    return _announce


def least_squares_slope(dts, errors) -> float:
    return float(np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(errors)), 1)[0])


def ode_residual(model, ts, h: float) -> float:
    """Worst centered-difference defect of the stored exact solution."""
    worst = 0.0
    for t in ts:
        fd = (model.exact(t + h) - model.exact(t - h)) / (2.0 * h)
        defect = np.abs(fd - model.rhs(t, model.exact(t)))
        worst = max(worst, float(np.max(defect)))
    return worst


def test_criterion_01_linear_exactness(biomass, announce):
    start = time.perf_counter()
    _, _, report = run_experiment(biomass, SchemeSpec(sc.SCALAR_NSFD), 0.1, 10.0)
    elapsed = time.perf_counter() - start
    ok = report.max_error <= 1e-11 and elapsed < 1.0
    line = announce(
        1, "linear-exactness", ok,
        f"max rel error {report.max_error:.2e} <= 1e-11, runtime {elapsed:.3f} s < 1 s",
    )
    assert ok, line


def test_criterion_02_forced_exactness(trees, announce):
    errors = [
        run_experiment(trees, SchemeSpec(sc.SCALAR_NSFD), dt, 10.0)[2].max_error
        for dt in (0.1, 0.01, 0.001)
    ]
    ok = max(errors) <= 1e-11
    line = announce(
        2, "forced-exactness", ok,
        "max rel error " + ", ".join(f"{e:.2e}" for e in errors) + " <= 1e-11 at dt 0.1/0.01/0.001",
    )
    assert ok, line


def test_criterion_03_matrix_scalar_equivalence(biomass, trees, seasonal, announce):
    gaps = []
    for model in (biomass, trees, seasonal):
        for dt in (0.1, 0.01):
            matrix = sc.integrate(model, SchemeSpec(sc.MATRIX_NSFD), dt, 10.0)
            scalar = sc.integrate(model, SchemeSpec(sc.SCALAR_NSFD), dt, 10.0)
            gaps.append(float(np.max(np.abs(matrix.states - scalar.states))))
    ok = max(gaps) <= 1e-12
    line = announce(
        3, "matrix-scalar-equivalence", ok,
        f"worst componentwise gap {max(gaps):.2e} <= 1e-12 over 3 models x 2 step sizes",
    )
    assert ok, line


def test_criterion_04_truncated_scheme_order(biomass, announce):
    dts = (0.1, 0.05, 0.025)
    errors = [
        run_experiment(biomass, SchemeSpec(sc.GAMMA_NSFD), dt, 10.0, norm=EUCLIDEAN_FULL)[2].max_error
        for dt in dts
    ]
    slope = least_squares_slope(dts, errors)
    pairwise = [math.log(errors[i] / errors[i + 1]) / math.log(2.0) for i in range(2)]
    ok = 2.7 <= slope <= 3.3
    line = announce(
        4, "truncated-scheme-order", ok,
        f"log-log slope {slope:.2f} in [2.7, 3.3] (pairwise {pairwise[0]:.2f}, {pairwise[1]:.2f})",
    )
    assert ok, line


def test_criterion_05_oscillator_improvement(oscillator, announce):
    """corrected-osc's max full-norm error at dt 0.001 to t = 35 is at most
    1e-2 of mickens-osc1's; it reads 6.4e-3.

    The ratio measures two changes together: corrected-osc's velocity
    readout, which adds tan(dt/2) x_k x_{k+1} to Mickens' first-order
    y_k = (x_{k+1} - cos(dt) x_k)/sin(dt), and its nonlinearity without the
    cos^2(dt/2) factor of Mickens' scheme, which integrates
    x'' + x + cos^2(dt/2) x^2 = 0.  On x alone the recurrences are both
    second order and mickens-osc1 is the more accurate: its largest x
    error over the largest |x| is 6.4e-7, beside corrected-osc's 7.46e-7
    (test_schemes' per-component tests pin the orders).  On y it is 1.69e-4
    against 8.91e-7, 190x.
    """
    corrected = run_experiment(
        oscillator, SchemeSpec(sc.CORRECTED_OSC), 0.001, 35.0, norm=EUCLIDEAN_FULL
    )[2].max_error
    mickens = run_experiment(
        oscillator, SchemeSpec(sc.MICKENS_OSC1), 0.001, 35.0, norm=EUCLIDEAN_FULL
    )[2].max_error
    ratio = corrected / mickens
    ok = ratio <= 0.01
    line = announce(
        5, "oscillator-improvement", ok,
        f"corrected/mickens1 max-error ratio {ratio:.2e} <= 1e-2 at dt = 0.001",
    )
    assert ok, line


def test_criterion_06_no_secular_growth(oscillator, announce):
    # late/early ratio of windowed max errors; a flat error profile stays
    # near 1, a linearly growing one lands near t_late/t_early.  The three
    # recurrences are symmetric in x_{k+1}, x_{k-1}, hence reversible, and a
    # reversible scheme on an integrable one-degree-of-freedom system keeps
    # its energy error bounded while its O(dt^2) frequency error makes the
    # phase, and with it the state error, drift linearly in t (Hairer, Lubich
    # & Wanner, Geometric Numerical Integration, 2nd ed., 2006, ch. X).  So
    # secular growth is judged on the invariant: the relative energy error
    # |E(X_k) - E_0| / E_0 must stay flat.  The state error is held to the
    # linear-drift bound t_late / t_early, which still catches anything
    # faster than linear.
    def window_ratios(kind: str) -> tuple[float, float]:
        traj, series, _ = run_experiment(
            oscillator, SchemeSpec(kind), 0.01, 35.0, norm=EUCLIDEAN_FULL
        )
        e0 = oscillator.energy(traj.states[0])
        drift = np.array([abs(oscillator.energy(x) - e0) / e0 for x in traj.states])
        early, late = traj.times <= 5.0, traj.times >= 30.0
        energy = float(np.max(drift[late]) / np.max(drift[early]))
        state = float(np.max(series.errors[late]) / np.max(series.errors[early]))
        return energy, state

    linear_bound = 35.0 / 5.0
    ratios = {kind: window_ratios(kind) for kind in sc.SECOND_ORDER_KINDS}
    euler_energy, euler_state = window_ratios(sc.EXPLICIT_EULER)
    ok = (
        all(energy <= 2.0 and state <= linear_bound for energy, state in ratios.values())
        and euler_energy >= 5.0
    )
    detail = ", ".join(
        f"{kind} {energy:.3f}/{state:.3f}" for kind, (energy, state) in ratios.items()
    )
    line = announce(
        6, "no-secular-growth", ok,
        f"late/early energy/state ratios: {detail} (bounds 2.0/{linear_bound:.1f});"
        f" explicit-euler {euler_energy:.3f}/{euler_state:.3f} (energy bound >= 5.0)",
    )
    assert ok, line


def test_criterion_07_seasonal_order(seasonal, announce):
    dts = (0.1, 0.05, 0.025)
    scheme = SchemeSpec(sc.SCALAR_NSFD, forcing_approx=sc.FORCING_HALF)
    errors = [
        run_experiment(seasonal, scheme, dt, 10.0, norm=EUCLIDEAN_FULL)[2].max_error
        for dt in dts
    ]
    slope = least_squares_slope(dts, errors)
    ok = 1.7 <= slope <= 2.3
    line = announce(
        7, "seasonal-order", ok, f"log-log slope {slope:.2f} in [1.7, 2.3]"
    )
    assert ok, line


def test_criterion_08_coefficient_expansions(biomass, rotation_matrix, announce):
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    cases = (
        ("rotation", rotation_matrix, None),
        ("biomass", biomass.a_matrix, biomass.spectrum),
    )
    details = []
    ok = True
    for label, a, spectrum in cases:
        n = a.shape[0]
        gaps = np.array(
            [
                [
                    abs(mk.alpha_coeffs(a, spectrum, dt).values[j] - dt**j / math.factorial(j))
                    for dt in dts
                ]
                for j in range(n)
            ]
        )
        slopes = [least_squares_slope(dts, gaps[j]) for j in range(n)]
        cf = mk.correction_factors(a, mk.alpha_coeffs(a, spectrum, 0.01))
        lead = (
            0.01 ** (n - 1)
            / math.factorial(n)
            * (-1.0) ** (n - 1)
            * np.linalg.det(a)
            * np.linalg.inv(a)
        )
        rel = float(np.linalg.norm(cf.r0 - lead) / np.linalg.norm(lead))
        ok = ok and min(slopes) >= n - 0.2 and rel <= 0.10
        details.append(
            f"{label}: alpha-gap slopes {'/'.join(f'{s:.2f}' for s in slopes)} >= {n - 0.2:.1f},"
            f" R0 leading-term error {rel:.3f} <= 0.10"
        )
    line = announce(8, "coefficient-expansions", ok, "; ".join(details))
    assert ok, line


def test_criterion_09_special_functions(oscillator, announce):
    from nsfdlab.models import jacobi_sn, jacobi_sn_cn_dn

    grid = np.linspace(-10.0, 10.0, 401)
    sin_gap = max(abs(jacobi_sn(u, 0.0) - math.sin(u)) for u in grid)
    tanh_gap = max(abs(jacobi_sn(u, 1.0) - math.tanh(u)) for u in grid)
    identity_gap = 0.0
    for m in (0.1, 0.3, 0.6, 0.9):
        for u in np.linspace(-20.0, 20.0, 250):
            s, c, _ = jacobi_sn_cn_dn(u, m)
            identity_gap = max(identity_gap, abs(s * s + c * c - 1.0))
    ts = np.linspace(0.5, 34.5, 200)
    ratio = ode_residual(oscillator, ts, 2e-4) / ode_residual(oscillator, ts, 1e-4)
    ok = (
        sin_gap <= 1e-12
        and tanh_gap <= 1e-12
        and identity_gap <= 1e-12
        and 3.5 <= ratio <= 4.5
    )
    line = announce(
        9, "special-functions", ok,
        f"sn limits {sin_gap:.1e}/{tanh_gap:.1e} <= 1e-12, sn^2+cn^2 gap {identity_gap:.1e}"
        f" <= 1e-12 at 1000 points, residual h-halving ratio {ratio:.2f} in [3.5, 4.5]",
    )
    assert ok, line


def test_criterion_10_exact_solution_transcription(biomass, trees, seasonal, announce):
    ts = np.linspace(0.1, 10.0, 200)
    residuals = {
        model.name: ode_residual(model, ts, 1e-4)
        for model in (biomass, trees, seasonal)
    }
    ok = max(residuals.values()) <= 1e-6
    detail = ", ".join(f"{name} {r:.2e}" for name, r in residuals.items())
    line = announce(
        10, "exact-solution-transcription", ok, f"FD residuals {detail} <= 1e-6 at h = 1e-4"
    )
    assert ok, line
