"""Error measurement, convergence studies, and figure-data generation."""
import dataclasses
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nsfdlab as nl
import nsfdlab.bench as bench
import nsfdlab.models as mo
import nsfdlab.schemes as sch


# ---------------------------------------------------------------------------
# relative error series
# ---------------------------------------------------------------------------


def test_exact_scheme_error_series_is_rounding_level(biomass):
    traj, series, report = nl.run_experiment(biomass, nl.SchemeSpec("scalar-nsfd"), 0.1, 10.0)
    assert report.max_error <= 1e-11
    # the initial x component vanishes, so level 0 uses the absolute error
    assert bool(series.absolute_fallback[0]) is True
    assert series.errors[0] == 0.0


def test_first_euler_level_has_unit_relative_error(biomass):
    # Euler leaves x at zero after one step while the exact x is positive:
    # the relative error at level 1 is exactly one
    _, series, _ = nl.run_experiment(biomass, nl.SchemeSpec("explicit-euler"), 0.1, 1.0)
    assert series.errors[1] == 1.0


def test_vanishing_exact_solution_falls_back_to_absolute_error(biomass):
    traj = nl.integrate(biomass, nl.SchemeSpec("explicit-euler"), 0.1, 1.0)
    series = nl.relative_error_series(traj, lambda t: np.zeros(3), norm="x")
    assert bool(np.all(series.absolute_fallback))
    np.testing.assert_allclose(series.errors, np.abs(traj.states[:, 0]), rtol=0, atol=0)


def test_seasonal_level_zero_is_exact(seasonal):
    # the closed form vanishes exactly at t = 0 in its x and y components,
    # so level 0 takes the absolute-error fallback and reads 0, not 1
    np.testing.assert_array_equal(seasonal.exact(0.0), seasonal.initial_state)
    for params in ({"zf": 0.3, "omega": 1.3}, {"zf": 2.0, "omega": 7.0}):
        model = nl.make_model("seasonal", **params)
        np.testing.assert_array_equal(model.exact(0.0), model.initial_state)
    _, series, _ = nl.run_experiment(seasonal, nl.SchemeSpec("scalar-nsfd"), 0.01, 1.0, norm="x")
    assert series.errors[0] == 0.0
    assert bool(series.absolute_fallback[0]) is True


def test_full_norm_error_is_the_euclidean_ratio(trees):
    traj = nl.integrate(trees, nl.SchemeSpec("explicit-euler"), 0.1, 1.0)
    series = nl.relative_error_series(traj, trees.exact, norm="full")
    k = 5
    exact = trees.exact(traj.times[k])
    expected = np.linalg.norm(traj.states[k] - exact) / np.linalg.norm(exact)
    assert abs(series.errors[k] - expected) <= 1e-15


def test_full_norm_error_of_huge_finite_states_is_finite(oscillator):
    # explicit Euler at dt = 2.5 reaches finite states near 1e262 before it
    # blows up; squaring them in the plain norm would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, series, report = nl.run_experiment(
            oscillator, nl.SchemeSpec("explicit-euler"), 2.5, 250.0, norm="full"
        )
    exact = oscillator.exact(traj.times)
    oracle = [
        math.hypot(*(x - e)) / math.hypot(*e) for x, e in zip(traj.states, exact)
    ]
    assert report.blow_up_step == 18
    assert math.isfinite(report.max_error)
    assert abs(report.max_error - max(oracle)) <= 1e-14 * max(oracle)
    np.testing.assert_allclose(series.errors, oracle, rtol=1e-14, atol=0)


def _norm_oracle(rows):
    """np.linalg.norm of each row, rows whose squares overflow rescaled by
    their largest entry."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    redo = ~np.isfinite(norms) & np.isfinite(rows).all(axis=1)
    scale = np.max(np.abs(rows[redo]), axis=1, initial=0.0)
    norms[redo] = scale * np.linalg.norm(rows[redo] / scale[:, None], axis=1)
    return norms


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_norms_equal_numpys_norm_bitwise(n):
    rng = np.random.default_rng(n)
    rows = np.exp(rng.uniform(-690, 690, (4000, n))) * rng.choice((-1.0, 1.0), (4000, n))
    # rows at one magnitude, from tiny through overflowing squares to the
    # edge of the range, then zeros and non-finite entries
    magnitudes = 10.0 ** np.arange(-300, 301, 20)
    rows = np.vstack(
        [rows, magnitudes[:, None] * rng.uniform(0.1, 1.0, (len(magnitudes), n))]
        + [np.full((1, n), v) for v in (0.0, -0.0, 1.7e308, np.inf, -np.inf, np.nan)]
        + [np.column_stack([np.full(2, v), np.ones((2, n - 1))]) for v in (np.inf, np.nan)]
    )
    with np.errstate(over="ignore"):  # the rows of 1.7e308 have no finite norm
        expected = _norm_oracle(rows)
        got = bench._row_norms(rows)
    assert np.isfinite(expected).sum() > 4000 and (expected > 1e154).sum() > 100
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
    keep = ~np.isnan(expected)
    np.testing.assert_array_equal(got[keep].view(np.uint64), expected[keep].view(np.uint64))


def _counting(model):
    """The model with its exact solution wrapped in a fresh function that
    records every call."""
    calls = []

    def exact(t):
        calls.append(np.shape(t))
        return model.exact(t)

    return dataclasses.replace(model, exact=exact), calls


def test_runs_on_one_grid_sample_the_exact_solution_once(oscillator):
    model, calls = _counting(oscillator)
    for _, scheme in bench.FIGURES["oscillator-error"]["schemes"]:
        nl.run_experiment(model, scheme, 0.01, 5.0, norm="full")
    assert calls == [(501,)]
    nl.run_experiment(model, nl.SchemeSpec("explicit-euler"), 0.02, 5.0)
    nl.run_experiment(model, nl.SchemeSpec("explicit-euler"), 0.01, 4.0)
    assert calls == [(501,), (251,), (401,)]
    other, other_calls = _counting(nl.make_model("oscillator", x0=0.3))
    nl.run_experiment(other, nl.SchemeSpec("explicit-euler"), 0.01, 5.0)
    assert len(calls) == 3 and other_calls == [(501,)]


def test_a_figure_samples_each_of_its_step_sizes_once(tmp_path, monkeypatch):
    calls = []
    make_model = bench.make_model

    def counting_model(kind):
        model, model_calls = _counting(make_model(kind))
        calls.append(model_calls)
        return model

    monkeypatch.setattr(bench, "make_model", counting_model)
    written = nl.run_figure("seasonal-error", tmp_path)
    assert len(written) == 16
    assert calls == [[(101,), (1001,), (10001,)]]


@pytest.mark.parametrize(
    "model_kind, dt, t_end, norm, scheme_table",
    [
        ("oscillator", 0.01, 5.0, "full", bench.FIGURES["oscillator-error"]["schemes"]),
        ("seasonal", 0.001, 10.0, "x", bench.FIGURES["seasonal-forcing-comparison"]["schemes"]),
    ],
)
def test_cached_samples_give_the_uncached_errors_bitwise(model_kind, dt, t_end, norm, scheme_table):
    model = nl.make_model(model_kind)
    for _, scheme in scheme_table:
        for _ in range(2):  # the second run hits the cache
            traj, series, report = nl.run_experiment(model, scheme, dt, t_end, norm=norm)
            expected = nl.relative_error_series(traj, model.exact, norm)
            assert len(series.errors) == len(expected.errors) == len(traj.times)
            assert report.t_reached == float(traj.times[-1])
            assert series.errors.tobytes() == expected.errors.tobytes()
            np.testing.assert_array_equal(series.absolute_fallback, expected.absolute_fallback)
            assert report.max_error == float(np.max(expected.errors))
            assert report.final_error == float(expected.errors[-1])


def test_an_unhashable_exact_solution_is_sampled_on_every_run(biomass):
    @dataclasses.dataclass
    class CountingExact:
        calls: int = 0

        def __call__(self, t):
            self.calls += 1
            return biomass.exact(t)

    exact = CountingExact()
    model = dataclasses.replace(biomass, exact=exact)
    for _ in range(2):
        traj, series, _ = nl.run_experiment(model, nl.SchemeSpec("explicit-euler"), 0.1, 1.0)
    assert exact.calls == 2
    expected = nl.relative_error_series(traj, biomass.exact)
    assert series.errors.tobytes() == expected.errors.tobytes()


def test_euler_and_traditional_errors_are_comparable(biomass):
    # order-of-magnitude comparability, checked in both norms
    for norm in ("x", "full"):
        _, _, euler = nl.run_experiment(biomass, nl.SchemeSpec("explicit-euler"), 0.1, 10.0, norm=norm)
        _, _, trad = nl.run_experiment(biomass, nl.SchemeSpec("traditional-nsfd"), 0.1, 10.0, norm=norm)
        assert 0.1 <= euler.max_error / trad.max_error <= 10.0


# ---------------------------------------------------------------------------
# observed order and convergence studies
# ---------------------------------------------------------------------------


def test_observed_order_synthetic_values():
    assert nl.observed_order(0.04, 0.01) == 2.0
    assert nl.observed_order(5e-13, 5e-13) == "exact"
    # above the floor on either side, the same ratio is a measured order
    assert nl.observed_order(5e-11, 5e-11) == 0.0
    assert nl.observed_order(4e-11, 5e-12) == 3.0
    # without a finite error on both sides there is no order
    for pair in ((math.inf, math.inf), (math.inf, 1e-3), (1e-3, math.inf), (math.nan, 1e-3)):
        assert nl.observed_order(*pair) is None, pair
    # nor beside a coarse error of exactly zero, unless both are at noise level
    assert nl.observed_order(0.0, 1e-3) is None
    assert nl.observed_order(0.0, 1e-12) == "exact"
    with pytest.raises(ValueError, match="nonnegative"):
        nl.observed_order(-math.inf, 1e-3)


def test_an_overflowing_relative_error_is_inf_without_a_warning(biomass):
    # explicit Euler at dt 0.5 grows (spectral radius 1.5) to finite states
    # near 1e211, while the exact x decays below 1e-260: the ratio overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, series, report = nl.run_experiment(
            biomass, nl.SchemeSpec("explicit-euler"), 0.5, 600.0
        )
    assert report.blow_up_step is None and np.isfinite(traj.states).all()
    assert math.isinf(report.max_error)
    overflowed = np.isinf(series.errors)
    assert overflowed.any() and not series.absolute_fallback[overflowed].any()
    assert not np.isnan(series.errors).any()


def test_convergence_study_euler_is_first_order(biomass):
    study = nl.convergence_study(
        biomass, nl.SchemeSpec("explicit-euler"), (0.05, 0.025, 0.0125), 10.0, norm="full"
    )
    assert len(study.max_errors) == 3 and len(study.orders) == 2
    for order in study.orders:
        assert 0.85 <= order <= 1.1


def test_convergence_study_flags_exact_schemes(biomass):
    study = nl.convergence_study(biomass, nl.SchemeSpec("scalar-nsfd"), (0.1, 0.05), 10.0)
    assert study.orders == ("exact",)


def paper_order(model, kind, approx):
    """The order of accuracy the paper gives a (model, scheme, forcing
    approximation) cell, in the full norm."""
    if kind in ("explicit-euler", "implicit-euler", "traditional-nsfd"):
        return 1.0
    if model in ("biomass", "trees"):
        # exact for a constant forcing; gamma truncates at order n = 3
        return "exact" if kind in ("matrix-nsfd", "scalar-nsfd") else 3.0
    if model == "seasonal":
        return 2.0 if approx in ("middle", "half", "mean") else 1.0
    # the Mickens recurrences reconstruct the velocity to first order
    return 1.0 if kind in ("mickens-osc1", "mickens-osc2") else 2.0


def test_order_of_accuracy_matrix():
    cells = []
    for name in ("biomass", "trees", "seasonal", "oscillator"):
        for kind in sch.SCHEME_KINDS:
            if kind in sch.SECOND_ORDER_KINDS and name != "oscillator":
                continue
            # only the seasonal forcing depends on time, and the Euler
            # schemes fix their own time sample
            varies = name == "seasonal" and kind not in ("explicit-euler", "implicit-euler")
            for approx in sch.FORCING_APPROXES if varies else ("half",):
                cells.append((name, kind, approx))
    assert len(cells) == 43
    misses = []
    for name, kind, approx in cells:
        study = nl.convergence_study(
            nl.make_model(name),
            nl.SchemeSpec(kind, forcing_approx=approx),
            (0.04, 0.02, 0.01),
            5.0,
            norm="full",
        )
        expected = paper_order(name, kind, approx)
        if not all(
            order == expected if "exact" in (order, expected) else abs(order - expected) <= 0.15
            for order in study.orders
        ):
            misses.append((name, kind, approx, study.orders, expected))
    assert misses == []


def test_convergence_study_needs_two_step_sizes(biomass):
    with pytest.raises(ValueError):
        nl.convergence_study(biomass, nl.SchemeSpec("explicit-euler"), (0.1,), 1.0)


@pytest.mark.parametrize("dts", [(0.1, 0.1), (0.1, 0.05, 0.1)])
def test_convergence_study_rejects_repeated_step_sizes(biomass, dts):
    with pytest.raises(ValueError, match="distinct"):
        nl.convergence_study(biomass, nl.SchemeSpec("explicit-euler"), dts, 1.0)


def test_report_carries_the_blow_up_step(oscillator):
    _, _, report = nl.run_experiment(oscillator, nl.SchemeSpec("explicit-euler"), 2.5, 250.0)
    assert report.blow_up_step == 18
    assert math.isfinite(report.max_error) and math.isfinite(report.final_error)


@pytest.mark.parametrize(
    "name, kind, dt, t_end, x0, t_reached",
    [
        ("biomass", "explicit-euler", 0.3, 1.0, None, 0.9),  # 3 whole steps fit in 1.0
        ("oscillator", "explicit-euler", 2.5, 250.0, None, 42.5),  # level 18 is not finite
        # x_16 overflows, so level 15's velocity is not finite
        ("oscillator", "mickens-osc1", 0.5, 50.0, (2.0, 0.0), 7.0),
    ],
)
def test_report_records_the_time_reached(name, kind, dt, t_end, x0, t_reached):
    model = nl.make_model(name)
    if x0 is None:
        traj, _, report = nl.run_experiment(model, nl.SchemeSpec(kind), dt, t_end)
        assert report.t_reached == float(traj.times[-1])
        blow_up_step = report.blow_up_step
    else:
        # a start outside make_model's domain (0, 1/2), where the two-level
        # recurrence blows up; its exact solution starts elsewhere, so
        # run_experiment refuses it (see
        # test_run_experiment_rejects_a_start_off_the_exact_solution) and the
        # trajectory's times are checked alone
        model = dataclasses.replace(model, initial_state=np.array(x0))
        traj = nl.integrate(model, nl.SchemeSpec(kind), dt, t_end)
        blow_up_step = traj.blow_up_step
        assert blow_up_step == 15
    assert float(traj.times[-1]) == pytest.approx(t_reached, rel=1e-15)
    if blow_up_step is not None:
        # the last finite level, one step before the first non-finite one
        assert float(traj.times[-1]) == pytest.approx((blow_up_step - 1) * dt, rel=1e-15)


@pytest.mark.parametrize(
    "name, kind, dt, t_end, x0",
    [
        ("biomass", "scalar-nsfd", 0.1, 10.0, (0.0, 0.0, 2.0)),  # twice the stock start
        ("oscillator", "mickens-osc1", 0.5, 50.0, (2.0, 0.0)),
    ],
)
def test_run_experiment_rejects_a_start_off_the_exact_solution(name, kind, dt, t_end, x0):
    # the integration starts at x0, but exact() is still the solution from
    # make_model's start: the errors would measure the distance between two
    # solutions (biomass under its exact scheme would report max_error 1.0)
    stock = nl.make_model(name)
    model = dataclasses.replace(stock, initial_state=np.array(x0))
    with pytest.raises(ValueError) as raised:
        nl.run_experiment(model, nl.SchemeSpec(kind), dt, t_end)
    message = str(raised.value)
    gap = np.max(np.abs(np.array(x0) - stock.initial_state))
    for part in (repr(name), str(list(x0)), str(stock.exact(0.0).tolist()), f"{gap:.3e}"):
        assert part in message


@pytest.mark.parametrize("name", ["oscillator", "biomass", "trees", "seasonal"])
def test_run_experiment_accepts_the_stock_starts_and_rounding(name):
    # every stock model's exact solution starts at its initial state
    # exactly (the oscillator's velocity as -0.0); a start one rounding
    # away is still accepted
    model = nl.make_model(name)
    np.testing.assert_array_equal(model.exact(np.zeros(1))[0], model.initial_state)
    nudged = dataclasses.replace(model, initial_state=np.nextafter(model.initial_state, 2.0))
    _, series, _ = nl.run_experiment(nudged, nl.SchemeSpec("explicit-euler"), 0.1, 1.0)
    assert series.errors[0] <= 1e-15


def test_a_model_without_a_spectrum_steps_on_the_eigenvalue_fallback():
    # alpha's eigenvalues then come from np.linalg.eigvals: the step is the
    # declared spectrum's to rounding, through run_experiment and through a
    # run that ends at a blow-up
    biomass = nl.make_model("biomass")
    oscillator = nl.make_model("oscillator")
    no_spectrum = {
        "biomass": dataclasses.replace(biomass, spectrum=None),
        "oscillator": dataclasses.replace(oscillator, spectrum=None),
    }
    for model, kind in [(biomass, "scalar-nsfd"), (oscillator, "corrected-osc")]:
        declared = nl.StepContext(model, nl.SchemeSpec(kind), 0.1)
        fallback = nl.StepContext(no_spectrum[model.name], nl.SchemeSpec(kind), 0.1)
        np.testing.assert_allclose(fallback.q, declared.q, rtol=0, atol=1e-15)
        np.testing.assert_allclose(fallback.d, declared.d, rtol=0, atol=1e-15)
        _, _, expected = nl.run_experiment(model, nl.SchemeSpec(kind), 0.1, 1.0)
        _, _, report = nl.run_experiment(no_spectrum[model.name], nl.SchemeSpec(kind), 0.1, 1.0)
        assert report.max_error == pytest.approx(expected.max_error, rel=1e-9, abs=1e-14)
    for kind in ("scalar-nsfd", "corrected-osc"):
        scheme = nl.SchemeSpec(kind)
        traj = nl.integrate(no_spectrum["oscillator"], scheme, 0.1, 4.0, x0=[3.0, 1e308])
        assert traj.blow_up_step is not None
    # the other schemes never read the spectrum
    for kind in ("gamma-nsfd", "matrix-nsfd", "explicit-euler"):
        traj = nl.integrate(no_spectrum["biomass"], nl.SchemeSpec(kind), 0.1, 1.0)
        expected = nl.integrate(biomass, nl.SchemeSpec(kind), 0.1, 1.0)
        assert traj.states.tobytes() == expected.states.tobytes()


def test_oscillator_scheme_ranking_at_small_dt(oscillator):
    max_error = {}
    for kind in ("corrected-osc", "mickens-osc2", "mickens-osc1", "explicit-euler", "implicit-euler"):
        _, _, report = nl.run_experiment(oscillator, nl.SchemeSpec(kind), 0.001, 35.0, norm="full")
        max_error[kind] = report.max_error
    assert max_error["corrected-osc"] < max_error["mickens-osc2"]
    assert max_error["mickens-osc2"] <= max_error["mickens-osc1"]
    assert max_error["mickens-osc1"] < max_error["explicit-euler"]
    assert max_error["mickens-osc1"] < max_error["implicit-euler"]


def test_run_records_hold_only_the_findings():
    # the caller holds the model, scheme, dt, t_end and norm it passed
    fields = {cls: [f.name for f in dataclasses.fields(cls)]
              for cls in (nl.ExperimentReport, nl.ErrorSeries)}
    assert fields == {
        nl.ExperimentReport: ["max_error", "final_error", "blow_up_step", "t_reached"],
        nl.ErrorSeries: ["errors", "absolute_fallback"],
    }
    # every error figure is measured in run_experiment's default norm
    assert [i for i, spec in bench.FIGURES.items() if "norm" in spec] == []


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def test_run_figure_rejects_unknown_ids(tmp_path):
    with pytest.raises(ValueError, match="trees-exact"):
        nl.run_figure("figure-42", tmp_path)


def test_trees_exact_figure_contents(tmp_path):
    paths = nl.run_figure("trees-exact", tmp_path)
    assert [p.name for p in paths] == ["trees-exact.csv", "trees-exact.gp"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 1002  # header + floor(10/0.01) + 1 samples
    first = [float(tok) for tok in lines[1].split(",")]
    np.testing.assert_allclose(first, [0.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-15)


def test_write_exact_refuses_a_model_with_more_states_than_column_names(tmp_path):
    # x' = -x on four states: t,x,y,z cannot name five columns
    decay = mo.OdeModel(
        name="decay-4",
        a_matrix=-np.eye(4),
        spectrum=((-1.0, 4),),
        forcing=mo.Forcing(kind="none"),
        initial_state=np.ones(4),
        exact=lambda t: np.multiply.outer(np.exp(-np.asarray(t, dtype=float)), np.ones(4)),
    )
    with pytest.raises(ValueError, match="n = 4"):
        bench.write_exact(decay, 0.1, 1.0, tmp_path / "e.csv")
    assert not (tmp_path / "e.csv").exists()


def test_csv_values_keep_the_fstring_bytes(tmp_path):
    rows = [[0.0, -0.0, 5e-324], [0.5, 1.0, 1e300]]  # t = k * 0.5, then the values
    path = tmp_path / "values.csv"
    bench.write_csv(path, "t,a,b", 0.5, tuple(np.array(rows)[:, 1:].T))
    expected = "t,a,b\n" + "\n".join(",".join(f"{v:.16e}" for v in row) for row in rows) + "\n"
    assert path.read_bytes() == expected.encode()
    assert path.read_text().splitlines()[1:] == [
        "0.0000000000000000e+00,-0.0000000000000000e+00,4.9406564584124654e-324",
        "5.0000000000000000e-01,1.0000000000000000e+00,1.0000000000000001e+300",
    ]


def test_figure_output_is_deterministic(tmp_path):
    a = nl.run_figure("trees-exact", tmp_path / "a")
    b = nl.run_figure("trees-exact", tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_oscillator_error_figure_layout(tmp_path):
    paths = nl.run_figure("oscillator-error", tmp_path)
    names = {p.name for p in paths}
    schemes = ("explicit-euler", "implicit-euler", "mickens-osc1", "mickens-osc2", "corrected-osc")
    dts = ("0.05", "0.01", "0.001", "0.0005")
    expected = {f"oscillator-error_{s}_{dt}.csv" for s in schemes for dt in dts}
    expected.add("oscillator-error.gp")
    assert names == expected
    assert len(paths) == 21

    sample = tmp_path / "oscillator-error_corrected-osc_0.05.csv"
    lines = sample.read_text().splitlines()
    assert lines[0] == "t,rel_error"
    assert len(lines) == 702  # header + floor(35/0.05) + 1 rows

    script = (tmp_path / "oscillator-error.gp").read_text()
    assert "set logscale y" in script
    assert "oscillator-error_corrected-osc_0.05.csv" in script


def test_seasonal_forcing_comparison_layout(tmp_path):
    paths = nl.run_figure("seasonal-forcing-comparison", tmp_path)
    csvs = [p.name for p in paths if p.suffix == ".csv"]
    assert len(csvs) == 8  # four strategies for each coefficient kind
    for kind in ("scalar-nsfd", "gamma-nsfd"):
        for approx in ("left", "middle", "half", "mean"):
            assert f"seasonal-forcing-comparison_{kind}-{approx}_0.001.csv" in csvs
    assert paths[-1].suffix == ".gp"


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _percent_e_csv(header, table):
    """The oracle: the per-row formatter write_csv replaced, one '%.16e'
    row template per row of tolist() values, joined by newlines."""
    table = np.asarray(table, dtype=float)
    row_format = ",".join(["%.16e"] * table.shape[1])
    lines = [header] + [row_format % tuple(row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


def _on_the_grid(dt, table):
    """The table with the times k dt, k = 0..len(table) - 1, as its first
    column: the rows write_csv writes for dt and the table's columns."""
    table = np.asarray(table, dtype=float)
    return np.column_stack((np.arange(len(table)) * dt, table))


def _written(tmp_path, table, header="h", dt=0.1):
    path = tmp_path / "table.csv"
    bench.write_csv(path, header, dt, tuple(table.T))
    return path.read_bytes()


def _decimal_ties(p):
    """The doubles (2k+1)/2 * 2^-p whose 10^p multiple (2k+1) 5^p / 2 lies in
    [1e16, 1e17): %.16e rounds them from exactly half-way between two
    17-digit mantissas.  Ties exist for p = 1..24 only; these are the two
    ends of each p's range and some between."""
    five = 5**p
    first = -(-2 * 10**16 // five) | 1
    last = min(2 * 10**17 // five, 2**53 - 1)
    if last % 2 == 0:
        last -= 1
    odd = sorted({first, last, *range(first, last + 1, 2 * max(1, (last - first) // 14))})
    return [math.ldexp(n, -p - 1) for n in odd]


def _first_multiple_in(a, m, lo, hi):
    """The least x >= 0 with lo <= a x mod m <= hi (0 <= lo <= hi < m), or
    None; a Euclid-like descent on (a, m)."""
    if lo == 0:
        return 0
    a %= m
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _first_multiple_in(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def _near_ties(p, per_k, eps=1e-15):
    """Doubles v = N 2^-(k+p), N in [2^52, 2^53), whose 10^p multiple
    N 5^p / 2^k lies in [1e16, 1e17) within eps of a half-integer: inputs
    whose rounding the double-double product cannot decide.  For each k,
    the first per_k such N, found by solving N 5^p mod 2^k in
    [2^(k-1) - eps 2^k, 2^(k-1) + eps 2^k]."""
    five = 5**p
    out = []
    for k in range(((five << 52) // 10**17).bit_length(), (five << 53).bit_length()):
        m = 1 << k
        n = max(2**52, -(-(10**16 << k) // five))
        end = min(2**53, -(-(10**17 << k) // five))
        band = int(m * eps)
        for _ in range(per_k):
            base = n * five % m
            lo, hi = (m // 2 - band - base) % m, (m // 2 + band - base) % m
            spans = [(lo, hi)] if lo <= hi else [(lo, m - 1), (0, hi)]
            steps = [_first_multiple_in(five, m, *span) for span in spans]
            steps = [x for x in steps if x is not None]
            if n >= end or not steps or n + min(steps) >= end:
                break
            n += min(steps)
            out.append(math.ldexp(n, -k - p))
            n += 1
    return out


# Near-ties whose tail lands on the wrong side of 1/2 without the guard band
# (found by _near_ties with 20 per k over p = 1..296).
_GUARD_BAND_CASES = (
    float.fromhex("0x1.70f4d8d6e3f4cp-304"),
    float.fromhex("0x1.93e838c059d66p-682"),
    float.fromhex("0x1.57a340eb5d4f1p-760"),
)


def _edge_values():
    """Zeros, non-finite values, subnormals, the kernel's domain ends,
    every 10^k with its neighbours for k in [-300, 300], decimal ties and
    near-ties at every exponent p > 0."""
    special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e-280, 1e280, 0.5, 1.0, 9.999999999999999e16]
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    with np.errstate(over="ignore"):
        neighbours = [np.nextafter(v, toward) for v in (special, powers) for toward in (math.inf, -math.inf)]
    values = np.concatenate((
        special,
        powers,
        *neighbours,
        [v for p in range(1, 25) for v in _decimal_ties(p)],
        [v for p in range(1, 297) for v in _near_ties(p, 1)],
        _GUARD_BAND_CASES,
    ))
    return np.concatenate((values, -values))


def test_write_csv_matches_percent_e_on_edge_values(tmp_path):
    values = _edge_values()
    for cols in (1, 3):
        table = np.resize(values, (-(-len(values) // cols), cols))
        assert _written(tmp_path, table) == _percent_e_csv("h", _on_the_grid(0.1, table))


def test_records_survive_a_log10_rounded_down_across_a_power_of_ten(monkeypatch):
    # numpy's log10 is exact at powers of ten, so the scaled floor never
    # reaches 10^17 here; a libm whose log10 is one ulp low puts it there,
    # and those rows must take the fallback, not index past _leads
    powers = np.array([float(f"1e{k}") for k in range(-279, 280)])
    values = [powers]
    for toward in (math.inf, -math.inf):
        near = powers
        for _ in range(4):
            near = np.nextafter(near, toward)
            values.append(near)
    values = np.concatenate(values)
    real_log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: np.nextafter(real_log10(x), -np.inf))
    records = bench._records(values)
    assert len(values) == 5031
    assert [bytes(r).replace(b"\0", b"").decode() for r in records] == ["%.16e" % v for v in values]


def test_write_csv_matches_percent_e_on_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20240601)
    table = rng.integers(0, 2**64, (2**15, 4), dtype=np.uint64).view(np.float64)
    assert _written(tmp_path, table, dt=1e-102) == _percent_e_csv("h", _on_the_grid(1e-102, table))


_bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64))
)
_ties = st.integers(1, 24).flatmap(lambda p: st.sampled_from(_decimal_ties(p)))
_power_neighbours = st.builds(
    lambda k, toward: float(np.nextafter(float(f"1e{k}"), toward)),
    st.integers(-300, 300),
    st.sampled_from([math.inf, -math.inf]),
)
_signed = st.builds(lambda v, neg: -v if neg else v, st.one_of(_bit_patterns, _ties, _power_neighbours), st.booleans())


@given(
    cols=st.integers(1, 4),
    rows=st.sampled_from([0, 1, 2, 2047, 2048, 2049]),
    # times with two- and three-digit exponents, and subnormal ones
    dt=st.sampled_from([0.001, 0.1, 3.0, 1e-102, 1e300, 5e-324]),
    seed=st.integers(0, 2**32 - 1),
    special=st.lists(st.tuples(st.integers(0, 2**20), _signed), max_size=24),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_csv_matches_percent_e_byte_for_byte(tmp_path, cols, rows, dt, seed, special):
    # random bit patterns throughout, drawn values at drawn positions
    flat = np.random.default_rng(seed).integers(0, 2**64, rows * cols, dtype=np.uint64).view(np.float64)
    for position, value in special:
        if rows:
            flat[position % flat.size] = value
    table = flat.reshape(rows, cols)
    header = "t,a,b,c,d"[: 2 * cols + 1]
    assert _written(tmp_path, table, header, dt) == _percent_e_csv(header, _on_the_grid(dt, table))


@pytest.mark.parametrize("figure", ["seasonal-error", "oscillator-exact"])
def test_figure_tables_keep_the_per_row_bytes(tmp_path, monkeypatch, figure):
    # every table a figure writes goes through write_csv
    written = []
    write_csv = bench.write_csv

    def recording_csv(path, header, dt, columns):
        write_csv(path, header, dt, columns)
        written.append((Path(path), header, _on_the_grid(dt, np.column_stack(columns))))

    monkeypatch.setattr(bench, "write_csv", recording_csv)
    nl.run_figure(figure, tmp_path)
    assert len(written) == (15 if figure == "seasonal-error" else 1)
    assert {path for path, _, _ in written} == set(tmp_path.glob("*.csv"))
    for path, header, table in written:
        assert path.read_bytes() == _percent_e_csv(header, table), path.name


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _uncached(monkeypatch):
    """Bypass the grid-sample cache: every sampler computes on every call."""
    monkeypatch.setattr(sch, "grid_samples", lambda fn, *args: fn(*args))


def test_a_figure_formats_each_grids_time_column_once(tmp_path, monkeypatch, count_grid_samples):
    time_columns = count_grid_samples(bench, "_time_records")
    nl.run_figure("seasonal-error", tmp_path / "cold")
    assert time_columns.counts() == (3, 12)  # 3 step sizes, 5 schemes each
    nl.run_figure("seasonal-error", tmp_path / "warm")
    assert time_columns.counts() == (3, 27)
    # every table formatting its own time column gives the same bytes
    _uncached(monkeypatch)
    nl.run_figure("seasonal-error", tmp_path / "uncached")
    cold = _tree_bytes(tmp_path / "cold")
    assert len(cold) == 16
    assert cold == _tree_bytes(tmp_path / "warm") == _tree_bytes(tmp_path / "uncached")


def test_exact_figures_share_the_time_column_cache(tmp_path, monkeypatch, count_grid_samples):
    time_columns = count_grid_samples(bench, "_time_records")
    exact_samples = count_grid_samples(bench, "_sampled_exact")
    nl.run_figure("biomass-exact", tmp_path / "cold")
    nl.run_figure("biomass-exact", tmp_path / "warm")
    assert time_columns.counts() == exact_samples.counts() == (1, 1)
    # the exact samples come through grid_samples as run_experiment's do
    _uncached(monkeypatch)
    nl.run_figure("biomass-exact", tmp_path / "uncached")
    cold = _tree_bytes(tmp_path / "cold")
    assert len(cold) == 2
    assert cold == _tree_bytes(tmp_path / "warm") == _tree_bytes(tmp_path / "uncached")


@pytest.mark.parametrize(
    "error_figure, exact_figure",
    [("biomass-error", "biomass-exact"), ("seasonal-error", "seasonal-exact")],
)
def test_exact_figures_reuse_the_error_figures_samples(
    tmp_path, count_grid_samples, error_figure, exact_figure
):
    # the exact figure's grid, dt 0.01 on [0, 10], is the error figure's
    # second step size, and run_figure builds a model of equal parameters
    exact_samples = count_grid_samples(bench, "_sampled_exact")
    nl.run_figure(error_figure, tmp_path)
    nl.run_figure(exact_figure, tmp_path)
    assert exact_samples.counts() == (3, 13)  # 5 schemes on 3 grids, and the exact table


def test_a_cold_seasonal_error_computes_9_of_its_15_forcing_evaluations(
    tmp_path, count_grid_samples
):
    # 5 schemes on 3 grids: explicit Euler takes the left value, implicit
    # Euler the right one, and traditional-, gamma- and scalar-nsfd share
    # the default "half"
    forcing = count_grid_samples(sch, "_grid_forcing")
    nl.run_figure("seasonal-error", tmp_path / "cold")
    assert forcing.counts() == (9, 6)
    # a second pass, on a model built again, evaluates none
    nl.run_figure("seasonal-error", tmp_path / "warm")
    assert forcing.counts() == (9, 21)
    assert _tree_bytes(tmp_path / "cold") == _tree_bytes(tmp_path / "warm")


@pytest.mark.parametrize("figure", ["seasonal-error", "seasonal-forcing-comparison"])
def test_figures_keep_their_bytes_with_every_cache_bypassed(tmp_path, monkeypatch, figure):
    nl.run_figure(figure, tmp_path / "cold")
    nl.run_figure(figure, tmp_path / "warm")
    _uncached(monkeypatch)
    nl.run_figure(figure, tmp_path / "uncached")
    cold = _tree_bytes(tmp_path / "cold")
    assert cold == _tree_bytes(tmp_path / "warm") == _tree_bytes(tmp_path / "uncached")


@dataclasses.dataclass
class _MutableCallable:
    """fn behind a mutable dataclass instance, which has no hash."""

    fn: object

    def __call__(self, t):
        return self.fn(t)


@pytest.mark.parametrize(
    "sampler, grid_args",
    [
        (bench._sampled_exact, lambda m: (m.exact, 0.1, 11)),
        (
            sch._grid_forcing,
            lambda m: (m.forcing.time_fn, m.forcing.antiderivative, "mean", 0.1, 10),
        ),
        (bench._time_records, lambda m: (0.1, 11)),
    ],
    ids=["exact", "forcing", "time-records"],
)
def test_grid_samples_keep_read_only_entries_by_value_and_nothing_unhashable(sampler, grid_args):
    calls = []

    def counted(*args):
        calls.append(args)
        return sampler(*args)

    # the keys of two model builds: equal _Bound functions, not one object
    first, second = grid_args(nl.make_model("seasonal")), grid_args(nl.make_model("seasonal"))
    assert first == second
    sch._grid_cache.cache_clear()
    kept = sch.grid_samples(counted, *first)
    assert sch.grid_samples(counted, *second) is kept and len(calls) == 1
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept.flat[0] = 0
    # an unhashable first argument (a mutable callable, or dt as a 0-d
    # array) is computed on every call, and nothing is kept
    lead = first[0]
    unhashable = (np.array(lead) if isinstance(lead, float) else _MutableCallable(lead),)
    size = sch._grid_cache.cache_info().currsize
    values = [sch.grid_samples(counted, *unhashable, *first[1:]) for _ in range(2)]
    assert len(calls) == 3 and sch._grid_cache.cache_info().currsize == size == 1
    assert values[0] is not values[1]
    assert values[0].tobytes() == values[1].tobytes() == kept.tobytes()


def _error_csv(tmp_path, dt, errors):
    path = tmp_path / "errors.csv"
    bench.write_csv(path, "t,rel_error", dt, (errors,))
    return path.read_bytes()


@pytest.mark.parametrize(
    "dt, special, paths",
    [
        (0.01, 0.0, [True, True, True]),  # a zero is a standard-length fallback
        (0.01, math.inf, [False, False, True]),
        (0.01, math.nan, [False, False, True]),
        (0.01, 1e-120, [False, False, True]),  # a 3-digit exponent in the kernel
        (0.01, 1e-300, [False, False, True]),  # a 3-digit exponent from the fallback
        (1e-102, None, [False, True, True]),  # times below 1e-99 in the first block
    ],
)
def test_error_tables_match_percent_e_on_both_paths(
    tmp_path, monkeypatch, count_grid_samples, dt, special, paths
):
    # 4,100 rows: two full blocks of 2,048 and a short one; the special
    # values sit at both ends of the first block and the start of the second
    taken = []
    fixed_width = bench._fixed_width

    def recording(fields):
        taken.append(fixed_width(fields))
        return taken[-1]

    monkeypatch.setattr(bench, "_fixed_width", recording)
    errors = np.random.default_rng(11).uniform(1e-16, 0.5, 4100)
    if special is not None:
        errors[[0, 2047, 2048, 2049]] = special
    expected = _percent_e_csv("t,rel_error", _on_the_grid(dt, errors))
    time_columns = count_grid_samples(bench, "_time_records")
    for _ in range(2):  # the second table takes its times from the cache
        assert _error_csv(tmp_path, dt, errors) == expected
    assert taken == paths * 2
    assert time_columns.counts() == (1, 1)


def test_time_columns_of_equal_length_grids_are_cached_apart(tmp_path, count_grid_samples):
    # the figures never write two grids of one length with different step
    # sizes, so the cache key's dt is checked here
    time_columns = count_grid_samples(bench, "_time_records")
    errors = np.linspace(0.0, 1.0, 50)
    for dt in (0.1, 0.2, 0.1):
        expected = _percent_e_csv("t,rel_error", _on_the_grid(dt, errors))
        assert _error_csv(tmp_path, dt, errors) == expected
    assert time_columns.counts() == (2, 1)


def test_cli_run_writes_the_error_table_bytes(tmp_path):
    # nsfdlab run writes its error series through the same writer
    from nsfdlab import cli

    out = tmp_path / "run.csv"
    assert cli.main(["run", "--model", "seasonal", "--scheme", "scalar-nsfd",
                     "--dt", "0.01", "--tend", "10", "--out", str(out)]) == 0
    seasonal, scheme = nl.make_model("seasonal"), nl.SchemeSpec("scalar-nsfd")
    traj, series, _ = nl.run_experiment(seasonal, scheme, 0.01, 10.0)
    table = np.column_stack((traj.times, series.errors))
    assert out.read_bytes() == _percent_e_csv("t,rel_error", table)


def test_written_files_end_every_line_in_lf(tmp_path):
    paths = nl.run_figure("trees-exact", tmp_path) + nl.run_figure("biomass-error", tmp_path)
    assert {p.suffix for p in paths} == {".csv", ".gp"}
    for path in paths:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


@pytest.mark.parametrize(
    "columns",
    [
        (),
        (np.zeros((2, 2)), np.zeros(2)),
        (np.zeros(2), np.zeros((2, 2))),
        (np.zeros(2), np.zeros(3)),
        (1.0, 2.0),
        # a table in the old (rows, cols) layout must not be written transposed
        np.zeros((5, 2)),
        np.zeros(3),
        np.zeros((2, 3, 4)),
        np.zeros((5, 0)),
        np.zeros((0, 0)),
    ],
    ids=["no-columns", "2d-first-column", "2d-column", "unequal-lengths", "scalars",
         "rows-by-columns-array", "1d-array", "3d-array", "no-columns-array", "empty-array"],
)
def test_write_csv_rejects_anything_but_1d_columns_of_one_length(tmp_path, columns):
    with pytest.raises(ValueError, match="columns"):
        bench.write_csv(tmp_path / "x.csv", "a", 0.1, columns)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("dt", [0.0, -0.0, -0.1, math.nan, math.inf, -math.inf])
def test_write_csv_rejects_a_step_that_is_not_positive_and_finite(tmp_path, dt):
    # step_count's check and message, before any file is opened
    with pytest.raises(ValueError, match="^dt must be positive and finite$"):
        bench.write_csv(tmp_path / "x.csv", "t,a", dt, (np.zeros(3),))
    assert not (tmp_path / "x.csv").exists()


def test_write_csv_of_zero_rows_writes_the_header_only(tmp_path):
    assert _written(tmp_path, np.zeros((0, 1)), "t,x") == b"t,x\n"


def test_dt_labels_of_figures_and_cli_step_sizes_are_unchanged():
    labels = {
        0.1: "0.1", 0.05: "0.05", 0.025: "0.025", 0.01: "0.01", 0.001: "0.001",
        0.0005: "0.0005", 0.00001: "0.00001", 1.0: "1.0", 2.5: "2.5", 1.25: "1.25",
    }
    figure_dts = set()
    for spec in bench.FIGURES.values():
        figure_dts.update(spec.get("dts", ()) or (spec["dt"],))
    assert figure_dts <= set(labels)
    assert {dt: bench.dt_label(dt) for dt in labels} == labels


def test_dt_labels_keep_every_significant_digit():
    tiny = [1e-11, 4e-11, 1e-12, 1.5e-11]
    assert len({bench.dt_label(dt) for dt in tiny}) == len(tiny)
    assert bench.dt_label(1.23456789012e-4) == "0.000123456789012"
    for dt in tiny + [1 / 3, 0.1 + 0.2, 7e-9, 123.456]:
        assert float(bench.dt_label(dt)) == dt


def test_import_builds_no_csv_tables_and_loads_no_decimal_modules():
    # the writer's tables are built on first use, from Python ints alone
    src = str(Path(nl.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import nsfdlab\n"
        "from nsfdlab import bench, schemes\n"
        "tables = (bench._scales, bench._digit_quads, bench._leads, bench._tails, bench._exponents,"
        " schemes._grid_cache)\n"
        "print(sum(t.cache_info().currsize for t in tables),"
        " 'fractions' in sys.modules, 'decimal' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False", "False"]
