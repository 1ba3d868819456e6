"""Error measurement, convergence studies, and figure-data generation."""
import math
import warnings

import numpy as np
import pytest

import nsfdlab as nl
import nsfdlab.bench as bench
import nsfdlab.models as mo


# ---------------------------------------------------------------------------
# relative error series
# ---------------------------------------------------------------------------


def test_exact_scheme_error_series_is_rounding_level(biomass):
    traj, series, report = nl.run_experiment(biomass, nl.SchemeSpec("scalar-nsfd"), 0.1, 10.0)
    assert report.max_error <= 1e-11
    # the initial x component vanishes, so level 0 uses the absolute error
    assert bool(series.absolute_fallback[0]) is True
    assert series.errors[0] == 0.0
    assert series.norm == "x"


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
    assert isinstance(nl.observed_order(5e-13, 5e-13, exact_floor=1e-14), float)


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


def test_convergence_study_needs_two_step_sizes(biomass):
    with pytest.raises(ValueError):
        nl.convergence_study(biomass, nl.SchemeSpec("explicit-euler"), (0.1,), 1.0)


def test_report_carries_the_blow_up_step(oscillator):
    _, _, report = nl.run_experiment(oscillator, nl.SchemeSpec("explicit-euler"), 2.5, 250.0)
    assert report.blow_up_step == 18
    assert report.model == "oscillator" and report.scheme == "explicit-euler"
    assert math.isfinite(report.max_error) and math.isfinite(report.final_error)


def test_oscillator_scheme_ranking_at_small_dt(oscillator):
    max_error = {}
    for kind in ("corrected-osc", "mickens-osc2", "mickens-osc1", "explicit-euler", "implicit-euler"):
        _, _, report = nl.run_experiment(oscillator, nl.SchemeSpec(kind), 0.001, 35.0, norm="full")
        max_error[kind] = report.max_error
    assert max_error["corrected-osc"] < max_error["mickens-osc2"]
    assert max_error["mickens-osc2"] <= max_error["mickens-osc1"]
    assert max_error["mickens-osc1"] < max_error["explicit-euler"]
    assert max_error["mickens-osc1"] < max_error["implicit-euler"]


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


def test_csv_values_keep_the_fstring_bytes(tmp_path):
    values = [-0.0, 5e-324, 1.0, 1e300]
    path = tmp_path / "values.csv"
    bench.write_csv(path, "a,b", np.array([values[:2], values[2:]]))
    expected = "a,b\n" + "\n".join(
        ",".join(f"{v:.16e}" for v in row) for row in (values[:2], values[2:])
    ) + "\n"
    assert path.read_bytes() == expected.encode()
    assert path.read_text().splitlines()[1:] == [
        "-0.0000000000000000e+00,4.9406564584124654e-324",
        "1.0000000000000000e+00,1.0000000000000001e+300",
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
