"""Command line behavior: subcommands, exit codes, and output files."""
import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsfdlab.cli as cli
from nsfdlab import bench, make_model

_SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(body: str, tmp_path) -> str:
    """Run body in a fresh interpreter that imports nsfdlab.cli; return stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys\nsys.path.insert(0, {src!r})\nimport nsfdlab.cli as cli\n" + body
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=tmp_path
    )
    return out.stdout


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_writes_error_series_and_report(tmp_path, capsys):
    out = tmp_path / "series.csv"
    rc = run_cli(
        "run", "--model", "biomass", "--scheme", "scalar-nsfd",
        "--dt", "0.1", "--tend", "10", "--out", str(out),
    )
    assert rc == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("model,scheme,dt,")
    fields = row.split(",")
    assert fields[0] == "biomass" and fields[1] == "scalar-nsfd"
    assert float(fields[5]) <= 1e-11  # max relative error of the exact scheme
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rel_error"
    assert len(lines) == 102  # header + 101 grid levels


def test_run_accepts_the_full_norm(tmp_path, capsys):
    out = tmp_path / "series.csv"
    rc = run_cli(
        "run", "--model", "trees", "--scheme", "explicit-euler",
        "--dt", "0.1", "--tend", "1", "--norm", "full", "--out", str(out),
    )
    assert rc == 0
    assert ",full," in capsys.readouterr().out.splitlines()[1]


def test_run_blow_up_still_writes_the_partial_report(tmp_path, capsys):
    out = tmp_path / "blowup.csv"
    rc = run_cli(
        "run", "--model", "oscillator", "--scheme", "explicit-euler",
        "--dt", "2.5", "--tend", "250", "--out", str(out),
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[1].endswith(",18")
    assert captured.err == ""  # a recorded blow-up is a result, not a crash
    assert len(out.read_text().splitlines()) == 19  # header + 18 finite levels


def test_a_model_whose_forcing_is_not_finite_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a NaN forcing value is the model's fault: exit 2 with the message, not
    # exit 3 with the scheme's blow-up at step 6
    seasonal = make_model("seasonal")
    time_fn = seasonal.forcing.time_fn

    def nan_after_half(t):
        values = np.array(time_fn(t), dtype=float)
        values[np.asarray(t) > 0.5] = np.nan
        return values

    broken = dataclasses.replace(
        seasonal, forcing=dataclasses.replace(seasonal.forcing, time_fn=nan_after_half)
    )
    monkeypatch.setattr(cli, "make_model", lambda name, **params: broken)
    out = tmp_path / "x.csv"
    rc = run_cli(
        "run", "--model", "seasonal", "--scheme", "scalar-nsfd",
        "--dt", "0.1", "--tend", "1", "--out", str(out),
    )
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: time forcing test_a_model_whose_forcing_is_not_finite_is_a_usage_error"
        ".<locals>.nan_after_half (n = 3) is not finite on the step from t = 0.5 (rule 'half')\n"
    )
    assert not out.exists()


def test_a_stock_models_bad_forcing_is_named_the_same_in_every_process(tmp_path, capsys):
    # a stock forcing is a bound function: the message names it by its
    # function and parameters, with no memory address
    out = tmp_path / "x.csv"
    rc = run_cli(
        "run", "--model", "seasonal", "--zf", "1e308", "--scheme", "scalar-nsfd",
        "--dt", "0.1", "--tend", "1", "--out", str(out),
    )
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: time forcing _seasonal_forcing(1e+308, 6.283185307179586) (n = 3) "
        "is not finite on the step from t = 0.0 (rule 'half')\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, case, blow_up",
    [
        (["--model", "biomass", "--scheme", "scalar-nsfd", "--dt", "0.1", "--tend", "1"],
         "biomass,scalar-nsfd,0.1,1.0,x", ""),
        (["--model", "seasonal", "--scheme", "scalar-nsfd", "--coeffs", "gamma",
          "--dt", "0.05", "--tend", "2", "--norm", "full"],
         "seasonal,gamma-nsfd,0.05,2.0,full", ""),
        (["--model", "oscillator", "--scheme", "explicit-euler", "--dt", "2.5", "--tend", "250"],
         "oscillator,explicit-euler,2.5,250.0,x", "18"),
    ],
    ids=["biomass", "seasonal-gamma-full", "oscillator-blow-up"],
)
def test_run_row_starts_with_the_case_as_parsed(tmp_path, capsys, argv, case, blow_up):
    # the case's fields come from the command line and the built model and
    # scheme, since the report holds only the run's findings
    rc = run_cli("run", *argv, "--out", str(tmp_path / "x.csv"))
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert ",".join(fields[:5]) == case
    assert fields[-1] == blow_up and rc == (3 if blow_up else 0)


def test_unknown_model_is_a_usage_error(tmp_path, capsys):
    rc = run_cli(
        "run", "--model", "pendulum", "--scheme", "explicit-euler",
        "--dt", "0.1", "--tend", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_scheme_is_a_usage_error(tmp_path, capsys):
    rc = run_cli(
        "run", "--model", "biomass", "--scheme", "rk4",
        "--dt", "0.1", "--tend", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert rc == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_model_parameter_the_model_does_not_take_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    exact = ("exact", "--model", "biomass")
    run = ("run", "--model", "biomass", "--scheme", "explicit-euler")
    for command in (exact, run):
        rc = run_cli(
            *command, "--zf", "9", "--x0", "0.4", "--dt", "0.1", "--tend", "1", "--out", str(out)
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: model 'biomass' takes no parameter x0, zf; valid: z0\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_model_parameter_is_a_usage_error(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    rc = run_cli(
        "exact", "--model", "biomass", "--z0", value, "--dt", "0.1", "--tend", "1", "--out", str(out)
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: z0 must be positive and finite, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["figure", "run"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # a path below an existing file cannot be made: exit 2 with one line,
    # not an uncaught OSError, and run fails before it integrates
    blocker = tmp_path / "e.csv"
    blocker.write_text("x\n")
    runs = []
    monkeypatch.setattr(bench, "run_experiment", lambda *args, **kwargs: runs.append(args))
    if command == "figure":
        argv = ("figure", "--id", "biomass-exact", "--out-dir", str(blocker))
    else:
        argv = (
            "run", "--model", "biomass", "--scheme", "scalar-nsfd",
            "--dt", "0.1", "--tend", "1", "--out", str(blocker / "x.csv"),
        )
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert blocker.read_text() == "x\n"
    assert runs == []


def test_main_reuses_one_parser_without_carrying_options_over(tmp_path, capsys):
    cli._parser.cache_clear()
    case = ("run", "--model", "seasonal", "--scheme", "scalar-nsfd", "--dt", "0.1", "--tend", "1")
    mean, default = tmp_path / "mean.csv", tmp_path / "default.csv"
    assert run_cli(*case, "--forcing-approx", "mean", "--out", str(mean)) == 0
    assert run_cli(*case, "--out", str(default)) == 0
    # a figure after a run still parses its own options
    assert run_cli("figure", "--id", "biomass-exact", "--out-dir", str(tmp_path / "fig")) == 0
    assert (tmp_path / "fig" / "biomass-exact.csv").is_file()
    assert cli._parser.cache_info().misses == 1
    printed = capsys.readouterr().out
    # the second run took the default forcing approximation, as a fresh
    # process does; the first one's flag changed its bytes
    argv = list(case) + ["--out", "fresh.csv"]
    run_fresh(f"assert cli.main({argv!r}) == 0\n", tmp_path)
    assert default.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert mean.read_bytes() != default.read_bytes()
    assert printed.count("model,scheme,dt,") == 2


def test_given_model_parameters_reach_the_model(tmp_path, capsys):
    # --zf reaches make_model as given, and only then: the default differs
    grid = ("--dt", "0.1", "--tend", "1", "--out")
    out, default, lib = tmp_path / "cli.csv", tmp_path / "default.csv", tmp_path / "lib.csv"
    assert run_cli("exact", "--model", "trees", "--zf", "0.3", *grid, str(out)) == 0
    assert run_cli("exact", "--model", "trees", *grid, str(default)) == 0
    bench.write_exact(make_model("trees", zf=0.3), 0.1, 1.0, lib)
    assert out.read_bytes() == lib.read_bytes() != default.read_bytes()


def test_two_level_scheme_with_the_explicit_nonlocal_form_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run_cli(
        "run", "--model", "oscillator", "--scheme", "mickens-osc1", "--nonlocal-b", "explicit",
        "--dt", "0.1", "--tend", "1", "--out", str(out),
    )
    assert rc == 2
    assert "nonlocal form 'explicit'" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_coefficients_flag_requires_the_scalar_scheme(tmp_path, capsys):
    rc = run_cli(
        "run", "--model", "biomass", "--scheme", "explicit-euler", "--coeffs", "gamma",
        "--dt", "0.1", "--tend", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert rc == 2
    assert "scalar-nsfd" in capsys.readouterr().err


def test_gamma_coefficients_flag_selects_the_truncated_scheme(tmp_path, capsys):
    rc = run_cli(
        "run", "--model", "biomass", "--scheme", "scalar-nsfd", "--coeffs", "gamma",
        "--dt", "0.1", "--tend", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "gamma-nsfd"


def test_bad_choice_flags_exit_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(
            "run", "--model", "biomass", "--scheme", "explicit-euler",
            "--forcing-approx", "upwind",
            "--dt", "0.1", "--tend", "1", "--out", str(tmp_path / "x.csv"),
        )
    assert err.value.code == 2


def test_convergence_prints_an_order_table(capsys):
    rc = run_cli(
        "convergence", "--model", "biomass", "--scheme", "explicit-euler",
        "--dts", "0.05,0.025", "--tend", "5", "--norm", "full",
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dt,max_error,order"
    assert lines[1].startswith("0.05,") and lines[1].endswith(",")
    order = float(lines[2].split(",")[2])
    assert 0.8 <= order <= 1.2


def test_convergence_marks_exact_schemes(capsys):
    rc = run_cli(
        "convergence", "--model", "biomass", "--scheme", "scalar-nsfd",
        "--dts", "0.1,0.05", "--tend", "5",
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[2].endswith(",exact")


def test_convergence_rejects_repeated_step_sizes(capsys):
    rc = run_cli(
        "convergence", "--model", "biomass", "--scheme", "explicit-euler",
        "--dts", "0.1,0.1", "--tend", "1",
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "distinct" in captured.err


def test_convergence_blow_up_prints_the_table_then_exits_3(capsys):
    rc = run_cli(
        "convergence", "--model", "oscillator", "--scheme", "explicit-euler",
        "--dts", "2.5,1.25", "--tend", "250", "--norm", "full",
    )
    assert rc == 3
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "dt,max_error,order"
    assert [line.split(",")[0] for line in lines[1:]] == ["2.5", "1.25"]
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])
    assert "dt = 2.5 at step 18" in captured.err


@pytest.mark.filterwarnings("error")
def test_convergence_with_an_infinite_error_prints_an_empty_order(capsys):
    # explicit Euler on biomass blows up at dt 1 and, at dt 0.5, overflows
    # the relative error of finite states against a vanishing exact x
    rc = run_cli(
        "convergence", "--model", "biomass", "--scheme", "explicit-euler",
        "--dts", "1,0.5", "--tend", "600",
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["dt,max_error,order", "1.0,inf,", "0.5,inf,"]
    assert captured.err == "blow-up: dt = 1.0 at step 512\n"


def test_figure_subcommand_writes_files(tmp_path, capsys):
    rc = run_cli("figure", "--id", "trees-exact", "--out-dir", str(tmp_path))
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 2
    assert (tmp_path / "trees-exact.csv").exists()
    assert (tmp_path / "trees-exact.gp").exists()


def test_figure_unknown_id_is_a_usage_error(tmp_path, capsys):
    rc = run_cli("figure", "--id", "figure-42", "--out-dir", str(tmp_path))
    assert rc == 2
    assert "valid" in capsys.readouterr().err


def test_figure_with_several_ids_is_the_one_id_calls(tmp_path, capsys):
    ids = ("trees-exact", "biomass-error")
    singles = []
    for figure_id in ids:
        assert run_cli("figure", "--id", figure_id, "--out-dir", str(tmp_path / "one")) == 0
        singles += capsys.readouterr().out.splitlines()
    assert run_cli("figure", "--id", *ids, "--out-dir", str(tmp_path / "both")) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line.replace(str(tmp_path / "one"), str(tmp_path / "both")) for line in singles]
    one, both = (sorted((tmp_path / d).iterdir()) for d in ("one", "both"))
    assert [p.name for p in one] == [p.name for p in both]
    assert len(one) == 2 + 16  # trees-exact's table and script, biomass-error's 15 and script
    for a, b in zip(one, both):
        assert a.read_bytes() == b.read_bytes(), a.name


@pytest.mark.parametrize(
    "ids, expected",
    [
        (("all", "biomass-exact"), sorted(bench.FIGURES)),
        (("biomass-exact", "biomass-exact"), ["biomass-exact"]),
        (("trees-exact", "all"), ["trees-exact"] + sorted(set(bench.FIGURES) - {"trees-exact"})),
    ],
)
def test_figure_runs_each_figure_once(tmp_path, capsys, monkeypatch, ids, expected):
    calls = []

    def run_figure(figure_id, out_dir):
        calls.append(figure_id)
        return [Path(out_dir) / f"{figure_id}.csv", Path(out_dir) / f"{figure_id}.gp"]

    monkeypatch.setattr(bench, "run_figure", run_figure)
    assert run_cli("figure", "--id", *ids, "--out-dir", str(tmp_path)) == 0
    assert calls == expected
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 * len(expected) == len(set(printed))


def test_an_unknown_id_among_several_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "new"
    rc = run_cli("figure", "--id", "trees-exact", "figure-42", "--out-dir", str(out_dir))
    assert rc == 2
    captured = capsys.readouterr()
    assert "valid" in captured.err and captured.err.rstrip().endswith("trees-exact, all")
    assert captured.out == ""
    assert not out_dir.exists()
    assert list(tmp_path.iterdir()) == []


def test_exact_subcommand_samples_the_solution(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    rc = run_cli(
        "exact", "--model", "oscillator", "--dt", "0.1", "--tend", "1", "--out", str(out)
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 12  # header + 11 samples
    assert float(lines[1].split(",")[1]) == 0.25


@pytest.mark.parametrize(
    "dt, tend, message",
    [
        ("-0.1", "1", "dt must be positive and finite"),
        ("0.1", "-1", "t_end must be finite and at least dt"),
        ("inf", "1", "dt must be positive and finite"),
        ("0", "1", "dt must be positive and finite"),
        # a usage error, not a numerical failure: no run starts
        ("1e-320", "1", "t_end / dt = 1.0 / 1e-320 = inf steps is not a finite count"),
    ],
)
def test_exact_and_run_reject_the_same_step_sizes(tmp_path, capsys, dt, tend, message):
    # the output's directory is made only for valid step sizes
    out = tmp_path / "d" / "x.csv"
    exact = ("exact", "--model", "biomass")
    run = ("run", "--model", "biomass", "--scheme", "explicit-euler")
    for command in (exact, run):
        assert run_cli(*command, "--dt", dt, "--tend", tend, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.parent.exists()


@pytest.mark.parametrize("command", ["run", "exact"])
def test_a_horizon_memory_cannot_hold_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # dt 1e-6 to t = 1e6 is 1e12 levels, terabytes of states or samples:
    # the allocation's MemoryError is stood in for, never made
    message = "Unable to allocate 21.8 TiB for an array with shape (3, 1000000000001)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(bench, "run_experiment", out_of_memory)
    monkeypatch.setattr(bench, "write_exact", out_of_memory)
    out = tmp_path / "x.csv"
    argv = ["--model", "biomass", "--dt", "1e-6", "--tend", "1e6", "--out", str(out)]
    if command == "run":
        argv += ["--scheme", "scalar-nsfd"]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_identical_invocations_are_byte_identical(tmp_path):
    args = (
        "run", "--model", "seasonal", "--scheme", "scalar-nsfd",
        "--dt", "0.01", "--tend", "2",
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_help_exact_and_reference_schemes_load_no_scipy(tmp_path):
    # only the exact-alpha coefficients and the oscillator's elliptic
    # functions need scipy, and each loads its part on first use
    body = (
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert cli.main(['exact', '--model', 'biomass', '--dt', '0.1', '--tend', '1',"
        " '--out', 'e.csv']) == 0\n"
        "for scheme in ('explicit-euler', 'implicit-euler', 'traditional-nsfd'):\n"
        "    assert cli.main(['run', '--model', 'trees', '--scheme', scheme, '--dt', '0.1',"
        " '--tend', '1', '--out', 'r.csv']) == 0\n"
        f"print({_SCIPY_MODULES})\n"
    )
    assert run_fresh(body, tmp_path).splitlines()[-1] == "[]"
    assert len((tmp_path / "e.csv").read_text().splitlines()) == 12


def test_exact_alpha_schemes_leave_scipy_linalg_unloaded(tmp_path):
    # the exact-alpha coefficients come from matkit's own exp/phi1 kernel,
    # and no nsfdlab module imports scipy.linalg: only the tests load it,
    # for scipy's expm as their oracle
    body = (
        "assert cli.main(['run', '--model', 'seasonal', '--scheme', 'scalar-nsfd', '--dt', '0.1',"
        " '--tend', '1', '--out', 'r.csv']) == 0\n"
        "assert cli.main(['figure', '--id', 'seasonal-error', '--out-dir', 'fig']) == 0\n"
        "assert cli.main(['run', '--model', 'oscillator', '--scheme', 'corrected-osc', '--dt',"
        " '0.1', '--tend', '1', '--out', 'o.csv']) == 0\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "print('ok')\n"
    )
    assert run_fresh(body, tmp_path).splitlines()[-1] == "ok"
