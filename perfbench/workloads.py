"""The benchmark's three workloads and the tracer that splits them by layer.

Every workload drives nsfdlab from outside, through its public calls, and
changes nothing in the package.  A workload is prepared once per run from
the seed, then repeated as timed passes; each pass is checked afterwards,
outside the timed region.

Per-layer numbers come from traced passes.  A traced pass wraps, from this
file, the callables each layer calls: the model's exact solution and
forcing functions (rebuilt with dataclasses.replace), and the bench
module's references to run_figure, run_experiment and integrate (swapped
for the duration of the pass and restored afterwards).
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy.linalg

from nsfdlab import SchemeSpec, StepContext, bench, cli, integrate, make_model, matkit

# An integrating case passes when its max error exceeds the stored
# reference by no more than this share; an improvement passes.
REL_TOL = 1e-6
# A coefficient case passes when its propagator is within this relative
# max-norm gap of the oracle.
GAP_TOL = 1e-10

MODEL_KINDS = ("oscillator", "biomass", "trees", "seasonal")


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

class Tracer:
    """Total time, self time and call count per span name, kept in memory.

    A span's self time is its duration minus that of the spans nested in it.
    """

    def __init__(self):
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = Counter()
        self._open = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.total[name] += elapsed
                self.own[name] += elapsed
                self.calls[name] += 1
                if self._open:
                    self.own[self._open[-1]] -= elapsed

        return traced


class NoTracer:
    """Used for untraced passes: wraps nothing, so they run the plain calls."""

    def wrap(self, name, fn):
        return fn


def traced_model(model, tracer):
    """The model with its exact solution and forcing callables traced."""
    forcing = model.forcing
    fns = {
        attr: tracer.wrap(f"models.{attr}", getattr(forcing, attr))
        for attr in ("time_fn", "state_fn")
        if getattr(forcing, attr) is not None
    }
    return dataclasses.replace(
        model,
        exact=tracer.wrap("models.exact", model.exact),
        forcing=dataclasses.replace(forcing, **fns),
    )


@contextlib.contextmanager
def traced_library(tracer):
    """Route bench's calls into run_figure, run_experiment and integrate
    through spans, and trace every model run_experiment receives."""
    if isinstance(tracer, NoTracer):
        yield
        return
    saved = {name: getattr(bench, name) for name in ("run_figure", "run_experiment", "integrate")}

    def run_experiment(model, scheme, *args, **kwargs):
        before = tracer.calls["models.state_fn"]
        out = saved["run_experiment"](traced_model(model, tracer), scheme, *args, **kwargs)
        if scheme.kind == "implicit-euler":
            tracer.calls["implicit.state_fn"] += tracer.calls["models.state_fn"] - before
            tracer.calls["implicit.steps"] += len(out[0].times) - 1
        return out

    def counting_integrate(*args, **kwargs):
        traj = saved["integrate"](*args, **kwargs)
        tracer.calls["schemes.steps"] += len(traj.times) - 1
        return traj

    bench.run_figure = tracer.wrap("bench.run_figure", saved["run_figure"])
    bench.run_experiment = tracer.wrap("bench.run_experiment", run_experiment)
    bench.integrate = tracer.wrap("schemes.integrate", counting_integrate)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(bench, name, fn)


def _per(num, den):
    return num / den if den else 0.0


def integrating_layers(tracer):
    """Per-layer metrics of one traced pass of an integrating workload.
    Metrics of spans that never ran (no CLI call, no implicit Euler) are
    left out, so the results file lists them as unmeasured."""
    steps = tracer.calls["schemes.steps"]
    forcing_calls = tracer.calls["models.time_fn"] + tracer.calls["models.state_fn"]
    out = {
        "schemes.integrate_s": tracer.total["schemes.integrate"],
        "schemes.ns_per_step": 1e9 * _per(tracer.total["schemes.integrate"], steps),
        "schemes.forcing_calls_per_step": _per(forcing_calls, steps),
        "models.exact_s": tracer.total["models.exact"],
        "models.exact_calls": tracer.calls["models.exact"],
        "bench.error_self_s": tracer.own["bench.run_experiment"],
    }
    if tracer.calls["implicit.steps"]:
        out["schemes.fp_evals_per_step"] = tracer.calls["implicit.state_fn"] / tracer.calls["implicit.steps"]
    if tracer.calls["bench.run_figure"]:
        out["bench.output_s"] = tracer.own["bench.run_figure"]
    if tracer.calls["cli.main"]:
        out["cli.self_s"] = tracer.own["cli.main"]
    return out


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a raising case is recorded as
    failed and the pass goes on."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is a recorded outcome
        return exc


def _timed(times, key, fn, *args):
    """_attempt(fn, *args), adding its wall time to times[key]."""
    start = time.perf_counter()
    out = _attempt(fn, *args)
    times[key] = times.get(key, 0.0) + time.perf_counter() - start
    return out


def _error_profile(errors):
    """Figure-norm max error, the level where it occurs, and the max over
    levels >= 1 (which a level-0 artifact cannot mask)."""
    errors = np.asarray(errors, dtype=float)
    return {
        "max_error": float(np.max(errors)),
        "argmax_level": int(np.argmax(errors)),
        "max_error_from_level1": float(np.max(errors[1:])) if errors.size > 1 else math.nan,
        "steps": int(errors.size - 1),
    }


def _within_reference(profile, ref):
    """True when no stored error of ref is exceeded by more than REL_TOL.
    A missing reference fails; NaN compares false and so fails too."""
    return ref is not None and all(
        profile[key] <= ref[key] * (1.0 + REL_TOL)
        for key in ("max_error", "max_error_from_level1")
    )


def _experiment_record(case, out, ref):
    """Check one run_experiment result against its stored reference."""
    if isinstance(out, Exception):
        return {"case": case, "ok": False, "error": repr(out)}
    _, series, report = out
    profile = _error_profile(series.errors)
    ok = report.blow_up_step is None and _within_reference(profile, ref)
    return {"case": case, "ok": ok, **profile}


class Integrating:
    """Shared by the workloads that integrate: work is integrated steps."""

    def work(self, records):
        return sum(r.get("steps", 0) for r in records)

    def layers(self, tracer, records):
        return integrating_layers(tracer)

    def defect_probe(self):
        """No operation of these workloads is left out of the timed passes
        as a known defect (the level-0 artifact is recorded per case)."""
        return []


# --------------------------------------------------------------------------
# osc-long
# --------------------------------------------------------------------------

class OscLong(Integrating):
    """The oscillator with the five oscillator-error schemes, 5000 steps
    each: loads the stepping loop, implicit Euler's fixed point and the
    scalar exact solution.

    The horizon is 5 rather than the figure's 35: the per-step work is the
    same, and sub-second cases give a run some thirty samples of each, where
    the 4 s implicit-Euler case at t = 35 gave four and its median wandered
    with the host's speed.
    """

    name = "osc-long"
    schemes = ("explicit-euler", "implicit-euler", "mickens-osc1", "mickens-osc2", "corrected-osc")
    dt, t_end, norm = 1e-3, 5.0, "full"

    def __init__(self, seed, references, work_dir):
        order = np.random.default_rng(seed).permutation(len(self.schemes))
        self.order = [self.schemes[i] for i in order]
        self.refs = references
        self.model = make_model("oscillator", x0=0.25)

    def run_pass(self, tracer):
        outputs, times = {}, {}
        with traced_library(tracer):
            for kind in self.order:
                outputs[kind] = _timed(
                    times, kind, bench.run_experiment,
                    self.model, SchemeSpec(kind), self.dt, self.t_end, self.norm,
                )
        return times, outputs

    def check(self, outputs):
        return [_experiment_record(kind, out, self.refs.get(kind)) for kind, out in outputs.items()]


# --------------------------------------------------------------------------
# seasonal-figures
# --------------------------------------------------------------------------

QUADRATURE_CASE = "quadrature_scalar-nsfd-mean_0.001"


class SeasonalFigures(Integrating):
    """The two seasonal figures through the CLI, plus one integral-mean case
    whose forcing has no antiderivative (Gauss-Legendre fallback): loads
    time-dependent forcing, the one-step kernels, the closed-form exact
    solution and CSV output."""

    name = "seasonal-figures"
    figures = ("seasonal-forcing-comparison", "seasonal-error")

    def __init__(self, seed, references, work_dir):
        items = self.figures + (QUADRATURE_CASE,)
        order = np.random.default_rng(seed).permutation(len(items))
        self.order = [items[i] for i in order]
        self.refs = references
        self.work_dir = work_dir
        seasonal = make_model("seasonal")
        self.quadrature_model = dataclasses.replace(
            seasonal, forcing=dataclasses.replace(seasonal.forcing, antiderivative=None)
        )
        self.quadrature_scheme = SchemeSpec("scalar-nsfd", forcing_approx="mean")

    def run_pass(self, tracer):
        out_dir = Path(tempfile.mkdtemp(prefix="figures-", dir=self.work_dir))
        main = tracer.wrap("cli.main", cli.main)
        outputs, times = {"out_dir": out_dir}, {}
        with traced_library(tracer):
            for item in self.order:
                if item == QUADRATURE_CASE:
                    outputs[item] = _timed(
                        times, item, bench.run_experiment,
                        self.quadrature_model, self.quadrature_scheme, 1e-3, 10.0, "x",
                    )
                    continue
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = _timed(times, item, main, ["figure", "--id", item, "--out-dir", str(out_dir)])
                outputs[item] = (code, printed.getvalue().split())
        return times, outputs

    def check(self, outputs):
        out_dir = outputs.pop("out_dir")
        records = []
        try:
            for item, out in outputs.items():
                if item == QUADRATURE_CASE:
                    records.append(_experiment_record(item, out, self.refs.get(item)))
                else:
                    records.extend(self._check_figure(item, *out))
        finally:
            shutil.rmtree(out_dir)
        return records

    def _check_figure(self, figure, code, printed):
        """One record per CSV, expected or printed.  A CSV passes when the
        CLI exited 0 and wrote the gnuplot script, and its errors are no
        worse than the reference."""
        paths = {Path(p).name: Path(p) for p in printed}
        cli_ok = code == 0 and f"{figure}.gp" in paths and paths[f"{figure}.gp"].is_file()
        expected = {name for name in self.refs if name.startswith(figure + "_")}
        records = []
        for name in sorted(expected | {n for n in paths if n.endswith(".csv")}):
            path = paths.get(name)
            if path is None or not path.is_file():
                records.append({"case": name, "ok": False, "error": "not written"})
                continue
            profile = _error_profile(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1])
            ok = cli_ok and _within_reference(profile, self.refs.get(name))
            records.append({"case": name, "ok": ok, "output_bytes": path.stat().st_size, **profile})
        return records

    def layers(self, tracer, records):
        out = integrating_layers(tracer)
        out["bench.output_bytes"] = sum(r.get("output_bytes", 0) for r in records)
        return out


# --------------------------------------------------------------------------
# coeff-sweep
# --------------------------------------------------------------------------

SPECTRUM_CLASSES = ("distinct", "clustered", "repeated", "complex")
CLUSTER_GAPS = (1e-3, 1e-5, 1e-7, 1e-9)
COEFF_DTS = (1e-1, 1e-2, 1e-3)
SIZES = range(2, 7)
MATRICES_PER_CELL = 4
ONE_STEP_SCHEMES = (
    "explicit-euler", "implicit-euler", "traditional-nsfd",
    "matrix-nsfd", "scalar-nsfd", "gamma-nsfd",
)
# Known defects.  The root fallback recovers eigenvalues by Durand-Kerner
# iteration, which converges poorly on multiple and near-multiple roots
# (gaps up to 7e-2, or a singular solve); the correction factors lose
# accuracy on Jordan blocks of size 5 and 6 (gaps up to 3e-9 in a few
# seeds).  A workload's operations must all succeed, so these routes are
# left out of the timed passes and checked once per run by
# CoeffSweep.defect_probe, which reports them separately.
KNOWN_DEFECTS = {
    ("alpha_fallback", "repeated"),
    ("alpha_fallback", "clustered"),
    ("correction", "repeated"),
}
ROUTES = ("alpha", "alpha_fallback", "gamma", "correction", "phi1")
# routes whose propagator is compared with expm (the others have own oracles)
EXPM_ROUTES = ("alpha", "alpha_fallback", "correction")


def _separated_reals(rng, k, min_gap=0.3):
    """k real eigenvalues in [-5, 1], pairwise at least min_gap apart and at
    least 0.1 away from zero (A stays invertible for R0)."""
    while True:
        lam = np.sort(rng.uniform(-5.0, 1.0, k))
        if np.all(np.diff(lam) >= min_gap) and np.min(np.abs(lam)) >= 0.1:
            return lam


def random_matrix(rng, spectrum_class, n, index):
    """A = Q J Q^T with random orthogonal Q and J carrying the spectrum.

    Returns (A, spectrum as (eigenvalue, multiplicity) pairs).
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if spectrum_class == "distinct":
        lam = _separated_reals(rng, n)
    elif spectrum_class == "clustered":
        lam = _separated_reals(rng, n - 1)
        lam = np.append(lam, lam[0] + CLUSTER_GAPS[index % len(CLUSTER_GAPS)])
    if spectrum_class in ("distinct", "clustered"):
        j = np.diag(lam)
        spectrum = tuple((complex(v), 1) for v in lam)
    elif spectrum_class == "repeated":
        lam = _separated_reals(rng, 1)[0]
        j = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)  # one Jordan block
        spectrum = ((complex(lam), n),)
    else:
        j = np.zeros((n, n))
        spectrum = []
        for i in range(n // 2):
            re, im = rng.uniform(-3.0, 0.5), rng.uniform(0.5, 3.0)
            j[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[re, im], [-im, re]]
            spectrum += [(complex(re, im), 1), (complex(re, -im), 1)]
        if n % 2:
            j[-1, -1] = _separated_reals(rng, 1)[0]
            spectrum.append((complex(j[-1, -1]), 1))
        spectrum = tuple(spectrum)
    return q @ j @ q.T, spectrum


def _poly(a, values):
    """sum_j values[j] A^j by Horner's rule."""
    out = values[-1] * np.eye(a.shape[0])
    for v in values[-2::-1]:
        out = out @ a + v * np.eye(a.shape[0])
    return out


def _taylor(m, order):
    """sum_{k <= order} M^k / k!."""
    return _poly(m, [1.0 / math.factorial(k) for k in range(order + 1)])


def _gap(value, oracle):
    """Relative max-norm gap; NaN for non-finite values."""
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        return math.nan
    return float(np.max(np.abs(value - oracle)) / np.max(np.abs(oracle)))


@dataclasses.dataclass
class CoeffCase:
    """One matrix and step size, with the oracles its routes are checked on."""

    spectrum_class: str
    n: int
    dt: float
    a: np.ndarray
    spectrum: tuple
    expm: np.ndarray = dataclasses.field(init=False)
    phi1: np.ndarray = dataclasses.field(init=False)
    taylor: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        m = self.dt * self.a
        eye = np.eye(self.n)
        # exp of [[M, I], [0, 0]] is [[exp(M), phi1(M)], [0, I]]: phi1
        # without the cancellation in (exp(M) - I) M^{-1}
        block = scipy.linalg.expm(np.block([[m, eye], [np.zeros_like(m), np.zeros_like(m)]]))
        self.expm = block[: self.n, : self.n]
        self.phi1 = block[: self.n, self.n :]
        self.taylor = _taylor(m, self.n)


def _one_step_oracle(model, kind, dt):
    """The one-step propagator each scheme defines for X' = A X."""
    a = model.a_matrix
    eye = np.eye(model.n)
    if kind == "explicit-euler":
        return eye + dt * a
    if kind == "implicit-euler":
        return np.linalg.inv(eye - dt * a)
    if kind == "traditional-nsfd":
        d = np.diag(a)
        phi = np.where(d == 0.0, dt, np.expm1(d * dt) / np.where(d == 0.0, 1.0, d))
        return eye + phi[:, None] * a
    if kind == "gamma-nsfd":
        return _taylor(dt * a, model.n)
    return scipy.linalg.expm(dt * a)


def _one_step_gap(model, kind, dt):
    """Gap between integrate's one-step propagator on the unforced model and
    the scheme's oracle; NaN if integrate raised."""
    unforced = dataclasses.replace(
        model, forcing=dataclasses.replace(model.forcing, kind="none")
    )
    try:
        columns = [
            integrate(unforced, SchemeSpec(kind), dt, dt, x0=e).states[1]
            for e in np.eye(model.n)
        ]
    except Exception:  # noqa: BLE001 - recorded as a failed case
        return math.nan
    return _gap(np.column_stack(columns), _one_step_oracle(model, kind, dt))


def _routes(spectrum_class, defects):
    """The routes run on a spectrum class: those without a known defect, or
    with defects=True only those with one."""
    return [r for r in ROUTES if ((r, spectrum_class) in KNOWN_DEFECTS) == defects]


class CoeffSweep:
    """Random matrices with n = 2..6 in four spectrum classes through every
    coefficient route, plus StepContext builds for every model and one-step
    scheme: carries all of matkit and the coefficient setup."""

    name = "coeff-sweep"

    def __init__(self, seed, references, work_dir):
        rng = np.random.default_rng(seed)
        self.cases = [
            CoeffCase(cls, n, dt, *random_matrix(rng, cls, n, index))
            for cls in SPECTRUM_CLASSES
            for n in SIZES
            for dt in COEFF_DTS
            for index in range(MATRICES_PER_CELL)
        ]
        models = {kind: make_model(kind) for kind in MODEL_KINDS}
        self.contexts = [
            (models[m], kind, dt) for m in MODEL_KINDS for kind in ONE_STEP_SCHEMES for dt in COEFF_DTS
        ]
        self.context_gaps = [_one_step_gap(m, kind, dt) for m, kind, dt in self.contexts]
        self.probe_tracer = Tracer()
        self.probe_records = []

    def _run_routes(self, tracer, defects, times):
        """Every case through its routes (see _routes); one dict of outputs
        per case.  The correction factors take alpha with the known spectrum,
        computed untimed when the alpha route is not among those run."""
        fns = {
            "alpha": lambda case: matkit.alpha_coeffs(case.a, case.spectrum, case.dt),
            "alpha_fallback": lambda case: matkit.alpha_coeffs(case.a, None, case.dt),
            "gamma": lambda case: matkit.gamma_coeffs(matkit.char_poly(case.a), case.dt),
            "phi1": lambda case: matkit.phi1(case.dt * case.a),
            "correction": lambda case, alpha: matkit.correction_factors(case.a, alpha),
        }
        calls = {
            (route, cls): tracer.wrap(f"matkit.{route}.{cls}", fn)
            for cls in SPECTRUM_CLASSES
            for route, fn in fns.items()
        }
        outputs = []
        for i, case in enumerate(self.cases):
            out = {}
            for route in _routes(case.spectrum_class, defects):
                args = (case,)
                if route == "correction":
                    if "alpha" not in out:
                        out["alpha"] = _attempt(matkit.alpha_coeffs, case.a, case.spectrum, case.dt)
                    if isinstance(out["alpha"], Exception):
                        continue
                    args = (case, out["alpha"])
                out[route] = _timed(times, f"matrix{i}", calls[route, case.spectrum_class], *args)
            outputs.append(out)
        return outputs

    def run_pass(self, tracer):
        build = tracer.wrap("schemes.ctx_build", StepContext)
        times = {}
        outputs = {"cases": self._run_routes(tracer, False, times), "contexts": []}
        for model, kind, dt in self.contexts:
            outputs["contexts"].append(_timed(times, "contexts", build, model, SchemeSpec(kind), dt))
        return times, outputs

    def defect_probe(self):
        """Run and check the known-defect routes once on this run's matrices,
        outside the timed passes.  Their spans feed the per-layer metrics."""
        self.probe_tracer = Tracer()
        outputs = self._run_routes(self.probe_tracer, True, {})
        self.probe_records = self._check_cases(outputs, True)
        return self.probe_records

    def check(self, outputs):
        records = self._check_cases(outputs["cases"], False)
        for (model, kind, dt), built, gap in zip(self.contexts, outputs["contexts"], self.context_gaps):
            record = {"case": f"context/{model.name}/{kind}/dt{dt:g}", "route": "context"}
            if isinstance(built, Exception):
                record.update(ok=False, error=repr(built))
            else:
                record.update(ok=gap <= GAP_TOL, gap=gap)
            records.append(record)
        return records

    def _check_cases(self, outputs, defects):
        records = []
        for case, out in zip(self.cases, outputs):
            for route in _routes(case.spectrum_class, defects):
                value = out.get(route, RuntimeError("alpha raised; no correction input"))
                record = {
                    "case": f"{route}/{case.spectrum_class}/n{case.n}/dt{case.dt:g}",
                    "route": route,
                    "class": case.spectrum_class,
                }
                if isinstance(value, Exception):
                    record.update(ok=False, error=repr(value))
                else:
                    gap = self._gap(case, route, value, out)
                    record.update(ok=gap <= GAP_TOL, gap=gap)
                    if route.startswith("alpha"):
                        record["warned"] = value.warning is not None
                records.append(record)
        return records

    def _gap(self, case, route, value, out):
        if route in ("alpha", "alpha_fallback"):
            return _gap(_poly(case.a, value.values), case.expm)
        if route == "gamma":
            return _gap(_poly(case.a, value.values), case.taylor)
        if route == "phi1":
            return _gap(value, case.phi1)
        # correction factors: the scalar form's P = alpha_0 I + alpha_1 (I + R1) A
        # and Q = alpha_1 (I + R1 + R0) against exp(dt A) and dt phi1(dt A)
        alpha = out["alpha"].values
        eye = np.eye(case.n)
        p = alpha[0] * eye + alpha[1] * (eye + value.r1) @ case.a
        q = alpha[1] * (eye + value.r1 + value.r0)
        return float(np.max([_gap(p, case.expm), _gap(q, case.dt * case.phi1)]))

    def work(self, records):
        """Coefficient sets computed per pass (both alpha routes and gamma)."""
        return sum(r.get("route") in ("alpha", "alpha_fallback", "gamma") for r in records)

    def layers(self, tracer, records):
        """Per-layer metrics of one traced pass, with the known-defect
        routes' spans and checks from defect_probe added in."""
        out = {"schemes.ctx_build_s": tracer.total["schemes.ctx_build"]}
        records = records + self.probe_records

        def total(name):
            return tracer.total[name] + self.probe_tracer.total[name]

        for cls in SPECTRUM_CLASSES:
            mine = [r for r in records if r.get("class") == cls]
            alphas = [r for r in mine if "warned" in r]
            gaps = [r["gap"] for r in mine if r["route"] in EXPM_ROUTES and math.isfinite(r.get("gap", math.nan))]
            out.update({
                f"matkit.alpha_s.{cls}": total(f"matkit.alpha.{cls}"),
                f"matkit.alpha_fallback_s.{cls}": total(f"matkit.alpha_fallback.{cls}"),
                f"matkit.gamma_s.{cls}": total(f"matkit.gamma.{cls}"),
                f"matkit.correction_s.{cls}": total(f"matkit.correction.{cls}"),
                f"matkit.phi1_s.{cls}": total(f"matkit.phi1.{cls}"),
                f"matkit.expm_gap_max.{cls}": max(gaps, default=0.0),
                f"matkit.warned_frac.{cls}": _per(sum(r["warned"] for r in alphas), len(alphas)),
                f"matkit.fail_frac.{cls}": _per(sum(not r["ok"] for r in mine), len(mine)),
            })
        return out


WORKLOADS = {w.name: w for w in (OscLong, SeasonalFigures, CoeffSweep)}
