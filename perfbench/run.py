#!/usr/bin/env python3
"""Benchmark of nsfdlab: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload osc-long --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload (see workloads.py) is prepared
from the seed, then repeated as timed passes for about --seconds; every
pass is checked for correctness outside its timed region.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones named in
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from
traced passes that alternate with untraced ones, whose wall-time
difference is reported as the tracing overhead.  Per-layer metrics of a
layer that the workload does not call read 0.  End-to-end times are scaled
to a reference host speed (see KERNEL_SHARE below).

A results file with the provenance stamp, every sample and every case
record goes to perfbench/results/<workload>-seed<seed>-trace<trace>.json.
"""
import os

# One BLAS thread: each workload is a single-threaded process.  Set before
# numpy is imported, here and in the set-up subprocesses (inherited).
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# setup_s is the median over this many fresh processes, spread over the
# run, after one warm-up that may compile bytecode
SETUP_SPAWNS = 11

# Host speed.  On a shared host a vCPU switches between fast and slow
# states many times a second, and the share of time it spends slow drifts
# by 30% or more over minutes; two runs of the same code minutes apart
# differ by that much.  A fixed reference kernel, timed between passes for
# KERNEL_SHARE of the run, measures that share: its mean time rises with it
# as the program's does.  End-to-end times are reported at a fixed host
# speed, multiplied by REFERENCE_KERNEL_S over the kernel's mean time in
# the run.  REFERENCE_KERNEL_S is about the kernel's mean on the 2-vCPU
# host the benchmark was written on, so scaled times read close to that
# host's seconds.  The unscaled times are in the results file.
KERNEL_SHARE = 0.1
REFERENCE_KERNEL_S = 0.008

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from nsfdlab import make_model\n"
    "for kind in ('oscillator', 'biomass', 'trees', 'seasonal'):\n"
    "    make_model(kind)\n"
)


def time_setup() -> float:
    """Wall time of a fresh process that imports nsfdlab and builds the four
    models."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - start


def reference_kernel() -> float:
    """Wall time of a fixed piece of work of the two kinds nsfdlab does: a
    Python loop of scalar arithmetic and one of small numpy products."""
    import numpy as np

    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = np.array([0.25, 0.0])
    start = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    for _ in range(2000):
        x = x + 1e-3 * (a @ x)
    return time.perf_counter() - start


def run_passes(workload, seconds: float, trace: bool, workloads, spawns: int) -> tuple[list, list, list]:
    """Timed passes for about `seconds`: a pass starts only if it is
    expected to end in time.  At least one pass runs; with tracing,
    untraced and traced passes alternate and at least one of each runs.

    Between passes, `spawns` set-up processes are timed, spread evenly over
    the run (so that setup_s sees the host as the passes do); any still due
    when the passes end are timed then.  The reference kernel is timed
    between passes too, for KERNEL_SHARE of the run.  Only the first pass
    and traced passes keep their case records (so that memory does not grow
    with the pass count); every pass keeps its times and its failed
    records.  Returns the passes, the set-up times and the kernel times."""
    passes, setup, kernel = [], [], [reference_kernel()]
    start = time.perf_counter()
    while True:
        # set-up spawns due so far, by the time spent outside them
        outside = time.perf_counter() - start - sum(setup)
        while len(setup) < spawns and len(setup) <= spawns * outside / max(seconds, 1e-9):
            setup.append(time_setup())
        while sum(kernel) < KERNEL_SHARE * (time.perf_counter() - start):
            kernel.append(reference_kernel())
        began = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        tracer = workloads.Tracer() if traced else workloads.NoTracer()
        times, outputs = workload.run_pass(tracer)
        records = workload.check(outputs)
        passes.append({
            "traced": traced,
            "times": times,
            "tracer": tracer,
            "attempted": len(records),
            "failed": [r for r in records if not r["ok"]],
            "records": records if traced or not passes else None,
        })
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds and len(passes) >= 1 + trace:
            setup += [time_setup() for _ in range(spawns - len(setup))]
            return passes, setup, kernel


def mean_wall(passes) -> float:
    """Wall time of a pass, assembled case by case: the sum over cases of
    each case's mean time across the passes.

    A mean, like the reference kernel's, follows the share of time the host
    spends slow; a median or minimum flips between the fast and slow
    states.
    """
    per_case = {}
    for p in passes:
        for case, seconds in p["times"].items():
            per_case.setdefault(case, []).append(seconds)
    return sum(statistics.fmean(v) for v in per_case.values())


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nsfdlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def _median_metrics(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nsfdlab" / "__init__.py").is_file():
        print("error: nsfdlab sources not found under src/ of the checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nsfdlab
    import workloads

    if Path(nsfdlab.__file__).resolve().parent != (SRC / "nsfdlab").resolve():
        print("error: nsfdlab was not imported from the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((BENCH_DIR / "references.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    result = run(args, spec, references.get(args.workload, {}), workloads)
    print(json.dumps(result["summary"], allow_nan=False))
    return 0


def run(args, spec, references, workloads) -> dict:
    """Set up, measure and check one workload; write its results file."""
    trace = bool(args.trace)
    workload = workloads.WORKLOADS[args.workload](args.seed, references, RESULTS)
    if not trace:
        time_setup()  # warm-up: may compile bytecode
    passes, setup_samples, kernel = run_passes(workload, args.seconds, trace, workloads, 0 if trace else SETUP_SPAWNS)
    # scales a time measured in this run to the reference host speed
    speed = REFERENCE_KERNEL_S / statistics.fmean(kernel)
    # checked outside the passes, and not counted in attempted or failed
    known = workload.defect_probe()
    known_failed = sum(not r["ok"] for r in known)

    attempted = sum(p["attempted"] for p in passes)
    failed = [r for p in passes for r in p["failed"]]
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = _median_metrics([workload.layers(p["tracer"], p["records"]) for p in traced])
        values["trace.overhead_s"] = mean_wall(traced) - mean_wall(untraced)
        declared = spec["per_layer"]
    else:
        wall = mean_wall(untraced) * speed
        values = {
            "wall_s": wall,
            "work_per_s": workload.work(passes[0]["records"]) / wall,
            "setup_s": statistics.median(setup_samples) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer the workload does not call reads 0
    unmeasured = [m["name"] for m in declared if m["name"] not in values]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}

    summary = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    first = passes[0]["records"]
    level0 = [r["case"] for r in first if r.get("argmax_level") == 0]
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp(args.seed),
        "summary": summary,
        "fail_frac": len(failed) / attempted,
        "failed_cases": sorted({r["case"] for r in failed}),
        "known_defects": {"checked": len(known), "failed": known_failed, "cases": known},
        "samples": {
            "passes": len(passes),
            "median_untraced_pass_s": statistics.median(sum(p["times"].values()) for p in untraced),
            "pass_s": [sum(p["times"].values()) for p in passes],
            "case_s": [p["times"] for p in passes],
            "traced": [p["traced"] for p in passes],
            "setup_s": setup_samples,
            "kernel_s": kernel,
            "speed_scale": speed,
            "unscaled_wall_s": mean_wall(untraced),
        },
        "unmeasured_metrics": unmeasured,
        "level0_argmax_cases": level0,
        "cases": first,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, allow_nan=True) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(
        f"host speed scale {speed:.3f} (reference kernel mean {statistics.fmean(kernel) * 1e3:.2f} ms "
        f"over {len(kernel)} samples); unscaled wall {mean_wall(untraced):.4g} s",
        file=sys.stderr,
    )
    print(
        f"{len(passes)} passes; {len(failed)}/{attempted} cases failed; results in {out.relative_to(ROOT)}",
        file=sys.stderr,
    )
    if known:
        print(
            f"known defects, checked once outside the passes: {known_failed}/{len(known)} cases fail",
            file=sys.stderr,
        )
    if level0:
        print(
            f"{len(level0)}/{len(first)} cases take their max error at level 0 "
            "(see max_error_from_level1 in the results file)",
            file=sys.stderr,
        )
    return {"summary": summary, "details": details}


if __name__ == "__main__":
    sys.exit(main())
