#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced measurement (a
single pass each, --seconds 0) and checks that:

  * every metric named in BENCHMARK.json appears with its unit, and every
    per-layer metric is measured by at least one workload;
  * with the stored references the run is correct;
  * with a deliberately wrong reference every case fails (failed equals
    attempted).

Exits 0 when all checks hold.
"""
import argparse
import dataclasses
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import numpy as np  # noqa: E402
import workloads  # noqa: E402


def _measure(name, references, trace, spec):
    args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=trace)
    return run.run(args, spec, references, workloads)


def _wrong_references(references):
    """Every stored error shrunk a thousandfold: no case can meet them."""
    return {
        case: {key: value * 1e-3 if key.startswith("max_error") else value for key, value in ref.items()}
        for case, ref in references.items()
    }


class WrongOracleSweep(workloads.CoeffSweep):
    """coeff-sweep against oracles shifted by the identity."""

    def __init__(self, *args):
        super().__init__(*args)
        for case in self.cases:
            for attr in ("expm", "taylor", "phi1"):
                setattr(case, attr, getattr(case, attr) + np.eye(case.n))
        self.context_gaps = [
            workloads._gap(
                np.eye(model.n) + workloads._one_step_oracle(model, kind, dt),
                workloads._one_step_oracle(model, kind, dt),
            )
            for model, kind, dt in self.contexts
        ]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    references = json.loads((run.BENCH_DIR / "references.json").read_text())
    run.RESULTS.mkdir(exist_ok=True)
    problems = []
    measured_layers = set()
    for name in workloads.WORKLOADS:
        refs = references.get(name, {})
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _measure(name, refs, trace, spec)
            metrics = result["summary"]["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace {trace}: {m['name']} missing or unit differs")
            if not result["summary"]["correct"]:
                problems.append(f"{name} trace {trace}: not correct with the stored references")
            if trace:
                unmeasured = set(result["details"]["unmeasured_metrics"])
                measured_layers |= {m["name"] for m in declared} - unmeasured

        if name == workloads.CoeffSweep.name:
            workloads.WORKLOADS[name] = WrongOracleSweep
            try:
                wrong = _measure(name, refs, 0, spec)
            finally:
                workloads.WORKLOADS[name] = workloads.CoeffSweep
        else:
            wrong = _measure(name, _wrong_references(refs), 0, spec)
        summary = wrong["summary"]
        if summary["failed"] != summary["attempted"]:
            problems.append(
                f"{name}: a wrong reference left {summary['attempted'] - summary['failed']} "
                f"of {summary['attempted']} cases passing"
            )
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in measured_layers]
    if never:
        problems.append(f"per-layer metrics no workload measures: {never}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
