#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the current sources.

    python3 perfbench/make_references.py

Runs one untraced pass of each integrating workload and stores, per case,
the figure-norm max error, the level where it occurs, and the max over
levels >= 1.  Run it only at a commit whose accuracy is the accepted
reference; the benchmark fails any case that is worse than what is stored.
"""
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

KEYS = ("max_error", "argmax_level", "max_error_from_level1")


def main() -> int:
    out = {}
    run.RESULTS.mkdir(exist_ok=True)
    for cls in (workloads.OscLong, workloads.SeasonalFigures):
        workload = cls(0, {}, run.RESULTS)
        _, outputs = workload.run_pass(workloads.NoTracer())
        records = workload.check(outputs)
        out[cls.name] = {
            r["case"]: {key: r[key] for key in KEYS} for r in records if "max_error" in r
        }
    path = run.BENCH_DIR / "references.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path.relative_to(run.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
