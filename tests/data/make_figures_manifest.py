"""Regenerate figures.json, the manifest of the paper's figure files.

It writes all nine figures into a temporary directory with one
`nsfdlab figure --id all` call (cli.main, which prints the written paths)
and records, for each file, its row count, its sha256 and the maximum of
each value column, with the numpy and scipy versions it was made with.
A CSV's rows are its lines below the header and its value columns every
column but t; a gnuplot script's rows are its lines, and it has no value
columns.  tests/test_figures.py checks a fresh run against the manifest.

Run from the repository root after a change that moves a figure, and
commit the result with the change:

    PYTHONPATH=src python tests/data/make_figures_manifest.py
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from nsfdlab import cli

MANIFEST = Path(__file__).with_name("figures.json")


def summarize(path: Path) -> dict:
    """A file's manifest entry: rows, sha256 and max of each value column."""
    data = path.read_bytes()
    entry = {"rows": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest(), "max": {}}
    if path.suffix == ".csv":
        entry["rows"] -= 1  # the header
        names = data[: data.index(b"\n")].decode().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        entry["max"] = {name: float(table[:, j].max()) for j, name in enumerate(names) if name != "t"}
    return entry


def manifest_of(out_dir) -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": {p.name: summarize(p) for p in sorted(Path(out_dir).iterdir())},
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        status = cli.main(["figure", "--id", "all", "--out-dir", out_dir])
        if status != 0:
            return status
        manifest = manifest_of(out_dir)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"{MANIFEST}: {len(manifest['files'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
