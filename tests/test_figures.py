"""The paper's figures against their checked-in manifest (tests/data).

All nine figures are written afresh and compared file by file: the file
set and the row counts exactly; each value column's max within 1e-9
relative, or both at or below bench.EXACT_FLOOR (the exact schemes' errors
are rounding noise and move with libm); and the sha256 where the numpy and
scipy versions are the manifest's, since another numpy may format or round
other bits.  A change that moves a figure regenerates the manifest with
tests/data/make_figures_manifest.py, and its diff shows every moved file.
"""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import scipy

from nsfdlab import bench

_DATA = Path(__file__).with_name("data")
_spec = importlib.util.spec_from_file_location("make_figures_manifest", _DATA / "make_figures_manifest.py")
make_figures_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_figures_manifest)


def _same_max(expected: float, got: float) -> bool:
    if expected <= bench.EXACT_FLOOR and got <= bench.EXACT_FLOOR:
        return True
    return math.isclose(expected, got, rel_tol=1e-9, abs_tol=0.0)


def test_figures_match_the_manifest(tmp_path):
    manifest = json.loads(make_figures_manifest.MANIFEST.read_text())
    make_figures_manifest.write_figures(tmp_path)
    fresh = make_figures_manifest.manifest_of(tmp_path)["files"]
    expected = manifest["files"]
    assert len(expected) == 86
    assert sorted(fresh) == sorted(expected)
    same_versions = (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
    for name, entry in expected.items():
        got = fresh[name]
        assert got["rows"] == entry["rows"], name
        assert sorted(got["max"]) == sorted(entry["max"]), name
        for column, value in entry["max"].items():
            assert _same_max(value, got["max"][column]), (name, column, value, got["max"][column])
        if same_versions:
            assert got["sha256"] == entry["sha256"], name
