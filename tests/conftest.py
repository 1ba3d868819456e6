"""Shared fixtures: the benchmark models and common matrices."""
import numpy as np
import pytest

import nsfdlab as nl
import nsfdlab.schemes as sch


def pytest_collection_modifyitems(items):
    # Hypothesis reports a failing draw through libcst, whose import warns
    # that mypy_extensions.TypedDict is deprecated.  Under a test's
    # filterwarnings("error") mark that warning would stop the session with
    # INTERNALERROR; a filter added after the test's own marks outranks
    # them (the ini's filterwarnings do not), so the failure is reported.
    ignore = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(ignore))


@pytest.fixture(scope="session")
def oscillator():
    return nl.make_model("oscillator")


@pytest.fixture(scope="session")
def biomass():
    return nl.make_model("biomass")


@pytest.fixture(scope="session")
def trees():
    return nl.make_model("trees")


@pytest.fixture(scope="session")
def seasonal():
    return nl.make_model("seasonal")


@pytest.fixture(scope="session")
def rotation_matrix():
    # planar rotation generator; eigenvalues exactly +-i
    return np.array([[0.0, 1.0], [-1.0, 0.0]])


class GridSampleCount:
    """The calls of one grid sampler through schemes.grid_samples: every
    request, and the misses that computed a sample; the rest are hits."""

    def __init__(self):
        self.requests = self.misses = 0

    def counts(self) -> tuple[int, int]:
        return self.misses, self.requests - self.misses


@pytest.fixture
def count_grid_samples(monkeypatch):
    """count(module, name) puts a counter in place of the grid sampler
    module.name (bench._sampled_exact, bench._time_records or
    schemes._grid_forcing) and returns its GridSampleCount.  The counter is
    a new function, and grid_samples keys by the function, so the count
    starts from a cold cache."""

    def count(module, name):
        sampler, tally = getattr(module, name), GridSampleCount()

        def counted(*args):
            tally.misses += 1
            return sampler(*args)

        grid_samples = sch.grid_samples

        def requesting(fn, *args):
            tally.requests += fn is counted
            return grid_samples(fn, *args)

        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(sch, "grid_samples", requesting)
        return tally

    return count
