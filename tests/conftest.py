"""Shared fixtures: the benchmark models and common matrices."""
import numpy as np
import pytest

import nsfdlab as nl


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
