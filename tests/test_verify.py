"""The ``verify`` battery: one value per tolerance, each within its default bound."""

import tracemalloc

import pytest

from diracloc import verify
from diracloc.dynamics import NRPacketParams
from diracloc.quadrature import BLOCK_POINTS
from diracloc.transform import CartesianGrid, grid_working_set


@pytest.fixture(scope="module")
def checks():
    return verify.run_checks()


@pytest.mark.parametrize("name", list(verify.DEFAULT_TOLERANCES))
def test_passes_at_default_bound(checks, name):
    (check,) = [c for c in checks if c.name == name]  # exactly one value per tolerance
    assert check.bound == verify.DEFAULT_TOLERANCES[name]
    assert check.passed, check


def test_boost_field_trend_holds_one_transform():
    # each n is one transform and one slab pass; psi is freed before the next
    grid = CartesianGrid(128, 12.0)
    tracemalloc.start()
    try:
        verify.boost_field_trend((0.0, 0.0, 0.5), (4, 8), grid, rapidity=0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid_working_set(grid) + 128 * BLOCK_POINTS


def test_nr_oracle_forms_no_cubic_array():
    # acceptance 7's inputs; one 256^3 float64 array would be 134 MB
    packets = [NRPacketParams(n=n, a=(1.0, 0.0, 0.0), v=(0.0, 0.0, 0.5)) for n in (1, 4)]
    tracemalloc.start()
    try:
        verify.nr_oracle(packets, CartesianGrid(256, 28.0), (0.1, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
