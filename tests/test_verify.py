"""The ``verify`` battery: one value per tolerance, each within its default bound."""

import pytest

from diracloc import observables, verify
from diracloc.dynamics import NRPacketParams
from diracloc.quadrature import BLOCK_POINTS
from diracloc.transform import CartesianGrid, grid_working_set
from harness import memory_probe


@pytest.fixture(scope="module")
def checks():
    return verify.run_checks()


@pytest.mark.parametrize("name", list(verify.DEFAULT_TOLERANCES))
def test_passes_at_default_bound(checks, name):
    (check,) = [c for c in checks if c.name == name]  # exactly one value per tolerance
    assert check.bound == verify.DEFAULT_TOLERANCES[name]
    assert check.passed, check


def test_boost_field_trend_allocates_no_grid(monkeypatch):
    # the weight ratio comes from momentum space: nothing of grid size, no transform
    def no_grid(*args):
        raise AssertionError("boost_field_trend sampled a position grid")

    monkeypatch.setattr(verify, "position_state_cartesian", no_grid)
    verify.boost_field_trend((0.0, 0.0, 0.5), (4, 8), rapidity=0.6)  # warm the node caches
    with memory_probe() as mem:
        verify.boost_field_trend((0.0, 0.0, 0.5), (4, 8), rapidity=0.6)
    # the 64^3 grid of the battery's other checks needs 17.8 MB
    assert mem.peak <= 320 * BLOCK_POINTS < grid_working_set(CartesianGrid(64, 16.0))


def test_moment_consistency_sees_a_wrong_current(monkeypatch):
    # j1 with its sign flipped in the slab pass: only the grid <xdot> of the
    # moving state in moment_consistency can tell
    original = observables.packed_current

    def flipped(*args, **kwargs):
        j = original(*args, **kwargs)
        j[0] *= -1.0
        return j

    monkeypatch.setattr(observables, "packed_current", flipped)
    failed = [c.name for c in verify.run_checks() if not c.passed]
    assert "moment_consistency" in failed


def test_overlap_reduction_sees_a_wrong_eigenspinor(monkeypatch):
    # E in place of E + m in the eigenspinor overlap_quadrature samples:
    # only a pointwise spinor can tell, since the envelopes are unchanged
    monkeypatch.setattr(observables, "MASS", 0.0)
    values = verify.overlaps(
        (2.0, 0.0, 0.0), decay_n_values=(2, 4), reduction_n_values=(2,),
        opposite_a2=(0.0, 0.0, 0.0), opposite_n_values=(2,),
    )
    assert values["overlap_reduction"] > verify.DEFAULT_TOLERANCES["overlap_reduction"]


def test_nr_oracle_forms_no_cubic_array():
    # acceptance 7's inputs; one 256^3 float64 array would be 134 MB
    packets = [NRPacketParams(n=n, a=(1.0, 0.0, 0.0), v=(0.0, 0.0, 0.5)) for n in (1, 4)]
    with memory_probe() as mem:
        verify.nr_oracle(packets, CartesianGrid(256, 28.0), (0.1, 1.0))
    assert mem.peak <= 8e6
