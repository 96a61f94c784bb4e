"""The ``verify`` battery: one value per tolerance, each within its default bound."""

import pytest

from diracloc import observables, states, verify
from diracloc.dynamics import NRPacketParams, evolve_free
from diracloc.transform import CartesianGrid, position_state_cartesian
from harness import memory_probe


@pytest.fixture(scope="module")
def checks():
    return verify.run_checks()


@pytest.mark.parametrize("name", list(verify.DEFAULT_TOLERANCES))
def test_passes_at_default_bound(checks, name):
    (check,) = [c for c in checks if c.name == name]  # exactly one value per tolerance
    assert check.bound == verify.DEFAULT_TOLERANCES[name]
    assert check.passed, check


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


def test_velocity_identity_sees_a_wrong_spinor_envelope(monkeypatch):
    # phi scaled by 1.01: the scalar side comes from the envelope, not the spinor
    original = states.MomentumState.spinor
    monkeypatch.setattr(
        states.MomentumState, "spinor", lambda self, *p: 1.01 * original(self, *p)
    )
    value = verify.velocity_identity(((0.0, 0.0, 0.0), (0.0, 0.0, 0.3)), n=6)  # battery inputs
    assert value["velocity_identity"] > verify.DEFAULT_TOLERANCES["velocity_identity"]


def test_moment_consistency_sees_a_wrongly_scaled_grid(monkeypatch):
    # psi scaled by 1.01: <x>, <xdot> and Delta_x are normalized by the
    # discrete norm, so only the grid norm can tell
    def scaled(*args):
        ps = position_state_cartesian(*args)
        ps.psi *= 1.01
        return ps

    monkeypatch.setattr(verify, "position_state_cartesian", scaled)
    state = evolve_free(states.make_state(a=(1.0, 0.0, 0.0), v=(0.3, -0.2, 0.4), n=3), 0.5)
    value = verify.moment_consistency(state, CartesianGrid(64, 16.0))  # battery inputs
    assert value["moment_consistency"] > verify.DEFAULT_TOLERANCES["moment_consistency"]


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
