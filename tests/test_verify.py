"""The ``verify`` battery: one value per tolerance, each within its default bound."""

import pytest

from diracloc import verify


@pytest.fixture(scope="module")
def checks():
    return verify.run_checks()


@pytest.mark.parametrize("name", list(verify.DEFAULT_TOLERANCES))
def test_passes_at_default_bound(checks, name):
    (check,) = [c for c in checks if c.name == name]  # exactly one value per tolerance
    assert check.bound == verify.DEFAULT_TOLERANCES[name]
    assert check.passed, check
