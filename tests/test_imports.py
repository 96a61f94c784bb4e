"""Import hygiene: the package names scipy, a test-only dependency, in no
import, and every layer the benchmark's tracer installs resolves.

That no command loads scipy at run time is asserted by every row of
``test_cli_runs`` at its full defaults; the probes here run the same
commands at reduced sizes (``--n 2``, ``--grid 32,8``), so each code path
is checked quickly on its own, and a default ``figure1`` runs with every
scipy import made to fail.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import diracloc
from harness import run_cli
from output_identity import BOOSTED

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def scipy_loaded(tmp_path, *argv, config=""):
    """The scipy* modules ``diracloc <argv>`` loaded, run in ``tmp_path`` on
    ``config`` if given; the run must succeed."""
    flags = []
    if config:
        (tmp_path / "config.ini").write_text(config)
        flags = ["--config", "config.ini"]
    run = run_cli([*argv, *flags, "--out", "out"], cwd=tmp_path)
    assert run.code == 0, run.stderr
    return run.scipy


def test_rn_loads_no_scipy(tmp_path):
    assert scipy_loaded(tmp_path, "rn", "--n", "2", config=BOOSTED) == []


@pytest.mark.parametrize("spin2", ["up", "down"])
def test_overlap_loads_no_scipy(tmp_path, spin2):
    config = BOOSTED + f"[overlap]\nspin2 = {spin2}\n"
    assert scipy_loaded(tmp_path, "overlap", "--n", "2", config=config) == []


def test_evolve_loads_no_scipy(tmp_path):
    argv = ["evolve", "--n", "1", "--grid", "32,8"]
    assert scipy_loaded(tmp_path, *argv, config=BOOSTED) == []


def test_spin_down_evolve_loads_no_scipy(tmp_path):
    argv = ["evolve", "--n", "1", "--grid", "32,8"]
    assert scipy_loaded(tmp_path, *argv, config="[label]\nspin = down\n") == []


def test_boosted_moments_loads_no_scipy(tmp_path):
    assert scipy_loaded(tmp_path, "moments", "--grid", "128,12", config=BOOSTED) == []


def test_verify_loads_no_scipy(tmp_path):
    assert scipy_loaded(tmp_path, "verify") == []


def test_figure1_loads_no_scipy(tmp_path):
    assert scipy_loaded(tmp_path, "figure1", "--n", "2") == []


def test_figure1_runs_with_scipy_blocked(tmp_path):
    # with every scipy import made to fail, the default figure1 still runs
    # and writes its files
    block = "import sys\nsys.modules['scipy'] = None\n"
    run = run_cli(["figure1", "--out", "out"], cwd=tmp_path, setup=block)
    assert run.code == 0, run.stderr
    assert (tmp_path / "out" / "figure1_summary.json").is_file()


def test_library_source_imports_no_scipy():
    # no module of the package names scipy in an import, deferred ones included
    found = []
    for source in sorted(Path(diracloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{source.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_every_traced_layer_resolves():
    # the benchmark's tracer looks each layer up by name; one missing name
    # fails every traced job
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.Tracer().targets():
        target = importlib.import_module(f"diracloc.{module}")
        for name in attr.split("."):
            target = getattr(target, name)
        assert callable(target), f"{module}.{attr}"
