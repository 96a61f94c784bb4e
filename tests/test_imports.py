"""Import hygiene: no command loads scipy, a test-only dependency.

Every case runs in a fresh interpreter, since this test process has
scipy loaded already, and reports the ``scipy*`` entries of
``sys.modules`` after importing the CLI and, if given, running
``cli.main``.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracloc

SRC = str(Path(diracloc.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PROBE = """
import json, sys
import diracloc.cli as cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def scipy_loaded(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return modules


def boosted_config(tmp_path, spin2="up"):
    config = tmp_path / "boosted.ini"
    config.write_text(
        "[profile]\nkind = boosted_gaussian\nv_target = 0 0 0.5\n"
        f"[overlap]\nspin2 = {spin2}\n"
    )
    return str(config)


def test_cli_import_loads_no_scipy():
    assert scipy_loaded() == []


def test_rn_loads_no_scipy(tmp_path):
    argv = ["rn", "--config", boosted_config(tmp_path), "--out", str(tmp_path), "--n", "2"]
    assert scipy_loaded(*argv) == []


@pytest.mark.parametrize("spin2", ["up", "down"])
def test_overlap_loads_no_scipy(tmp_path, spin2):
    config = boosted_config(tmp_path, spin2)
    assert scipy_loaded("overlap", "--config", config, "--out", str(tmp_path), "--n", "2") == []


def test_evolve_loads_no_scipy(tmp_path):
    argv = ["evolve", "--config", boosted_config(tmp_path), "--out", str(tmp_path),
            "--n", "1", "--grid", "32,8"]
    assert scipy_loaded(*argv) == []


def test_spin_down_evolve_loads_no_scipy(tmp_path):
    config = tmp_path / "down.ini"
    config.write_text("[label]\nspin = down\n")
    argv = ["evolve", "--config", str(config), "--out", str(tmp_path), "--n", "1", "--grid", "32,8"]
    assert scipy_loaded(*argv) == []


def test_boosted_moments_loads_no_scipy(tmp_path):
    argv = ["moments", "--config", boosted_config(tmp_path), "--out", str(tmp_path),
            "--grid", "128,12"]
    assert scipy_loaded(*argv) == []


def test_verify_loads_no_scipy(tmp_path):
    assert scipy_loaded("verify", "--out", str(tmp_path)) == []


def test_figure1_loads_no_scipy(tmp_path):
    assert scipy_loaded("figure1", "--out", str(tmp_path), "--n", "2") == []


def test_figure1_runs_with_scipy_blocked(tmp_path):
    # scipy is a test-only dependency: with every scipy import made to fail,
    # the default figure1 still runs and writes its files
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import diracloc.cli as cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", probe, "figure1", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert (out / "figure1_summary.json").is_file()


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
