"""The output-identity comparator, on stand-in package trees."""

import pytest

import output_identity

FAKE_CLI = """
import sys
from pathlib import Path


def main(argv):
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir()
    (out / "table.csv").write_text({table!r})
    config = Path("config.ini")
    if config.exists():
        (out / "config.txt").write_text(config.read_text())
    print("wrote table.csv")
    return {code}
"""


def fake_tree(root, table="1.0,2.0\n", code=0):
    package = root / "diracloc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(table=table, code=code))
    return root


@pytest.mark.parametrize(
    "changed, expected",
    [
        ({}, []),
        ({"table": "1.0,2.1\n"}, ["table.csv"]),
        ({"code": 1}, ["exit 0 -> 1"]),
    ],
    ids=["identical", "one-byte", "exit-code"],
)
def test_comparator_catches_each_change(tmp_path, changed, expected):
    base = fake_tree(tmp_path / "a")
    other = fake_tree(tmp_path / "b", **changed)
    runs = [output_identity.Run("plain", "figure1"),
            output_identity.Run("configured", "rn", "[label]\nn = 2\n", ("--n", "2"))]
    found = output_identity.compare(base, other, runs, tmp_path / "runs")
    assert found == {"plain": expected, "configured": expected}


@pytest.mark.parametrize(
    "found, allow, status, tags",
    [
        ({"plain": [], "configured": []}, set(), 0, []),
        ({"plain": ["table.csv"], "configured": ["table.csv"]}, {"plain", "configured"}, 0,
         ["allowed configured", "allowed plain"]),
        ({"plain": ["table.csv"], "configured": ["table.csv"]}, {"plain"}, 1,
         ["DIFFERS configured", "allowed plain"]),
        ({"plain": [], "configured": []}, {"plain"}, 1, ["STALE plain"]),
        ({"plain": [], "configured": []}, {"plian"}, 1, ["UNKNOWN plian"]),
    ],
    ids=["identical", "allowed", "not-allowed", "stale-allow", "unknown-allow"],
)
def test_judge_refuses_unallowed_differences_and_stale_allows(found, allow, status, tags):
    lines, _, got = output_identity.judge(found, allow)
    assert got == status
    assert sorted(line.split(":")[0] for line in lines) == tags


def test_run_list_names_each_run_once():
    runs = output_identity.fixed_runs()
    ids = [run.id for run in runs]
    # defaults, perfbench jobs, README, boosted, off-axis rn, spin-down moments,
    # fast off-axis evolve, errors
    assert len(ids) == len(set(ids)) == 12 + 3 * (10 + 5) + 6 + 4 + 1 + 1 + 1 + 7
    allow = output_identity.read_allow(output_identity.ROOT / "tools" / "output_identity_allow.txt")
    assert allow <= set(ids)


def test_readme_block_sets_every_section():
    config = output_identity.readme_config()
    for section in ("profile", "label", "grid", "evolve", "rn", "overlap", "output"):
        assert f"[{section}]" in config
