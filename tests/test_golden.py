"""CLI outputs against committed golden JSON files.

Each file in tests/golden/ holds the `--format json` output of one
command.  The exact commands must reproduce it byte for byte.  The
numeric commands (`block`, `crossing`) must give equal non-float
fields, floats within FLOAT_RTOL of the largest magnitude in their
top-level field, and residual fields below their pinned tolerances.
`verify all` is compared the same way report by report, each
max_residual below its suite's own tolerance; its golden holds every
runtime_s as 0, and a refresh sets them to 0 again.

To refresh a file after an intended output change, write the command's
output over it: `virmin <argv...> --format json > tests/golden/<name>.json`.
"""

import json
from pathlib import Path

import pytest

from virmin.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

ISING = ("--labels", "1,2", "1,2", "1,2", "1,2")
ORDER6 = ("--labels", "2,3", "2,3", "2,3", "2,3")

EXACT = {
    "kac-table_3_4": ("kac-table", "3", "4"),
    "fuse_3_4": ("fuse", "3", "4", "2,2", "2,2"),
    "fusion-table_4_5": ("fusion-table", "4", "5"),
    "singular_3_4": ("singular", "3", "4", "2", "1", "--max-level", "4"),
    "singular_5_6": ("singular", "5", "6", "2", "3", "--max-level", "9"),
    "bpz_3_4_slot3": ("bpz", "3", "4", *ISING),
    "bpz_3_4_slot2": ("bpz", "3", "4", *ISING, "--route", "slot2"),
    "bpz_5_6_slot3": ("bpz", "5", "6", *ORDER6),
    "bpz_5_6_slot2": ("bpz", "5", "6", *ORDER6, "--route", "slot2"),
}
NUMERIC = {
    "block_3_4": ("block", "3", "4", *ISING, "--channel", "1,1", "--z", "0.3"),
    "block_5_6": ("block", "5", "6", *ORDER6, "--channel", "1,3", "--z", "0.3"),
    "crossing_3_4": ("crossing", "3", "4", *ISING),
    "crossing_5_6": ("crossing", "5", "6", *ORDER6),
}
FLOAT_RTOL = 1e-9
# residual field -> the largest value accepted
RESIDUAL_LIMITS = {"fusing_residual": 1e-8, "max_residual": 1e-8}


def run(capsys, argv) -> str:
    code = main([*argv, "--format", "json"])
    assert code == 0
    return capsys.readouterr().out


def golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_command_matches_golden_bytes(capsys, name):
    assert run(capsys, EXACT[name]) == golden(name)


def floats(tree) -> list[float]:
    if isinstance(tree, float):
        return [tree]
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [x for item in tree for x in floats(item)]
    return []


def assert_close(got, want, scale: float, path: str) -> None:
    """Same structure and non-float leaves; floats within FLOAT_RTOL * scale."""
    assert type(got) is type(want), path
    if isinstance(want, float):
        assert abs(got - want) <= FLOAT_RTOL * scale, (path, got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_close(got[key], want[key], scale, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, scale, f"{path}[{i}]")
    else:
        assert got == want, path


def assert_fields_close(got: dict, want: dict, limits: dict) -> None:
    """Each field named in limits below its limit; every other field as
    in want, floats within FLOAT_RTOL of the field's largest magnitude."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in limits:
            assert got[key] < limits[key], (key, got[key])
        else:
            scale = max((abs(x) for x in floats(value)), default=0.0)
            assert_close(got[key], value, scale, key)


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_numeric_command_matches_golden_within_tolerance(capsys, name):
    got, want = json.loads(run(capsys, NUMERIC[name])), json.loads(golden(name))
    assert_fields_close(got, want, RESIDUAL_LIMITS)


def test_verify_all_matches_golden_within_tolerance(capsys):
    got, want = json.loads(run(capsys, ("verify", "all"))), json.loads(golden("verify_all"))
    reports, want_reports = got.pop("reports"), want.pop("reports")
    assert got == want
    assert [r["suite"] for r in reports] == [r["suite"] for r in want_reports]
    for report, want_report in zip(reports, want_reports):
        limits = {} if want_report["max_residual"] is None else {
            "max_residual": want_report["tolerance"]
        }
        assert_fields_close({**report, "runtime_s": 0}, want_report, limits)
