"""The shipped configs reproduce the committed results/ goldens.

Every config under configs/ is run again (seed 42 where the experiment is
seeded). CSV cells must agree with results/ within 1e-12, and each report
must carry the same JSON keys and the same threshold/fit flags. Kernel
rewrites may change round-off, so the comparison is numerical rather than
byte for byte; run-to-run output is still byte-identical.
"""

import csv
import json
from pathlib import Path

import pytest

from dfsim.experiments import config_from_dict, run

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("crusher", "memory", "natural", "gates", "noisy_gate")
CELL_TOL = 1e-12


def run_shipped(name: str, out_dir: Path) -> None:
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    overrides = {"out": str(out_dir), "seed": 42 if "seed" in raw else None}
    run(config_from_dict(raw, overrides))


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("regenerated")
    for name in NAMES:
        run_shipped(name, out)
    return out


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def key_shape(obj):
    if isinstance(obj, dict):
        return {k: key_shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [key_shape(v) for v in obj]
    return None


def flags(obj) -> list:
    if isinstance(obj, dict):
        found = [obj[k] for k in sorted(obj) if k in ("fe_above_threshold", "flag")]
        return found + [f for k in sorted(obj) for f in flags(obj[k])]
    if isinstance(obj, list):
        return [f for v in obj for f in flags(v)]
    return []


@pytest.mark.parametrize("name", NAMES)
def test_csv_matches_golden(regenerated, name):
    got = read_csv(regenerated / f"{name}.csv")
    want = read_csv(ROOT / "results" / f"{name}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, golden in zip(got[1:], want[1:]):
        assert len(row) == len(golden)
        for cell, expected in zip(row, golden):
            try:
                assert abs(float(cell) - float(expected)) <= CELL_TOL, (row, golden)
            except ValueError:
                assert cell == expected


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(regenerated, name):
    got = json.loads((regenerated / f"{name}_report.json").read_text())
    want = json.loads((ROOT / "results" / f"{name}_report.json").read_text())
    assert key_shape(got) == key_shape(want)
    assert flags(got) == flags(want)


def test_gates_run_is_byte_identical(tmp_path):
    run_shipped("gates", tmp_path / "a")
    run_shipped("gates", tmp_path / "b")
    for name in ("gates.csv", "gates_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
