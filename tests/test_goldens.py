"""The shipped configs reproduce the committed results/ goldens.

Every config under configs/ is run again (seed 42 where the experiment is
seeded). CSV cells must agree with results/ within 1e-12, and each report
must carry the same JSON keys and the same threshold/fit flags. Kernel
rewrites may change round-off, so the comparison is numerical rather than
byte for byte; run-to-run output is still byte-identical.

Cells are compared as the decimals they print as, not as binary floats: a
step of one in the 12th printed digit of a value in [0.1, 1) is exactly
1e-12, while its float difference can land on either side of 1e-12.
"""

import csv
import json
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest

from dfsim.experiments import EXPERIMENTS, config_from_dict, run

ROOT = Path(__file__).resolve().parents[1]
NAMES = tuple(EXPERIMENTS)
CELL_TOL = Decimal("1e-12")


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


def cell_agrees(cell: str, expected: str) -> bool:
    """A numeric cell is within CELL_TOL of its finite golden; any other
    cell equals it as text."""
    try:
        got, want = Decimal(cell), Decimal(expected)
    except InvalidOperation:
        return cell == expected
    return got.is_finite() and want.is_finite() and abs(got - want) <= CELL_TOL


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
        assert all(map(cell_agrees, row, golden)), (row, golden)


@pytest.mark.parametrize("cell, expected, agrees", [
    ("0.123456789012", "0.123456789011", True),   # float difference 9.99992e-13
    ("0.220927819702", "0.220927819701", True),   # float difference 1.0000056e-12
    ("0.123456789013", "0.123456789011", False),
    ("0.220927819703", "0.220927819701", False),
    ("1", "1.000000000001", True),
    ("enc_x_90", "enc_x_90", True),
    ("enc_x_90", "enc_z_90", False),
    ("nan", "nan", False),
])
def test_cell_comparison(cell, expected, agrees):
    assert cell_agrees(cell, expected) is agrees


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
