"""The shipped configs reproduce the committed results/ goldens.

Every config under configs/ is run again (seed 42 where the experiment is
seeded). CSV cells must agree with results/ within 1e-12, and each report
must carry the same JSON keys, the same `fe_above_threshold` flags and
every numeric value within 1e-12 of its golden, relative above 1 in magnitude.
Kernel rewrites may change round-off, so the comparison is numerical rather
than byte for byte; run-to-run output is still byte-identical.

Cells are compared as the decimals they print as, not as binary floats: a
step of one in the 12th printed digit of a value in [0.1, 1) is exactly
1e-12, while its float difference can land on either side of 1e-12.
"""

import csv
import json
import math
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


def leaves(obj, path=""):
    """(path, value) of every leaf of a JSON value, in key order."""
    if isinstance(obj, dict):
        return [leaf for k in sorted(obj) for leaf in leaves(obj[k], f"{path}.{k}")]
    if isinstance(obj, list):
        return [leaf for i, v in enumerate(obj) for leaf in leaves(v, f"{path}[{i}]")]
    return [(path, obj)]


def flags(obj) -> list:
    """Every `fe_above_threshold` value of a JSON value, in key order."""
    return [v for path, v in leaves(obj) if path.endswith(".fe_above_threshold")]


def leaf_agrees(got, want) -> bool:
    """A number within 1e-12 * max(1, |golden|) of its golden (an infinite
    one equal to it); any other leaf equal to it."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if not numbers:
        return type(got) is type(want) and got == want
    return got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(regenerated, name):
    got = json.loads((regenerated / f"{name}_report.json").read_text())
    want = json.loads((ROOT / "results" / f"{name}_report.json").read_text())
    assert key_shape(got) == key_shape(want)
    assert flags(got) == flags(want)
    differs = [(path, a, b) for (path, a), (_, b) in zip(leaves(got), leaves(want)) if not leaf_agrees(a, b)]
    assert not differs


@pytest.mark.parametrize("got, want, agrees", [
    (0.5 + 9e-13, 0.5, True), (0.5 + 2e-12, 0.5, False),
    (3e6 + 2e-6, 3e6, True), (3e6 + 4e-6, 3e6, False),   # relative above 1
    (math.inf, math.inf, True), (math.inf, 1e308, False), (math.nan, math.nan, False),
    (None, None, True), (None, 0.0, False), (True, 1, False), ("a", "a", True),
])
def test_leaf_comparison(got, want, agrees):
    assert leaf_agrees(got, want) is agrees


@pytest.mark.parametrize("name", NAMES)
def test_second_run_is_byte_identical(regenerated, tmp_path, name):
    run_shipped(name, tmp_path)
    for file in (f"{name}.csv", f"{name}_report.json"):
        assert (tmp_path / file).read_bytes() == (regenerated / file).read_bytes()
