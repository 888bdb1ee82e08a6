"""Workloads of the dfsim benchmark and the checks applied to their outputs.

A workload is a fixed list of the shipped configs under ``configs/``. The
workload seed replaces the config seed of the seeded experiments (``memory``,
``noisy_gate``) and reaches the program only that way; the other experiments
take no seed and produce the same output for every workload seed.

An execution is correct when every output passes:

* the golden comparison against the committed ``results/``: the same CSV
  header and row count and the same report JSON keys at every seed; every
  cell within 1e-12 and the same report flags where the golden applies,
  which is at the golden seed 42 for the seeded experiments and at every
  seed for the seedless ones, whose output does not depend on it;
* the seed-independent contracts of the README, at every seed.
"""

import csv
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDENS = ROOT / "results"
GOLDEN_SEED = 42
CELL_TOL = 1e-12
UNIT_TOL = 1e-9  # for outputs the README states as exactly 1

WORKLOADS = {
    "noisy_gate": ("noisy_gate",),
    "gates": ("gates",),
    "storage": ("crusher", "memory", "natural"),
}


def raw_configs(workload: str, seed: int, out_dir=None) -> list[dict]:
    """The workload's config dicts, seeded with the workload seed."""
    raws = []
    for name in WORKLOADS[workload]:
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        if "seed" in raw:
            raw["seed"] = seed
        if out_dir is not None:
            raw["out"] = str(out_dir)
        raws.append(raw)
    return raws


def missing_inputs(workload: str) -> list[Path]:
    """Source, config and golden files the workload needs but cannot find."""
    needed = [ROOT / "src" / "dfsim" / "__init__.py"]
    for name in WORKLOADS[workload]:
        needed += [CONFIGS / f"{name}.json", GOLDENS / f"{name}.csv",
                   GOLDENS / f"{name}_report.json"]
    return [p for p in needed if not p.is_file()]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell_differs(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got != want
    return not (math.isfinite(a) and abs(a - b) <= CELL_TOL)


def _shape(obj):
    """Key structure of a JSON value: nested keys and list lengths."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return None


def _flags(obj) -> list:
    if isinstance(obj, dict):
        out = [obj[k] for k in sorted(obj) if k in ("fe_above_threshold", "flag")]
        for k in sorted(obj):
            out += _flags(obj[k])
        return out
    if isinstance(obj, list):
        return [f for v in obj for f in _flags(v)]
    return []


def _golden_problems(label: str, table, report, golden_dir: Path, values: bool) -> list[str]:
    want = _read_csv(golden_dir / f"{label}.csv")
    want_report = json.loads((golden_dir / f"{label}_report.json").read_text())
    if table[0] != want[0] or len(table) != len(want):
        return [f"{label}: CSV header or row count differs from the golden"]
    problems = []
    if _shape(report) != _shape(want_report):
        problems.append(f"{label}: report JSON keys differ from the golden")
    if not values:
        return problems
    for i, (row, golden_row) in enumerate(zip(table[1:], want[1:]), 1):
        if len(row) != len(golden_row) or any(map(_cell_differs, row, golden_row)):
            problems.append(f"{label}: row {i} differs from the golden: {row} vs {golden_row}")
    if _flags(report) != _flags(want_report):
        problems.append(f"{label}: report JSON flags differ from the golden")
    return problems


def _near_one(values) -> bool:
    return all(abs(v - 1.0) <= UNIT_TOL for v in values)


def _contract_problems(experiment: str, rows: list[dict]) -> list[str]:
    col = lambda name: [float(r[name]) for r in rows]  # noqa: E731
    if experiment == "memory" and not _near_one(col("fe_encoded")):
        return ["memory: encoded fe is not 1"]
    if experiment == "noisy_gate" and not _near_one(col("fe_memory")):
        return ["noisy_gate: fe_memory is not 1"]
    if experiment == "gates" and min(col("fe")) < 0.999:
        return ["gates: a gate fe is below 0.999"]
    if experiment == "crusher":
        table = {r["process"]: [float(r[k]) for k in ("f0", "fplus", "fplusi", "fe")] for r in rows}
        exact = {"unencoded_crusher": [1.0, 0.5, 0.5, 0.5],
                 "encoded_no_noise": [1.0, 1.0, 1.0, 1.0],
                 "encoded_crusher": [1.0, 1.0, 1.0, 1.0]}
        if table.keys() != exact.keys() or any(
                abs(a - b) > CELL_TOL for k in exact for a, b in zip(table[k], exact[k])):
            return ["crusher: table is not exact"]
    return []


def check_outputs(workload: str, seed: int, out_dir: Path, golden_dir: Path = GOLDENS) -> list[str]:
    """Problems found in one execution's output files; empty when correct."""
    problems = []
    for raw in raw_configs(workload, seed):
        label = raw.get("label") or raw["experiment"]
        try:
            table = _read_csv(out_dir / f"{label}.csv")
            report = json.loads((out_dir / f"{label}_report.json").read_text())
            rows = [dict(zip(table[0], r)) for r in table[1:]]
            problems += _golden_problems(label, table, report, golden_dir,
                                         values="seed" not in raw or seed == GOLDEN_SEED)
            problems += _contract_problems(raw["experiment"], rows)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{label}: unreadable output: {exc!r}")
    return problems
