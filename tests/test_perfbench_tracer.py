"""The benchmark tracer's contract with the package.

`perfbench/tracer.py` times dfsim by replacing names in its modules. Every
name it replaces must resolve, installing and restoring must put each
original back, and a traced run must write the same output as an untraced
one. These are the checks of `perfbench/selftest.py` other than its
pinned `gates` and `eigh` counts.
"""

import importlib.util
import sys
from pathlib import Path

from dfsim.experiments import config_from_dict, run

# loaded by path, without writing bytecode into perfbench/
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    _spec.loader.exec_module(tracer)
finally:
    sys.dont_write_bytecode = _dont_write

NAMES = [(path, attr) for path, attr, _ in tracer.CALL_SITES]
NAMES += [("dfsim.pulses", "state_trajectory"), ("dfsim.ensemble", "np")]


def bindings() -> list:
    owners = [(tracer._resolve(path), attr) for path, attr in NAMES]
    return [(owner, attr, getattr(owner, attr)) for owner, attr in owners]


def test_every_traced_name_resolves():
    missing = [f"{path}.{attr}" for path, attr in NAMES if not hasattr(tracer._resolve(path), attr)]
    assert not missing


def test_installed_replaces_and_restores():
    before = bindings()
    with tracer.Tracer().installed():
        assert [f"{o.__name__}.{a}" for o, a, f in before if getattr(o, a) is f] == []
    assert [f"{o.__name__}.{a}" for o, a, f in before if getattr(o, a) is not f] == []


def test_traced_run_writes_the_same_csv(tmp_path):
    raw = {"experiment": "noisy_gate", "label": "tiny", "seed": 3,
           "ensemble": {"n_members": 3}, "sweep": {"grad_max_khz_per_cm": [0.0, 1.0]}}
    traced = tracer.Tracer()
    with traced.installed():
        run(config_from_dict(dict(raw, out=str(tmp_path / "traced"))))
    run(config_from_dict(dict(raw, out=str(tmp_path / "plain"))))
    layers = traced.layer_metrics()
    assert layers["ensemble.propagators_calls"] == 2
    assert layers["experiments.member_fidelity_members"] == 4 * 3
    assert (tmp_path / "traced" / "tiny.csv").read_bytes() == (tmp_path / "plain" / "tiny.csv").read_bytes()
