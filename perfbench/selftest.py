"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that the tracer restores every name it replaces, that tracing leaves
outputs unchanged, that the traced counts of the ``gates`` workload are the
known ones and repeat exactly, that a tiny ensemble run is attributed to the
ensemble layer, and that a corrupted golden row makes executions count as
failed. Exits non-zero at the first failed check.
"""

import shutil
import tempfile
import time
from pathlib import Path

import run
import worker
from tracer import CALL_SITES, Tracer, _resolve
from workloads import GOLDENS, raw_configs

config_from_dict, run_experiment = worker._import_api()


class CheckFailed(Exception):
    pass


def expect(condition: bool, message) -> None:
    if not condition:
        raise CheckFailed(message)


def _bindings() -> list:
    names = [(path, attr) for path, attr, _ in CALL_SITES]
    names += [("dfsim.pulses", "state_trajectory"), ("dfsim.ensemble", "np")]
    return [(path, attr, getattr(_resolve(path), attr)) for path, attr in names]


def check_restore(tmp: Path) -> None:
    before = _bindings()
    with Tracer().installed():
        replaced = [getattr(_resolve(p), a) is not f for p, a, f in before]
        expect(all(replaced), "a traced name was not replaced")
    restored = [getattr(_resolve(p), a) is f for p, a, f in before]
    expect(all(restored), "a traced name was not restored")


def _traced_run(raw: dict, out_dir: Path) -> dict:
    tracer = Tracer()
    config = config_from_dict(dict(raw, out=str(out_dir)))
    with tracer.installed():
        with tracer.span("experiments.run"):
            run_experiment(config)
    return tracer.layer_metrics()


def check_gates_counts(tmp: Path) -> None:
    raw = raw_configs("gates", 42)[0]
    first = _traced_run(raw, tmp / "a")
    second = _traced_run(raw, tmp / "b")
    expected = {"pulses.segments": 966, "pulses.events": 966, "operators.expm_calls": 37,
                "pulses.propagator_calls": 4, "pulses.calibrate_calls": 1,
                "ensemble.propagators_calls": 0}
    got = {k: first[k] for k in expected}
    expect(got == expected, f"gates counts {got} != {expected}")
    counts = [k for k in first if not k.endswith("_s")]
    expect([first[k] for k in counts] == [second[k] for k in counts],
           "traced counts differ between two runs")
    expect((tmp / "a" / "gates.csv").read_bytes() == (GOLDENS / "gates.csv").read_bytes(),
           "traced gates output differs from the golden")


def check_tiny_ensemble(tmp: Path) -> None:
    raw = {"experiment": "noisy_gate", "label": "tiny", "seed": 3,
           "ensemble": {"n_members": 3}, "sweep": {"grad_max_khz_per_cm": [0.0, 1.0]}}
    layers = _traced_run(raw, tmp / "traced")
    run_experiment(config_from_dict(dict(raw, out=str(tmp / "plain"))))
    expect(layers["ensemble.propagators_calls"] == 4, layers)
    expect(layers["ensemble.eigh_calls"] > 0, layers)
    expect(layers["ensemble.eigh_matrices"] == 3 * layers["ensemble.eigh_calls"], layers)
    expect(layers["experiments.member_fidelity_members"] == 4 * 3, layers)
    expect((tmp / "traced" / "tiny.csv").read_bytes() == (tmp / "plain" / "tiny.csv").read_bytes(),
           "tracing changed the output")


def check_corrupted_golden(tmp: Path) -> None:
    golden = tmp / "golden"
    shutil.copytree(GOLDENS, golden)
    lines = (golden / "gates.csv").read_text().splitlines()
    name, fe, residence = lines[2].split(",")
    lines[2] = f"{name},{float(fe) + 1e-9!r},{residence}"
    (golden / "gates.csv").write_text("\n".join(lines) + "\n")
    bad = run.measure("gates", 42, seconds=0, trace=False, started=time.monotonic(),
                      golden_dir=golden)
    expect(bad["attempted"] == run.MIN_EXECUTIONS, bad)
    expect(len(bad["failures"]) == bad["attempted"], bad["failures"])
    clean = run.measure("gates", 42, seconds=0, trace=False, started=time.monotonic())
    expect(not clean["failures"], clean["failures"])


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        for check in (check_restore, check_gates_counts, check_tiny_ensemble, check_corrupted_golden):
            t0 = time.perf_counter()
            (tmp / check.__name__).mkdir()
            try:
                check(tmp / check.__name__)
            except CheckFailed as exc:
                print(f"FAIL {check.__name__}: {exc}")
                return 1
            print(f"ok   {check.__name__}  {time.perf_counter() - t0:.2f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
