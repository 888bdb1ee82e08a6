"""One sample of the dfsim benchmark, in a fresh interpreter.

    python3 perfbench/worker.py setup WORKLOAD SEED T0
    python3 perfbench/worker.py exec WORKLOAD SEED T0 OUT_DIR TRACE

T0 is the parent's ``time.monotonic()`` just before it started this
interpreter. ``setup`` imports dfsim, builds the workload's validated configs
and reports ``setup_s``, the seconds since T0. ``exec`` does the same, then
runs the configs once through ``dfsim.experiments.run``, writing into
OUT_DIR, and adds wall and CPU seconds of that execution and the process's
peak RSS. With TRACE=1 it runs under the call-site tracer instead, reports
the per-layer metrics and writes the spans to OUT_DIR/spans.json after the
timed region. Prints one JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import ROOT, raw_configs


def _import_api():
    sys.path.insert(0, str(ROOT / "src"))
    import dfsim  # noqa: F401  (the whole package, as a user's import loads it)
    from dfsim.experiments import config_from_dict, run
    return config_from_dict, run


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def plain(workload: str, seed: int, started: float, out_dir: Path | None) -> dict:
    config_from_dict, run = _import_api()
    configs = [config_from_dict(raw) for raw in raw_configs(workload, seed, out_dir)]
    result = {"setup_s": time.monotonic() - started}
    if out_dir is None:
        return result
    t0, c0 = time.perf_counter(), _cpu_s()
    for config in configs:
        run(config)
    t1, c1 = time.perf_counter(), _cpu_s()
    result.update(exec_s=t1 - t0, cpu_s=c1 - c0,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def traced(workload: str, seed: int, out_dir: Path) -> dict:
    config_from_dict, run = _import_api()
    from tracer import Tracer
    tracer = Tracer()
    configs = []
    for raw in raw_configs(workload, seed, out_dir):
        with tracer.span("experiments.config"):
            configs.append(config_from_dict(raw))
    with tracer.installed():
        t0 = time.perf_counter()
        for config in configs:
            with tracer.span("experiments.run"):
                result = run(config)
            tracer.counts["experiments.bytes_written"] += (
                result["csv"].stat().st_size + result["json"].stat().st_size)
        t1 = time.perf_counter()
    tracer.write_spans(out_dir / "spans.json")
    return {"exec_s": t1 - t0, "layers": tracer.layer_metrics()}


def main(argv: list[str]) -> int:
    mode, workload, seed, started = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "setup":
        result = plain(workload, seed, started, None)
    elif argv[5] == "1":
        result = traced(workload, seed, Path(argv[4]))
    else:
        result = plain(workload, seed, started, Path(argv[4]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
