"""Benchmark of dfsim: wall time, CPU time, memory and set-up time of the
shipped experiments, end to end, and the time spent in each module.

    python3 perfbench/run.py --workload {noisy_gate,gates,storage} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; dfsim is imported from its ``src/``.
A user runs one experiment at a time, so every workload is a closed loop
with one caller: each execution runs in a fresh interpreter
(``worker.py``) that builds the workload's configs and runs them once
through ``dfsim.experiments.run``, and the next starts when it has ended.
Executions repeat until ``--seconds`` have passed, and never fewer than
two. Every execution's outputs go to a scratch directory under
``.bench_run/`` and are checked against the committed goldens and the
README contracts (``workloads.py``).

With ``--trace 0`` the result carries the end-to-end metrics, each the
median over the run's samples:

* ``setup_s``     seconds from starting a fresh interpreter to having
                  imported dfsim and built the configs, sampled by every
                  execution and by interpreters started for this alone,
                  before and after the executions;
* ``exec_s``      wall seconds of one execution, file output included;
* ``cpu_s``       user + system CPU seconds of the same execution;
* ``peak_rss_mb`` peak resident memory of the execution's process, MiB.

With ``--trace 1`` executions alternate between untraced and traced, and the
result carries the per-layer metrics of ``tracer.py`` (medians over the
traced executions) plus ``trace.exec_s`` and ``trace.overhead_frac``
(traced over untraced median ``exec_s``, minus one).

Lines before the last describe the run for a reader: every metric with its
unit, sample counts, ``fail_frac`` (failed / attempted executions) and the
machine record. The last line is the JSON result; a full record of the run
is also written under ``.bench_run/records/``.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracer import DETERMINISTIC
from workloads import GOLDENS, ROOT, WORKLOADS, check_outputs, missing_inputs

WORKER = Path(__file__).resolve().parent / "worker.py"
SCRATCH = ROOT / ".bench_run"
SETUP_SAMPLES = 8  # interpreters started only to sample set-up
MIN_EXECUTIONS = 2
DEADLINE_S = 165  # no execution may run past this many seconds into the run



def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith(("_frac", "_per_event")):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, as found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                         if k in os.environ}},
        "loadavg_before": _loadavg(),
    }


def _worker(mode: str, workload: str, seed: int, extra: list[str],
            timeout: float) -> tuple[dict | None, str]:
    """Run one worker to completion; its JSON result, or None and the reason."""
    args = [mode, workload, str(seed), repr(time.monotonic()), *extra]
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"unreadable worker output: {out[-200:]!r}"


def sample_setup(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        result, reason = _worker("setup", workload, seed, [], timeout=60)
        if result is None:
            raise RuntimeError(f"set-up failed: {reason}")
        samples.append(result["setup_s"])
    return samples


def execute_once(workload: str, seed: int, traced: bool, timeout: float,
                 keep_spans: Path, golden_dir: Path = GOLDENS):
    """One execution in a fresh worker, with its outputs checked."""
    SCRATCH.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        result, reason = _worker("exec", workload, seed, [str(out_dir), "1" if traced else "0"],
                                 timeout)
        problems = [reason] if result is None else check_outputs(workload, seed, out_dir, golden_dir)
        if traced and result is not None:
            keep_spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(out_dir / "spans.json", keep_spans)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result, problems


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: int, trace: bool, started: float,
            golden_dir: Path = GOLDENS) -> dict:
    kinds = (False, True) if trace else (False,)
    samples = {False: [], True: []}
    failures, counts_seen = [], []
    attempted = 0
    longest = 0.0
    loop_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - loop_start
        if attempted >= MIN_EXECUTIONS and elapsed >= seconds:
            break
        if attempted and time.monotonic() - started + longest * len(kinds) > DEADLINE_S:
            break
        for traced in kinds:
            t = time.monotonic()
            spans = SCRATCH / "spans" / f"{workload}-seed{seed}-{attempted}.json"
            result, problems = execute_once(workload, seed, traced,
                                            DEADLINE_S - (t - started), spans, golden_dir)
            longest = max(longest, time.monotonic() - t)
            attempted += 1
            if problems:
                failures.append({"execution": attempted, "problems": problems})
            if result is not None:
                samples[traced].append(result)
                if traced:
                    counts_seen.append({k: result["layers"][k] for k in DETERMINISTIC})
    repeatable = all(c == counts_seen[0] for c in counts_seen)
    return {"samples": samples, "attempted": attempted, "failures": failures,
            "repeatable": repeatable, "counts": counts_seen}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    missing = missing_inputs(args.workload)
    if missing:
        print(f"cannot run: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    machine = machine_record()
    # set-up is sampled before and after the executions, and by each execution
    # itself, so that its median spans the whole run
    extra_setup = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        setup = sample_setup(args.workload, args.seed, extra_setup)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), started)
        setup += sample_setup(args.workload, args.seed, extra_setup)
    except RuntimeError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 1
    machine["loadavg_after"] = _loadavg()
    plain, traced = run["samples"][False], run["samples"][True]
    if not plain or (args.trace and not traced):
        print(f"no execution completed: {run['failures']}", file=sys.stderr)
        return 1
    setup += [r["setup_s"] for r in plain]

    exec_s = [r["exec_s"] for r in plain]
    if args.trace:
        metrics = {m: median([r["layers"][m] for r in traced]) for m in traced[0]["layers"]}
        metrics["trace.exec_s"] = median([r["exec_s"] for r in traced])
        metrics["trace.overhead_frac"] = metrics["trace.exec_s"] / median(exec_s) - 1
    else:
        metrics = {"setup_s": median(setup), "exec_s": median(exec_s),
                   "cpu_s": median([r["cpu_s"] for r in plain]),
                   "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
    units = {m: _unit(m) for m in metrics}
    failed = len(run["failures"])
    result = {
        "correct": not failed and run["repeatable"],
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    tail = tail_percentile(exec_s)
    record = {"args": vars(args), "machine": machine, "failures": run["failures"],
              "fail_frac": failed / run["attempted"], "setup_samples": setup,
              "exec_samples": plain, "traced_samples": traced, "result": result}
    (SCRATCH / "records").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = SCRATCH / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  executions {run['attempted']}"
          f" ({len(plain)} untraced, {len(traced)} traced)  setup samples {len(setup)}")
    for m, v in metrics.items():
        print(f"  {m:36s} {v:.6g} {units[m]}")
    print(f"  {'fail_frac':36s} {failed / run['attempted']:.6g} ratio")
    if tail:
        print(f"  exec_s p{tail[0]}: {tail[1]:.6g} s")
    for failure in run["failures"]:
        print(f"  FAILED execution {failure['execution']}: {failure['problems']}")
    if not run["repeatable"]:
        print(f"  FAILED: traced counts differ between executions: {run['counts']}")
    print(f"machine {json.dumps(machine)}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
