"""Call-site tracer for the dfsim benchmark.

dfsim modules bind each other's functions with ``from .x import y``, so a
function is traced by replacing the name in the module that calls it, not
in the module that defines it: ``dfsim.experiments.ensemble_propagators``
times the calls the experiments make, ``dfsim.ensemble.piecewise_segments``
the flattening inside the ensemble engine. ``numpy.linalg.eigh`` is traced
only where ``dfsim.ensemble`` calls it directly, through a view of numpy
that replaces that one function for that one module.

Each call records a span ``[name, start, end, parent]`` in memory; the spans
are written out after the timed region. Every per-layer time is self time:
the span's duration minus the time its child spans cover, so the times of
one execution add up to its traced wall time. ``restore`` puts every
original back.
"""

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

LAYERS = ("cli", "experiments", "pulses", "ensemble", "operators", "hamiltonians",
          "channels", "metrics")

# (module, attribute, span); the function bound to that name in that module
# is replaced while tracing
CALL_SITES = (
    ("dfsim.experiments", "crusher_experiment", "experiments.experiment"),
    ("dfsim.experiments", "memory_experiment", "experiments.experiment"),
    ("dfsim.experiments", "natural_experiment", "experiments.experiment"),
    ("dfsim.experiments", "gates_experiment", "experiments.experiment"),
    ("dfsim.experiments", "noisy_gate_experiment", "experiments.experiment"),
    ("dfsim.experiments", "member_gate_fidelities", "experiments.member_fidelity"),
    ("dfsim.experiments", "ensemble_propagators", "ensemble.propagators"),
    ("dfsim.experiments", "random_walk_waveform", "ensemble.waveform"),
    ("dfsim.experiments", "diffusion_phase_kicks", "ensemble.kicks"),
    ("dfsim.experiments", "composite_y90", "pulses.calibrate"),
    ("dfsim.experiments", "propagator", "pulses.propagator"),
    ("dfsim.pulses", "propagator", "pulses.propagator"),
    ("dfsim.experiments", "dfs_residence_fraction", "pulses.residence"),
    ("dfsim.pulses", "piecewise_segments", "pulses.flatten"),
    ("dfsim.ensemble", "piecewise_segments", "pulses.flatten"),
    ("dfsim.operators", "expm_hermitian", "operators.expm"),
    ("dfsim.pulses", "internal_hamiltonian", "hamiltonians.build"),
    ("dfsim.pulses", "rf_hamiltonian", "hamiltonians.build"),
    ("dfsim.experiments", "natural_relaxation_step", "channels.relaxation_step"),
    ("dfsim.channels.KrausChannel", "superoperator", "channels.superoperator"),
    ("dfsim.experiments", "collective_dephasing", "channels.dephasing"),
    ("dfsim.experiments", "induced_data_channel", "metrics.induced_channel"),
    ("dfsim.experiments", "gate_fidelity_from_states", "metrics.state_fidelity"),
)

# per-layer metric -> span whose self time it sums
SELF_TIMES = {
    "ensemble.propagators_self_s": "ensemble.propagators",
    "ensemble.eigh_s": "ensemble.eigh",
    "ensemble.kicks_s": "ensemble.kicks",
    "ensemble.waveform_s": "ensemble.waveform",
    "pulses.flatten_s": "pulses.flatten",
    "pulses.propagator_s": "pulses.propagator",
    "pulses.calibrate_s": "pulses.calibrate",
    "pulses.residence_s": "pulses.residence",
    "operators.expm_s": "operators.expm",
    "hamiltonians.build_s": "hamiltonians.build",
    "experiments.member_fidelity_s": "experiments.member_fidelity",
    "experiments.self_s": "experiments.experiment",
    "experiments.write_s": "experiments.run",
    "experiments.config_s": "experiments.config",
    "channels.relaxation_step_s": "channels.relaxation_step",
    "channels.superoperator_s": "channels.superoperator",
    "channels.dephasing_s": "channels.dephasing",
    "metrics.induced_channel_s": "metrics.induced_channel",
    "metrics.state_fidelity_s": "metrics.state_fidelity",
}

# per-layer metric -> span whose calls it counts
CALLS = {
    "ensemble.propagators_calls": "ensemble.propagators",
    "ensemble.eigh_calls": "ensemble.eigh",
    "pulses.propagator_calls": "pulses.propagator",
    "pulses.calibrate_calls": "pulses.calibrate",
    "operators.expm_calls": "operators.expm",
    "hamiltonians.build_calls": "hamiltonians.build",
}

COUNTERS = ("ensemble.eigh_matrices", "pulses.segments", "pulses.events",
            "pulses.trajectory_steps", "experiments.member_fidelity_members",
            "experiments.bytes_written")

# counts that must repeat exactly between traced executions of one workload
DETERMINISTIC = ("pulses.segments", "ensemble.eigh_matrices", "operators.expm_calls")


def _count_flatten(counts, args, result):
    counts["pulses.segments"] += len(result)
    counts["pulses.events"] += len(args[0].events)


def _count_members(counts, args, result):
    counts["experiments.member_fidelity_members"] += len(result)


def _count_matrices(counts, args, result):
    a = args[0]
    counts["ensemble.eigh_matrices"] += a.shape[0] if a.ndim == 3 else 1


COUNT_HOOKS = {
    "pulses.flatten": _count_flatten,
    "experiments.member_fidelity": _count_members,
    "ensemble.eigh": _count_matrices,
}


class _View:
    """Attribute view of `base` with some attributes replaced."""

    def __init__(self, base, **replaced):
        self.__dict__.update(replaced)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()
        self.errors = Counter()    # layer -> dfsim errors raised through its spans
        self._open = []
        self._seen = []            # (layer, exception) pairs already counted
        self._patches = []         # (owner, attribute, original)
        from dfsim.errors import ConfigError, NumericalContractError
        self._error_types = (ConfigError, NumericalContractError)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        except self._error_types as exc:
            layer = name.split(".", 1)[0]
            if not any(l == layer and e is exc for l, e in self._seen):
                self._seen.append((layer, exc))
                self.errors[layer] += 1
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def _traced(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace every traced name; `restore` undoes it."""
        for path, attr, name in CALL_SITES:
            owner = _resolve(path)
            self._patch(owner, attr, self._traced(name, getattr(owner, attr)))

        pulses = importlib.import_module("dfsim.pulses")
        trajectory = pulses.state_trajectory

        @functools.wraps(trajectory)
        def counted_trajectory(*args, **kwargs):
            for item in trajectory(*args, **kwargs):
                self.counts["pulses.trajectory_steps"] += 1
                yield item
        self._patch(pulses, "state_trajectory", counted_trajectory)

        ensemble = importlib.import_module("dfsim.ensemble")
        np = ensemble.np
        eigh = self._traced("ensemble.eigh", np.linalg.eigh)
        self._patch(ensemble, "np", _View(np, linalg=_View(np.linalg, eigh=eigh)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def layer_metrics(self) -> dict:
        durations = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent is not None:
                covered[parent] += d
        self_time, calls = Counter(), Counter()
        for (name, *_), d, c in zip(self.spans, durations, covered):
            self_time[name] += d - c
            calls[name] += 1
        metrics = {m: self_time[s] for m, s in SELF_TIMES.items()}
        metrics.update({m: calls[s] for m, s in CALLS.items()})
        metrics.update({m: self.counts[m] for m in COUNTERS})
        events = self.counts["pulses.events"]
        metrics["pulses.segments_per_event"] = self.counts["pulses.segments"] / events if events else 0.0
        metrics.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
