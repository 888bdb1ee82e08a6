"""Declarative experiment driver.

Five experiments reproduce the storage and encoded-control studies:

* ``crusher``    -- full-strength collective dephasing applied to the
                    un-encoded and encoded data spin (table of state
                    fidelities and F_e);
* ``memory``     -- gradient-diffusion noise between encode and decode,
                    its strength set by one swept gradient (F_e curves,
                    encoded vs un-encoded, from the exact channel the
                    diffusing sample averages to; the crusher is its
                    infinite-strength row);
* ``natural``    -- ambient T1/T2 relaxation over swept holding times
                    (coherence metric curves);
* ``gates``      -- noiseless finite-duration encoded gates (gate F_e and
                    code-space residence);
* ``noisy_gate`` -- an encoded gate of GATES (sweep.gate, by default
                    the composite y rotation) under one random-walk
                    gradient noise shape of swept strength (F_e; fe_stderr,
                    the member spread over the midpoint quadrature nodes of
                    one waveform realization divided by sqrt(n), see
                    ROADMAP item 1; and the held-memory reference).

Every experiment is a pure function of (spin system, ensemble spec, sweep,
seed); `run` adds the CSV/JSON writing. Every reported fidelity and
coherence is read off the data spin through `metrics.data_blocks`; every
propagated gate F_e (``gates``, and ``noisy_gate``'s gate and held memory)
is one `gate_fidelities` call. Only ``noisy_gate`` draws random numbers:
one unit noise shape from the seed, which every point scales to its own
strength, so a point's result does not depend on the rest of the sweep.
The engineered noise window is modeled with the deterministic internal
evolution refocused exactly (the idealized limit of the refocusing pulse
pair the hardware sequence uses), so storage fidelities isolate the noise.
"""

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import operators as ops
from .channels import KrausChannel, collective_dephasing, natural_relaxation_step
from .ensemble import (
    DEFAULT_STEP_TIME,
    EnsembleSpec,
    diffusion_phase_kicks,  # not called here; perfbench/tracer.py patches this name in this module
    ensemble_propagators,
    member_positions,
    random_walk_waveform,
)
from .errors import ConfigError
from .hamiltonians import SpinSystem
from .metrics import (
    ENTANGLEMENT_THRESHOLD,
    FidelityReport,
    coherence_metric,
    data_blocks,
    gate_fidelity_from_states,
    induced_data_channel,
    member_gate_fidelities,
)
from .pulses import Delay, PulseSequence, composite_y90, dfs_residence_fraction, enc_x, enc_z, propagator
from .units import is_real, khz_per_cm_to_t_per_m


@dataclass(frozen=True)
class Experiment:
    """One experiment: CSV header, default sweep (its keys are the allowed
    keys), whether it needs a seed, and a runner mapping an ExperimentConfig
    to (rows, reports). The runners look the experiment functions up by name
    at call time, so a replacement of such a name in this module (the
    benchmark tracer's) reaches every run."""

    header: str
    sweep: dict
    runner: Callable
    seeded: bool = False


EXPERIMENTS = {
    "memory": Experiment(
        header="noise_strength,fe_encoded,fe_unencoded",
        sweep={"gradients_t_per_m": [round(x, 4) for x in np.linspace(0.0, 0.6, 13)]},
        runner=lambda c: memory_experiment(c.spin_system, c.ensemble, c.sweep)),
    "crusher": Experiment(
        header="process,f0,fplus,fplusi,fe",
        sweep={"processes": ["unencoded_crusher", "encoded_no_noise", "encoded_crusher"]},
        runner=lambda c: crusher_experiment(c.sweep)),
    "natural": Experiment(
        header="t_s,c_encoded,c_unencoded",
        sweep={"times_s": [round(x, 4) for x in np.linspace(0.0, 3.0, 13)],
               "f_collective": 0.9},
        runner=lambda c: natural_experiment(c.spin_system, c.sweep)),
    "gates": Experiment(
        header="gate,fe,dfs_residence",
        sweep={"gates": ["enc_z_90", "enc_x_90", "composite_y90"]},
        runner=lambda c: gates_experiment(c.spin_system, c.sweep)),
    "noisy_gate": Experiment(
        header="grad_max_t_per_m,fe,fe_stderr,fe_memory",
        # the plateau of the hard-pulse composite ends near 1 kHz/cm, so the
        # low end is sampled densely before the sweep fans out to 100 kHz/cm
        sweep={"grad_max_khz_per_cm": [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
               "step_time_s": DEFAULT_STEP_TIME, "gate": "composite_y90"},
        seeded=True,
        runner=lambda c: noisy_gate_experiment(c.spin_system, c.ensemble, c.sweep, c.seed)),
}


@dataclass
class ExperimentConfig:
    experiment: str
    spin_system: SpinSystem = field(default_factory=SpinSystem)
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    sweep: dict = field(default_factory=dict)
    seed: int | None = None
    out_dir: str = "results"
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {tuple(EXPERIMENTS)}, got {self.experiment!r}")
        record = EXPERIMENTS[self.experiment]
        unknown = set(self.sweep) - set(record.sweep)
        if unknown:
            raise ConfigError(f"sweep: unknown field(s) for {self.experiment}: {sorted(unknown)}")
        self.sweep = {**copy.deepcopy(record.sweep), **self.sweep}
        if isinstance(self.seed, float) and self.seed.is_integer():
            self.seed = int(self.seed)
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
                raise ConfigError(f"seed: must be a non-negative integer, got {self.seed!r}")
            self.seed = int(self.seed)
        if record.seeded and self.seed is None:
            raise ConfigError(f"seed: required for ensemble experiment {self.experiment!r}")
        if not self.label:
            self.label = self.experiment
        if any(sep in self.label for sep in ("/", "\\", "..", "\0")):
            raise ConfigError(f"label: must be a plain file stem, got {self.label!r}")


_CONFIG_KEYS = {"experiment", "spin_system", "ensemble", "sweep", "seed", "out", "label"}


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config from a parsed config file plus CLI overrides.

    Raises ConfigError naming the offending field, or `config` when `raw`
    is not a mapping.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config: must be a JSON object, got {raw!r}")
    data = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    if "experiment" not in data:
        raise ConfigError("experiment: field is required")
    for key in ("out", "label"):
        if not isinstance(data.get(key, ""), str):
            raise ConfigError(f"{key}: must be a string, got {data[key]!r}")

    def build(section: str, cls):
        params = data.get(section, {})
        if not isinstance(params, dict):
            raise ConfigError(f"{section}: must be a mapping")
        try:
            return cls(**params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    sys = build("spin_system", SpinSystem)
    ens = build("ensemble", EnsembleSpec)
    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: must be a mapping")
    return ExperimentConfig(
        experiment=data["experiment"],
        spin_system=sys,
        ensemble=ens,
        sweep=sweep,
        seed=data.get("seed"),
        out_dir=data.get("out", "results"),
        label=data.get("label", ""),
    )


_POSITIVE = (lambda x: x > 0, " > 0")
_NON_NEGATIVE = (lambda x: x >= 0, " >= 0")


def _sweep_number(key: str, raw, ok=lambda x: True, need: str = "") -> float:
    """`raw`, the value of sweep field `key`, as a float; ConfigError naming
    the field unless it is a finite number (`units.is_real`) and `ok` holds
    (`need` says what it asks)."""
    x = float(raw) if is_real(raw) else math.nan
    if not (math.isfinite(x) and ok(x)):
        raise ConfigError(f"sweep.{key}: must be a finite number{need}, got {raw!r}")
    return x


def _sweep_values(sweep: dict, key: str, ok=lambda x: True, need: str = "", known=None) -> list:
    """The sweep list `key`: names out of `known` if that is given, else
    floats parsed by `_sweep_number`. ConfigError naming the field unless it
    is a non-empty list of such values."""
    raw = sweep[key]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"sweep.{key}: must be a non-empty list, got {raw!r}")
    if known is None:
        return [_sweep_number(key, v, ok, need) for v in raw]
    unknown = [v for v in raw if not isinstance(v, str) or v not in known]
    if unknown:
        raise ConfigError(f"sweep.{key}: unknown name(s) {unknown}; known: {list(known)}")
    return list(raw)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

# crusher process -> (collective dephasing strength, encoded)
CRUSHER_PROCESSES = {
    "unencoded_crusher": (math.inf, False),
    "encoded_no_noise": (0.0, True),
    "encoded_crusher": (math.inf, True),
}


def _held_report(ch: KrausChannel, encoded: bool, label: str, **metadata) -> FidelityReport:
    """The data spin held through two-spin channel `ch`, un-encoded or
    encoded: its three state fidelities and F_e against the identity."""
    report = gate_fidelity_from_states(induced_data_channel(ch, encoded), np.eye(2, dtype=complex))
    report.label, report.metadata = label, metadata
    return report


def crusher_experiment(sweep: dict):
    """Full-strength collective dephasing: the strong-noise table, one row
    per listed process, each read through collective_dephasing(s) at s = inf
    or, for the noiseless reference, s = 0.

    The un-encoded data spin is fully phase damped (F_e = 0.5); the encoded
    path is untouched by arbitrarily strong collective noise.
    """
    processes = _sweep_values(sweep, "processes", known=CRUSHER_PROCESSES)
    rows, reports = [], []
    for label in processes:
        strength, encoded = CRUSHER_PROCESSES[label]
        report = _held_report(collective_dephasing(strength), encoded, label)
        reports.append(report)
        rows.append({"process": label, "f0": report.f0, "fplus": report.fplus,
                     "fplusi": report.fplusi, "fe": report.fe})
    return rows, reports


#: memory's gradient pulse length delta and diffusion delay Delta (s); 2 delta + Delta = 37.765 ms
MEMORY_DELTA_S = 745e-6
MEMORY_BIG_DELTA_S = 36.275e-3


def memory_experiment(sys: SpinSystem, spec: EnsembleSpec, sweep: dict):
    """Engineered-noise storage sweep.

    Each point holds the data spin between encode and decode through the
    imperfect gradient echo. Averaged over the sample's Gaussian diffusion
    displacements, that echo is exactly collective_dephasing(s), s = D
    (gamma g delta)^2 Delta being the reported noise_strength (the
    narrow-pulse Stejskal-Tanner attenuation exp(-m^2 s) of order-m
    coherences): the un-encoded F_e is 0.5 + 0.5 exp(-s), the encoded one 1,
    and neither depends on a seed or on spec.n_members. Deterministic
    internal evolution is refocused exactly, so the encoded branch isolates
    the response of the code space to the noise alone. delta and Delta are
    fixed (MEMORY_DELTA_S, MEMORY_BIG_DELTA_S): F_e depends on s alone, so
    sweeping the gradient reaches every strength another pair, or a sweep
    of the diffusion time, would.
    """
    rows, reports = [], []
    for idx, grad in enumerate(_sweep_values(sweep, "gradients_t_per_m", *_NON_NEGATIVE)):
        phase = sys.gamma * grad * MEMORY_DELTA_S  # float products overflow to inf, ** raises
        strength = spec.diffusion_d * (phase * phase) * MEMORY_BIG_DELTA_S
        if not math.isfinite(strength):
            raise ConfigError(f"sweep.gradients_t_per_m: noise strength D (gamma g delta)^2 Delta is not finite "
                              f"at g = {grad!r} T/m, with ensemble.diffusion_d = {spec.diffusion_d!r} "
                              f"and spin_system.gamma = {sys.gamma!r}")
        noise = collective_dephasing(strength)
        meta = {"noise_strength": strength, "grad_t_per_m": grad, "big_delta_s": MEMORY_BIG_DELTA_S, "point": idx}
        enc = _held_report(noise, True, "memory_encoded", **meta)
        un = _held_report(noise, False, "memory_unencoded", **meta)
        rows.append({"noise_strength": strength, "fe_encoded": enc.fe, "fe_unencoded": un.fe})
        reports += [enc, un]
    return rows, reports


def natural_experiment(sys: SpinSystem, sweep: dict):
    """Ambient-relaxation storage: coherence metric vs holding time.

    Each sample time's holding channel is the exact relaxation channel of
    that whole duration, built directly; nothing is composed. C is evaluated
    on the decoded data spin for the encoded branch and on the idle data
    spin for the un-encoded one. Rows follow the sorted sample times.
    """
    f_coll = _sweep_number("f_collective", sweep["f_collective"], lambda x: 0 <= x <= 1, " in [0, 1]")
    rows = []
    for t in sorted(_sweep_values(sweep, "times_s", *_NON_NEGATIVE)):
        step = natural_relaxation_step(sys, f_coll, t)
        rows.append({"t_s": t,
                     "c_encoded": coherence_metric(induced_data_channel(step, encoded=True)),
                     "c_unencoded": coherence_metric(induced_data_channel(step, encoded=False))})
    reports = [FidelityReport(label=f"natural_{branch}", coherence=rows[-1][f"c_{branch}"],
                              metadata={"f_collective": f_coll, "t_s": rows[-1]["t_s"]})
               for branch in ("encoded", "unencoded")]
    return rows, reports


# gate name -> builder of its (sequence, target), the target being the quarter
# turn exp(-i pi/4 sigma) about the gate's axis. Built when called, by name, so
# that importing takes no eigendecomposition (its buffers add about 1.2 MiB)
GATES = {
    "enc_z_90": lambda sys: (enc_z(math.pi / 2, sys), ops.expm_hermitian(ops.PAULI["z"], math.pi / 4)),
    "enc_x_90": lambda sys: (enc_x(math.pi / 2, sys), ops.expm_hermitian(ops.PAULI["x"], math.pi / 4)),
    "composite_y90": lambda sys: (composite_y90(sys), ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)),
}


def _gate(name: str, sys: SpinSystem) -> tuple[PulseSequence, np.ndarray]:
    """The sequence of gate `name` on `sys` and its target; ConfigError
    naming the spin system when it cannot carry the gate (encoded z needs
    nu1 < nu2)."""
    try:
        return GATES[name](sys)
    except ValueError as exc:
        raise ConfigError(f"spin_system: {exc}") from exc


def gate_fidelities(seq: PulseSequence, sys: SpinSystem, target: np.ndarray, waveform=None, z=0.0) -> np.ndarray:
    """Encoded gate F_e of `seq` against one-qubit `target` at each position
    `z` under `waveform`: one engine call reducing each block to member
    fidelities, so a 0-d array for a scalar z and one of z's shape otherwise."""
    return ensemble_propagators(seq, sys, waveform, z, reduce=lambda u: member_gate_fidelities(u, target))


def gates_experiment(sys: SpinSystem, sweep: dict):
    """Noiseless encoded gates: fidelity against the ideal rotation and the
    fraction of the gate time spent inside the code space, starting from
    the code space's maximally mixed state."""
    names = _sweep_values(sweep, "gates", known=GATES)
    rows, reports = [], []
    for name in names:
        seq, target = _gate(name, sys)
        fe = float(gate_fidelities(seq, sys, target))
        residence = dfs_residence_fraction(seq, sys)
        rows.append({"gate": name, "fe": fe, "dfs_residence": residence})
        reports.append(FidelityReport(label=name, fe=fe, metadata={
            "dfs_residence": residence, "duration_s": seq.duration}))
    return rows, reports


#: most gradient steps a noisy_gate waveform may take (the shipped 50.6 us steps take 1019)
MAX_WAVEFORM_STEPS = 10 ** 5


def noisy_gate_experiment(sys: SpinSystem, spec: EnsembleSpec, sweep: dict, seed: int):
    """An encoded gate (sweep.gate out of GATES, by default the composite y
    rotation) under fast random-walk gradient noise.

    One unit random walk, drawn from `seed` and scaled to each point's
    maximum gradient strength g, drives the whole sample: the sweep holds the
    noise shape fixed. As g w at z is w at g z, the points are rows of one
    `gate_fidelities` call per sequence (the gate, the held memory), so no
    sweep's propagators are held. The reported F_e is the ensemble mean of
    per-member fidelities.
    fe_stderr is their spread divided by sqrt(n); the members are midpoint
    quadrature nodes of one waveform realization, not independent samples,
    so it is no error bar for F_e (ROADMAP item 1). fe_memory is the same
    noise applied while the encoded state merely waits as long as the gate,
    measured against the noiseless evolution -- it stays at 1: the gate's
    losses come only from the intervals its pulses spend outside the code space.
    """
    khz = _sweep_values(sweep, "grad_max_khz_per_cm", *_NON_NEGATIVE)
    if not (sys.gamma > 0 and math.isfinite(khz_per_cm_to_t_per_m(max(khz), sys.gamma))):
        raise ConfigError(f"spin_system.gamma: {sys.gamma!r} must be > 0 and turn sweep.grad_max_khz_per_cm "
                          f"up to {max(khz)!r} into finite gradients in T/m")
    grads = [khz_per_cm_to_t_per_m(x, sys.gamma) for x in khz]
    if not math.isfinite(sys.gamma * max(grads) * spec.sample_length / 2):
        raise ConfigError(f"ensemble.sample_length: {spec.sample_length!r} m gives a gradient phase rate "
                          f"gamma g z that is not finite at the sample edge")
    step_time = _sweep_number("step_time_s", sweep["step_time_s"], *_POSITIVE)

    if not isinstance(sweep["gate"], str) or sweep["gate"] not in GATES:
        raise ConfigError(f"sweep.gate: must be one of {list(GATES)}, got {sweep['gate']!r}")
    seq, target = _gate(sweep["gate"], sys)
    mem_seq = PulseSequence((Delay(seq.duration),))
    u_free = propagator(mem_seq, sys)
    mem_target = data_blocks(u_free, encoded=True)[0]

    zs = member_positions(spec)
    n_steps = int(math.ceil(min(seq.duration / step_time, MAX_WAVEFORM_STEPS))) + 1
    if n_steps > MAX_WAVEFORM_STEPS:
        raise ConfigError(f"sweep.step_time_s: {step_time!r} s would cut the {seq.duration:.6g} s gate "
                          f"into more than {MAX_WAVEFORM_STEPS} waveform steps")
    unit_walk = random_walk_waveform(n_steps, seed, step_time)
    positions = np.multiply.outer(grads, zs)  # g w at z is w at g z
    f_gates = gate_fidelities(seq, sys, target, unit_walk, positions)
    f_mems = gate_fidelities(mem_seq, sys, mem_target, unit_walk, positions)
    rows, reports = [], []
    for idx, (grad, f_gate, f_mem) in enumerate(zip(grads, f_gates, f_mems)):
        fe = float(f_gate.mean())
        stderr = float((f_gate - f_gate[0]).std(ddof=1) / math.sqrt(len(f_gate)))  # 0 when the members agree
        fe_mem = float(f_mem.mean())
        rows.append({"grad_max_t_per_m": grad, "fe": fe, "fe_stderr": stderr, "fe_memory": fe_mem})
        reports.append(FidelityReport(label=f"noisy_{sweep['gate']}", fe=fe,
                                      metadata={"grad_max_t_per_m": grad, "fe_stderr": stderr,
                                                "fe_memory": fe_mem, "point": idx}))
    return rows, reports


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: str, rows: list[dict]) -> None:
    """Write `rows` under `header`; floats print with 12 significant digits."""
    cols = header.split(",")
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (f"{row[c]:.12g}" if isinstance(row[c], float) else str(row[c]) for c in cols)
            fh.write(",".join(cells) + "\n")


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment, write `<label>.csv` and `<label>_report.json`
    into the output directory, and return the artifact paths and rows."""
    record = EXPERIMENTS[config.experiment]
    rows, reports = record.runner(config)

    out_dir = Path(config.out_dir)
    csv_path = out_dir / f"{config.label}.csv"
    json_path = out_dir / f"{config.label}_report.json"
    payload = {
        "experiment": config.experiment,
        "label": config.label,
        "seed": config.seed,
        "threshold": ENTANGLEMENT_THRESHOLD,
        "reports": [r.to_dict() for r in reports],
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(csv_path, record.header, rows)
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"out: cannot write to {str(out_dir)!r}: {exc}") from exc
    return {"csv": csv_path, "json": json_path, "rows": rows, "reports": reports}
