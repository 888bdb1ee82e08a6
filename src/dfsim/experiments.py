"""Declarative experiment driver.

Five experiments reproduce the storage and encoded-control studies:

* ``crusher``    -- full-strength collective dephasing applied to the
                    un-encoded and encoded data spin (table of state
                    fidelities and F_e);
* ``memory``     -- gradient-diffusion noise of swept strength between
                    encode and decode (F_e curves, encoded vs un-encoded);
* ``natural``    -- ambient T1/T2 relaxation over swept holding times
                    (coherence metric curves);
* ``gates``      -- noiseless finite-duration encoded gates (gate F_e and
                    code-space residence);
* ``noisy_gate`` -- the composite y rotation under random-walk gradient
                    noise of swept maximum strength (F_e with Monte-Carlo
                    error bars, plus the held-memory reference).

Every experiment is a pure function of (spin system, ensemble spec, sweep,
seed); `run` adds the CSV/JSON writing. Point k of a sweep uses the RNG seed
base_seed XOR k, so sweeps are reproducible point by point. The engineered
noise window is modeled with the deterministic internal evolution refocused
exactly (the idealized limit of the refocusing pulse pair the hardware
sequence uses), so storage fidelities isolate the noise itself.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import operators as ops
from .channels import collective_dephasing, identity_channel, natural_relaxation_step, unvec, vec
from .ensemble import (
    DEFAULT_STEP_TIME,
    EnsembleSpec,
    diffusion_phase_kicks,
    ensemble_propagators,
    member_positions,
    random_walk_waveform,
)
from .errors import ConfigError
from .hamiltonians import SpinSystem
from .metrics import (
    ENTANGLEMENT_THRESHOLD,
    FidelityReport,
    data_blocks,
    gate_fidelity_from_states,
    induced_data_channel,
    member_gate_fidelities,
)
from .pulses import Delay, PulseSequence, composite_y90, dfs_residence_fraction, enc_x, enc_z, propagator
from .units import khz_per_cm_to_t_per_m

EXPERIMENTS = ("memory", "crusher", "natural", "gates", "noisy_gate")

CSV_HEADERS = {
    "memory": "noise_strength,fe_encoded,fe_unencoded",
    "natural": "t_s,c_encoded,c_unencoded",
    "gates": "gate,fe,dfs_residence",
    "crusher": "process,f0,fplus,fplusi,fe",
    "noisy_gate": "grad_max_t_per_m,fe,fe_stderr,fe_memory",
}

MEMORY_SMALL_DELTA = 745e-6      # gradient pulse length, s
MEMORY_BIG_DELTA = 36.275e-3     # diffusion delay, s; 2*delta + Delta = 37.765 ms


def default_sweep(experiment: str) -> dict:
    if experiment == "memory":
        return {
            "gradients_t_per_m": [round(x, 4) for x in np.linspace(0.0, 0.6, 13)],
            "small_delta_s": MEMORY_SMALL_DELTA,
            "big_delta_s": MEMORY_BIG_DELTA,
        }
    if experiment == "crusher":
        return {"processes": ["unencoded_crusher", "encoded_no_noise", "encoded_crusher"]}
    if experiment == "natural":
        return {"times_s": [round(x, 4) for x in np.linspace(0.0, 3.0, 13)],
                "f_collective": 0.9, "dt_s": 1e-3}
    if experiment == "gates":
        return {"gates": ["enc_z_90", "enc_x_90", "composite_y90"]}
    if experiment == "noisy_gate":
        # the plateau of the hard-pulse composite ends near 1 kHz/cm, so the
        # low end is sampled densely before the sweep fans out to 100 kHz/cm
        return {"grad_max_khz_per_cm": [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]}
    raise ConfigError(f"experiment: unknown experiment {experiment!r}")


SWEEP_KEYS = {
    "memory": {"gradients_t_per_m", "diffusion_times_s", "gradient_t_per_m",
               "small_delta_s", "big_delta_s"},
    "crusher": {"processes"},
    "natural": {"times_s", "f_collective", "dt_s"},
    "gates": {"gates"},
    "noisy_gate": {"grad_max_khz_per_cm", "grad_max_t_per_m", "step_time_s"},
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
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {EXPERIMENTS}, got {self.experiment!r}")
        unknown = set(self.sweep) - SWEEP_KEYS[self.experiment]
        if unknown:
            raise ConfigError(f"sweep: unknown field(s) for {self.experiment}: {sorted(unknown)}")
        merged = default_sweep(self.experiment)
        merged.update(self.sweep)
        self.sweep = merged
        if not self.sweep:
            raise ConfigError("sweep: must not be empty")
        if self.experiment in ("memory", "noisy_gate") and self.seed is None:
            raise ConfigError(f"seed: required for ensemble experiment {self.experiment!r}")
        if not self.label:
            self.label = self.experiment
        if any(sep in self.label for sep in ("/", "\\", "..")):
            raise ConfigError(f"label: must be a plain file stem, got {self.label!r}")


_CONFIG_KEYS = {"experiment", "spin_system", "ensemble", "sweep", "seed", "out", "label"}


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config from a parsed config file plus CLI overrides.

    Raises ConfigError naming the offending field.
    """
    data = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    if "experiment" not in data:
        raise ConfigError("experiment: field is required")

    def build(section: str, cls):
        params = data.get(section, {})
        if not isinstance(params, dict):
            raise ConfigError(f"{section}: must be a mapping")
        try:
            return cls(**params)
        except TypeError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    sys = build("spin_system", SpinSystem)
    ens = build("ensemble", EnsembleSpec)
    seed = data.get("seed")
    if seed is not None:
        try:
            seed = int(seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed: must be an integer, got {data['seed']!r}") from exc
    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: must be a mapping")
    return ExperimentConfig(
        experiment=data["experiment"],
        spin_system=sys,
        ensemble=ens,
        sweep=sweep,
        seed=seed,
        out_dir=str(data.get("out", "results")),
        label=str(data.get("label", "")),
    )


def _sweep_values(sweep: dict, key: str) -> list[float]:
    """The sweep list `key` as floats; ConfigError naming it unless every
    value is a finite number."""
    try:
        values = [float(v) for v in sweep[key]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep.{key}: must be a list of numbers, got {sweep[key]!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"sweep.{key}: values must be finite, got {sweep[key]!r}")
    return values


def _rot(axis: str, theta: float) -> np.ndarray:
    return ops.expm_hermitian(ops.PAULI[axis], theta / 2)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def crusher_experiment(sys: SpinSystem) -> list[FidelityReport]:
    """Full-strength collective dephasing: the strong-noise table.

    The un-encoded data spin is fully phase damped (F_e = 0.5); the encoded
    path is untouched by arbitrarily strong collective noise.
    """
    crusher = collective_dephasing(math.inf)
    cases = [
        ("unencoded_crusher", crusher, False),
        ("encoded_no_noise", identity_channel(4), True),
        ("encoded_crusher", crusher, True),
    ]
    reports = []
    for label, ch, encoded in cases:
        data_ch = induced_data_channel(ch, encoded=encoded)
        report = gate_fidelity_from_states(data_ch, np.eye(2, dtype=complex))
        report.label = label
        reports.append(report)
    return reports


def memory_experiment(sys: SpinSystem, spec: EnsembleSpec, sweep: dict, seed: int):
    """Engineered-noise storage sweep.

    Each point applies the imperfect gradient echo (phase kicks from the
    diffusion displacements) between encode and decode; deterministic
    internal evolution is refocused exactly, so the encoded branch isolates
    the response of the code space to the noise alone. noise_strength is the
    analytic un-encoded decay exponent D (gamma g delta)^2 Delta.
    """
    delta = float(sweep.get("small_delta_s", MEMORY_SMALL_DELTA))
    big_delta_default = float(sweep.get("big_delta_s", MEMORY_BIG_DELTA))
    if not (delta > 0 and big_delta_default > 0):
        raise ConfigError("sweep.small_delta_s / sweep.big_delta_s: must be positive")
    if "diffusion_times_s" in sweep:
        points = [(float(sweep.get("gradient_t_per_m", 0.05)), t)
                  for t in _sweep_values(sweep, "diffusion_times_s")]
        time_sweep = True
    else:
        points = [(g, big_delta_default) for g in _sweep_values(sweep, "gradients_t_per_m")]
        time_sweep = False
    if not all(g >= 0 and t > 0 for g, t in points):
        raise ConfigError("sweep: gradients must be >= 0 and diffusion times > 0")

    eye2 = np.eye(2, dtype=complex)
    rows, reports = [], []
    for idx, (grad, big_delta) in enumerate(points):
        kicks = diffusion_phase_kicks(grad, delta, big_delta, spec, sys, seed=seed ^ idx)
        fe_enc = float(member_gate_fidelities(kicks, eye2, encoded=True).mean())
        fe_un = float(member_gate_fidelities(kicks, eye2, encoded=False).mean())
        strength = spec.diffusion_d * (sys.gamma * grad * delta) ** 2 * big_delta
        rows.append({"noise_strength": strength, "fe_encoded": fe_enc, "fe_unencoded": fe_un,
                     "_t": big_delta})
        for branch, fe in (("encoded", fe_enc), ("unencoded", fe_un)):
            reports.append(FidelityReport(
                label=f"memory_{branch}", fe=fe, seed=seed ^ idx,
                metadata={"noise_strength": strength, "grad_t_per_m": grad,
                          "big_delta_s": big_delta, "point": idx},
            ))
    fit = None
    if time_sweep and len(points) >= 3:
        times = np.array([r["_t"] for r in rows])
        fit = fit_decay(times, np.array([r["fe_unencoded"] for r in rows]))
    for r in rows:
        r.pop("_t")
    return rows, reports, fit


def natural_experiment(sys: SpinSystem, sweep: dict):
    """Ambient-relaxation storage: coherence metric vs holding time.

    The holding channel is the discrete-time relaxation step composed up to
    each sample time (times are rounded to the step grid); C is evaluated on
    the decoded data spin for the encoded branch and on the idle data spin
    for the un-encoded one.
    """
    dt = float(sweep.get("dt_s", 1e-3))
    f_coll = float(sweep.get("f_collective", 0.9))
    if not 0.0 <= f_coll <= 1.0:
        raise ConfigError(f"sweep.f_collective: must be in [0, 1], got {f_coll}")
    times = sorted(_sweep_values(sweep, "times_s"))
    if not times or times[0] < 0:
        raise ConfigError("sweep.times_s: need non-negative holding times")
    step = natural_relaxation_step(sys, f_coll, dt).superoperator()

    u_enc, u_dec = ops.encoding_unitary(), ops.decoding_unitary()
    ket0 = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    plus_i = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)

    def coherence(s_cum: np.ndarray, encoded: bool) -> float:
        total = 0.0
        for ket, pauli in ((plus, ops.PAULI["x"]), (plus_i, ops.PAULI["y"])):
            rho4 = np.kron(np.outer(ket, ket.conj()), np.outer(ket0, ket0.conj()))
            if encoded:
                rho4 = u_enc @ rho4 @ u_enc.conj().T
            out = unvec(s_cum @ vec(rho4))
            if encoded:
                out = u_dec @ out @ u_dec.conj().T
            total += float(np.trace(np.kron(pauli, np.eye(2)) @ out).real)
        return total / 2

    rows = []
    s_cum = np.eye(16, dtype=complex)
    k_done = 0
    for t in times:
        k = int(round(t / dt))
        if k > k_done:
            s_cum = np.linalg.matrix_power(step, k - k_done) @ s_cum
            k_done = k
        rows.append({"t_s": k * dt,
                     "c_encoded": coherence(s_cum, True),
                     "c_unencoded": coherence(s_cum, False)})
    reports = [FidelityReport(label=f"natural_{branch}", coherence=rows[-1][f"c_{branch}"],
                              metadata={"f_collective": f_coll, "t_s": rows[-1]["t_s"]})
               for branch in ("encoded", "unencoded")]
    return rows, reports


GATE_TARGETS = {
    "enc_z_90": ("z", math.pi / 2),
    "enc_x_90": ("x", math.pi / 2),
    "composite_y90": ("y", math.pi / 2),
}


def _gate_sequence(name: str, sys: SpinSystem) -> PulseSequence:
    if name == "enc_z_90":
        return enc_z(math.pi / 2, sys)
    if name == "enc_x_90":
        return enc_x(math.pi / 2, sys)
    if name == "composite_y90":
        return composite_y90(sys)
    raise ConfigError(f"sweep.gates: unknown gate {name!r}")


def gates_experiment(sys: SpinSystem, sweep: dict):
    """Noiseless encoded gates: fidelity against the ideal rotation and the
    fraction of the gate time spent inside the code space."""
    _, p_zero, _ = ops.zq_projectors()
    rho_code = p_zero / 2
    rows, reports = [], []
    for name in sweep["gates"]:
        seq = _gate_sequence(name, sys)
        axis, angle = GATE_TARGETS[name]
        u = propagator(seq, sys)
        fe = float(member_gate_fidelities(u[None, :, :], _rot(axis, angle), encoded=True)[0])
        residence = dfs_residence_fraction(seq, sys, rho_code)
        rows.append({"gate": name, "fe": fe, "dfs_residence": residence})
        reports.append(FidelityReport(label=name, fe=fe, metadata={
            "dfs_residence": residence, "duration_s": seq.duration}))
    return rows, reports


def noisy_gate_experiment(sys: SpinSystem, spec: EnsembleSpec, sweep: dict, seed: int):
    """Composite y rotation under fast random-walk gradient noise.

    For each maximum gradient strength a fresh waveform drives the whole
    sample; the reported F_e is the ensemble mean of per-member fidelities
    with its standard error. fe_memory is the same noise applied while the
    encoded state merely waits, measured against the noiseless evolution --
    it stays at 1, showing that gate losses come only from the intervals the
    pulses spend outside the code space.
    """
    if "grad_max_t_per_m" in sweep:
        grads = _sweep_values(sweep, "grad_max_t_per_m")
    else:
        grads = [khz_per_cm_to_t_per_m(x) for x in _sweep_values(sweep, "grad_max_khz_per_cm")]
    if any(g < 0 for g in grads):
        raise ConfigError("sweep: gradient strengths must be >= 0")
    step_time = float(sweep.get("step_time_s", DEFAULT_STEP_TIME))
    if not step_time > 0:
        raise ConfigError("sweep.step_time_s: must be positive")

    seq = composite_y90(sys)
    mem_seq = PulseSequence((Delay(seq.duration),), label="hold")
    target = _rot("y", math.pi / 2)
    u_free = propagator(mem_seq, sys)
    mem_target = data_blocks(u_free, encoded=True)[0]
    if not ops.is_unitary(mem_target):
        raise AssertionError("free evolution should stay in the code space")

    zs = member_positions(spec)
    n_steps = int(math.ceil(seq.duration / step_time)) + 1
    rows, reports = [], []
    for idx, grad in enumerate(grads):
        spec_g = dataclasses.replace(spec, grad_max=grad)
        wf = random_walk_waveform(spec_g, n_steps, step_time=step_time, seed=seed ^ idx)
        f_gate = member_gate_fidelities(ensemble_propagators(seq, sys, wf, zs), target, encoded=True)
        f_mem = member_gate_fidelities(ensemble_propagators(mem_seq, sys, wf, zs), mem_target, encoded=True)
        fe = float(f_gate.mean())
        stderr = float(f_gate.std(ddof=1) / math.sqrt(len(f_gate)))
        fe_mem = float(f_mem.mean())
        rows.append({"grad_max_t_per_m": grad, "fe": fe, "fe_stderr": stderr, "fe_memory": fe_mem})
        reports.append(FidelityReport(label="noisy_composite_y90", fe=fe, seed=seed ^ idx,
                                      metadata={"grad_max_t_per_m": grad, "fe_stderr": stderr,
                                                "fe_memory": fe_mem, "point": idx}))
    return rows, reports


def fit_decay(times, values) -> dict:
    """Least-squares fit of a storage curve to A exp(-t/tau) + 0.5.

    Uses a log-linear fit of the offset-subtracted curve; a curve with no
    resolvable decay (offset below 1e-3) is reported as A = 0 with the
    'no_decay' flag. Needs at least three usable points.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size < 3:
        raise ValueError("need at least 3 (t, value) points")
    shifted = values - 0.5
    if np.ptp(shifted) < 1e-3 and np.abs(shifted).max() < 1e-3:
        return {"a": 0.0, "tau": math.inf, "residual_rms": float(np.std(shifted)),
                "flag": "no_decay"}
    usable = shifted > 1e-12
    if usable.sum() < 3:
        raise ValueError("degenerate curve: fewer than 3 points above the 0.5 floor")
    slope, intercept = np.polyfit(times[usable], np.log(shifted[usable]), 1)
    if slope >= 0:
        return {"a": float(np.exp(intercept)), "tau": math.inf,
                "residual_rms": float(np.std(shifted)), "flag": "no_decay"}
    a, tau = float(np.exp(intercept)), float(-1.0 / slope)
    model = a * np.exp(-times / tau) + 0.5
    return {"a": a, "tau": tau,
            "residual_rms": float(np.sqrt(np.mean((model - values) ** 2))), "flag": "ok"}


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header: str, rows: list[dict]) -> None:
    cols = header.split(",")
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment, write `<label>.csv` and `<label>_report.json`
    into the output directory, and return the artifact paths and rows."""
    sys, spec, sweep = config.spin_system, config.ensemble, config.sweep
    fit = None
    if config.experiment == "crusher":
        reports = crusher_experiment(sys)
        rows = [{"process": r.label, "f0": r.f0, "fplus": r.fplus,
                 "fplusi": r.fplusi, "fe": r.fe} for r in reports]
    elif config.experiment == "memory":
        rows, reports, fit = memory_experiment(sys, spec, sweep, config.seed)
    elif config.experiment == "natural":
        rows, reports = natural_experiment(sys, sweep)
    elif config.experiment == "gates":
        rows, reports = gates_experiment(sys, sweep)
    else:
        rows, reports = noisy_gate_experiment(sys, spec, sweep, config.seed)

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
    if fit is not None:
        payload["fit"] = fit
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(csv_path, CSV_HEADERS[config.experiment], rows)
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"out: cannot write to {out_dir!s}: {exc}") from exc
    return {"csv": csv_path, "json": json_path, "rows": rows, "reports": reports}
