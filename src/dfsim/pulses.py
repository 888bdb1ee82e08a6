"""Pulse sequences, exact propagation, and average-Hamiltonian analysis.

A sequence is an ordered list of three event kinds:

* ``Delay``     -- free evolution under the internal Hamiltonian;
* ``RfPulse``   -- finite-duration RF drive, with the internal Hamiltonian
                   active throughout (leakage out of the code space during
                   pulses is the effect under study, so pulses are never
                   silently idealized);
* ``IdealRotation`` -- a zero-duration unitary, used for average-Hamiltonian
                   (toggling-frame) analysis and idealized refocusing.

Propagation model: every event is piecewise constant in time, and an optional
gradient waveform is piecewise constant too, so the exact propagator is a
time-ordered product of matrix exponentials over the intersection segments.
This module flattens sequences into those segments; the exponentials and
their product come from the one engine in `dfsim.ensemble`, of which
`propagator` is the single-position case.

Builders are provided for the refocusing trains used by the average
Hamiltonian analysis and for the encoded one-qubit gates: a z rotation by
timed free evolution, an x rotation from a WALTZ-phase-cycled train of hard
pi pulses, and the composite y rotation concatenated from those.
"""

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import operators as ops
from .errors import NumericalContractError
from .hamiltonians import RfParams, SpinSystem, internal_hamiltonian, logical_decompose, rf_hamiltonian
from .metrics import member_gate_fidelities

HARD = "hard"
COMPOSITE_90X_180Y_90X = "composite_90x_180y_90x"
PULSE_SHAPES = (HARD, COMPOSITE_90X_180Y_90X)

#: named zero-duration rotations usable in sequences and text serialization
ROTATIONS = {
    # hard pi pulse on both spins about x: exp(-i pi/2 (sx1+sx2)) = -sx1 sx2
    "pi_x_pair": -ops.pauli_embed(1, "x") @ ops.pauli_embed(2, "x"),
    # simultaneous pi_x on spin 1 and pi_y on spin 2
    "pi_x1_y2": -ops.pauli_embed(1, "x") @ ops.pauli_embed(2, "y"),
}


@dataclass(frozen=True)
class Delay:
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("delay duration must be positive")


@dataclass(frozen=True)
class RfPulse:
    amplitude: float  # nutation power, rad/s
    phase: float      # rad
    duration: float   # s
    shape: str = HARD

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        if self.amplitude < 0:
            raise ValueError("pulse amplitude must be >= 0")
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")

    @property
    def nutation_angle(self) -> float:
        return self.amplitude * self.duration


@dataclass(frozen=True)
class IdealRotation:
    name: str

    def __post_init__(self):
        if self.name not in ROTATIONS:
            raise ValueError(f"unknown rotation {self.name!r}; known: {sorted(ROTATIONS)}")

    @property
    def unitary(self) -> np.ndarray:
        return ROTATIONS[self.name]

    duration = 0.0


@dataclass(frozen=True)
class PulseSequence:
    events: tuple
    cycle_length: int = 0  # pulses per AHT cycle; 0 when not meant for AHT
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, (Delay, RfPulse, IdealRotation)):
                raise ValueError(f"not a pulse event: {ev!r}")

    @property
    def duration(self) -> float:
        return sum(ev.duration for ev in self.events)


# ---------------------------------------------------------------------------
# piecewise-constant segment model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One piecewise-constant piece of the evolution.

    kind "evolve": Hamiltonian h (rad/s, gradient-free) plus a gradient of
    strength grad (T/m) for `duration` seconds. kind "rotate": instantaneous
    unitary u.
    """

    kind: str
    duration: float = 0.0
    h: np.ndarray | None = None
    grad: float = 0.0
    u: np.ndarray | None = None


def _pulse_pieces(pulse: RfPulse, h_int: np.ndarray):
    """Expand a pulse into (h, duration) pieces with the internal Hamiltonian on."""
    if pulse.shape == HARD:
        yield h_int + rf_hamiltonian(RfParams(pulse.amplitude, pulse.phase)), pulse.duration
        return
    # 90x-180y-90x composite: nutation fractions 1/4, 1/2, 1/4 at relative
    # phases 0, +90deg, 0
    for frac, dphi in ((0.25, 0.0), (0.5, math.pi / 2), (0.25, 0.0)):
        h = h_int + rf_hamiltonian(RfParams(pulse.amplitude, pulse.phase + dphi))
        yield h, pulse.duration * frac


def piecewise_segments(seq: PulseSequence, sys: SpinSystem, waveform=None) -> list[Segment]:
    """Flatten a sequence into exact piecewise-constant segments.

    `waveform`, when given, must expose ``step_time`` (s) and ``values``
    (gradient strengths, T/m); its clock starts at the sequence start and the
    last value is held beyond the end of the list. Evolution segments are
    split at waveform boundaries so each carries a single gradient value.
    """
    h_int = internal_hamiltonian(sys)
    pieces: list[Segment] = []
    for ev in seq.events:
        if isinstance(ev, IdealRotation):
            pieces.append(Segment("rotate", u=ev.unitary))
        elif isinstance(ev, Delay):
            pieces.append(Segment("evolve", ev.duration, h_int))
        else:
            for h, dur in _pulse_pieces(ev, h_int):
                pieces.append(Segment("evolve", dur, h))
    if waveform is None:
        return pieces

    tau = float(waveform.step_time)
    values = np.asarray(waveform.values, dtype=float)
    out: list[Segment] = []
    k = 0          # waveform step index
    t_in = 0.0     # time consumed within step k
    eps = 1e-12
    for seg in pieces:
        if seg.kind == "rotate":
            out.append(seg)
            continue
        rem = seg.duration
        while rem > eps:
            step = min(rem, tau - t_in)
            g = float(values[min(k, len(values) - 1)])
            out.append(Segment("evolve", step, seg.h, g))
            rem -= step
            t_in += step
            if t_in >= tau - eps:
                k += 1
                t_in = 0.0
    return out


def propagator(seq: PulseSequence, sys: SpinSystem, waveform=None, z: float = 0.0) -> np.ndarray:
    """Exact time-ordered propagator of a sequence for one member at position z.

    The scalar-z case of `ensemble.ensemble_propagators`; the returned
    matrix is checked unitary to 1e-10.
    """
    from . import ensemble  # not at module level: ensemble imports this module
    return ensemble.ensemble_propagators(seq, sys, waveform, z)


def state_trajectory(seq: PulseSequence, sys: SpinSystem, rho0: np.ndarray,
                     max_step: float | None = None, waveform=None, z: float = 0.0):
    """Yield (rho, dt) after each internal substep of the evolution.

    Substep policy: each segment is cut to at most max(duration/32, 1 us)
    unless `max_step` overrides it. Instantaneous rotations are applied but
    contribute no time weight.
    """
    from . import ensemble
    # the substeps of the unfused segments: fusing would change the time
    # weights, and each plan entry is zipped with one engine unitary below
    plan = []
    for seg in piecewise_segments(seq, sys, waveform):
        n = 1
        if seg.kind == "evolve":
            limit = max_step if max_step is not None else max(seg.duration / 32, 1e-6)
            n = max(1, int(math.ceil(seg.duration / limit)))
        plan.append((replace(seg, duration=seg.duration / n), n))
    rho = np.asarray(rho0, dtype=complex)
    steps = ensemble.segment_unitaries((step for step, _ in plan), sys, z)
    for (step, n), ustep in zip(plan, steps):
        for _ in range(n):
            rho = ustep @ rho @ ustep.conj().T
            if step.kind == "evolve":
                yield rho, step.duration


def dfs_residence_fraction(seq: PulseSequence, sys: SpinSystem, rho0: np.ndarray,
                           waveform=None, z: float = 0.0) -> float:
    """Time-weighted average population of the code space over a sequence.

    rho0 must be supported on the code space (population within 1e-10 of 1).
    """
    _, p_zero, _ = ops.zq_projectors()
    pop0 = float(np.trace(p_zero @ np.asarray(rho0)).real)
    if abs(pop0 - 1.0) > 1e-10:
        raise ValueError(f"rho0 is not supported on the code space (population {pop0:.6f})")
    total = 0.0
    weight = 0.0
    for rho, dt in state_trajectory(seq, sys, rho0, waveform=waveform, z=z):
        weight += float(np.trace(p_zero @ rho).real) * dt
        total += dt
    if total == 0.0:
        raise ValueError("sequence has no finite-duration events")
    return weight / total


# ---------------------------------------------------------------------------
# toggling frame / average Hamiltonian
# ---------------------------------------------------------------------------

def _check_cyclic(u_pulses: np.ndarray) -> None:
    s = np.trace(u_pulses) / 4.0
    if abs(abs(s) - 1.0) > 1e-10 or np.abs(u_pulses - s * np.eye(4)).max() > 1e-10:
        raise NumericalContractError(
            "pulse train is not cyclic: product of pulses is not the identity up to phase"
        )


def toggling_frames(seq: PulseSequence, sys: SpinSystem) -> list[np.ndarray]:
    """Interaction-frame Hamiltonians H_k = U_k^dag H_int U_k for an
    ideal-pulse train, where U_k is the product of the first k pulses.

    Returns the M+1 frames H_0 .. H_M; the cycle condition makes the last one
    coincide with the first. Finite-duration pulses are rejected.
    """
    h_int = internal_hamiltonian(sys)
    u = np.eye(4, dtype=complex)
    frames = [h_int.copy()]
    for ev in seq.events:
        if isinstance(ev, RfPulse):
            raise ValueError("toggling-frame analysis needs ideal pulses (Delay/IdealRotation only)")
        if isinstance(ev, IdealRotation):
            u = ev.unitary @ u
            frames.append(u.conj().T @ h_int @ u)
    _check_cyclic(u)
    return frames


def average_hamiltonian(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Zeroth-order average Hamiltonian of an ideal-pulse train.

    Each toggling frame is weighted by the free-evolution time spent in it;
    for the equally spaced trains built here this reduces to the plain mean
    over one cycle. An empty sequence averages to the internal Hamiltonian.
    """
    h_int = internal_hamiltonian(sys)
    if not seq.events:
        return h_int
    u = np.eye(4, dtype=complex)
    acc = np.zeros((4, 4), dtype=complex)
    t_total = 0.0
    for ev in seq.events:
        if isinstance(ev, RfPulse):
            raise ValueError("average Hamiltonian needs ideal pulses (Delay/IdealRotation only)")
        if isinstance(ev, IdealRotation):
            u = ev.unitary @ u
        else:
            acc += (u.conj().T @ h_int @ u) * ev.duration
            t_total += ev.duration
    _check_cyclic(u)
    if t_total == 0.0:
        raise ValueError("sequence has no delays; average Hamiltonian undefined")
    return acc / t_total


# ---------------------------------------------------------------------------
# sequence builders
# ---------------------------------------------------------------------------

DEFAULT_PULSE_DURATION = 62.4e-6
DEFAULT_PULSE_SPACING = 630e-6
CYCLES_PER_QUARTER_TURN = 64
DEFAULT_WALTZ_PHASES = (0.0, 0.0, math.pi, math.pi)


def ideal_pulse_train(rotation: str, n_pulses: int, spacing: float, label: str = "") -> PulseSequence:
    """Equally spaced train [delay, pulse] x n of one named ideal rotation."""
    if n_pulses < 1:
        raise ValueError("need n_pulses >= 1")
    events = []
    for _ in range(n_pulses):
        events += [Delay(spacing), IdealRotation(rotation)]
    return PulseSequence(tuple(events), cycle_length=2, label=label or f"{rotation}_train")


def xx_train(n_pulses: int = 2, spacing: float = DEFAULT_PULSE_SPACING) -> PulseSequence:
    """Train of simultaneous ideal pi_x pulses on both spins.

    Averages away both chemical-shift terms of the internal Hamiltonian while
    leaving the spin-spin coupling untouched.
    """
    return ideal_pulse_train("pi_x_pair", n_pulses, spacing, "xx_train")


def xy_train(n_pulses: int = 2, spacing: float = DEFAULT_PULSE_SPACING) -> PulseSequence:
    """Train of simultaneous ideal pi_x (spin 1) / pi_y (spin 2) pulses.

    Averages away the chemical shifts and the flip-flop part of the coupling,
    leaving only the zz part -- an encoded identity on the code space.
    """
    return ideal_pulse_train("pi_x1_y2", n_pulses, spacing, "xy_train")


def encoded_cp_train(n_pulses: int = 2, spacing: float = DEFAULT_PULSE_SPACING) -> PulseSequence:
    """Carr-Purcell train of ideal encoded pi_x pulses (hard pi pair limit).

    Refocuses the encoded z evolution and keeps the encoded x coupling, so
    the average Hamiltonian is pi J on the logical x axis.
    """
    return ideal_pulse_train("pi_x_pair", n_pulses, spacing, "encoded_cp")


def _cz_rate(sys: SpinSystem) -> float:
    frame = ops.logical_frame("hybrid")
    cz, _, _, _ = logical_decompose(internal_hamiltonian(sys), frame)
    if cz >= 0:
        raise ValueError("encoded z gates assume a negative logical z rate (nu1 < nu2)")
    return abs(cz)


def enc_z(theta: float, sys: SpinSystem) -> PulseSequence:
    """Encoded z rotation exp(-i theta sz/2) as a single timed delay.

    The logical z rate of the free evolution is negative, so a positive
    rotation by theta is reached by letting the state precess through
    2 pi - theta the other way; duration (2 pi - theta) / (2 |c_z|).
    """
    theta = theta % (2 * math.pi)
    duration = (2 * math.pi - theta) / (2 * _cz_rate(sys))
    return PulseSequence((Delay(duration),), label=f"enc_z({theta:.6g})")


def enc_x(theta: float, sys: SpinSystem,
          pulse_duration: float = DEFAULT_PULSE_DURATION,
          spacing: float = DEFAULT_PULSE_SPACING,
          waltz_phases: tuple = DEFAULT_WALTZ_PHASES,
          shape: str = HARD) -> PulseSequence:
    """Encoded x rotation exp(-i theta sx/2) from a hard-pi-pulse train.

    Each cycle is delay/2, hard pi pulse, delay/2; the pi-pulse propagator
    acts as a logical x flip while the spin-spin coupling accrues the wanted
    rotation, and the symmetric placement refocuses the strong logical z
    term. Pulse phases repeat the WALTZ-style pattern (+x, +x, -x, -x) to
    cancel accumulated pulse errors.

    The cycle count scales from the 64-cycles-per-quarter-turn reference,
    rounded to a whole number of phase-cycle periods: an odd pulse count
    would leave a net logical x flip and unpaired refocusing delays, so the
    achievable angles are quantized in steps of pi/32 (an empty sequence,
    i.e. the identity, for theta rounding to zero).
    """
    theta = theta % (2 * math.pi)
    period = len(waltz_phases)
    if period % 2:
        raise ValueError("phase pattern length must be even: an odd pulse count "
                         "leaves a net logical x flip and unpaired refocusing delays")
    per_quarter_turn = max(1, CYCLES_PER_QUARTER_TURN // period)
    n_cycles = period * round(theta / (math.pi / 2) * per_quarter_turn)
    amplitude = math.pi / pulse_duration
    events = []
    for k in range(n_cycles):
        phase = waltz_phases[k % len(waltz_phases)]
        events += [
            Delay(spacing / 2),
            RfPulse(amplitude, phase, pulse_duration, shape),
            Delay(spacing / 2),
        ]
    return PulseSequence(tuple(events), cycle_length=len(waltz_phases),
                         label=f"enc_x({theta:.6g})")


def composite_y90(sys: SpinSystem, calibrate: bool = True) -> PulseSequence:
    """Composite encoded y rotation by pi/2: z(-pi/2), x(pi/2), z(pi/2).

    With nominal delays the always-on logical x coupling tilts the two z legs
    enough to cost about 1e-3 in gate fidelity, so by default the two delay
    durations are trimmed (a few percent, found by a deterministic grid
    search against the ideal target) -- the software analogue of calibrating
    the gate on the spectrometer.
    """
    x_leg = enc_x(math.pi / 2, sys)
    z_pre = enc_z(-math.pi / 2, sys)
    z_post = enc_z(math.pi / 2, sys)
    t_pre = z_pre.events[0].duration
    t_post = z_post.events[0].duration

    if calibrate:
        w, v = np.linalg.eigh(internal_hamiltonian(sys))
        u_x = propagator(x_leg, sys)
        target = ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)  # exp(-i pi/4 sy)

        def u_free(t):  # exp(-i H_int t) for each duration in the array t
            return (v * np.exp(-1j * w * t[:, None])[:, None, :]) @ v.conj().T

        def fidelities(s1, s2):
            u = u_free(t_post * s2) @ u_x @ u_free(t_pre * s1)
            return member_gate_fidelities(u, target, encoded=True)

        best = (fidelities(np.ones(1), np.ones(1))[0], 1.0, 1.0)
        centre, span, steps = (1.0, 1.0), 0.05, 10
        for _ in range(3):
            grid1 = np.linspace(centre[0] - span, centre[0] + span, 2 * steps + 1)
            grid2 = np.linspace(centre[1] - span, centre[1] + span, 2 * steps + 1)
            s1, s2 = (g.ravel() for g in np.meshgrid(grid1, grid2, indexing="ij"))
            f = fidelities(s1, s2)
            # argmax takes the first maximum in s1-outer, s2-inner order, as
            # a scan that only moves on strict improvement would
            k = int(np.argmax(f))
            if f[k] > best[0]:
                best = (f[k], float(s1[k]), float(s2[k]))
            centre, span = (best[1], best[2]), span / steps
        t_pre *= best[1]
        t_post *= best[2]

    events = (Delay(t_pre),) + x_leg.events + (Delay(t_post),)
    return PulseSequence(events, cycle_length=x_leg.cycle_length, label="composite_y90")


# sequence name -> builder(sys, **params)
SEQUENCES = {
    "xx_train": lambda sys, **params: xx_train(**params),
    "xy_train": lambda sys, **params: xy_train(**params),
    "enc_z": lambda sys, theta, **params: enc_z(theta, sys, **params),
    "enc_x": lambda sys, theta, **params: enc_x(theta, sys, **params),
    "enc_cp": lambda sys, **params: encoded_cp_train(**params),
    "composite_y90": lambda sys, **params: composite_y90(sys, **params),
}


def build_sequence(name: str, sys: SpinSystem, **params) -> PulseSequence:
    """Dispatch to the named builder. Raises ValueError for unknown names."""
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {tuple(SEQUENCES)}")
    return SEQUENCES[name](sys, **params)


# ---------------------------------------------------------------------------
# text serialization (durations in us, phases in degrees)
# ---------------------------------------------------------------------------

def sequence_to_text(seq: PulseSequence) -> str:
    out = io.StringIO()
    out.write("# pulse-sequence v1\n")
    out.write(f"label {seq.label}\n")
    out.write(f"cycle_length {seq.cycle_length}\n")
    for ev in seq.events:
        if isinstance(ev, Delay):
            out.write(f"delay us={ev.duration * 1e6:.12g}\n")
        elif isinstance(ev, RfPulse):
            out.write(
                f"pulse amp_hz={ev.amplitude / (2 * math.pi):.12g} "
                f"phase_deg={math.degrees(ev.phase):.12g} "
                f"us={ev.duration * 1e6:.12g} shape={ev.shape}\n"
            )
        else:
            out.write(f"rotation name={ev.name}\n")
    return out.getvalue()


def sequence_from_text(text: str) -> PulseSequence:
    label = ""
    cycle_length = 0
    events: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        fields = dict(tok.split("=", 1) for tok in rest.split() if "=" in tok)
        try:
            if kind == "label":
                label = rest.strip()
            elif kind == "cycle_length":
                cycle_length = int(rest.strip())
            elif kind == "delay":
                events.append(Delay(float(fields["us"]) * 1e-6))
            elif kind == "pulse":
                events.append(RfPulse(
                    amplitude=float(fields["amp_hz"]) * 2 * math.pi,
                    phase=math.radians(float(fields["phase_deg"])),
                    duration=float(fields["us"]) * 1e-6,
                    shape=fields.get("shape", HARD),
                ))
            elif kind == "rotation":
                events.append(IdealRotation(fields["name"]))
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad sequence line {lineno}: {raw!r} ({exc})") from exc
    return PulseSequence(tuple(events), cycle_length=cycle_length, label=label)
