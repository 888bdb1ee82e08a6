"""Pulse sequences, exact propagation, and average-Hamiltonian analysis.

A sequence is its events, an ordered tuple of three kinds:

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
The internal Hamiltonian commutes with Jz, so a free-evolution interval
under any waveform is one shared exponential times member phases; a pulse
of nonzero amplitude never does. Sequences are flattened into segments,
fused by event kind on one walk of the waveform clock; the exponentials
and their product come from the one engine in `dfsim.ensemble`, of which
`propagator` is the noiseless single molecule (no gradient, z = 0). The
residence trajectory takes the same segments, without a gradient,
eigendecomposes all their Hamiltonians in one call, walks them with one
propagator product per segment, and averages the state over each one
exactly in the eigenbasis of its Hamiltonian, so the residence fraction
does not depend on where a sequence is cut.

Builders are provided for the refocusing trains used by the average
Hamiltonian analysis and for the encoded one-qubit gates: a z rotation by
timed free evolution, an x rotation from a WALTZ-phase-cycled train of hard
pi pulses, and the composite y rotation concatenated from those.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NumericalContractError
from .hamiltonians import SpinSystem, internal_hamiltonian, rf_hamiltonian
from .metrics import member_gate_fidelities

#: named zero-duration rotations usable in sequences
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
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"delay duration must be finite and positive, got {self.duration!r}")


@dataclass(frozen=True)
class RfPulse:
    amplitude: float  # nutation power, rad/s
    phase: float      # rad
    duration: float   # s

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.phase, self.duration))):
            raise ValueError(f"pulse amplitude, phase and duration must be finite, got {self!r}")
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        if self.amplitude < 0:
            raise ValueError("pulse amplitude must be >= 0")


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
    strength grad (T/m) for `duration` seconds; `commutes` marks the
    internal Hamiltonian (delays, pulses of amplitude 0), which commutes
    with Jz, so that the gradient acts as member phases alone.
    kind "rotate": instantaneous unitary u.
    """

    kind: str
    duration: float = 0.0
    h: np.ndarray | None = None
    grad: float = 0.0
    u: np.ndarray | None = None
    commutes: bool = False


def piecewise_segments(seq: PulseSequence, sys: SpinSystem, waveform=None) -> list[Segment]:
    """Flatten a sequence into exact piecewise-constant segments, fusing
    consecutive pieces where that is exact.

    `waveform`, when given, must expose ``step_time`` (s) and ``values``
    (gradient strengths, T/m); its clock starts at the sequence start and the
    last value is held beyond the end of the list. Every delay and pulse is
    cut at the waveform's step boundaries, so each cut carries a single
    gradient value; a boundary within 1e-12 s counts as reached, and a
    remainder of at most 1e-12 s past one stays in the step before it. From
    the last value on, the rest of an event is one cut. Without a waveform
    the walk is that of the one-value waveform [0.0].

    Consecutive cuts of the same Hamiltonian this walk built merge as they
    are made: the internal one (delays, pulses of amplitude 0) commutes
    with Jz, so its runs become one segment of the summed duration at the
    mean gradient, so that grad * duration is the summed g dt (exp(-i h sum
    dt) times the member phases of sum g dt is their product). A pulse of
    nonzero amplitude never commutes with Jz ([cos(phi) Jx + sin(phi) Jy,
    Jz] != 0); the cuts of one (amplitude, phase) merge only while the
    gradient value stays the same (one exponent over the summed duration),
    keeping that value. Rotations split runs.
    """
    h_int = internal_hamiltonian(sys)
    tau = float(waveform.step_time) if waveform is not None else 0.0
    values = np.asarray([0.0] if waveform is None else waveform.values, dtype=float).tolist()
    k, t_in, eps = 0, 0.0, 1e-12  # waveform step, time consumed within it, clock tolerance
    pulse_h = functools.cache(lambda amplitude, phase: h_int + rf_hamiltonian(amplitude, phase)
                              if amplitude else h_int)
    runs: list = []  # [h, duration, sum of g dt, grad]; [u, None, ...] for a rotation
    for ev in seq.events:
        if isinstance(ev, IdealRotation):
            runs.append([ev.unitary, None, 0.0, 0.0])
            continue
        h, rem = (h_int if isinstance(ev, Delay) else pulse_h(ev.amplitude, ev.phase)), ev.duration
        while rem:
            step, g = rem, values[k]
            if k < len(values) - 1:  # from the last value on, the gradient is held
                step = rem if rem - (tau - t_in) <= eps else tau - t_in
                t_in += step
                if t_in >= tau - eps:
                    k, t_in = k + 1, 0.0
            rem -= step
            run = runs[-1] if runs else [None]
            if run[0] is h and (h is h_int or run[3] == g):
                run[2] += g * step
                run[1] += step
                if h is h_int:
                    run[3] = run[2] / run[1]
            else:
                runs.append([h, step, g * step, g])
    return [Segment("rotate", u=h) if dt is None else Segment("evolve", dt, h, g, commutes=h is h_int)
            for h, dt, _, g in runs]


def propagator(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Exact time-ordered propagator of a sequence for one noiseless
    molecule: `ensemble.ensemble_propagators` without a gradient, at z = 0.
    The returned matrix is checked unitary to 1e-10.
    """
    from . import ensemble  # not at module level: ensemble imports this module
    return ensemble.ensemble_propagators(seq, sys, None, 0.0)


def state_trajectory(seq: PulseSequence, sys: SpinSystem, rho0: np.ndarray):
    """Yield (mean, duration, rho) for each evolve segment of
    `piecewise_segments(seq, sys)`, without a gradient: the state averaged
    over the segment's duration, and the state at its end.

    With h = V diag(w) V^dag and r = V^dag rho V at the segment's start,
    r_ab evolves as r_ab exp(-i x_ab t / T), x_ab = (w_a - w_b) T, so its
    mean over the duration T is r_ab phi(x_ab), phi(x) = (1 - exp(-i x)) / (i x)
    = exp(-i x / 2) sinc(x / 2), phi(0) = 1. The mean is exact, so it does
    not depend on where the sequence is cut. The Hamiltonians of all
    segments are eigendecomposed in one call; the walk is one propagator
    product per segment (a rotation is one more, where it falls, and
    contributes no time), and the states and means are stacked products.
    Absolute eigenphases w T cost digits at huge chemical shifts: 1.1e-10
    at nu2 = 1e12 Hz, 5e-15 on the default system.
    """
    segments = piecewise_segments(seq, sys)
    evolve = [seg for seg in segments if seg.kind == "evolve"]
    dt = np.array([seg.duration for seg in evolve])
    w, v = np.linalg.eigh(np.array([seg.h for seg in evolve]).reshape(-1, 4, 4))
    vh = v.conj().swapaxes(1, 2)
    flows = (v * np.exp(-1j * w * dt[:, None])[:, None]) @ vh  # V exp(-i w T) V^dag
    k, u, starts = 0, np.eye(4, dtype=complex), np.empty(v.shape, dtype=complex)
    for seg in segments:  # the propagator up to the start of each evolve segment
        if seg.kind == "rotate":
            u = seg.u @ u
        else:
            starts[k], u, k = u, flows[k] @ u, k + 1
    r = vh @ (starts @ np.asarray(rho0, dtype=complex) @ starts.conj().swapaxes(1, 2)) @ v
    x = (w[:, :, None] - w[:, None, :]) * dt[:, None, None]
    means = v @ (r * np.exp(-0.5j * x) * np.sinc(x / (2 * math.pi))) @ vh
    yield from zip(means, dt.tolist(), v @ (r * np.exp(-1j * x)) @ vh)


def dfs_residence_fraction(seq: PulseSequence, sys: SpinSystem) -> float:
    """Time average of the code-space population over a sequence that starts
    in the code space's maximally mixed state P_zero / 2: the segment means
    of `state_trajectory`, weighted by their durations."""
    _, p_zero, _ = ops.zq_projectors()
    steps = list(state_trajectory(seq, sys, p_zero / 2))
    if not steps:
        raise ValueError("sequence has no finite-duration events")
    means, dts = np.array([mean for mean, _, _ in steps]), np.array([dt for _, dt, _ in steps])
    return float(np.einsum("ij,sji,s", p_zero, means, dts).real / dts.sum())


# ---------------------------------------------------------------------------
# toggling frame / average Hamiltonian
# ---------------------------------------------------------------------------

def _check_cyclic(u_pulses: np.ndarray) -> None:
    s = np.trace(u_pulses) / 4.0
    if not (abs(abs(s) - 1.0) <= 1e-10 and np.abs(u_pulses - s * np.eye(4)).max() <= 1e-10):
        raise NumericalContractError(
            "pulse train is not cyclic: product of pulses is not the identity up to phase"
        )


def average_hamiltonian(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Zeroth-order average Hamiltonian of an ideal-pulse train.

    Each delay is spent in the toggling frame U_k^dag H_int U_k, U_k the
    product of the k ideal pulses before it, and the frames are weighted by
    those delays; for the equally spaced trains built here this reduces to
    the plain mean over one cycle. The pulses must multiply to the identity
    up to phase, and finite-duration pulses are rejected. An empty sequence
    averages to the internal Hamiltonian.
    """
    h_int = internal_hamiltonian(sys)
    if not seq.events:
        return h_int
    u, frame = np.eye(4, dtype=complex), h_int
    acc = np.zeros((4, 4), dtype=complex)
    t_total = 0.0
    for ev in seq.events:
        if isinstance(ev, RfPulse):
            raise ValueError("toggling-frame analysis needs ideal pulses (Delay/IdealRotation only)")
        if isinstance(ev, IdealRotation):
            u = ev.unitary @ u
            frame = u.conj().T @ h_int @ u
        else:
            acc += frame * ev.duration
            t_total += ev.duration
    _check_cyclic(u)
    if t_total == 0.0:
        raise ValueError("sequence has no delays; average Hamiltonian undefined")
    return acc / t_total


# ---------------------------------------------------------------------------
# sequence builders
# ---------------------------------------------------------------------------

#: hard pi pulse length and cycle spacing of `enc_x` (the spacing is also
#: the default of the ideal trains), and its WALTZ-style pulse phase cycle
PULSE_DURATION = 62.4e-6
DEFAULT_PULSE_SPACING = 630e-6
CYCLES_PER_QUARTER_TURN = 64
WALTZ_PHASES = (0.0, 0.0, math.pi, math.pi)


def ideal_pulse_train(rotation: str, n_pulses: int, spacing: float) -> PulseSequence:
    """Equally spaced train [delay, pulse] x n of one named ideal rotation."""
    if n_pulses < 1:
        raise ValueError("need n_pulses >= 1")
    events = []
    for _ in range(n_pulses):
        events += [Delay(spacing), IdealRotation(rotation)]
    return PulseSequence(tuple(events))


def xx_train(n_pulses: int = 2, spacing: float = DEFAULT_PULSE_SPACING) -> PulseSequence:
    """Train of simultaneous ideal pi_x pulses on both spins: the
    Carr-Purcell train of ideal encoded pi_x pulses (hard pi pair limit).

    Averages away both chemical-shift terms of the internal Hamiltonian while
    leaving the spin-spin coupling untouched: the encoded z evolution is
    refocused and the encoded x coupling kept, so the average Hamiltonian is
    pi J on the logical x axis.
    """
    return ideal_pulse_train("pi_x_pair", n_pulses, spacing)


def xy_train(n_pulses: int = 2, spacing: float = DEFAULT_PULSE_SPACING) -> PulseSequence:
    """Train of simultaneous ideal pi_x (spin 1) / pi_y (spin 2) pulses.

    Averages away the chemical shifts and the flip-flop part of the coupling,
    leaving only the zz part -- an encoded identity on the code space.
    """
    return ideal_pulse_train("pi_x1_y2", n_pulses, spacing)


def _cz_rate(sys: SpinSystem) -> float:
    """|c_z| = pi (nu2 - nu1) rad/s, the logical z rate of the internal
    Hamiltonian: half the difference of its code block's diagonal entries,
    to which J adds nothing."""
    if sys.nu1 >= sys.nu2:
        raise ValueError("encoded z gates assume a negative logical z rate (nu1 < nu2)")
    return math.pi * (sys.nu2 - sys.nu1)


def enc_z(theta: float, sys: SpinSystem) -> PulseSequence:
    """Encoded z rotation exp(-i theta sz/2) as a single timed delay.

    The logical z rate of the free evolution is negative, so a positive
    rotation by theta is reached by letting the state precess through
    2 pi - theta the other way; duration (2 pi - theta) / (2 |c_z|).
    """
    theta = theta % (2 * math.pi)
    duration = (2 * math.pi - theta) / (2 * _cz_rate(sys))
    return PulseSequence((Delay(duration),))


def enc_x(theta: float, sys: SpinSystem) -> PulseSequence:
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
    period, amplitude = len(WALTZ_PHASES), math.pi / PULSE_DURATION
    n_cycles = period * round(theta / (math.pi / 2) * (CYCLES_PER_QUARTER_TURN // period))
    events = []
    for k in range(n_cycles):
        pulse = RfPulse(amplitude, WALTZ_PHASES[k % period], PULSE_DURATION)
        events += [Delay(DEFAULT_PULSE_SPACING / 2), pulse, Delay(DEFAULT_PULSE_SPACING / 2)]
    return PulseSequence(tuple(events))


def composite_y90(sys: SpinSystem) -> PulseSequence:
    """Calibrated composite encoded y rotation by pi/2: z(-pi/2), x(pi/2), z(pi/2).

    With nominal delays the always-on logical x coupling tilts the two z legs
    enough to cost about 1e-3 in gate fidelity, so the two delay durations
    are trimmed (a few percent, found by a deterministic grid search against
    the ideal target) -- the software analogue of calibrating the gate on
    the spectrometer.
    """
    x_leg = enc_x(math.pi / 2, sys)
    t_pre = enc_z(-math.pi / 2, sys).events[0].duration
    t_post = enc_z(math.pi / 2, sys).events[0].duration
    h_int = internal_hamiltonian(sys)
    u_x = propagator(x_leg, sys)
    target = ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)  # exp(-i pi/4 sy)

    def fidelities(s1, s2):  # at every pair of the scale grids, s1 outer
        u = ops.expm_hermitian(h_int, t_post * s2) @ u_x @ ops.expm_hermitian(h_int, t_pre * s1)[:, None]
        return member_gate_fidelities(u.reshape(-1, 4, 4), target)

    best = (fidelities(np.ones(1), np.ones(1))[0], 1.0, 1.0)
    centre, span, steps = (1.0, 1.0), 0.05, 10
    for _ in range(3):
        s1, s2 = (np.linspace(c - span, c + span, 2 * steps + 1) for c in centre)
        f = fidelities(s1, s2)
        # argmax takes the first maximum in s1-outer, s2-inner order, as
        # a scan that only moves on strict improvement would
        k = int(np.argmax(f))
        if f[k] > best[0]:
            best = (f[k], float(s1[k // s2.size]), float(s2[k % s2.size]))
        centre, span = (best[1], best[2]), span / steps
    t_pre *= best[1]
    t_post *= best[2]

    return PulseSequence((Delay(t_pre),) + x_leg.events + (Delay(t_post),))

