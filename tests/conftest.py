import math
import os
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

# No bytecode cache for dfsim: a stale src/dfsim/__pycache__ moves measured
# timings. The environment variable also reaches the `python -m dfsim` and
# `python -c` subprocesses that tests start.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from dfsim import SpinSystem  # noqa: E402
from dfsim import operators as ops  # noqa: E402
from dfsim.ensemble import GradientWaveform, random_walk_waveform  # noqa: E402
from dfsim.hamiltonians import internal_hamiltonian, rf_hamiltonian  # noqa: E402
from dfsim.pulses import ROTATIONS, Delay, IdealRotation, PulseSequence, RfPulse, enc_x, enc_z  # noqa: E402

@pytest.fixture
def spin_system():
    return SpinSystem()


def lindblad_superoperator(sys: SpinSystem, f: float) -> np.ndarray:
    """Continuous-time oracle for the ambient-relaxation model.

    Jumps: sqrt(1/T1) |0><1| per spin, sqrt(c/2) Jz with c the collective
    dephasing rate, sqrt(r/2) sz per spin with r the independent rate.
    Column-stacking convention.
    """
    gamma_phi = 1.0 / sys.t2 - 1.0 / (2.0 * sys.t1)
    c = 0.5 * (1.0 + f) * gamma_phi
    r = 0.5 * (1.0 - f) * gamma_phi
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    jumps = []
    for spin in (1, 2):
        embed = (lambda m: np.kron(m, np.eye(2))) if spin == 1 else (lambda m: np.kron(np.eye(2), m))
        jumps.append(math.sqrt(1.0 / sys.t1) * embed(lower))
        jumps.append(math.sqrt(r / 2.0) * embed(ops.PAULI["z"]))
    jumps.append(math.sqrt(c / 2.0) * ops.J_Z)
    eye = np.eye(4)
    gen = np.zeros((16, 16), dtype=complex)
    for a in jumps:
        ada = a.conj().T @ a
        gen += np.kron(a.conj(), a) - 0.5 * (np.kron(eye, ada) + np.kron(ada.T, eye))
    return gen


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_hermitian(rng, dim=4, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def random_ket(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim=4, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def code_block(a: np.ndarray) -> np.ndarray:
    """2x2 restriction of a two-spin operator to the logical basis (|01>, |10>)."""
    return a[1:3, 1:3]


def logical_coefficients(h: np.ndarray) -> tuple[float, float, float]:
    """(c_z, c_x, c_y) of h's code block in the hybrid frame, whose encoded
    sz = -sigma_z^2 and sx = flip-flop / 2 restrict to the Pauli matrices
    there: tr(P block) / 2 for each Pauli P."""
    return tuple(float(np.trace(ops.PAULI[axis] @ code_block(h)).real) / 2 for axis in "zxy")


def composite_90x_180y_90x(pulse: RfPulse) -> tuple:
    """The 90x-180y-90x composite of `pulse`'s drive and total duration:
    three hard pulses of nutation fractions 1/4, 1/2 and 1/4 at relative
    phases 0, +90 deg and 0."""
    return tuple(RfPulse(pulse.amplitude, pulse.phase + dphi, pulse.duration * frac)
                 for frac, dphi in ((0.25, 0.0), (0.5, math.pi / 2), (0.25, 0.0)))


def nominal_composite_y90(sys: SpinSystem) -> PulseSequence:
    """`composite_y90` before calibration: the enc_z(-pi/2), enc_x(pi/2) and
    enc_z(pi/2) events at their nominal delays."""
    events = enc_z(-math.pi / 2, sys).events + enc_x(math.pi / 2, sys).events + enc_z(math.pi / 2, sys).events
    return PulseSequence(events)


def scaled_walk(grad_max: float, n_steps: int, seed: int) -> GradientWaveform:
    """The unit random walk of `seed` scaled to strength `grad_max` (T/m): a
    noisy_gate sweep point, which noisy_gate_experiment runs as the unit walk
    at positions grad_max z."""
    shape = random_walk_waveform(n_steps, seed)
    return GradientWaveform(shape.step_time, grad_max * shape.values)


def continuum_mean(f, half_length: float, deg: int) -> float:
    """Mean of the entire function `f` over [-half_length, half_length]:
    the integral of its degree-`deg` Chebyshev interpolant (Clenshaw and
    Curtis, Numer. Math. 2, 197 (1960)), whose error falls faster than any
    power of `deg` (Trefethen, ATAP, ch. 8 and 19). `f` is called once, on
    all deg + 1 Chebyshev points."""
    integral = chebyshev.chebint(chebyshev.chebinterpolate(lambda x: f(half_length * x), deg))
    return float(chebyshev.chebval(1.0, integral) - chebyshev.chebval(-1.0, integral)) / 2


def event_hamiltonian(ev, sys: SpinSystem) -> np.ndarray:
    """h of a delay or pulse, the internal Hamiltonian on."""
    h_int = internal_hamiltonian(sys)
    return h_int + rf_hamiltonian(ev.amplitude, ev.phase) if isinstance(ev, RfPulse) and ev.amplitude else h_int


def commutes_with_jz(h: np.ndarray) -> bool:
    """[h, Jz] = 0 to round-off, relative to the size of h (any units): a
    numerical probe, independent of how `piecewise_segments` decides."""
    scale = max(np.abs(h).max(), np.finfo(float).tiny)
    return np.abs(h @ ops.J_Z - ops.J_Z @ h).max() <= 1e-12 * scale


def expm_oracle(seq, sys: SpinSystem, waveform, z: float) -> np.ndarray:
    """Reference propagator at one position z, built from the events alone.

    Each event is cut at the waveform's step boundaries (the last value is
    held past the end) and every piece contributes
    scipy.linalg.expm(-i (h + gamma z g Jz/2) dt), independently of the
    package's segment flattening and propagation engine.
    """
    u = np.eye(4, dtype=complex)
    t = 0.0
    for ev in seq.events:
        if isinstance(ev, IdealRotation):
            u = ev.unitary @ u
            continue
        h, dur = event_hamiltonian(ev, sys), ev.duration
        cuts = [t, t + dur]
        if waveform is not None:
            tau = waveform.step_time
            inner = range(math.floor(t / tau) + 1, math.ceil((t + dur) / tau))
            cuts = [t] + [k * tau for k in inner] + [t + dur]
        for a, b in zip(cuts, cuts[1:]):
            g = 0.0
            if waveform is not None:
                g = waveform.values[min(int((a + b) / 2 // waveform.step_time), len(waveform.values) - 1)]
            u = scipy.linalg.expm(-1j * (h + sys.gamma * z * g * ops.J_Z / 2) * (b - a)) @ u
        t += dur
    return u


def segments_oracle_30_digits(segments, sys: SpinSystem, z: float) -> np.ndarray:
    """Product of the exponentials exp(-i (h + gamma z g Jz/2) dt) of the
    given segments at one position z, by mpmath.expm at 30 significant
    digits, rounded to double precision only at the end.

    Accurate well beyond `expm_oracle`, whose double-precision pieces are
    off by about 5e-11 at 1000 kHz/cm, so it can bound the engine's own
    error there.
    """
    with mpmath.workdps(30):
        u = mpmath.eye(4)
        for seg in segments:
            if seg.kind == "rotate":
                u = mpmath.matrix(seg.u.tolist()) * u
                continue
            x = mpmath.matrix(seg.h.tolist())
            rate = mpmath.mpf(sys.gamma) * z * seg.grad  # gamma z g, Jz/2 = diag(1, 0, 0, -1)
            for k, m in enumerate(ops.SPIN_PROJECTION):
                x[k, k] += m * rate
            u = mpmath.expm(-1j * mpmath.mpf(seg.duration) * x) * u
        return np.array(u.tolist(), dtype=complex)


# Hypothesis strategies shared by the property tests. Durations and step
# times sit on a microsecond grid, so no piece ends within the 1e-12 s clock
# tolerance of piecewise_segments past a step boundary, where its remainder
# would keep the step before's gradient rather than expm_oracle's next one.
# An element of a sequence is one event or a composite pulse's three.
durations = st.integers(1, 300).map(lambda k: k * 1e-6)


def sequences_of(amplitudes):
    """Sequences whose pulses draw their amplitude (rad/s) from `amplitudes`."""
    pulses = st.builds(RfPulse, amplitude=amplitudes, phase=st.floats(-math.pi, math.pi), duration=durations)
    events = st.one_of(
        durations.map(lambda d: (Delay(d),)),
        pulses.map(lambda ev: (ev,)) | pulses.map(composite_90x_180y_90x),
        st.sampled_from(sorted(ROTATIONS)).map(lambda name: (IdealRotation(name),)),
    )
    return st.lists(events, min_size=1, max_size=8).map(lambda groups: PulseSequence(sum(groups, ())))


sequences = sequences_of(st.floats(0.0, 1e5))
waveforms = st.builds(
    GradientWaveform,
    step_time=st.integers(5, 100).map(lambda k: k * 1e-6),
    values=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=30).map(np.array),
)
positions = st.floats(-5e-3, 5e-3)


def _hermitian(parts):
    a = np.reshape(parts[:16], (4, 4)) + 1j * np.reshape(parts[16:], (4, 4))
    return (a + a.conj().T) / 2


hermitians = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).map(_hermitian)
spin_systems = st.builds(SpinSystem, nu1=st.floats(-50.0, 50.0), nu2=st.floats(0.0, 500.0),
                         j_coupling=st.floats(0.0, 20.0))
# no shrink or explain phase: a failing example is reported as generated,
# rather than after minutes of shrinking
property_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                             phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
