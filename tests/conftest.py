import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings
from hypothesis import strategies as st

from dfsim import SpinSystem
from dfsim import operators as ops
from dfsim.ensemble import GradientWaveform
from dfsim.hamiltonians import RfParams, internal_hamiltonian, rf_hamiltonian
from dfsim.pulses import HARD, PULSE_SHAPES, ROTATIONS, Delay, IdealRotation, PulseSequence, RfPulse


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


def expm_oracle(seq, sys: SpinSystem, waveform, z: float) -> np.ndarray:
    """Reference propagator at one position z, built from the events alone.

    Each event is cut at the waveform's step boundaries (the last value is
    held past the end) and every piece contributes
    scipy.linalg.expm(-i (h + gamma z g Jz/2) dt), independently of the
    package's segment flattening and propagation engine.
    """
    h_int = internal_hamiltonian(sys)
    u = np.eye(4, dtype=complex)
    t = 0.0
    for ev in seq.events:
        if isinstance(ev, IdealRotation):
            u = ev.unitary @ u
            continue
        if isinstance(ev, Delay):
            pieces = [(h_int, ev.duration)]
        elif ev.shape == HARD:
            pieces = [(h_int + rf_hamiltonian(RfParams(ev.amplitude, ev.phase)), ev.duration)]
        else:  # 90x-180y-90x: nutation quarters at relative phases 0, +90 deg, 0
            pieces = [(h_int + rf_hamiltonian(RfParams(ev.amplitude, ev.phase + dphi)), ev.duration * frac)
                      for frac, dphi in ((0.25, 0.0), (0.5, math.pi / 2), (0.25, 0.0))]
        for h, dur in pieces:
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


# Hypothesis strategies shared by the property tests. Durations and step
# times sit on a microsecond grid, so no piece ends within the 1e-12 s merge
# tolerance of piecewise_segments short of a step boundary.
durations = st.integers(1, 300).map(lambda k: k * 1e-6)
events = st.one_of(
    durations.map(Delay),
    st.builds(RfPulse, amplitude=st.floats(0.0, 1e5), phase=st.floats(-math.pi, math.pi),
              duration=durations, shape=st.sampled_from(PULSE_SHAPES)),
    st.sampled_from(sorted(ROTATIONS)).map(IdealRotation),
)
sequences = st.lists(events, min_size=1, max_size=8).map(PulseSequence)
waveforms = st.builds(
    GradientWaveform,
    step_time=st.integers(5, 100).map(lambda k: k * 1e-6),
    values=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=30).map(np.array),
)
positions = st.floats(-5e-3, 5e-3)
spin_systems = st.builds(SpinSystem, nu1=st.floats(-50.0, 50.0), nu2=st.floats(0.0, 500.0),
                         j_coupling=st.floats(0.0, 20.0))
property_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)
