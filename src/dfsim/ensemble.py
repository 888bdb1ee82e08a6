"""Spatial/temporal noise ensemble: gradient phase accrual and diffusion.

A sample is modeled as a stratified set of positions along z. A field
gradient makes every position precess at its own rate, which is a purely
coherent evolution per member; averaging over members turns it into the
engineered decoherence the storage experiments use. Molecular diffusion
between a gradient pulse and its inverse makes the echo imperfect, with the
order-m coherence decaying as exp(-D (gamma grad m delta)^2 Delta).

The time-varying case ("fast switching") uses a reflected bounded random
walk for the gradient strength, changing every step_time, so the waveform's
correlation time is of the order of the stepping time -- too fast for the
control sequences to refocus.

The module also holds the package's one propagation engine,
`segment_unitaries`: every propagator, for one molecule or for the whole
ensemble, is a product of the unitaries it yields, over the segments that
`fuse_segments` leaves.

All randomness flows through numpy Generators seeded from the spec, and the
member sum runs in a fixed order, so outputs are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NumericalContractError
from .hamiltonians import SpinSystem, internal_hamiltonian
from .pulses import PulseSequence, Segment, piecewise_segments

DEFAULT_STEP_TIME = 50.6e-6


@dataclass(frozen=True)
class EnsembleSpec:
    """Sample geometry and noise configuration."""

    n_members: int = 1001
    sample_length: float = 0.01   # m
    grad_max: float = 0.0         # T/m
    diffusion_d: float = 2.0e-9   # m^2/s
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_members, (int, np.integer)):
            raise ValueError(f"n_members must be an integer, got {self.n_members!r}")
        if self.n_members < 2:
            raise ValueError("need at least 2 ensemble members")
        for name in ("sample_length", "grad_max", "diffusion_d"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class GradientWaveform:
    """Piecewise-constant gradient strength values (T/m) on a uniform clock."""

    step_time: float
    values: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.step_time <= 0:
            raise ValueError("step_time must be positive")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time_us,grad_T_per_m\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i * self.step_time * 1e6:.12g},{v:.12g}\n")


def _reflect(x: np.ndarray, bound: float) -> np.ndarray:
    """Fold an unbounded walk into [-bound, bound] (triangle-wave map)."""
    if bound == 0.0:
        return np.zeros_like(x)
    y = np.mod(x + bound, 4.0 * bound)
    y = np.where(y > 2.0 * bound, 4.0 * bound - y, y)
    return y - bound


def random_walk_waveform(spec: EnsembleSpec, n_steps: int,
                         step_time: float = DEFAULT_STEP_TIME,
                         step_scale: float = 1.0,
                         seed: int | None = None) -> GradientWaveform:
    """Reflected bounded random walk in [-grad_max, +grad_max].

    Increments are uniform in +-step_scale * grad_max; with the default scale
    the empirical autocorrelation falls below 1/e within a few steps, so the
    correlation time is of the order of step_time. Deterministic for a fixed
    seed (defaults to spec.seed).
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    g = spec.grad_max
    increments = rng.uniform(-step_scale * g, step_scale * g, size=n_steps) if g > 0 else np.zeros(n_steps)
    values = _reflect(np.cumsum(increments), g)
    return GradientWaveform(step_time, values, seed=spec.seed if seed is None else seed)


def member_positions(spec: EnsembleSpec, jitter: bool = False,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Stratified midpoint positions over the sample, centered on z = 0.

    With jitter=True each member moves uniformly within its stratum (needs an
    rng); the default midpoint rule keeps acceptance runs deterministic.
    """
    n, length = spec.n_members, spec.sample_length
    offsets = np.full(n, 0.5)
    if jitter:
        if rng is None:
            raise ValueError("jitter requires an rng")
        offsets = rng.uniform(0.0, 1.0, size=n)
    return (np.arange(n) + offsets) / n * length - length / 2


def _commutes_with_jz(h: np.ndarray) -> bool:
    """[h, Jz] = 0 to round-off, relative to the size of h (any units)."""
    scale = max(np.abs(h).max(), np.finfo(float).tiny)
    return np.abs(h @ ops.J_Z - ops.J_Z @ h).max() <= 1e-12 * scale


def fuse_segments(segments) -> list[Segment]:
    """Merge each run of consecutive evolve segments under one Hamiltonian
    into a single segment, where that is exact.

    A run under h that commutes with Jz becomes one segment of the summed
    duration whose gradient is the run's mean, so that grad * duration is
    the summed g dt: exp(-i h sum dt) times the member phases of sum g dt is
    the run's product. A run that carries no gradient at all merges under
    any h. Rotations, and evolve segments under a gradient that do not
    commute with Jz (RF pieces), are kept as they are.
    """
    out: list[Segment] = []
    commutes: dict = {}
    run_key = None  # h of the last segment as bytes, None after a rotation
    area = 0.0      # sum of g dt over the last segment
    for seg in segments:
        hkey = seg.h.tobytes() if seg.kind == "evolve" else None
        if hkey is not None and hkey == run_key:
            if hkey not in commutes:
                commutes[hkey] = _commutes_with_jz(seg.h)
            last = out[-1]
            if commutes[hkey] or last.grad == seg.grad == 0.0:
                area += seg.grad * seg.duration
                duration = last.duration + seg.duration
                out[-1] = Segment("evolve", duration, seg.h, area / duration)
                continue
        out.append(seg)
        run_key, area = hkey, seg.grad * seg.duration
    return out


def segment_unitaries(segments, sys: SpinSystem, z: float | np.ndarray):
    """Yield the unitary of each segment, in order, at position(s) z (m).

    The propagation engine of the package. A scalar z gives (4, 4) unitaries
    and an array z gives (n, 4, 4) where members differ. A segment that
    commutes with Jz, carries no gradient, or sees z = 0 everywhere shares
    one exponential of its gradient-free Hamiltonian, cached by Hamiltonian
    and duration; a commuting segment with a gradient multiplies it by the
    member phases exp(-i gamma z g dt Jz/2). Only the rest (RF under a
    gradient) needs one batched eigendecomposition.
    """
    z = np.asarray(z, dtype=float)
    z_all_zero = not z.any()
    shared: dict = {}
    commutes: dict = {}
    for seg in segments:
        if seg.kind == "rotate":
            yield seg.u
            continue
        hkey = seg.h.tobytes()
        with_gradient = seg.grad != 0.0 and not z_all_zero
        if with_gradient and hkey not in commutes:
            commutes[hkey] = _commutes_with_jz(seg.h)
        if with_gradient and not commutes[hkey]:
            hb = seg.h + np.multiply.outer(sys.gamma * seg.grad * z, ops.J_Z / 2)
            w, v = np.linalg.eigh(hb)
            yield np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w * seg.duration), v.conj())
            continue
        u0 = shared.get((hkey, seg.duration))
        if u0 is None:
            u0 = shared[hkey, seg.duration] = ops.expm_hermitian(seg.h, seg.duration)
        if with_gradient:
            phases = np.exp(-1j * (sys.gamma * seg.grad * seg.duration)
                            * np.multiply.outer(z, ops.SPIN_PROJECTION))
            yield u0 * phases[..., None, :]
        else:
            yield u0


def ensemble_propagators(seq: PulseSequence, sys: SpinSystem, waveform,
                         z: float | np.ndarray) -> np.ndarray:
    """Exact propagator of one sequence at every member position at once.

    The time-ordered product of `segment_unitaries` over the fused
    segments: (4, 4) for a scalar z, (n, 4, 4) for an array. Every result
    is checked unitary to 1e-10.
    """
    z = np.asarray(z, dtype=float)
    u = np.tile(np.eye(4, dtype=complex), z.shape + (1, 1))
    segments = fuse_segments(piecewise_segments(seq, sys, waveform))
    for useg in segment_unitaries(segments, sys, z):
        u = useg @ u
    err = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(4)).max()
    if not err <= ops.UNITARY_TOL:
        raise NumericalContractError(f"sequence propagator failed unitarity at 1e-10 (error {err:.3e})")
    return u


def _average_conjugation(us: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    rho = np.einsum("nij,jk,nlk->il", us, np.asarray(rho0, dtype=complex), us.conj()) / len(us)
    return rho


def _check_output_state(rho: np.ndarray) -> None:
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise NumericalContractError("ensemble state lost trace normalization")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-8:
        raise NumericalContractError("ensemble state positivity violated beyond 1e-8")


def evolve_ensemble(seq: PulseSequence, waveform, spec: EnsembleSpec,
                    sys: SpinSystem, rho0: np.ndarray) -> np.ndarray:
    """Ensemble-averaged final state: mean over member positions of the
    coherent evolution, i.e. the trace over the spatial degree of freedom."""
    zs = member_positions(spec)
    us = ensemble_propagators(seq, sys, waveform, zs)
    rho = _average_conjugation(us, rho0)
    _check_output_state(rho)
    return rho


def diffusion_phase_factors(grad: float, delta: float, big_delta: float,
                            spec: EnsembleSpec, sys: SpinSystem,
                            seed: int | None = None) -> np.ndarray:
    """Per-member residual echo phases gamma * grad * delta * dz.

    dz is the Gaussian diffusion displacement accumulated over big_delta,
    std sqrt(2 D big_delta). The uniform member positions cancel exactly
    between a gradient pulse and its inverse; only the displacement survives.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    dz = rng.normal(0.0, math.sqrt(2.0 * spec.diffusion_d * big_delta), size=spec.n_members)
    return sys.gamma * grad * delta * dz


def diffusion_phase_kicks(grad: float, delta: float, big_delta: float,
                          spec: EnsembleSpec, sys: SpinSystem,
                          seed: int | None = None) -> np.ndarray:
    """(n, 4, 4) diagonal unitaries implementing the imperfect-echo phases."""
    phi = diffusion_phase_factors(grad, delta, big_delta, spec, sys, seed)
    diag = np.exp(1j * np.outer(phi, ops.SPIN_PROJECTION))
    out = np.zeros((len(phi), 4, 4), dtype=complex)
    out[:, np.arange(4), np.arange(4)] = diag
    return out


def gradient_diffusion_echo(grad: float, delta: float, big_delta: float,
                            spec: EnsembleSpec, sys: SpinSystem,
                            rho0: np.ndarray, seed: int | None = None) -> np.ndarray:
    """Gradient pulse, diffusion delay, inverse gradient: the ensemble state
    after the imperfect echo, including coherent internal evolution over the
    full duration 2 delta + big_delta.

    The gradient Hamiltonian commutes with the internal one, so the member
    unitaries factor exactly into the shared internal propagator times the
    member's residual phase kick.
    """
    u_int = ops.expm_hermitian(internal_hamiltonian(sys), 2 * delta + big_delta)
    kicks = diffusion_phase_kicks(grad, delta, big_delta, spec, sys, seed)
    us = u_int[None, :, :] @ kicks
    rho = _average_conjugation(us, rho0)
    _check_output_state(rho)
    return rho
