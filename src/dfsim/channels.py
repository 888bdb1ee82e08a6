"""Non-unitary dynamics as Kraus channels.

The central object is the three-operator collective-dephasing channel built
from the Jz eigenprojectors. Its strong-noise ("crusher") limit projects onto
the Jz eigenblocks, and for any strength it acts as the identity on the
zero-quantum code space. An ambient-relaxation channel, exact for any
holding time, models natural noise with a tunable collective fraction.

Superoperators use the column-stacking convention: vec stacks columns, so
vec(A rho B) = (B^T kron A) vec(rho) and channel composition is matrix
multiplication of superoperators.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NumericalContractError
from .hamiltonians import SpinSystem

COMPLETENESS_TOL = 1e-10


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v)
    if dim is None:
        dim = int(round(math.sqrt(v.size)))
    return v.reshape(dim, dim, order="F")


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    Completeness sum_a E_a^dag E_a = 1 is verified at construction to 1e-10;
    a violation raises NumericalContractError.
    """

    kraus_ops: tuple
    label: str = ""

    def __post_init__(self):
        kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", kraus)
        if not kraus:
            raise ValueError("channel needs at least one Kraus operator")
        d = kraus[0].shape[0]
        if any(k.shape != (d, d) for k in kraus):
            raise ValueError("all Kraus operators must be square with equal dimension")
        s = sum(k.conj().T @ k for k in kraus)
        err = np.abs(s - np.eye(d)).max()
        if err > COMPLETENESS_TOL:
            raise NumericalContractError(
                f"Kraus completeness violated by {err:.3e} (label={self.label!r})"
            )

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """rho -> sum_a E_a rho E_a^dag."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state dimension {rho.shape} does not match channel dim {self.dim}")
        out = np.zeros_like(rho)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out

    def superoperator(self) -> np.ndarray:
        """Matrix S with vec(E(rho)) = S vec(rho), column-stacking convention."""
        d = self.dim
        s = np.zeros((d * d, d * d), dtype=complex)
        for k in self.kraus_ops:
            s += np.kron(k.conj(), k)
        return s

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Channel applying `other` first, then self."""
        if self.dim != other.dim:
            raise ValueError("channel dimensions differ")
        kraus = [a @ b for a in self.kraus_ops for b in other.kraus_ops]
        kraus = [k for k in kraus if np.abs(k).max() > 0.0]
        return KrausChannel(tuple(kraus), label=f"{self.label}*{other.label}")


def identity_channel(dim: int = 4) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),), label="identity")


def unitary_channel(u: np.ndarray, label: str = "unitary") -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),), label=label)


def ensemble_channel(unitaries, weights=None, label: str = "ensemble") -> KrausChannel:
    """Channel averaging conjugation by a family of unitaries.

    Kraus operators are sqrt(w_i) U_i; weights default to uniform.
    """
    unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
    n = len(unitaries)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    return KrausChannel(tuple(np.sqrt(w) * u for w, u in zip(weights, unitaries)), label=label)


def collective_dephasing(gamma: float) -> KrausChannel:
    """Collective phase noise of dimensionless strength gamma >= 0.

    Single-quantum coherences decay by e^-gamma and double-quantum ones by
    e^-4gamma; the zero-quantum block is untouched for every gamma. Pass
    math.inf for the crusher limit, where the Kraus set becomes the three Jz
    eigenprojectors exactly.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    p_plus, p_zero, p_minus = zq_proj = ops.zq_projectors()
    if math.isinf(gamma):
        return KrausChannel(zq_proj, label="collective_dephasing(inf)")
    x = math.exp(-2.0 * gamma)
    e0 = p_plus + math.exp(-gamma) * p_zero + math.exp(-4.0 * gamma) * p_minus
    e1 = math.sqrt(1.0 - x) * p_zero + math.exp(-gamma) * (1.0 + x) * math.sqrt(1.0 - x) * p_minus
    e2 = (1.0 - x) * math.sqrt(1.0 + x) * p_minus
    return KrausChannel((e0, e1, e2), label=f"collective_dephasing({gamma:g})")


def coherence_decay_factors(gamma: float) -> tuple[float, float]:
    """Measured scale factors (d1, d2) of single- and double-quantum
    coherences under collective_dephasing(gamma), read off by applying the
    channel to the matrix units |00><01| and |00><11|."""
    ch = collective_dephasing(gamma)
    unit_single = np.zeros((4, 4), dtype=complex)
    unit_single[0, 1] = 1.0
    unit_double = np.zeros((4, 4), dtype=complex)
    unit_double[0, 3] = 1.0
    d1 = ch.apply(unit_single)[0, 1]
    d2 = ch.apply(unit_double)[0, 3]
    return float(d1.real), float(d2.real)


def _amplitude_damping(p: float) -> list[np.ndarray]:
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def _phase_damping(q: float) -> list[np.ndarray]:
    return [math.sqrt(1.0 - q) * np.eye(2, dtype=complex),
            math.sqrt(q) * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)]


def _on_spin(kraus_2: list[np.ndarray], spin: int) -> list[np.ndarray]:
    eye = np.eye(2, dtype=complex)
    if spin == 1:
        return [np.kron(k, eye) for k in kraus_2]
    return [np.kron(eye, k) for k in kraus_2]


def natural_relaxation_step(sys: SpinSystem, f_collective: float, duration: float) -> KrausChannel:
    """Ambient relaxation over `duration` seconds, exact at any duration.

    Composes per-spin amplitude damping at rate 1/T1 with phase damping of
    total single-spin rate Gamma_phi = 1/T2 - 1/(2 T1), split into a
    collective part and an independent per-spin part. f_collective in [0, 1]
    sets how much of the phase damping acts collectively:

    * a single spin's transverse magnetization decays by exactly
      exp(-duration/T2) for every f_collective;
    * the code-space (zero-quantum) coherence dephases at the reduced rate
      (1 - f_collective) * Gamma_phi, from "as fast as an un-encoded spin"
      at f_collective = 0 down to no dephasing at all at f_collective = 1,
      where only T1 leakage (rate 1/T1) remains.

    Internally that split is collective rate (1 + f)/2 * Gamma_phi and
    independent per-spin rate (1 - f)/2 * Gamma_phi. The damping processes
    commute, so their composition is the solution of the Lindblad master
    equation with these jumps over the whole duration, and channels of
    durations a and b compose to the one of a + b.
    """
    if not 0.0 <= f_collective <= 1.0:
        raise ValueError(f"f_collective must be in [0, 1], got {f_collective!r}")
    if not duration >= 0:
        raise ValueError(f"duration must be >= 0, got {duration!r}")
    # t2 may exceed 2 t1 by round-off, which must not make a rate negative
    gamma_phi = max(1.0 / sys.t2 - 1.0 / (2.0 * sys.t1), 0.0)
    p = 1.0 - math.exp(-duration / sys.t1)
    gamma_coll = 0.5 * (1.0 + f_collective) * gamma_phi * duration
    q = 0.5 * (1.0 - math.exp(-0.5 * (1.0 - f_collective) * gamma_phi * duration))

    step = collective_dephasing(gamma_coll)
    for spin in (1, 2):
        step = KrausChannel(tuple(_on_spin(_phase_damping(q), spin)), "pd").compose(step)
        step = KrausChannel(tuple(_on_spin(_amplitude_damping(p), spin)), "ad").compose(step)
    return KrausChannel(step.kraus_ops, label=f"relaxation(f={f_collective:g}, t={duration:g})")
