"""Non-unitary dynamics as Kraus channels.

The central object is the three-operator collective-dephasing channel built
from the Jz eigenprojectors. Its strong-noise ("crusher") limit projects onto
the Jz eigenblocks, and for any strength it acts as the identity on the
zero-quantum code space. An ambient-relaxation channel, exact for any
holding time, models natural noise with a tunable collective fraction.

A channel holds its Kraus operators as one (k, d, d) array; completeness,
`apply` and `superoperator` are each one array expression.

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


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of `vec` for a square matrix, whose dimension is read off the size."""
    v = np.asarray(v)
    dim = int(round(math.sqrt(v.size)))
    return v.reshape(dim, dim, order="F")


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by a (k, d, d)
    complex array of Kraus operators.

    Operators whose entries are all exactly 0 are dropped, and completeness
    sum_a E_a^dag E_a = 1 of the rest is verified at construction to 1e-10;
    a violation raises NumericalContractError.
    """

    kraus_ops: np.ndarray

    def __post_init__(self):
        try:
            kraus = np.asarray(self.kraus_ops, dtype=complex)
        except ValueError as exc:  # ragged: operators of different shapes
            raise ValueError("all Kraus operators must be square with equal dimension") from exc
        if not kraus.size:
            raise ValueError("channel needs at least one Kraus operator")
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
            raise ValueError("all Kraus operators must be square with equal dimension")
        kraus = kraus[~(kraus == 0.0).all(axis=(1, 2))]  # a NaN operator is kept, and fails below
        object.__setattr__(self, "kraus_ops", kraus)
        err = np.abs(np.einsum("aji,ajk->ik", kraus.conj(), kraus) - np.eye(self.dim)).max()
        if not err <= COMPLETENESS_TOL:
            raise NumericalContractError(f"Kraus completeness violated by {err:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[1]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """rho -> sum_a E_a rho E_a^dag."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"state dimension {rho.shape} does not match channel dim {self.dim}")
        k = self.kraus_ops
        return (k @ rho @ k.conj().transpose(0, 2, 1)).sum(axis=0)

    def superoperator(self) -> np.ndarray:
        """Matrix S with vec(E(rho)) = S vec(rho), column-stacking convention:
        the sum of kron(conj(E_a), E_a)."""
        d = self.dim
        return np.einsum("aij,akl->ikjl", self.kraus_ops.conj(), self.kraus_ops).reshape(d * d, d * d)


def ensemble_channel(unitaries) -> KrausChannel:
    """Channel averaging conjugation by a family of n unitaries with equal
    weights: Kraus operators U_i / sqrt(n). No unitaries is no Kraus
    operator, which `KrausChannel` rejects."""
    unitaries = np.asarray(unitaries, dtype=complex)
    return KrausChannel(math.sqrt(1.0 / max(len(unitaries), 1)) * unitaries)


def collective_dephasing(gamma: float) -> KrausChannel:
    """Collective phase noise of dimensionless strength gamma >= 0.

    Single-quantum coherences decay by e^-gamma and double-quantum ones by
    e^-4gamma; the zero-quantum block is untouched for every gamma. Pass
    math.inf for the crusher limit, where the Kraus set becomes the three Jz
    eigenprojectors exactly.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    return KrausChannel(_collective_kraus(gamma))


def _collective_kraus(gamma: float) -> np.ndarray:
    """The (3, 4, 4) Kraus stack of collective_dephasing(gamma)."""
    p_plus, p_zero, p_minus = zq_proj = ops.zq_projectors()
    if math.isinf(gamma):
        return np.array(zq_proj)
    x = math.exp(-2.0 * gamma)
    e0 = p_plus + math.exp(-gamma) * p_zero + math.exp(-4.0 * gamma) * p_minus
    e1 = math.sqrt(1.0 - x) * p_zero + math.exp(-gamma) * (1.0 + x) * math.sqrt(1.0 - x) * p_minus
    e2 = (1.0 - x) * math.sqrt(1.0 + x) * p_minus
    return np.array([e0, e1, e2])


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

    # per spin, amplitude damping after phase damping: 4 operators indexed (ad, pd)
    ad = np.array([[[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], [[0.0, math.sqrt(p)], [0.0, 0.0]]], dtype=complex)
    pd = np.array([math.sqrt(1.0 - q) * np.eye(2), math.sqrt(q) * np.diag([1.0, -1.0])], dtype=complex)
    spin = (ad[:, None] @ pd[None]).reshape(4, 2, 2)
    # the two spins side by side, kron(spin 1, spin 2), indexed (spin 2, spin 1)
    pair = np.einsum("aij,bkl->baikjl", spin, spin).reshape(16, 4, 4)
    kraus = (pair[:, None] @ _collective_kraus(gamma_coll)[None]).reshape(48, 4, 4)
    return KrausChannel(kraus)
