"""Internal, RF and gradient Hamiltonians of the two-proton register.

All Hamiltonians are returned in angular-frequency units (rad/s); the
constructors take chemical shifts and couplings in Hz and multiply by pi,
so that exp(-i H t) with t in seconds is the literal propagator.

The sequencer frame is the transmitter rotating frame with spin 1 on
resonance: nu1 defaults to 0 and the chemical-shift evolution of spin 2 is
kept in the internal Hamiltonian.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .units import GAMMA_PROTON, is_real


@dataclass(frozen=True)
class SpinSystem:
    """Static parameters of the two-spin molecule.

    nu1, nu2: chemical shifts in Hz; j_coupling in Hz; t1, t2 relaxation
    times in seconds; gamma: gyromagnetic ratio in rad s^-1 T^-1.
    """

    nu1: float = 0.0
    nu2: float = 137.5
    j_coupling: float = 5.7
    t1: float = 7.0
    t2: float = 3.5
    gamma: float = GAMMA_PROTON

    def __post_init__(self):
        for name in ("nu1", "nu2", "j_coupling", "gamma", "t1", "t2"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name in ("nu1", "nu2", "j_coupling", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        # 2 pi (|nu1| + |nu2| + |J|) bounds every transition frequency of the
        # internal Hamiltonian, and so the traces `logical_decompose` sums
        if not math.isfinite(2 * math.pi * sum(abs(float(getattr(self, n))) for n in ("nu1", "nu2", "j_coupling"))):
            name = max(("nu1", "nu2", "j_coupling"), key=lambda n: abs(getattr(self, n)))
            raise ValueError(f"{name} = {getattr(self, name)!r} Hz overflows the Hamiltonian: "
                             f"2 pi (|nu1| + |nu2| + |j_coupling|) must be finite in rad/s")
        for name, t in (("t1", self.t1), ("t2", self.t2)):  # inf switches the process off
            if not (t > 0 and 1.0 / t < math.inf):  # 1/t overflows for subnormal t
                raise ValueError(f"relaxation time {name} must be positive with a finite rate, got {t!r}")
        if self.t2 > 2 * self.t1 + 1e-12:
            raise ValueError(f"t2={self.t2} exceeds 2*t1={2 * self.t1}")


def internal_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """pi (nu1 sz1 + nu2 sz2 + J sigma.sigma / 2), rad/s.

    Commutes with Jz for every parameter choice, so it generates pure
    zero-quantum dynamics on the code space.
    """
    return np.pi * (
        sys.nu1 * ops.SIGMA_Z1 + sys.nu2 * ops.SIGMA_Z2 + sys.j_coupling * ops.DOT_12 / 2
    )


def rf_hamiltonian(omega: float, phi: float) -> np.ndarray:
    """RF drive of nutation power omega (rad/s, >= 0) and phase phi (rad) in
    the transmitter frame, where it is time independent:
    (omega/2) sum_k (cos(phi) sx^k + sin(phi) sy^k).
    """
    if omega < 0:
        raise ValueError("nutation power omega must be >= 0")
    return (omega / 2) * (np.cos(phi) * ops.J_X + np.sin(phi) * ops.J_Y)


def gradient_hamiltonian(grad: float, z: float, sys: SpinSystem) -> np.ndarray:
    """gamma z grad Jz / 2 in rad/s for a field gradient grad (T/m) at
    position z (m). Diagonal, and identically zero on the code space."""
    return sys.gamma * z * grad * ops.J_Z / 2


def logical_decompose(h: np.ndarray, frame: ops.LogicalFrame) -> tuple[float, float, float, float]:
    """Coefficients (c_z, c_x, c_y, c_id) of the code-block restriction of a
    DFS-preserving hermitian operator, in the frame's logical Pauli basis.

    Raises ValueError naming the offending entries when h couples the code
    space to its complement.
    """
    bad = ops.dfs_violations(h)
    if bad:
        listing = ", ".join(f"[{r},{c}]={v:.3e}" for r, c, v in bad)
        raise ValueError(f"operator is not DFS preserving; offending entries: {listing}")
    blk = ops.code_block(h)
    cz = float(np.trace(ops.code_block(frame.sz) @ blk).real) / 2
    cx = float(np.trace(ops.code_block(frame.sx) @ blk).real) / 2
    cy = float(np.trace(ops.code_block(frame.sy) @ blk).real) / 2
    cid = float(np.trace(blk).real) / 2
    recon = (
        cid * np.eye(2)
        + cx * ops.code_block(frame.sx)
        + cy * ops.code_block(frame.sy)
        + cz * ops.code_block(frame.sz)
    )
    err, bound = np.abs(recon - blk).max(), 1e-10 * max(1.0, np.abs(blk).max())
    if err > bound:
        raise ValueError(f"code-block reconstruction error {err:.3e} exceeds {bound:.3e}")
    return cz, cx, cy, cid
