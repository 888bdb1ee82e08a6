"""Internal and RF Hamiltonians of the two-proton register.

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
        # internal Hamiltonian; without this check nu1 = nu2 = 1e308 would make
        # its entries inf
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

