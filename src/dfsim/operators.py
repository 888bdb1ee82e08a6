"""Operator algebra for the two-spin register.

Conventions, used consistently across the package:

* computational basis order |00>, |01>, |10>, |11>, with |0> the +1
  eigenstate of sigma_z;
* the code (zero-quantum) subspace is span{|01>, |10>} with logical basis
  |0_L> = |01>, |1_L> = |10>;
* Jz = sigma_z^1 + sigma_z^2 has diagonal (2, 0, 0, -2), so the total spin
  projection of the four basis states is (+1, 0, 0, -1) in units of hbar.

Everything is a plain complex numpy array. Constructors validate what they
claim (hermiticity to 1e-12, unitarity to 1e-10) instead of trusting flags.
"""

import numpy as np

from .errors import NumericalContractError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: total spin projection of each basis state, units hbar
SPIN_PROJECTION = (1, 0, 0, -1)


def pauli_embed(spin: int, axis: str) -> np.ndarray:
    """Pauli operator on one spin of the pair, identity on the other.

    spin is 1 or 2, axis one of 'x', 'y', 'z', 'i'.
    """
    if spin not in (1, 2):
        raise ValueError(f"spin must be 1 or 2, got {spin!r}")
    if axis not in PAULI:
        raise ValueError(f"unknown axis {axis!r}")
    if spin == 1:
        return np.kron(PAULI[axis], PAULI["i"])
    return np.kron(PAULI["i"], PAULI[axis])


SIGMA_Z1 = pauli_embed(1, "z")
SIGMA_Z2 = pauli_embed(2, "z")
J_Z = SIGMA_Z1 + SIGMA_Z2
#: collective transverse operators sigma_x^1 + sigma_x^2 and sigma_y^1 + sigma_y^2
J_X = pauli_embed(1, "x") + pauli_embed(2, "x")
J_Y = pauli_embed(1, "y") + pauli_embed(2, "y")
#: Heisenberg coupling sigma^1 . sigma^2
DOT_12 = sum(pauli_embed(1, a) @ pauli_embed(2, a) for a in "xyz")
#: flip-flop part sigma_x^1 sigma_x^2 + sigma_y^1 sigma_y^2
FLIPFLOP_12 = pauli_embed(1, "x") @ pauli_embed(2, "x") + pauli_embed(1, "y") @ pauli_embed(2, "y")


def basis_ket(label) -> np.ndarray:
    """Computational basis ket from an index 0..3 or a string like '01'."""
    idx = int(label, 2) if isinstance(label, str) else int(label)
    if not 0 <= idx <= 3:
        raise ValueError(f"basis label {label!r} out of range")
    ket = np.zeros(4, dtype=complex)
    ket[idx] = 1.0
    return ket


def zq_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projectors onto the three Jz eigenspaces, ordered by projection +2, 0, -2."""
    p_plus = np.diag([1, 0, 0, 0]).astype(complex)
    p_zero = np.diag([0, 1, 1, 0]).astype(complex)
    p_minus = np.diag([0, 0, 0, 1]).astype(complex)
    return p_plus, p_zero, p_minus


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.abs(a - a.conj().T).max() <= HERMITIAN_TOL)


def is_unitary(a: np.ndarray) -> bool:
    """True iff a, or every matrix of a (..., d, d) stack, is unitary to UNITARY_TOL."""
    return bool(np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1])).max() <= UNITARY_TOL)


def expm_hermitian(h: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Propagator exp(-i h t) of a hermitian generator, by eigendecomposition:
    (d, d) for a number t, (..., d, d) for an array of durations.

    Raises ValueError for a non-hermitian input, NumericalContractError if the
    result fails the unitarity check.
    """
    if not is_hermitian(h):
        raise ValueError("generator must be hermitian to 1e-12")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * np.multiply.outer(t, w))[..., None, :]) @ v.conj().T
    if not is_unitary(u):
        raise NumericalContractError("propagator failed unitarity check at 1e-10")
    return u


def encoding_unitary() -> np.ndarray:
    """Unitary mapping (c0|0> + c1|1>) x |0>  ->  c0|01> + c1|10>.

    A controlled sigma_x on spin 2, conditioned on spin 1 being |0>.
    """
    return np.kron(np.diag([1.0, 0.0]), PAULI["x"]) + np.kron(np.diag([0.0, 1.0]), PAULI["i"])


def decoding_unitary() -> np.ndarray:
    return encoding_unitary().conj().T

