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

#: indices of the code (zero-quantum) basis states |01>, |10>
CODE_INDICES = (1, 2)
#: indices of the states outside the code space, |00> and |11>
OUTER_INDICES = (0, 3)

#: total spin projection of each basis state, units hbar
SPIN_PROJECTION = (1, 0, 0, -1)


def pauli_embed(spin: int, axis: str) -> np.ndarray:
    """Pauli operator on one spin of the pair, identity on the other.

    spin is 1 or 2, axis one of 'x', 'y', 'z', 'i'/'identity'.
    """
    if spin not in (1, 2):
        raise ValueError(f"spin must be 1 or 2, got {spin!r}")
    key = "i" if axis in ("i", "identity") else axis
    if key not in PAULI:
        raise ValueError(f"unknown axis {axis!r}")
    if spin == 1:
        return np.kron(PAULI[key], PAULI["i"])
    return np.kron(PAULI["i"], PAULI[key])


SIGMA_Z1 = pauli_embed(1, "z")
SIGMA_Z2 = pauli_embed(2, "z")
J_Z = SIGMA_Z1 + SIGMA_Z2
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


def coherence_order(k, l) -> int:
    """Coherence order |k - l| of the matrix element |k><l|, with the total
    spin projection of each basis state measured in units hbar."""
    ik = int(k, 2) if isinstance(k, str) else int(k)
    il = int(l, 2) if isinstance(l, str) else int(l)
    return abs(SPIN_PROJECTION[ik] - SPIN_PROJECTION[il])


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.abs(a - a.conj().T).max() <= tol)


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return bool(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max() <= tol)


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise NumericalContractError unless rho is hermitian, unit trace and PSD
    within tol."""
    if not is_hermitian(rho, 1e-10):
        raise NumericalContractError("density matrix is not hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise NumericalContractError(f"density matrix trace {np.trace(rho)!r} != 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -tol:
        raise NumericalContractError(f"density matrix has eigenvalue {w.min():.3e} < -{tol:g}")


def dfs_violations(a: np.ndarray, tol: float = 1e-10) -> list[tuple[int, int, float]]:
    """Entries of a hermitian operator that couple the code space to |00>/|11>.

    Returns (row, col, |entry|) for every offending entry above tol. An empty
    list means evolution generated by the operator cannot leak amplitude out
    of the code space.
    """
    if not is_hermitian(a):
        raise ValueError("operator must be hermitian")
    out = []
    for i in CODE_INDICES:
        for j in OUTER_INDICES:
            for r, c in ((i, j), (j, i)):
                v = abs(a[r, c])
                if v > tol:
                    out.append((r, c, float(v)))
    return out


def is_dfs_preserving(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the hermitian operator a has no matrix element between the
    code space and its complement (each |entry| <= tol)."""
    return not dfs_violations(a, tol)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(-i h t) of a hermitian generator, by eigendecomposition.

    Raises ValueError for a non-hermitian input, NumericalContractError if the
    result fails the unitarity check.
    """
    if not is_hermitian(h):
        raise ValueError("generator must be hermitian to 1e-12")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
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


def code_block(a: np.ndarray) -> np.ndarray:
    """2x2 restriction of a two-spin operator to the logical basis (|01>, |10>)."""
    return a[np.ix_(CODE_INDICES, CODE_INDICES)]


def partial_trace_ancilla(rho: np.ndarray) -> np.ndarray:
    """Reduced state of the data spin (spin 1), tracing out spin 2."""
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r)


class LogicalFrame:
    """A choice of two-spin observables acting as encoded Pauli operators.

    The three supported choices differ only outside the code space:

    * ``independent``: sz = (sigma_z^1 - sigma_z^2)/2, sx = flip-flop/2; both
      vanish identically outside the code space, so parallel encoded registers
      would not disturb each other.
    * ``product``: sz = -sigma_z^2, sx = sigma_x^1 sigma_x^2; simplest to
      realize but acts on |00>, |11> as well.
    * ``hybrid``: sz = -sigma_z^2, sx = flip-flop/2; the choice the encoded
      gate builders use.

    sy is fixed by sy = i [sx, sz] / 2, which reduces to the usual Pauli
    algebra on the code block.
    """

    CHOICES = ("independent", "product", "hybrid")

    def __init__(self, choice: str):
        if choice not in self.CHOICES:
            raise ValueError(f"choice must be one of {self.CHOICES}, got {choice!r}")
        self.choice = choice
        half_flipflop = FLIPFLOP_12 / 2
        if choice == "independent":
            self.sz = (SIGMA_Z1 - SIGMA_Z2) / 2
            self.sx = half_flipflop
        elif choice == "product":
            self.sz = -SIGMA_Z2
            self.sx = pauli_embed(1, "x") @ pauli_embed(2, "x")
        else:
            self.sz = -SIGMA_Z2
            self.sx = half_flipflop
        self.sy = 1j * (self.sx @ self.sz - self.sz @ self.sx) / 2
        self.ket0 = basis_ket("01")
        self.ket1 = basis_ket("10")
        for name, op in (("sx", self.sx), ("sy", self.sy), ("sz", self.sz)):
            blk = code_block(op)
            if np.abs(blk - PAULI[name[1]]).max() > HERMITIAN_TOL:
                raise NumericalContractError(f"{name} restriction is not the Pauli matrix")

    def __repr__(self):
        return f"LogicalFrame({self.choice!r})"


def logical_frame(choice: str = "hybrid") -> LogicalFrame:
    """Construct one of the three supported logical frames."""
    return LogicalFrame(choice)
