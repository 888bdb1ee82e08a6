"""Reliability measures.

Entanglement fidelity follows the operator-sum form

    F_e = sum_mu | Tr(U_target^dag A_mu) / N |^2

which compares a channel against a target unitary through a maximally
entangled reference state; it is insensitive to global phase by
construction. For unital trace-preserving one-qubit channels the same number
can be assembled from three pure-state fidelities,

    F_e = ( F_{U|0>} + F_{U|+>} + F_{U|+i>} - 1 ) / 2,

and the average gate fidelity is fbar = 2/3 F_e + 1/3. When the dynamics is
not unital (T1 relaxation), the retained transverse magnetization

    C = ( Tr sigma_x E(|+><+|) + Tr sigma_y E(|i><i|) ) / 2

is used instead. Both kinds of number are read off the data spin through
one encode/act/decode kernel, `data_blocks`, which gathers the entries of
U_dec A U_enc (U_enc is a CNOT, a basis permutation) for unitaries or
Kraus operators A. The batched gate fidelity of unitaries always reads
them between encode and decode; a channel is read either way.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import operators as ops
from .channels import KrausChannel

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)

ENTANGLEMENT_THRESHOLD = 0.5
#: largest |E(I) - I| entry `is_unital` accepts
UNITAL_TOL = 1e-9


def entanglement_fidelity(ch: KrausChannel, u_target: np.ndarray) -> float:
    """Gate entanglement fidelity of a channel against a target unitary."""
    u_target = np.asarray(u_target, dtype=complex)
    if u_target.shape != (ch.dim, ch.dim):
        raise ValueError("target dimension does not match channel")
    if not ops.is_unitary(u_target):
        raise ValueError("target must be unitary")
    return float(_trace_overlap(ch.kraus_ops, u_target))


def _trace_overlap(kraus: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum_a |Tr(target^dag K_a) / d|^2 over the Kraus axis, the one before
    the last two, of a (..., k, d, d) stack."""
    tdag = np.asarray(target, dtype=complex).conj().T
    tr = np.einsum("ij,...bji->...b", tdag, kraus) / len(tdag)
    return (np.abs(tr) ** 2).sum(axis=-1)


def is_unital(ch: KrausChannel) -> bool:
    eye = np.eye(ch.dim, dtype=complex)
    return bool(np.abs(ch.apply(eye) - eye).max() <= UNITAL_TOL)


def state_fidelities(ch: KrausChannel, u_target: np.ndarray) -> tuple[float, float, float]:
    """F_{U|psi>} = Tr( U|psi><psi|U^dag E(|psi><psi|) ) for |0>, |+>, |+i>."""
    out = []
    for ket in (KET0, KET_PLUS, KET_PLUS_I):
        rho = np.outer(ket, ket.conj())
        ideal = u_target @ rho @ u_target.conj().T
        out.append(float(np.trace(ideal @ ch.apply(rho)).real))
    return tuple(out)


def gate_fidelity_from_states(ch: KrausChannel, u_target: np.ndarray) -> "FidelityReport":
    """Entanglement fidelity assembled from the three-state formula.

    Only valid for unital trace-preserving one-qubit channels; anything else
    raises ValueError pointing at entanglement_fidelity / coherence_metric.
    """
    if ch.dim != 2:
        raise ValueError("three-state formula applies to one-qubit channels")
    if not is_unital(ch):
        raise ValueError(
            "channel is not unital; the three-state formula does not apply -- "
            "use entanglement_fidelity on a Kraus set, or coherence_metric if "
            "only phase information matters"
        )
    f0, fplus, fplusi = state_fidelities(ch, np.asarray(u_target, dtype=complex))
    fe = 0.5 * (f0 + fplus + fplusi - 1.0)
    return FidelityReport(f0=f0, fplus=fplus, fplusi=fplusi, fe=fe)


def coherence_metric(ch: KrausChannel) -> float:
    """Average retained transverse magnetization of a one-qubit channel."""
    if ch.dim != 2:
        raise ValueError("coherence metric is defined for one-qubit channels")
    sx, sy = ops.PAULI["x"], ops.PAULI["y"]
    rho_x = np.outer(KET_PLUS, KET_PLUS.conj())
    rho_y = np.outer(KET_PLUS_I, KET_PLUS_I.conj())
    return float(0.5 * (np.trace(sx @ ch.apply(rho_x)).real + np.trace(sy @ ch.apply(rho_y)).real))


# row r of U_dec U U_enc is U's row _DEC[r], column c is U's column _ENC[c]
_ENC = np.argmax(np.abs(ops.encoding_unitary()), axis=0)
_DEC = np.argmax(np.abs(ops.decoding_unitary()), axis=1)


def data_blocks(us: np.ndarray, encoded: bool) -> np.ndarray:
    """Data-spin blocks K_b = <b| U_dec U U_enc |0> of two-spin operators.

    The ancilla is prepared in |0> and read out in |b>; with encoded=False
    the encode/decode unitaries are left out. Shape (..., 2, 2, 2), block b
    at index [..., b, :, :].
    """
    rows, cols = np.array([[0, 2], [1, 3]]), np.array([0, 2])  # ancilla |b> out, |0> in
    if encoded:
        rows, cols = _DEC[rows], _ENC[cols]
    return np.asarray(us, dtype=complex)[..., rows, :][..., cols]


def member_gate_fidelities(us: np.ndarray, target2: np.ndarray) -> np.ndarray:
    """Gate entanglement fidelity of each two-spin unitary in `us` (shape
    (..., 4, 4)), between encode and decode, against a one-qubit target on
    the decoded data spin.

    The ensemble channel's Kraus set is {U_i / sqrt(n)}, so its F_e is
    exactly the mean of these per-member values. The members of a noisy
    gate are midpoint quadrature nodes of one waveform realization, not
    independent samples, so their spread is no error bar for that mean.
    """
    return _trace_overlap(data_blocks(us, encoded=True), target2)


def induced_data_channel(ch: KrausChannel, encoded: bool) -> KrausChannel:
    """One-qubit channel seen by the data spin.

    The two-spin channel acts between preparation (data state, ancilla |0>)
    and readout; with encoded=True the encode/decode unitaries wrap it. The
    ancilla is traced out exactly, giving Kraus operators
    K_{mu b} = <b| U_dec E_mu U_enc |0> on the data spin.
    """
    if ch.dim != 4:
        raise ValueError("induced channel needs a two-spin channel")
    return KrausChannel(data_blocks(ch.kraus_ops, encoded).reshape(-1, 2, 2))


@dataclass
class FidelityReport:
    """Per-experiment metric bundle, serializable with fixed field names.
    fbar is not set but derived: 2/3 fe + 1/3 when fe is given."""

    label: str = ""
    f0: float | None = None
    fplus: float | None = None
    fplusi: float | None = None
    fe: float | None = None
    fbar: float | None = field(init=False, default=None)
    coherence: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.fe is not None:
            self.fbar = 2.0 / 3.0 * self.fe + 1.0 / 3.0
        eps = 1e-8
        for name in ("f0", "fplus", "fplusi", "fe", "fbar"):
            v = getattr(self, name)
            if v is not None and not -eps <= v <= 1.0 + eps:
                raise ValueError(f"{name}={v} outside [0, 1]")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "metadata"}
        if self.fe is not None:
            d["fe_above_threshold"] = bool(self.fe > ENTANGLEMENT_THRESHOLD)
        d.update(self.metadata)
        return d
