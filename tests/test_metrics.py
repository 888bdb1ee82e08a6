import json
import math

import numpy as np
import pytest

from dfsim import operators as ops
from dfsim.channels import KrausChannel, collective_dephasing
from dfsim.metrics import (
    FidelityReport,
    coherence_metric,
    data_blocks,
    entanglement_fidelity,
    gate_fidelity_from_states,
    induced_data_channel,
    is_unital,
    member_gate_fidelities,
    state_fidelities,
)

from conftest import random_density_matrix, random_unitary

PHASE_DAMPING = KrausChannel(
    (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))

DEPOLARIZING = KrausChannel(
    tuple(ops.PAULI[a] / 2 for a in ("i", "x", "y", "z")))


def random_unital_channel(rng, n_unitaries=4):
    """Random mixture of unitaries: unital and trace preserving."""
    w = rng.dirichlet(np.ones(n_unitaries))
    return KrausChannel(tuple(math.sqrt(wi) * random_unitary(rng) for wi in w))


class TestEntanglementFidelity:
    def test_perfect_gate(self, rng):
        u = random_unitary(rng, 4)
        assert entanglement_fidelity(KrausChannel((u,)), u) == pytest.approx(1.0, abs=1e-12)

    def test_phase_damping_against_identity(self):
        fe = entanglement_fidelity(PHASE_DAMPING, np.eye(2))
        assert fe == pytest.approx(0.5, abs=1e-12)

    def test_fully_depolarizing(self):
        # brute-force oracle: only the identity Kraus term has a trace,
        # |tr(1/2 . 1)/2|^2 = 1/4
        assert entanglement_fidelity(DEPOLARIZING, np.eye(2)) == pytest.approx(0.25, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            entanglement_fidelity(PHASE_DAMPING, np.eye(4))

    def test_non_unitary_target(self):
        with pytest.raises(ValueError):
            entanglement_fidelity(PHASE_DAMPING, np.diag([1.0, 0.5]))

    def test_bounded_and_strict_below_one_off_target(self, rng):
        for _ in range(50):
            ch = random_unital_channel(rng)
            fe = entanglement_fidelity(ch, np.eye(2))
            assert -1e-12 <= fe <= 1.0 + 1e-12
            distance = np.abs(ch.superoperator() - np.eye(4)).max()
            if distance > 1e-3:
                assert fe < 1.0 - 1e-6


class TestThreeStateFormula:
    def test_identity_channel(self):
        report = gate_fidelity_from_states(KrausChannel((np.eye(2),)), np.eye(2))
        assert (report.f0, report.fplus, report.fplusi) == pytest.approx((1, 1, 1))
        assert report.fe == pytest.approx(1.0)

    def test_phase_damping_row(self):
        report = gate_fidelity_from_states(PHASE_DAMPING, np.eye(2))
        assert report.f0 == pytest.approx(1.0, abs=1e-12)
        assert report.fplus == pytest.approx(0.5, abs=1e-12)
        assert report.fplusi == pytest.approx(0.5, abs=1e-12)
        assert report.fe == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_kraus_form_on_unital_channels(self, rng):
        for _ in range(100):
            ch = random_unital_channel(rng)
            u = random_unitary(rng)
            fe_states = gate_fidelity_from_states(ch, u).fe
            fe_kraus = entanglement_fidelity(ch, u)
            assert abs(fe_states - fe_kraus) <= 1e-9

    def test_rejects_non_unital_channel(self):
        damping = KrausChannel(
            (np.array([[1, 0], [0, math.sqrt(0.5)]], dtype=complex),
             np.array([[0, math.sqrt(0.5)], [0, 0]], dtype=complex)))
        assert not is_unital(damping)
        with pytest.raises(ValueError, match="coherence_metric"):
            gate_fidelity_from_states(damping, np.eye(2))


class TestCoherenceMetric:
    def test_identity(self):
        assert coherence_metric(KrausChannel((np.eye(2),))) == pytest.approx(1.0)

    def test_full_phase_damping(self):
        assert coherence_metric(PHASE_DAMPING) == pytest.approx(0.0, abs=1e-12)

    def test_partial_dephasing(self):
        q = 0.2
        ch = KrausChannel((math.sqrt(1 - q) * np.eye(2, dtype=complex),
                           math.sqrt(q) * ops.PAULI["z"]))
        assert coherence_metric(ch) == pytest.approx(1 - 2 * q, abs=1e-12)


class TestInducedDataChannel:
    def test_unencoded_crusher_is_full_phase_damping(self):
        data = induced_data_channel(collective_dephasing(math.inf), encoded=False)
        report = gate_fidelity_from_states(data, np.eye(2))
        assert report.fe == pytest.approx(0.5, abs=1e-12)
        assert coherence_metric(data) == pytest.approx(0.0, abs=1e-12)

    def test_encoded_crusher_is_identity(self, rng):
        data = induced_data_channel(collective_dephasing(math.inf), encoded=True)
        rho = random_density_matrix(rng, 2)
        assert np.abs(data.apply(rho) - rho).max() <= 1e-12

    def test_requires_two_spin_channel(self):
        with pytest.raises(ValueError):
            induced_data_channel(PHASE_DAMPING, encoded=True)

    def test_member_kernel_is_fe_of_induced_channel(self, rng):
        us = np.stack([random_unitary(rng, 4) for _ in range(3)])
        target = random_unitary(rng, 2)
        want = [entanglement_fidelity(induced_data_channel(KrausChannel((u,)), encoded=True), target)
                for u in us]
        assert np.abs(member_gate_fidelities(us, target) - want).max() <= 1e-12


class TestDataBlocks:
    """The basis gather against the matmul form it replaces."""

    @staticmethod
    def matmul_blocks(us, encoded):
        if encoded:
            us = ops.decoding_unitary() @ us @ ops.encoding_unitary()
        return us[..., [[0, 2], [1, 3]], :][..., [0, 2]]

    @pytest.mark.parametrize("encoded", [True, False])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_gather_equals_matmul_bit_for_bit(self, rng, encoded, shape):
        us = (rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4)))
        got = data_blocks(us, encoded)
        want = self.matmul_blocks(us, encoded)
        assert got.shape == shape + (2, 2, 2)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestFidelityReport:
    def test_average_gate_fidelity_identity(self):
        report = FidelityReport(label="x", fe=0.85)
        assert report.fbar == pytest.approx(2.0 / 3.0 * 0.85 + 1.0 / 3.0)
        assert report.fbar - (2.0 / 3.0 * report.fe + 1.0 / 3.0) == 0.0

    def test_threshold_flag(self):
        above = FidelityReport(label="a", fe=0.51).to_dict()
        below = FidelityReport(label="b", fe=0.49).to_dict()
        assert above["fe_above_threshold"] is True
        assert below["fe_above_threshold"] is False

    def test_range_validation(self):
        with pytest.raises(ValueError):
            FidelityReport(fe=1.5)

    def test_json_fixed_field_names(self):
        blob = json.loads(json.dumps(FidelityReport(label="run", fe=0.9).to_dict()))
        for key in ("label", "f0", "fplus", "fplusi", "fe", "fbar", "coherence"):
            assert key in blob
        assert "seed" not in blob  # a run's seed is the report file's top-level one


def test_state_fidelities_of_unitary(rng):
    u = random_unitary(rng)
    f = state_fidelities(KrausChannel((u,)), u)
    assert f == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
