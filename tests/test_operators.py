import numpy as np
import pytest

from dfsim import operators as ops

from conftest import random_hermitian, random_ket


def ket(label):
    return ops.basis_ket(label)


class TestPauliEmbed:
    def test_sigma_z_spin1_on_01(self):
        assert np.allclose(ops.pauli_embed(1, "z") @ ket("01"), ket("01"))

    def test_jz_annihilates_code_states(self):
        jz = ops.pauli_embed(1, "z") + ops.pauli_embed(2, "z")
        assert np.allclose(jz @ ket("01"), 0)
        assert np.allclose(jz @ ket("10"), 0)

    def test_different_spins_commute(self):
        a = ops.pauli_embed(1, "x")
        b = ops.pauli_embed(2, "y")
        assert np.abs(a @ b - b @ a).max() == 0

    def test_hermitian_and_unitary(self):
        for spin in (1, 2):
            for axis in "xyz":
                p = ops.pauli_embed(spin, axis)
                assert ops.is_hermitian(p) and ops.is_unitary(p)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ops.pauli_embed(3, "x")
        with pytest.raises(ValueError):
            ops.pauli_embed(1, "q")


class TestProjectors:
    def test_resolution_of_identity(self):
        p_plus, p_zero, p_minus = ops.zq_projectors()
        assert np.abs(p_plus + p_zero + p_minus - np.eye(4)).max() == 0

    def test_orthogonality(self):
        projs = ops.zq_projectors()
        for i, a in enumerate(projs):
            for j, b in enumerate(projs):
                expected = a if i == j else np.zeros((4, 4))
                assert np.abs(a @ b - expected).max() == 0

    def test_projector_formulas_from_jz(self):
        # Pi_{+2} = (1 + Jz + sz1 sz2)/4, Pi_0 = (1 - sz1 sz2)/2,
        # Pi_{-2} = (1 - Jz + sz1 sz2)/4
        p_plus, p_zero, p_minus = ops.zq_projectors()
        zz = ops.SIGMA_Z1 @ ops.SIGMA_Z2
        assert np.abs(p_plus - (np.eye(4) + ops.J_Z + zz) / 4).max() <= 1e-15
        assert np.abs(p_zero - (np.eye(4) - zz) / 2).max() <= 1e-15
        assert np.abs(p_minus - (np.eye(4) - ops.J_Z + zz) / 4).max() <= 1e-15

    def test_action_on_kets(self):
        _, p_zero, _ = ops.zq_projectors()
        assert np.allclose(p_zero @ ket("01"), ket("01"))
        assert np.allclose(p_zero @ ket("00"), 0)


class TestExpmHermitian:
    def test_zero_time(self, rng):
        h = random_hermitian(rng)
        assert np.abs(ops.expm_hermitian(h, 0.0) - np.eye(4)).max() <= 1e-14

    def test_hard_pi_pulse_is_minus_xx(self):
        h = ops.pauli_embed(1, "x") + ops.pauli_embed(2, "x")
        u = ops.expm_hermitian(h, np.pi / 2)
        xx = ops.pauli_embed(1, "x") @ ops.pauli_embed(2, "x")
        assert np.abs(u + xx).max() <= 1e-12

    def test_inverse(self, rng):
        h = random_hermitian(rng, scale=10.0)
        u = ops.expm_hermitian(h, 0.37)
        v = ops.expm_hermitian(h, -0.37)
        assert np.abs(u @ v - np.eye(4)).max() <= 1e-10

    def test_composition_property(self, rng):
        for _ in range(100):
            h = random_hermitian(rng, scale=5.0)
            t1, t2 = rng.uniform(0, 1, size=2)
            lhs = ops.expm_hermitian(h, t1) @ ops.expm_hermitian(h, t2)
            assert np.abs(lhs - ops.expm_hermitian(h, t1 + t2)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ops.expm_hermitian(np.triu(np.ones((4, 4))), 1.0)

    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3)])
    def test_durations_array_equals_stacked_scalar_calls(self, rng, shape):
        h = random_hermitian(rng, scale=5.0)
        ts = rng.uniform(-2.0, 2.0, shape)
        us = ops.expm_hermitian(h, ts)
        assert us.shape == shape + (4, 4)
        stacked = np.array([ops.expm_hermitian(h, float(t)) for t in ts.ravel()]).reshape(us.shape)
        assert us.tobytes() == stacked.tobytes()

    def test_number_gives_one_matrix(self, rng):
        h = random_hermitian(rng)
        assert ops.expm_hermitian(h, 0.5).shape == (4, 4)
        assert ops.expm_hermitian(h, np.float64(0.5)).shape == (4, 4)


class TestIsUnitary:
    def test_stack_flags_a_single_bad_member(self, rng):
        us = ops.expm_hermitian(random_hermitian(rng), np.linspace(0.0, 1.0, 6)).reshape(2, 3, 4, 4)
        assert ops.is_unitary(us)
        us[1, 2] *= 1.0 + 1e-9
        assert not ops.is_unitary(us)
        assert ops.is_unitary(us[0]) and not ops.is_unitary(us[1, 2])


class TestEncoding:
    def test_basis_action(self):
        u = ops.encoding_unitary()
        assert np.allclose(u @ ket("00"), ket("01"))
        assert np.allclose(u @ ket("10"), ket("10"))

    def test_roundtrip(self):
        u = ops.encoding_unitary()
        assert np.abs(ops.decoding_unitary() @ u - np.eye(4)).max() <= 1e-14

    def test_encodes_arbitrary_data_state(self, rng):
        c = random_ket(rng)
        data = np.kron(c, [1.0, 0.0])
        encoded = ops.encoding_unitary() @ data
        assert np.allclose(encoded, c[0] * ket("01") + c[1] * ket("10"))

