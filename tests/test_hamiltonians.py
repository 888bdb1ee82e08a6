import math

import numpy as np
import pytest

from dfsim import operators as ops
from dfsim.hamiltonians import (
    SpinSystem,
    gradient_hamiltonian,
    internal_hamiltonian,
    logical_decompose,
    rf_hamiltonian,
)


class TestSpinSystem:
    def test_defaults_are_the_measured_molecule(self, spin_system):
        assert spin_system.nu2 == 137.5
        assert spin_system.j_coupling == 5.7
        assert spin_system.t1 == 7.0 and spin_system.t2 == 3.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinSystem(t1=-1.0)
        with pytest.raises(ValueError):
            SpinSystem(t1=1.0, t2=2.5)  # t2 > 2 t1

    @pytest.mark.parametrize("t1, t2", [(1e-309, 1e-309), (7.0, 1e-309), (0.0, 3.5), (math.nan, 3.5)])
    def test_relaxation_rates_must_be_finite(self, t1, t2):
        with pytest.raises(ValueError, match="relaxation time t[12] must be positive with a finite rate, got"):
            SpinSystem(t1=t1, t2=t2)

    def test_infinite_relaxation_time_switches_the_process_off(self):
        assert SpinSystem(t1=math.inf, t2=math.inf).t2 == math.inf


class TestInternalHamiltonian:
    def test_commutes_with_jz(self, rng):
        for _ in range(100):
            nu1, nu2, j = rng.normal(scale=200, size=3)
            h = internal_hamiltonian(SpinSystem(nu1=nu1, nu2=nu2, j_coupling=j))
            assert np.abs(h @ ops.J_Z - ops.J_Z @ h).max() <= 1e-9

    def test_matrix_formula(self, spin_system):
        h = internal_hamiltonian(spin_system)
        explicit = np.pi * (spin_system.nu2 * ops.SIGMA_Z2 + 5.7 * ops.DOT_12 / 2)
        assert np.abs(h - explicit).max() == 0

    def test_equal_shifts_no_coupling_is_pure_jz(self):
        h = internal_hamiltonian(SpinSystem(nu1=50.0, nu2=50.0, j_coupling=0.0))
        assert np.abs(h - 50.0 * np.pi * ops.J_Z).max() <= 1e-12
        assert np.abs(ops.code_block(h)).max() == 0


class TestRfHamiltonian:
    def test_x_phase(self):
        h = rf_hamiltonian(omega=100.0, phi=0.0)
        expected = 50.0 * (ops.pauli_embed(1, "x") + ops.pauli_embed(2, "x"))
        assert np.abs(h - expected).max() <= 1e-12

    def test_y_phase(self):
        h = rf_hamiltonian(omega=100.0, phi=np.pi / 2)
        expected = 50.0 * (ops.pauli_embed(1, "y") + ops.pauli_embed(2, "y"))
        assert np.abs(h - expected).max() <= 1e-12

    def test_zero_power(self):
        assert np.abs(rf_hamiltonian(omega=0.0, phi=1.3)).max() <= 1e-12

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            rf_hamiltonian(omega=-1.0, phi=0.0)


class TestGradientHamiltonian:
    def test_zero_on_code_space(self, spin_system):
        h = gradient_hamiltonian(0.6, 0.004, spin_system)
        assert np.allclose(h @ ops.basis_ket("01"), 0)
        assert np.allclose(h @ ops.basis_ket("10"), 0)

    def test_zero_position(self, spin_system):
        assert np.abs(gradient_hamiltonian(0.6, 0.0, spin_system)).max() == 0

    def test_linearity(self, spin_system):
        h = gradient_hamiltonian(0.3, 0.002, spin_system)
        assert np.abs(gradient_hamiltonian(0.6, 0.002, spin_system) - 2 * h).max() <= 1e-9
        assert np.abs(gradient_hamiltonian(0.3, 0.004, spin_system) - 2 * h).max() <= 1e-9

    def test_single_quantum_phase_factor(self, spin_system):
        # evolution for delta multiplies |00><01| by exp(-i gamma z grad delta)
        grad, z, delta = 0.1, 0.003, 500e-6
        u = ops.expm_hermitian(gradient_hamiltonian(grad, z, spin_system), delta)
        unit = np.zeros((4, 4), dtype=complex)
        unit[0, 1] = 1.0
        out = u @ unit @ u.conj().T
        expected = np.exp(-1j * spin_system.gamma * z * grad * delta)
        assert abs(out[0, 1] - expected) <= 1e-12

    def test_diagonal(self, spin_system):
        h = gradient_hamiltonian(0.2, 0.001, spin_system)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0


class TestLogicalDecompose:
    def test_experimental_frame_coefficients(self, spin_system):
        frame = ops.LogicalFrame("hybrid")
        cz, cx, cy, _ = logical_decompose(internal_hamiltonian(spin_system), frame)
        assert cz == pytest.approx(-137.5 * np.pi, rel=1e-12)
        assert cx == pytest.approx(5.7 * np.pi, rel=1e-12)
        assert cy == pytest.approx(0.0, abs=1e-12)

    def test_independent_frame_general_shifts(self, rng):
        frame = ops.LogicalFrame("independent")
        for _ in range(20):
            nu1, nu2, j = rng.uniform(-300, 300, size=3)
            h = internal_hamiltonian(SpinSystem(nu1=nu1, nu2=nu2, j_coupling=j))
            cz, cx, cy, _ = logical_decompose(h, frame)
            assert cz == pytest.approx(np.pi * (nu1 - nu2), abs=1e-9)
            assert cx == pytest.approx(np.pi * j, abs=1e-9)
            assert cy == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("frame", ops.LogicalFrame.CHOICES)
    @pytest.mark.parametrize("coupling", ["measured", "equal_to_nu2"])
    def test_logical_z_rate_at_every_scale(self, frame, coupling):
        # the reconstruction bound is relative to the block's largest entry,
        # so accepted systems decompose at any shift up to the overflow bound;
        # c_z is the difference of the diagonal entries, so its round-off is
        # relative to the block's scale, which J sets at the smallest shifts
        for nu2 in np.logspace(-3, 307, 200):
            sys = SpinSystem(nu2=nu2, j_coupling=5.7 if coupling == "measured" else nu2)
            h = internal_hamiltonian(sys)
            cz, _, _, _ = logical_decompose(h, ops.LogicalFrame(frame))
            assert abs(cz + np.pi * (nu2 - sys.nu1)) <= 1e-15 * np.abs(ops.code_block(h)).max()

    def test_identity(self):
        frame = ops.LogicalFrame("hybrid")
        assert logical_decompose(np.eye(4, dtype=complex), frame) == pytest.approx((0, 0, 0, 1))

    def test_rejects_leaky_operator_naming_entries(self):
        frame = ops.LogicalFrame("hybrid")
        h = ops.pauli_embed(1, "x")
        with pytest.raises(ValueError, match=r"\[0,2\]|\[2,0\]"):
            logical_decompose(h, frame)

    def test_reconstruction_roundtrip(self, rng):
        # random DFS-preserving hermitian operators reconstruct exactly
        frame = ops.LogicalFrame("hybrid")
        for _ in range(100):
            a = np.zeros((4, 4), dtype=complex)
            a[np.arange(4), np.arange(4)] = rng.normal(size=4)
            b = rng.normal() + 1j * rng.normal()
            a[1, 2], a[2, 1] = b, np.conj(b)
            c = rng.normal() + 1j * rng.normal()
            a[0, 3], a[3, 0] = c, np.conj(c)
            cz, cx, cy, cid = logical_decompose(a, frame)
            recon = (cid * np.eye(2) + cx * ops.PAULI["x"]
                     + cy * ops.PAULI["y"] + cz * ops.PAULI["z"])
            assert np.abs(recon - ops.code_block(a)).max() <= 1e-10
