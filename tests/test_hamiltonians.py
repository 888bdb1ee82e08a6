import math

import numpy as np
import pytest

from dfsim import operators as ops
from dfsim.ensemble import GradientWaveform, ensemble_propagators
from dfsim.hamiltonians import SpinSystem, internal_hamiltonian, rf_hamiltonian
from dfsim.pulses import Delay, PulseSequence

from conftest import code_block, logical_coefficients


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
        assert np.abs(code_block(h)).max() == 0

    @pytest.mark.parametrize("coupling", ["measured", "equal_to_nu2"])
    def test_logical_z_rate_at_every_scale(self, coupling):
        # c_z is half the difference of the code block's diagonal entries, so
        # its round-off is relative to the block's scale, which J sets at the
        # smallest shifts; accepted systems reach the overflow bound
        for nu2 in np.logspace(-3, 307, 200):
            sys = SpinSystem(nu2=nu2, j_coupling=5.7 if coupling == "measured" else nu2)
            h = internal_hamiltonian(sys)
            cz, _, _ = logical_coefficients(h)
            assert abs(cz + np.pi * (nu2 - sys.nu1)) <= 1e-15 * np.abs(code_block(h)).max()


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
    """gamma z g Jz / 2 as the engine applies it: a delay under a constant
    gradient g, the internal Hamiltonian switched off."""

    @staticmethod
    def delay_under_gradient(grad, z, delta):
        return ensemble_propagators(PulseSequence((Delay(delta),)), SpinSystem(nu2=0.0, j_coupling=0.0),
                                    GradientWaveform(delta, [grad]), z)

    def test_zero_on_code_space(self):
        u = self.delay_under_gradient(0.6, 0.004, 500e-6)
        assert np.abs(code_block(u) - np.eye(2)).max() <= 1e-12
        assert np.abs(u - np.diag(np.diag(u))).max() == 0

    def test_single_quantum_phase_factor(self, spin_system):
        # evolution for delta multiplies |00><01| by exp(-i gamma z grad delta)
        grad, z, delta = 0.1, 0.003, 500e-6
        u = self.delay_under_gradient(grad, z, delta)
        unit = np.zeros((4, 4), dtype=complex)
        unit[0, 1] = 1.0
        out = u @ unit @ u.conj().T
        expected = np.exp(-1j * spin_system.gamma * z * grad * delta)
        assert abs(out[0, 1] - expected) <= 1e-12
