import math

import numpy as np
import pytest
import scipy.linalg

from dfsim import ensemble, pulses
from dfsim import operators as ops
from dfsim.channels import (
    KrausChannel,
    coherence_decay_factors,
    collective_dephasing,
    ensemble_channel,
    natural_relaxation_step,
    unvec,
    vec,
)
from dfsim.errors import NumericalContractError
from dfsim.hamiltonians import SpinSystem

from conftest import lindblad_superoperator, random_ket, random_unitary

GAMMAS = list(np.logspace(-3, 1, 20)) + [math.inf]


def code_state(rng):
    c = random_ket(rng)
    ket = c[0] * ops.basis_ket("01") + c[1] * ops.basis_ket("10")
    return np.outer(ket, ket.conj())


class TestCollectiveDephasing:
    def test_zero_strength_is_identity(self):
        ch = collective_dephasing(0.0)
        # the other two operators are exactly zero, so the channel drops them
        (e0,) = ch.kraus_ops
        assert np.abs(e0 - np.eye(4)).max() <= 1e-15

    def test_crusher_limit_is_projectors(self):
        ch = collective_dephasing(math.inf)
        for k, p in zip(ch.kraus_ops, ops.zq_projectors()):
            assert np.abs(k - p).max() == 0

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            collective_dephasing(-0.1)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_completeness(self, gamma):
        ch = collective_dephasing(gamma)
        s = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.abs(s - np.eye(4)).max() <= 1e-10

    def test_code_states_invariant(self, rng):
        for gamma in (0.0, 0.3, 2.0, math.inf):
            ch = collective_dephasing(gamma)
            for _ in range(100):
                rho = code_state(rng)
                assert np.abs(ch.apply(rho) - rho).max() <= 1e-10


class TestApply:
    def test_crusher_phase_damps_data_spin(self):
        # |+> on the data spin, ancilla |0>: the |00><10| coherence dies
        plus = (ops.basis_ket("00") + ops.basis_ket("10")) / np.sqrt(2)
        rho = np.outer(plus, plus.conj())
        out = collective_dephasing(math.inf).apply(rho)
        assert abs(out[0, 2]) <= 1e-15 and abs(out[2, 0]) <= 1e-15
        assert out[0, 0] == pytest.approx(0.5) and out[2, 2] == pytest.approx(0.5)
        reduced = np.einsum("ikjk->ij", out.reshape(2, 2, 2, 2))  # trace out the ancilla
        assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-12

    def test_trace_preserved(self, rng):
        rho = code_state(rng)
        for gamma in (0.2, 5.0, math.inf):
            out = collective_dephasing(gamma).apply(rho)
            assert abs(np.trace(out) - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            collective_dephasing(1.0).apply(np.eye(2) / 2)


class TestDecayFactors:
    def test_gamma_half(self):
        d1, d2 = coherence_decay_factors(0.5)
        assert d1 == pytest.approx(math.exp(-0.5), abs=1e-10)
        assert d2 == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_zero(self):
        assert coherence_decay_factors(0.0) == pytest.approx((1.0, 1.0))

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 1.7, 4.0])
    def test_double_is_fourth_power_of_single(self, gamma):
        d1, d2 = coherence_decay_factors(gamma)
        assert d2 == pytest.approx(d1 ** 4, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 2.0])
    def test_order_squared_exponents(self, gamma):
        d1, d2 = coherence_decay_factors(gamma)
        assert -math.log(d1) == pytest.approx(gamma, rel=1e-9)
        assert -math.log(d2) == pytest.approx(4 * gamma, rel=1e-9)


class TestSuperoperator:
    def test_crusher_projects_matrix_units(self):
        # brute force: the crusher keeps exactly the diagonal and the
        # zero-quantum block matrix units, and kills the rest
        s = collective_dephasing(math.inf).superoperator()
        survivors = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
        for k in range(4):
            for l in range(4):
                unit = np.zeros((4, 4), dtype=complex)
                unit[k, l] = 1.0
                out = unvec(s @ vec(unit))
                expected = unit if (k, l) in survivors else np.zeros((4, 4))
                assert np.abs(out - expected).max() <= 1e-12, (k, l)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, math.inf])
    def test_unital(self, gamma):
        s = collective_dephasing(gamma).superoperator()
        eye = np.eye(4, dtype=complex)
        assert np.abs(unvec(s @ vec(eye)) - eye).max() <= 1e-12

    def test_composition_is_matrix_product(self):
        a, b = collective_dephasing(0.4), collective_dephasing(0.9)
        combined = collective_dephasing(1.3)
        assert np.abs(a.superoperator() @ b.superoperator()
                      - combined.superoperator()).max() <= 1e-12


def test_kraus_completeness_enforced():
    with pytest.raises(NumericalContractError):
        KrausChannel((np.eye(4) * 0.9,))


NAN4 = np.full((4, 4), np.nan, dtype=complex)


@pytest.mark.parametrize("check, error, message", [
    (lambda: KrausChannel(np.full((1, 2, 2), np.nan)), NumericalContractError, "completeness"),
    # a NaN operator is not a zero operator: it is kept, so the identity beside it does not pass
    (lambda: KrausChannel((np.full((2, 2), np.nan), np.eye(2))), NumericalContractError, "completeness"),
    (lambda: pulses._check_cyclic(NAN4), NumericalContractError, "not cyclic"),
    (lambda: pulses.dfs_residence_fraction(pulses.enc_z(1.0, SpinSystem()), SpinSystem(), NAN4),
     ValueError, "code space"),
    (lambda: ensemble._check_output_state(NAN4), NumericalContractError, "trace"),
], ids=["kraus-completeness", "kraus-nan-operator", "cyclic-train", "residence-rho0", "ensemble-state"])
def test_contract_checks_reject_nan(check, error, message):
    # each check is written `not x <= tol`, which a NaN x fails
    with pytest.raises(error, match=message):
        check()


@pytest.mark.parametrize("kraus, message", [
    ((), "at least one"),
    ([], "at least one"),
    ((np.eye(2), np.eye(4)), "square with equal dimension"),
    ((np.eye(2), np.eye(2)[0]), "square with equal dimension"),
    ((np.ones((2, 3)) / 2,), "square with equal dimension"),
    ((np.array([1.0, 0.0]),), "square with equal dimension"),
    (np.eye(2), "square with equal dimension"),
])
def test_kraus_input_checks(kraus, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(kraus)


@pytest.mark.parametrize("unitaries", [[], (), np.empty((0, 4, 4))], ids=["list", "tuple", "array"])
def test_ensemble_channel_of_no_unitaries_is_a_value_error(unitaries):
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        ensemble_channel(unitaries)


@pytest.mark.parametrize("n", [1, 3, 1001])
def test_ensemble_channel_weights_are_uniform_bit_for_bit(rng, n):
    us = np.array([random_unitary(rng, 4) for _ in range(n)])
    weighted = np.sqrt(np.full(n, 1.0 / n))[:, None, None] * us
    assert ensemble_channel(us).kraus_ops.tobytes() == weighted.tobytes()


def test_kraus_ops_are_one_complex_stack():
    ch = KrausChannel([np.eye(2) / 2 ** 0.5, np.diag([1, -1]) / 2 ** 0.5])
    assert isinstance(ch.kraus_ops, np.ndarray)
    assert ch.kraus_ops.shape == (2, 2, 2) and ch.kraus_ops.dtype == complex


class TestNaturalRelaxation:
    def test_bad_fraction_rejected(self, spin_system):
        with pytest.raises(ValueError):
            natural_relaxation_step(spin_system, 1.2, 1e-3)

    def test_single_spin_transverse_decay_is_exact_t2(self, spin_system):
        # data-spin coherence |00><10| must decay by exp(-dt/T2) for every f
        dt = 1e-3
        unit = np.zeros((4, 4), dtype=complex)
        unit[0, 2] = 1.0
        for f in (0.0, 0.3, 0.7, 1.0):
            ch = natural_relaxation_step(spin_system, f, dt)
            out = ch.apply(unit)
            assert out[0, 2].real == pytest.approx(math.exp(-dt / spin_system.t2), abs=1e-12)

    def test_composition_matches_single_step(self, spin_system):
        s1 = natural_relaxation_step(spin_system, 0.7, 1e-3).superoperator()
        s10 = natural_relaxation_step(spin_system, 0.7, 10e-3).superoperator()
        assert np.abs(np.linalg.matrix_power(s1, 10) - s10).max() <= 1e-12

    def test_fully_collective_leaves_only_t1_leakage(self, spin_system):
        dt = 1e-3
        ch = natural_relaxation_step(spin_system, 1.0, dt)
        unit = np.zeros((4, 4), dtype=complex)
        unit[1, 2] = 1.0  # code-space coherence |01><10|
        out = ch.apply(unit)
        assert out[1, 2].real == pytest.approx(math.exp(-dt / spin_system.t1), abs=1e-12)

    def test_no_collectivity_no_advantage(self):
        # with T1 removed, the encoded pair dephases exactly as fast as the
        # un-encoded spin at f = 0
        sys = SpinSystem(t1=math.inf, t2=3.5)
        dt = 1e-3
        ch = natural_relaxation_step(sys, 0.0, dt)
        single = np.zeros((4, 4), dtype=complex)
        single[0, 2] = 1.0
        encoded = np.zeros((4, 4), dtype=complex)
        encoded[1, 2] = 1.0
        d_single = ch.apply(single)[0, 2].real
        d_encoded = ch.apply(encoded)[1, 2].real
        assert d_encoded == pytest.approx(d_single, abs=1e-12)
        assert d_single == pytest.approx(math.exp(-dt / sys.t2), abs=1e-12)

    def test_t2_above_twice_t1_by_round_off(self):
        # SpinSystem admits t2 up to 2 t1 + 1e-12, where 1/T2 - 1/(2 T1) is
        # a negative round-off; it must act as no pure dephasing at all
        sys = SpinSystem(t1=1.0, t2=2.0 + 1e-12)
        unit = np.zeros((4, 4), dtype=complex)
        unit[0, 2] = 1.0
        for t in (1e-3, 3.0, 1e308):
            out = natural_relaxation_step(sys, 0.5, t).apply(unit)
            assert out[0, 2].real == pytest.approx(math.exp(-t / sys.t2), abs=1e-12)

    def test_pure_dephasing_is_unital(self):
        sys = SpinSystem(t1=math.inf, t2=3.5)
        for f in (0.0, 0.5, 1.0):
            s = natural_relaxation_step(sys, f, 1e-3).superoperator()
            eye = np.eye(4, dtype=complex)
            assert np.abs(unvec(s @ vec(eye)) - eye).max() <= 1e-12


class TestMasterEquationOracle:
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    def test_channel_matches_lindblad_exactly(self, f):
        # the channel is the master equation's solution at any duration,
        # with or without T1 and with no pure dephasing at t2 = 2 t1
        for sys in (SpinSystem(), SpinSystem(t1=math.inf), SpinSystem(t1=3.0, t2=6.0)):
            gen = lindblad_superoperator(sys, f)
            for t in (1e-3, 0.1, 3.0):
                s = natural_relaxation_step(sys, f, t).superoperator()
                assert np.abs(s - scipy.linalg.expm(gen * t)).max() <= 1e-12

    def test_rates_match_oracle_exactly(self, spin_system):
        # the discrete channel's coherence decay factors are exact
        # exponentials of the oracle's rates, not just O(dt) approximations
        t = 0.5
        gen = lindblad_superoperator(spin_system, 0.8)
        exact = scipy.linalg.expm(gen * t)
        n = 500
        s = np.linalg.matrix_power(natural_relaxation_step(spin_system, 0.8, t / n).superoperator(), n)
        unit = np.zeros((4, 4), dtype=complex)
        unit[1, 2] = 1.0
        d_channel = unvec(s @ vec(unit))[1, 2].real
        d_oracle = unvec(exact @ vec(unit))[1, 2].real
        assert d_channel == pytest.approx(d_oracle, rel=1e-9)
