import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dfsim import operators as ops
from dfsim.channels import (
    KrausChannel,
    coherence_decay_factors,
    collective_dephasing,
    ensemble_channel,
    identity_channel,
    natural_relaxation_step,
    unitary_channel,
    unvec,
    vec,
)
from dfsim.errors import NumericalContractError
from dfsim.hamiltonians import SpinSystem

from conftest import lindblad_superoperator, property_settings, random_ket, random_unitary

GAMMAS = list(np.logspace(-3, 1, 20)) + [math.inf]


def code_state(rng):
    c = random_ket(rng)
    ket = c[0] * ops.basis_ket("01") + c[1] * ops.basis_ket("10")
    return np.outer(ket, ket.conj())


class TestCollectiveDephasing:
    def test_zero_strength_is_identity(self):
        ch = collective_dephasing(0.0)
        e0, e1, e2 = ch.kraus_ops
        assert np.abs(e0 - np.eye(4)).max() <= 1e-15
        assert np.abs(e1).max() == 0 and np.abs(e2).max() == 0

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
        reduced = ops.partial_trace_ancilla(out)
        assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-12

    def test_trace_preserved(self, rng):
        rho = code_state(rng)
        for gamma in (0.2, 5.0, math.inf):
            out = collective_dephasing(gamma).apply(rho)
            assert abs(np.trace(out) - 1.0) <= 1e-10

    def test_identity_channel(self, rng):
        rho = code_state(rng)
        assert np.abs(identity_channel(4).apply(rho) - rho).max() == 0

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
    def test_identity(self):
        assert np.abs(identity_channel(4).superoperator() - np.eye(16)).max() == 0

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
        KrausChannel((np.eye(4) * 0.9,), label="broken")


unitaries = st.integers(0, 2**32 - 1).map(lambda seed: random_unitary(np.random.default_rng(seed), 4))
channels = st.one_of(
    st.floats(0.0, 50.0).map(collective_dephasing),
    st.just(collective_dephasing(math.inf)),
    unitaries.map(unitary_channel),
    st.lists(unitaries, min_size=1, max_size=3).map(ensemble_channel),
    st.builds(natural_relaxation_step, st.just(SpinSystem()), st.floats(0.0, 1.0), st.floats(1e-6, 0.1)),
)


@property_settings
@given(st.lists(channels, min_size=2, max_size=3))
def test_completeness_survives_compose(chain):
    composed = chain[0]
    for ch in chain[1:]:
        composed = ch.compose(composed)
    s = sum(k.conj().T @ k for k in composed.kraus_ops)
    assert np.abs(s - np.eye(4)).max() <= 1e-10


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

    def test_pure_dephasing_is_unital(self):
        sys = SpinSystem(t1=math.inf, t2=3.5)
        for f in (0.0, 0.5, 1.0):
            s = natural_relaxation_step(sys, f, 1e-3).superoperator()
            eye = np.eye(4, dtype=complex)
            assert np.abs(unvec(s @ vec(eye)) - eye).max() <= 1e-12


class TestMasterEquationOracle:
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    def test_channel_matches_lindblad_to_first_order(self, spin_system, f):
        t = 0.1
        gen = lindblad_superoperator(spin_system, f)
        exact = scipy.linalg.expm(gen * t)
        errs = []
        for dt in (2e-3, 1e-3):
            n = int(round(t / dt))
            s = natural_relaxation_step(spin_system, f, dt).superoperator()
            errs.append(np.abs(np.linalg.matrix_power(s, n) - exact).max())
        assert errs[1] <= 2e-4
        # first-order consistency: halving dt at least halves the error
        assert errs[1] <= 0.6 * errs[0] + 1e-12

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
