import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfsim import operators as ops
from dfsim.ensemble import (
    EnsembleSpec,
    GradientWaveform,
    _commutes_with_jz,
    ensemble_propagators,
    evolve_ensemble,
    fuse_segments,
    gradient_diffusion_echo,
    member_positions,
    random_walk_waveform,
)
from dfsim.errors import NumericalContractError
from dfsim.hamiltonians import RfParams, SpinSystem, internal_hamiltonian, rf_hamiltonian
from dfsim.pulses import (
    ROTATIONS,
    Delay,
    IdealRotation,
    PulseSequence,
    RfPulse,
    piecewise_segments,
    propagator,
)

from conftest import (
    expm_oracle,
    positions,
    property_settings,
    random_ket,
    sequences,
    spin_systems,
    waveforms,
)


def static_waveform(value):
    return GradientWaveform(step_time=1.0, values=np.array([value]))


def code_state(rng):
    c = random_ket(rng)
    ket = c[0] * ops.basis_ket("01") + c[1] * ops.basis_ket("10")
    return np.outer(ket, ket.conj())


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n_members=1)
        with pytest.raises(ValueError):
            EnsembleSpec(grad_max=-0.1)
        with pytest.raises(ValueError):
            GradientWaveform(step_time=0.0, values=[0.1])

    def test_waveform_csv(self, tmp_path):
        wf = GradientWaveform(step_time=50.6e-6, values=np.array([0.1, -0.2]))
        path = tmp_path / "wf.csv"
        wf.to_csv(path)
        assert path.read_text() == "time_us,grad_T_per_m\n0,0.1\n50.6,-0.2\n"


class TestRandomWalk:
    def test_zero_strength_is_flat(self):
        wf = random_walk_waveform(EnsembleSpec(grad_max=0.0, seed=5), 100)
        assert np.abs(wf.values).max() == 0

    def test_deterministic_for_fixed_seed(self):
        spec = EnsembleSpec(grad_max=0.3, seed=11)
        a = random_walk_waveform(spec, 1000)
        b = random_walk_waveform(spec, 1000)
        assert np.array_equal(a.values, b.values)
        c = random_walk_waveform(spec, 1000, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_bounded(self):
        wf = random_walk_waveform(EnsembleSpec(grad_max=0.25, seed=2), 10_000)
        assert np.abs(wf.values).max() <= 0.25 + 1e-15

    def test_correlation_time_is_a_few_steps(self):
        wf = random_walk_waveform(EnsembleSpec(grad_max=1.0, seed=3), 100_000)
        x = wf.values - wf.values.mean()
        den = float(x @ x)
        autocorr = [float(x[:-lag] @ x[lag:]) / den for lag in (1, 2, 3)]
        assert autocorr[2] < 1.0 / math.e
        assert autocorr[0] < 0.8  # genuinely decorrelating, not a slow drift


class TestMemberPositions:
    def test_stratified_midpoints(self):
        z = member_positions(EnsembleSpec(n_members=4, sample_length=0.01))
        assert np.allclose(z, [-0.00375, -0.00125, 0.00125, 0.00375])

    def test_jitter_needs_rng(self):
        with pytest.raises(ValueError):
            member_positions(EnsembleSpec(n_members=4), jitter=True)

    def test_jitter_stays_in_strata(self, rng):
        spec = EnsembleSpec(n_members=50, sample_length=0.01)
        z = member_positions(spec, jitter=True, rng=rng)
        edges = (np.arange(51)) / 50 * 0.01 - 0.005
        assert np.all(z >= edges[:-1]) and np.all(z <= edges[1:])


class TestEvolveEnsemble:
    def test_zero_waveform_equals_single_molecule(self, spin_system, rng):
        spec = EnsembleSpec(n_members=8)
        seq = PulseSequence((Delay(2e-3),))
        rho0 = code_state(rng)
        rho = evolve_ensemble(seq, static_waveform(0.0), spec, spin_system, rho0)
        u = propagator(seq, spin_system)
        assert np.abs(rho - u @ rho0 @ u.conj().T).max() <= 1e-12

    def test_static_crusher_kills_unencoded_coherence(self, spin_system):
        # strong static gradient over the sample: the data-spin single-quantum
        # coherence averages to ~0, bounded by the stratified-sum residual
        spec = EnsembleSpec(n_members=1000, sample_length=0.01)
        plus = (ops.basis_ket("00") + ops.basis_ket("10")) / np.sqrt(2)
        rho0 = np.outer(plus, plus.conj())
        rho = evolve_ensemble(PulseSequence((Delay(745e-6),)), static_waveform(0.6),
                              spec, spin_system, rho0)
        assert abs(rho[0, 2]) <= 1.0 / math.sqrt(spec.n_members)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_encoded_state_immune_to_any_waveform(self, spin_system, rng):
        spec = EnsembleSpec(n_members=64, grad_max=0.6, seed=9)
        seq = PulseSequence((Delay(3e-3),))
        wf = random_walk_waveform(spec, 100)
        rho0 = code_state(rng)
        noisy = evolve_ensemble(seq, wf, spec, spin_system, rho0)
        clean = evolve_ensemble(seq, static_waveform(0.0), spec, spin_system, rho0)
        assert np.abs(noisy - clean).max() <= 1e-10

    def test_encoded_state_is_fixed_point_of_gradient_only_evolution(self, rng):
        # with the internal Hamiltonian off, gradients act as the identity on
        # the code space for every waveform
        sys = SpinSystem(nu1=0.0, nu2=0.0, j_coupling=0.0)
        spec = EnsembleSpec(n_members=32, grad_max=1.0, seed=4)
        wf = random_walk_waveform(spec, 200)
        rho0 = code_state(rng)
        rho = evolve_ensemble(PulseSequence((Delay(5e-3),)), wf, spec, sys, rho0)
        assert np.abs(rho - rho0).max() <= 1e-10

    def test_average_is_permutation_invariant(self, spin_system, rng):
        spec = EnsembleSpec(n_members=40)
        zs = member_positions(spec)
        seq = PulseSequence((Delay(1e-3),))
        wf = static_waveform(0.2)
        us = ensemble_propagators(seq, spin_system, wf, zs)
        us_perm = ensemble_propagators(seq, spin_system, wf, zs[::-1])
        rho0 = code_state(rng)
        a = np.einsum("nij,jk,nlk->il", us, rho0, us.conj()) / len(us)
        b = np.einsum("nij,jk,nlk->il", us_perm, rho0, us_perm.conj()) / len(us)
        assert np.abs(a - b).max() <= 1e-12

    def test_batched_matches_scalar_propagator(self, spin_system):
        # pulse segments with gradient active, hard and composite shapes: the
        # batch and the scalar propagator both match the scipy oracle
        spec = EnsembleSpec(n_members=2, grad_max=0.4, seed=6)
        seq = PulseSequence((
            Delay(4e-4),
            RfPulse(5e4, 0.3, 62.4e-6),
            Delay(2e-4),
            RfPulse(5e4, 1.1, 124.8e-6, shape="composite_90x_180y_90x"),
        ))
        wf = random_walk_waveform(spec, 50)
        zs = np.array([-0.003, 0.0041])
        us = ensemble_propagators(seq, spin_system, wf, zs)
        for z, u in zip(zs, us):
            oracle = expm_oracle(seq, spin_system, wf, z)
            assert np.abs(u - oracle).max() <= 1e-10
            assert np.abs(propagator(seq, spin_system, waveform=wf, z=z) - oracle).max() <= 1e-10


class TestEngineOracle:
    @property_settings
    @given(spin_systems, sequences, st.none() | waveforms,
           positions | st.lists(positions, min_size=1, max_size=4).map(np.array))
    def test_matches_expm_product(self, sys, seq, wf, z):
        u = ensemble_propagators(seq, sys, wf, z)
        assert u.shape == np.shape(z) + (4, 4)
        for zi, ui in zip(np.atleast_1d(z), u.reshape(-1, 4, 4)):
            assert np.abs(ui - expm_oracle(seq, sys, wf, zi)).max() <= 1e-10
        if np.ndim(z) == 0:
            assert np.array_equal(propagator(seq, sys, waveform=wf, z=z), u)

    @property_settings
    @given(spin_systems, sequences, waveforms)
    def test_segments_keep_duration_and_gradient_area(self, sys, seq, wf):
        segments = piecewise_segments(seq, sys, wf)
        tau, total = wf.step_time, seq.duration
        area = sum(wf.values[min(k, len(wf.values) - 1)] * (min((k + 1) * tau, total) - k * tau)
                   for k in range(math.ceil(total / tau)))
        for segs in (segments, fuse_segments(segments)):
            assert sum(s.duration for s in segs) == pytest.approx(seq.duration, rel=1e-12)
            assert sum(s.grad * s.duration for s in segs) == pytest.approx(area, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("z", [0.002, np.array([-0.001, 0.0, 0.003])])
    def test_non_unitary_segment_breaks_the_contract(self, spin_system, monkeypatch, z):
        monkeypatch.setitem(ROTATIONS, "pi_x_pair", 1.001 * ROTATIONS["pi_x_pair"])
        seq = PulseSequence((Delay(1e-4), IdealRotation("pi_x_pair"), Delay(1e-4)))
        with pytest.raises(NumericalContractError, match="unitarity"):
            ensemble_propagators(seq, spin_system, static_waveform(0.1), z)


def runs_between_rotations(segments):
    runs = [[]]
    for seg in segments:
        if seg.kind == "rotate":
            runs.append([])
        else:
            runs[-1].append(seg)
    return runs


class TestFusion:
    @pytest.mark.parametrize("k", range(-14, 7))
    def test_commute_verdict_is_scale_free(self, spin_system, k):
        h_int = internal_hamiltonian(spin_system)
        rf = rf_hamiltonian(RfParams(2 * math.pi * 8e3, 0.3))
        assert _commutes_with_jz(10.0 ** k * h_int)
        assert not _commutes_with_jz(10.0 ** k * (h_int + rf))

    @property_settings
    @given(spin_systems, st.integers(1, 5000).map(lambda k: k * 1e-6), waveforms)
    def test_hold_fuses_to_one_segment(self, sys, t, wf):
        fused = fuse_segments(piecewise_segments(PulseSequence((Delay(t),)), sys, wf))
        assert len(fused) == 1
        assert fused[0].duration == pytest.approx(t, rel=1e-12)

    def test_rf_pieces_under_distinct_gradients_stay_apart(self, spin_system):
        wf = GradientWaveform(step_time=20e-6, values=np.array([0.1, -0.05, 0.2, 0.03, -0.15, 0.07]))
        seq = PulseSequence((RfPulse(5e4, 0.3, 100e-6), RfPulse(5e4, 0.3, 20e-6)))
        segments = piecewise_segments(seq, spin_system, wf)
        fused = fuse_segments(segments)
        assert len(segments) == 6
        assert [(s.duration, s.grad) for s in fused] == [(s.duration, s.grad) for s in segments]

    def test_rf_pieces_without_gradient_merge(self, spin_system):
        wf = GradientWaveform(step_time=20e-6, values=np.zeros(6))
        seq = PulseSequence((RfPulse(5e4, 0.3, 100e-6), RfPulse(5e4, 0.3, 20e-6)))
        fused = fuse_segments(piecewise_segments(seq, spin_system, wf))
        assert [(s.duration, s.grad) for s in fused] == [(pytest.approx(120e-6, rel=1e-12), 0.0)]

    @property_settings
    @given(spin_systems, sequences, st.none() | waveforms)
    def test_rotations_always_split_runs(self, sys, seq, wf):
        segments = piecewise_segments(seq, sys, wf)
        fused = fuse_segments(segments)
        rotations = [s.u.tobytes() for s in segments if s.kind == "rotate"]
        assert [s.u.tobytes() for s in fused if s.kind == "rotate"] == rotations
        runs, fused_runs = runs_between_rotations(segments), runs_between_rotations(fused)
        assert len(fused_runs) == len(runs)
        for run, fused_run in zip(runs, fused_runs):
            assert bool(fused_run) == bool(run)
            assert sum(s.duration for s in fused_run) == pytest.approx(sum(s.duration for s in run), rel=1e-12)


class TestGradientDiffusionEcho:
    def test_no_diffusion_is_coherent(self, spin_system, rng):
        spec = EnsembleSpec(n_members=100, diffusion_d=0.0, seed=1)
        rho0 = np.outer(*(lambda k: (k, k.conj()))(random_ket(rng, 4)))
        out = gradient_diffusion_echo(0.6, 745e-6, 36e-3, spec, spin_system, rho0)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * 745e-6 + 36e-3)
        assert np.abs(out - u @ rho0 @ u.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n_members", [100, 1000])
    def test_decay_matches_gaussian_average(self, spin_system, n_members):
        # oracle: <exp(i m phi)> over Gaussian displacements
        # = exp(-D (gamma g m delta)^2 Delta)
        grad, delta, big_delta = 0.05, 745e-6, 36.275e-3
        spec = EnsembleSpec(n_members=n_members, diffusion_d=2e-9, seed=17)
        ket = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        rho0 = np.outer(ket, ket.conj())
        out = gradient_diffusion_echo(grad, delta, big_delta, spec, spin_system, rho0)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * delta + big_delta)
        undone = u.conj().T @ out @ u
        rate = spec.diffusion_d * (spin_system.gamma * grad * delta) ** 2 * big_delta
        tol = 3.0 / math.sqrt(n_members)
        d1 = undone[0, 1] / rho0[0, 1]
        d2 = undone[0, 3] / rho0[0, 3]
        assert abs(d1 - math.exp(-rate)) <= tol
        assert abs(d2 - math.exp(-4 * rate)) <= tol

    def test_zero_quantum_untouched(self, spin_system, rng):
        spec = EnsembleSpec(n_members=200, diffusion_d=5e-9, seed=23)
        rho0 = code_state(rng)
        out = gradient_diffusion_echo(0.6, 745e-6, 36e-3, spec, spin_system, rho0)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * 745e-6 + 36e-3)
        assert np.abs(out - u @ rho0 @ u.conj().T).max() <= 1e-12

    def test_deterministic(self, spin_system, rng):
        spec = EnsembleSpec(n_members=100, diffusion_d=2e-9, seed=5)
        rho0 = code_state(rng)
        a = gradient_diffusion_echo(0.3, 745e-6, 0.03, spec, spin_system, rho0)
        b = gradient_diffusion_echo(0.3, 745e-6, 0.03, spec, spin_system, rho0)
        assert np.array_equal(a, b)

    def test_engineered_noise_realizes_the_collective_dephasing_channel(self, spin_system):
        # the incoherent phase-kick ensemble is an implementation of the
        # analytic three-operator channel: same superoperator up to the
        # Monte-Carlo residual
        from dfsim.channels import collective_dephasing, ensemble_channel
        from dfsim.ensemble import diffusion_phase_kicks
        grad, delta, big_delta = 0.05, 745e-6, 36.275e-3
        spec = EnsembleSpec(n_members=20000, diffusion_d=2e-9, seed=8)
        strength = spec.diffusion_d * (spin_system.gamma * grad * delta) ** 2 * big_delta
        kicks = diffusion_phase_kicks(grad, delta, big_delta, spec, spin_system)
        s_mc = ensemble_channel(kicks).superoperator()
        s_analytic = collective_dephasing(strength).superoperator()
        assert np.abs(s_mc - s_analytic).max() <= 3.0 / np.sqrt(spec.n_members)
