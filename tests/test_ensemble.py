import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dfsim import ensemble
from dfsim import operators as ops
from dfsim.ensemble import (
    BLOCK,
    DEFAULT_STEP_TIME,
    RUN_TERMS,
    EnsembleSpec,
    GradientWaveform,
    _commutes_with_jz,
    _expm_members,
    _half_widths,
    ensemble_propagators,
    evolve_ensemble,
    fuse_segments,
    gradient_diffusion_echo,
    member_positions,
    random_walk_waveform,
)
from dfsim.errors import NumericalContractError
from dfsim.hamiltonians import SpinSystem, internal_hamiltonian, rf_hamiltonian
from dfsim.pulses import (
    COMPOSITE_90X_180Y_90X,
    ROTATIONS,
    Delay,
    IdealRotation,
    PulseSequence,
    RfPulse,
    Segment,
    composite_y90,
    piecewise_segments,
    propagator,
    state_trajectory,
)
from dfsim.units import khz_per_cm_to_t_per_m

from conftest import (
    expm_oracle,
    hermitians,
    positions,
    property_settings,
    random_ket,
    segments_oracle_30_digits,
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
        for grad_max in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="grad_max"):
                random_walk_waveform(grad_max, 10, seed=0)
        with pytest.raises(ValueError):
            GradientWaveform(step_time=0.0, values=[0.1])

    def test_waveform_csv(self, tmp_path):
        wf = GradientWaveform(step_time=50.6e-6, values=np.array([0.1, -0.2]))
        path = tmp_path / "wf.csv"
        wf.to_csv(path)
        assert path.read_text() == "time_us,grad_T_per_m\n0,0.1\n50.6,-0.2\n"


class TestRandomWalk:
    def test_zero_strength_is_flat(self):
        wf = random_walk_waveform(0.0, 100, seed=5)
        assert np.abs(wf.values).max() == 0

    def test_deterministic_for_fixed_seed(self):
        a = random_walk_waveform(0.3, 1000, seed=11)
        b = random_walk_waveform(0.3, 1000, seed=11)
        assert np.array_equal(a.values, b.values)
        c = random_walk_waveform(0.3, 1000, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_bounded(self):
        wf = random_walk_waveform(0.25, 10_000, seed=2)
        assert np.abs(wf.values).max() <= 0.25 + 1e-15

    def test_correlation_time_is_a_few_steps(self):
        wf = random_walk_waveform(1.0, 100_000, seed=3)
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
        spec = EnsembleSpec(n_members=64)
        seq = PulseSequence((Delay(3e-3),))
        wf = random_walk_waveform(0.6, 100, seed=9)
        rho0 = code_state(rng)
        noisy = evolve_ensemble(seq, wf, spec, spin_system, rho0)
        clean = evolve_ensemble(seq, static_waveform(0.0), spec, spin_system, rho0)
        assert np.abs(noisy - clean).max() <= 1e-10

    def test_encoded_state_is_fixed_point_of_gradient_only_evolution(self, rng):
        # with the internal Hamiltonian off, gradients act as the identity on
        # the code space for every waveform
        sys = SpinSystem(nu1=0.0, nu2=0.0, j_coupling=0.0)
        spec = EnsembleSpec(n_members=32)
        wf = random_walk_waveform(1.0, 200, seed=4)
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
        seq = PulseSequence((
            Delay(4e-4),
            RfPulse(5e4, 0.3, 62.4e-6),
            Delay(2e-4),
            RfPulse(5e4, 1.1, 124.8e-6, shape="composite_90x_180y_90x"),
        ))
        wf = random_walk_waveform(0.4, 50, seed=6)
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


# nothing but RF pieces under a gradient: two pulses, cut by a waveform
# whose values are all nonzero
RF_SEQUENCE = PulseSequence((RfPulse(5e4, 0.3, 62.4e-6),
                             RfPulse(5e4, 1.1, 124.8e-6, shape=COMPOSITE_90X_180Y_90X)))
RF_WAVEFORM = GradientWaveform(step_time=50.6e-6, values=np.array([0.2, -0.1, 0.15, -0.2, 0.05, 0.1]))


def noise_waveform(seq, grad_max):
    return random_walk_waveform(grad_max, math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, seed=3)


def rf_pieces(seq, sys, wf):
    """Fused segments of `seq` that are RF pieces under a gradient."""
    return [s for s in fuse_segments(piecewise_segments(seq, sys, wf))
            if s.kind == "evolve" and s.grad != 0.0 and not _commutes_with_jz(s.h)]


def run_fit_spy(monkeypatch) -> list:
    """(N, factors) of every run of factors the engine then evaluates as a
    Chebyshev series in z."""
    calls = []
    fit = ensemble._fit_run

    def spy(factors, n_terms, *args):
        calls.append((n_terms, factors))
        return fit(factors, n_terms, *args)
    monkeypatch.setattr(ensemble, "_fit_run", spy)
    return calls


def fitted_rf_pieces(calls) -> int:
    """How many RF pieces under a gradient the spied runs hold."""
    return sum(seg is not None for _, factors in calls for _, _, seg, _ in factors)


class TestTaylorKernel:
    # the shipped 100 kHz/cm noisy gate reaches a piece 1-norm of about 20
    @property_settings
    @given(hermitians, st.sampled_from([1, BLOCK - 1, BLOCK + 1]), st.floats(0.0, 200.0),
           st.floats(0.0, 5.0), st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy_expm(self, h, n, norm, spread, seed):
        shifts = np.random.default_rng(seed).uniform(-spread, spread, n)
        jz_half = np.diag(ops.SPIN_PROJECTION).astype(complex)
        largest = max(np.abs(h + s * jz_half).sum(axis=0).max() for s in shifts)
        dt = norm / largest if largest > 0 else 1.0
        u = _expm_members(h, shifts, dt, np.empty((7, 16 * n), dtype=complex))
        assert u.shape == (4, 4, n)
        for i, s in enumerate(shifts):
            assert np.abs(u[:, :, i] - scipy.linalg.expm(-1j * (h + s * jz_half) * dt)).max() <= 1e-12

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1])
    def test_blocks_match_oracle(self, spin_system, n):
        seq = PulseSequence(RF_SEQUENCE.events + (Delay(1e-4), IdealRotation("pi_x_pair"), Delay(2e-5)))
        zs = np.linspace(-5e-3, 5e-3, n)
        us = ensemble_propagators(seq, spin_system, RF_WAVEFORM, zs)
        assert us.shape == (n, 4, 4)
        for z, u in zip(zs, us):
            assert np.abs(u - expm_oracle(seq, spin_system, RF_WAVEFORM, z)).max() <= 1e-10

    def test_engine_calls_no_eigh(self, spin_system, monkeypatch, rng):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        # enough members that every RF piece is fitted in a run
        zs = np.linspace(-4e-3, 3e-3, 64)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        calls = run_fit_spy(monkeypatch)
        us = ensemble_propagators(RF_SEQUENCE, spin_system, RF_WAVEFORM, zs)
        monkeypatch.undo()
        assert fitted_rf_pieces(calls) == len(rf_pieces(RF_SEQUENCE, spin_system, RF_WAVEFORM))
        # the residence trajectory takes its own exponentials, by eigh
        rho0 = code_state(rng)
        *_, (rho, _) = state_trajectory(RF_SEQUENCE, spin_system, rho0, waveform=RF_WAVEFORM, z=zs[1])
        oracles = [expm_oracle(RF_SEQUENCE, spin_system, RF_WAVEFORM, z) for z in zs]
        assert max(np.abs(u - o).max() for u, o in zip(us, oracles)) <= 1e-10
        assert np.abs(rho - oracles[1] @ rho0 @ oracles[1].conj().T).max() <= 1e-10

    def test_composite_y90_at_1000_khz_per_cm(self, spin_system):
        seq = composite_y90(spin_system, calibrate=False)
        wf = noise_waveform(seq, khz_per_cm_to_t_per_m(1000.0))
        zs = member_positions(EnsembleSpec(n_members=5))
        for z, u in zip(zs, ensemble_propagators(seq, spin_system, wf, zs)):
            assert np.abs(u - expm_oracle(seq, spin_system, wf, z)).max() <= 1e-10
        # the first 16 events (18 fused segments) at the two outermost
        # members against the 30-digit oracle, so that the bound measures
        # the engine's error rather than expm_oracle's
        prefix = PulseSequence(seq.events[:16])
        segments = fuse_segments(piecewise_segments(prefix, spin_system, wf))
        assert sum(not _commutes_with_jz(s.h) and s.grad != 0.0 for s in segments) >= 10
        zs = zs[[0, -1]]
        for z, u in zip(zs, ensemble_propagators(prefix, spin_system, wf, zs)):
            assert np.abs(u - segments_oracle_30_digits(segments, spin_system, z)).max() <= 1e-10

    @pytest.mark.parametrize("grad, match", [
        (khz_per_cm_to_t_per_m(1e7), "unitarity"),  # squaring amplifies round-off past 1e-10
        (1e299, "squarings"),                       # exponent 1-norm beyond theta 2^53
        (1e305, "not finite"),                      # gamma g overflows to inf
    ], ids=["1e7_khz_per_cm", "1e299_t_per_m", "1e305_t_per_m"])
    def test_absurd_gradient_breaks_the_contract(self, spin_system, grad, match):
        seq = composite_y90(spin_system, calibrate=False)
        wf = noise_waveform(seq, grad)
        with pytest.raises(NumericalContractError, match=match):
            ensemble_propagators(seq, spin_system, wf, member_positions(EnsembleSpec(n_members=101)))


class TestChebyshevPieces:
    @property_settings
    @given(hermitians, st.floats(0.0, 20.0), st.floats(-4.0, 1.5), st.sampled_from([-1.0, 1.0]),
           st.integers(-3, 3), st.integers(0, 2 ** 32 - 1))
    def test_members_match_scipy_expm(self, h, angle, log_w, sign, offset, seed):
        # one RF piece of half-width about 10^log_w rad, at n members on
        # either side of the term count N it needs, so both paths run: it is
        # fitted as a run of one when N < min(n, RUN_TERMS)
        sys, dt, z_max = SpinSystem(), 30e-6, 5e-3
        segment = Segment("evolve", dt, h * (angle / dt), sign * 10.0 ** log_w / (sys.gamma * z_max * dt))
        n_terms = int(np.searchsorted(_half_widths(), abs(sys.gamma * segment.grad) * z_max * dt)) + 1
        zs = np.random.default_rng(seed).uniform(-z_max, z_max, max(2, n_terms + offset))
        zs[0] = z_max
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "piecewise_segments", lambda *args: [segment])
            calls = run_fit_spy(mp)
            us = ensemble_propagators(None, sys, None, zs)
        assert [(n, len(factors)) for n, factors in calls] == ([(n_terms, 1)] if n_terms < min(zs.size, RUN_TERMS)
                                                              else [])
        jz_half = np.diag(ops.SPIN_PROJECTION)
        for z, u in zip(zs, us):
            exact = scipy.linalg.expm(-1j * (segment.h + sys.gamma * z * segment.grad * jz_half) * dt)
            assert np.abs(u - exact).max() <= 1e-12

    def test_composite_y90_at_100_khz_per_cm(self, spin_system, monkeypatch):
        # the shipped sweep's strongest point: at 101 members every RF piece
        # of the prefix is fitted in a run, checked against the 30-digit oracle
        seq = composite_y90(spin_system, calibrate=False)
        wf = noise_waveform(seq, khz_per_cm_to_t_per_m(100.0))
        prefix = PulseSequence(seq.events[:16])
        zs = member_positions(EnsembleSpec(n_members=101))
        calls = run_fit_spy(monkeypatch)
        us = ensemble_propagators(prefix, spin_system, wf, zs)
        assert fitted_rf_pieces(calls) == len(rf_pieces(prefix, spin_system, wf)) >= 10
        assert any(fitted_rf_pieces([call]) > 1 for call in calls)
        segments = fuse_segments(piecewise_segments(prefix, spin_system, wf))
        for i in (0, 50, 100):
            assert np.abs(us[i] - segments_oracle_30_digits(segments, spin_system, zs[i])).max() <= 1e-12

    def test_term_count_table_is_increasing(self):
        assert _half_widths().shape == (BLOCK,)
        assert np.all(np.diff(_half_widths()) > 0)


def term_count(w: float) -> int:
    return int(np.searchsorted(_half_widths(), w)) + 1 if w else 1


class TestRuns:
    @property_settings
    @given(spin_systems, sequences, waveforms, st.floats(0.0, 3.0),
           st.sampled_from([RUN_TERMS + 1, RUN_TERMS - 1, 5, 2]), st.integers(0, 2 ** 32 - 1))
    def test_chains_match_expm_oracle(self, sys, seq, wf, log_scale, n, seed):
        # gradients up to 1000x the strategy's 0.2 T/m, so that chains split
        # into several runs and some factors stay unfitted
        wf = GradientWaveform(wf.step_time, wf.values * 10.0 ** log_scale)
        zs = np.random.default_rng(seed).uniform(-5e-3, 5e-3, n)
        groups = []
        group = ensemble._group_runs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "_group_runs", lambda *args: groups.append(group(*args)) or groups[-1])
            calls = run_fit_spy(mp)
            us = ensemble_propagators(seq, sys, wf, zs)
        (runs,) = groups
        cap = min(n, BLOCK, RUN_TERMS)
        assert sum(len(factors) for factors, _ in runs) == len(fuse_segments(piecewise_segments(seq, sys, wf)))
        for factors, n_terms in runs:
            if n_terms is None:
                assert len(factors) == 1 and term_count(factors[0][-1]) >= cap
            else:
                assert n_terms == term_count(sum(f[-1] for f in factors)) < cap
        assert [(n_terms, factors) for factors, n_terms in runs if n_terms is not None] == calls
        for i in (0, n // 2, n - 1):
            assert np.abs(us[i] - expm_oracle(seq, sys, wf, zs[i])).max() <= 1e-10

    @property_settings
    @given(spin_systems, sequences, st.none() | waveforms.map(lambda wf: GradientWaveform(wf.step_time, 0 * wf.values)))
    def test_zero_gradient_is_one_run_of_one_term(self, sys, seq, wf):
        zs = np.linspace(-5e-3, 5e-3, 7)
        with pytest.MonkeyPatch.context() as mp:
            calls = run_fit_spy(mp)
            us = ensemble_propagators(seq, sys, wf, zs)
        assert [(n_terms, len(factors)) for n_terms, factors in calls] == [
            (1, len(fuse_segments(piecewise_segments(seq, sys, wf))))]
        oracle = expm_oracle(seq, sys, wf, 0.0)
        assert max(np.abs(u - oracle).max() for u in us) <= 1e-10


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
        rf = rf_hamiltonian(2 * math.pi * 8e3, 0.3)
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
        spec = EnsembleSpec(n_members=100, diffusion_d=0.0)
        rho0 = np.outer(*(lambda k: (k, k.conj()))(random_ket(rng, 4)))
        out = gradient_diffusion_echo(0.6, 745e-6, 36e-3, spec, spin_system, rho0, seed=1)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * 745e-6 + 36e-3)
        assert np.abs(out - u @ rho0 @ u.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n_members", [100, 1000])
    def test_decay_matches_gaussian_average(self, spin_system, n_members):
        # oracle: <exp(i m phi)> over Gaussian displacements
        # = exp(-D (gamma g m delta)^2 Delta)
        grad, delta, big_delta = 0.05, 745e-6, 36.275e-3
        spec = EnsembleSpec(n_members=n_members, diffusion_d=2e-9)
        ket = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        rho0 = np.outer(ket, ket.conj())
        out = gradient_diffusion_echo(grad, delta, big_delta, spec, spin_system, rho0, seed=17)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * delta + big_delta)
        undone = u.conj().T @ out @ u
        rate = spec.diffusion_d * (spin_system.gamma * grad * delta) ** 2 * big_delta
        tol = 3.0 / math.sqrt(n_members)
        d1 = undone[0, 1] / rho0[0, 1]
        d2 = undone[0, 3] / rho0[0, 3]
        assert abs(d1 - math.exp(-rate)) <= tol
        assert abs(d2 - math.exp(-4 * rate)) <= tol

    def test_zero_quantum_untouched(self, spin_system, rng):
        spec = EnsembleSpec(n_members=200, diffusion_d=5e-9)
        rho0 = code_state(rng)
        out = gradient_diffusion_echo(0.6, 745e-6, 36e-3, spec, spin_system, rho0, seed=23)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * 745e-6 + 36e-3)
        assert np.abs(out - u @ rho0 @ u.conj().T).max() <= 1e-12

    def test_deterministic(self, spin_system, rng):
        spec = EnsembleSpec(n_members=100, diffusion_d=2e-9)
        rho0 = code_state(rng)
        a = gradient_diffusion_echo(0.3, 745e-6, 0.03, spec, spin_system, rho0, seed=5)
        b = gradient_diffusion_echo(0.3, 745e-6, 0.03, spec, spin_system, rho0, seed=5)
        assert np.array_equal(a, b)

    def test_engineered_noise_realizes_the_collective_dephasing_channel(self, spin_system):
        # the incoherent phase-kick ensemble is an implementation of the
        # analytic three-operator channel: same superoperator up to the
        # Monte-Carlo residual
        from dfsim.channels import collective_dephasing, ensemble_channel
        from dfsim.ensemble import diffusion_phase_kicks
        grad, delta, big_delta = 0.05, 745e-6, 36.275e-3
        spec = EnsembleSpec(n_members=20000, diffusion_d=2e-9)
        strength = spec.diffusion_d * (spin_system.gamma * grad * delta) ** 2 * big_delta
        kicks = diffusion_phase_kicks(grad, delta, big_delta, spec, spin_system, seed=8)
        s_mc = ensemble_channel(kicks).superoperator()
        s_analytic = collective_dephasing(strength).superoperator()
        assert np.abs(s_mc - s_analytic).max() <= 3.0 / np.sqrt(spec.n_members)
