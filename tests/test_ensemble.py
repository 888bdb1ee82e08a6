import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim import ensemble
from dfsim import operators as ops
from dfsim.channels import collective_dephasing, ensemble_channel
from dfsim.ensemble import (
    BLOCK,
    DEFAULT_STEP_TIME,
    RUN_TERMS,
    EnsembleSpec,
    GradientWaveform,
    _expm_members,
    _half_widths,
    ensemble_propagators,
    gradient_diffusion_echo,
    member_positions,
    random_walk_waveform,
)
from dfsim.errors import NumericalContractError
from dfsim.experiments import gate_fidelities
from dfsim.hamiltonians import SpinSystem, internal_hamiltonian, rf_hamiltonian
from dfsim.metrics import member_gate_fidelities
from dfsim.pulses import (
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
    commutes_with_jz,
    composite_90x_180y_90x,
    continuum_mean,
    expm_oracle,
    hermitians,
    nominal_composite_y90,
    positions,
    property_settings,
    random_ket,
    scaled_walk,
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
        assert EnsembleSpec(n_members=ensemble.MAX_MEMBERS).n_members == 10 ** 6
        with pytest.raises(ValueError, match="n_members must be from 2 to 1000000"):
            EnsembleSpec(n_members=ensemble.MAX_MEMBERS + 1)
        with pytest.raises(ValueError, match="n_steps"):
            random_walk_waveform(0, seed=0)

    @pytest.mark.parametrize("step_time, values, match", [
        (0.0, [0.1], "step_time"), (-1e-6, [0.1], "step_time"), (math.nan, [0.1], "step_time"),
        (math.inf, [0.1], "step_time"), (1e-6, [0.1, math.nan], "values"), (1e-6, [math.inf], "values"),
        (1e-6, [0.2, -math.inf], "values"),
    ])
    def test_waveform_rejects_non_finite_clock_and_values(self, step_time, values, match):
        with pytest.raises(ValueError, match=match):
            GradientWaveform(step_time=step_time, values=values)


class TestRandomWalk:
    def test_length_and_clock(self):
        wf = random_walk_waveform(7, seed=5, step_time=1e-4)
        assert wf.values.shape == (7,) and wf.step_time == 1e-4
        assert random_walk_waveform(7, seed=5).step_time == DEFAULT_STEP_TIME

    def test_deterministic_for_fixed_seed(self):
        a = random_walk_waveform(1000, seed=11)
        b = random_walk_waveform(1000, seed=11)
        assert np.array_equal(a.values, b.values)
        c = random_walk_waveform(1000, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_bounded(self):
        # the fold at +-1 keeps every step of the walk within its uniform
        # increment, and the walk reaches both bounds
        values = random_walk_waveform(10_000, seed=2).values
        assert np.abs(values).max() <= 1.0
        assert values.min() < -0.99 and values.max() > 0.99
        assert np.abs(np.diff(values)).max() <= 1.0 + 1e-12

    def test_correlation_time_is_a_few_steps(self):
        wf = random_walk_waveform(100_000, seed=3)
        x = wf.values - wf.values.mean()
        den = float(x @ x)
        autocorr = [float(x[:-lag] @ x[lag:]) / den for lag in (1, 2, 3)]
        assert autocorr[2] < 1.0 / math.e
        assert autocorr[0] < 0.8  # genuinely decorrelating, not a slow drift


class TestMemberPositions:
    def test_stratified_midpoints(self):
        z = member_positions(EnsembleSpec(n_members=4, sample_length=0.01))
        assert np.allclose(z, [-0.00375, -0.00125, 0.00125, 0.00375])


def evolve_ensemble(seq, waveform, spec, sys, rho0):
    """Ensemble-averaged final state: the member mean of the coherent
    evolution, as the channel of the member propagators."""
    return ensemble_channel(ensemble_propagators(seq, sys, waveform, member_positions(spec))).apply(rho0)


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
        wf = scaled_walk(0.6, 100, seed=9)
        rho0 = code_state(rng)
        noisy = evolve_ensemble(seq, wf, spec, spin_system, rho0)
        clean = evolve_ensemble(seq, static_waveform(0.0), spec, spin_system, rho0)
        assert np.abs(noisy - clean).max() <= 1e-10

    def test_encoded_state_is_fixed_point_of_gradient_only_evolution(self, rng):
        # with the internal Hamiltonian off, gradients act as the identity on
        # the code space for every waveform
        sys = SpinSystem(nu1=0.0, nu2=0.0, j_coupling=0.0)
        spec = EnsembleSpec(n_members=32)
        wf = scaled_walk(1.0, 200, seed=4)
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
        # pulse segments with gradient active, a hard pulse and a composite
        # one: the batch and the scalar propagator both match the scipy oracle
        seq = PulseSequence((
            Delay(4e-4),
            RfPulse(5e4, 0.3, 62.4e-6),
            Delay(2e-4),
        ) + composite_90x_180y_90x(RfPulse(5e4, 1.1, 124.8e-6)))
        wf = scaled_walk(0.4, 50, seed=6)
        zs = np.array([-0.003, 0.0041])
        us = ensemble_propagators(seq, spin_system, wf, zs)
        for z, u in zip(zs, us):
            oracle = expm_oracle(seq, spin_system, wf, z)
            assert np.abs(u - oracle).max() <= 1e-10
            assert np.abs(ensemble_propagators(seq, spin_system, wf, z) - oracle).max() <= 1e-10


class TestEngineOracle:
    @property_settings
    @given(spin_systems, sequences, st.none() | waveforms,
           positions | st.lists(positions, min_size=1, max_size=4).map(np.array))
    def test_matches_expm_product(self, sys, seq, wf, z):
        u = ensemble_propagators(seq, sys, wf, z)
        assert u.shape == np.shape(z) + (4, 4)
        for zi, ui in zip(np.atleast_1d(z), u.reshape(-1, 4, 4)):
            assert np.abs(ui - expm_oracle(seq, sys, wf, zi)).max() <= 1e-10
        if wf is None:  # without a gradient every member is the noiseless single molecule
            assert all(np.array_equal(propagator(seq, sys), ui) for ui in u.reshape(-1, 4, 4))

    @property_settings
    @given(spin_systems, sequences, waveforms)
    def test_segments_keep_duration_and_gradient_area(self, sys, seq, wf):
        segments = piecewise_segments(seq, sys, wf)
        tau, total = wf.step_time, seq.duration
        area = sum(wf.values[min(k, len(wf.values) - 1)] * (min((k + 1) * tau, total) - k * tau)
                   for k in range(math.ceil(total / tau)))
        assert sum(s.duration for s in segments) == pytest.approx(seq.duration, rel=1e-12)
        assert sum(s.grad * s.duration for s in segments) == pytest.approx(area, rel=1e-9, abs=1e-15)
        evolve = [s for s in segments if s.kind == "evolve"]
        # marked commuting: really commutes; every piece of a pulse of
        # nonzero amplitude, however weak, is marked non-commuting
        assert all(commutes_with_jz(s.h) for s in evolve if s.commutes)
        rf_time = sum(ev.duration for ev in seq.events if isinstance(ev, RfPulse) and ev.amplitude)
        assert sum(s.duration for s in evolve if not s.commutes) == pytest.approx(rf_time, rel=1e-12, abs=0)

    @pytest.mark.parametrize("z", [0.002, np.array([-0.001, 0.0, 0.003])])
    def test_non_unitary_segment_breaks_the_contract(self, spin_system, monkeypatch, z):
        monkeypatch.setitem(ROTATIONS, "pi_x_pair", 1.001 * ROTATIONS["pi_x_pair"])
        seq = PulseSequence((Delay(1e-4), IdealRotation("pi_x_pair"), Delay(1e-4)))
        with pytest.raises(NumericalContractError, match="unitarity"):
            ensemble_propagators(seq, spin_system, static_waveform(0.1), z)


# nothing but RF pieces under a gradient: two pulses, cut by a waveform
# whose values are all nonzero
RF_SEQUENCE = PulseSequence((RfPulse(5e4, 0.3, 62.4e-6),) + composite_90x_180y_90x(RfPulse(5e4, 1.1, 124.8e-6)))
RF_WAVEFORM = GradientWaveform(step_time=50.6e-6, values=np.array([0.2, -0.1, 0.15, -0.2, 0.05, 0.1]))


def noise_waveform(seq, grad_max):
    return scaled_walk(grad_max, math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, seed=3)


def rf_pieces(seq, sys, wf):
    """Segments of `seq` that are RF pieces under a gradient."""
    return [s for s in piecewise_segments(seq, sys, wf)
            if s.kind == "evolve" and s.grad != 0.0 and not commutes_with_jz(s.h)]


def plan(seq, sys, wf, zs):
    """(factors, widths, [(row, chain), ...]): what the engine resolves and
    plans at positions zs, before any block is evaluated; rows widest
    first."""
    row_max = np.abs(np.atleast_2d(zs)).max(axis=1, initial=0.0)
    z_max = float(row_max.max(initial=0.0))
    factors, widths = ensemble._factors(seq, sys, wf, z_max)
    return factors, widths, [(r, chain) for r, chain, _ in ensemble._chains(factors, widths, row_max, z_max)]


def terms(entries) -> list:
    """N of each fitted entry (its columns), None for an entry left as it is."""
    return [f.shape[1] if isinstance(f, np.ndarray) else None for f in entries]


def fitted(factors) -> list:
    """`terms` of the RF pieces among `factors`: None for one too wide to fit."""
    return terms(f for f in factors if isinstance(f, np.ndarray) or f[2] is not None)


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
        u = _expm_members(h, shifts, dt)
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

        # every RF piece is fitted when the factors are resolved
        zs = np.linspace(-4e-3, 3e-3, 64)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        us = ensemble_propagators(RF_SEQUENCE, spin_system, RF_WAVEFORM, zs)
        n_p = fitted(plan(RF_SEQUENCE, spin_system, RF_WAVEFORM, zs)[0])
        monkeypatch.undo()
        assert len(n_p) == len(rf_pieces(RF_SEQUENCE, spin_system, RF_WAVEFORM)) and None not in n_p
        # the residence trajectory diagonalizes each evolve segment's h, by eigh
        rho0 = code_state(rng)
        steps = list(state_trajectory(RF_SEQUENCE, spin_system, rho0))
        assert len(steps) == sum(seg.kind == "evolve" for seg in piecewise_segments(RF_SEQUENCE, spin_system))
        rho = steps[-1][2]
        oracles = [expm_oracle(RF_SEQUENCE, spin_system, RF_WAVEFORM, z) for z in zs]
        assert max(np.abs(u - o).max() for u, o in zip(us, oracles)) <= 1e-10
        free = expm_oracle(RF_SEQUENCE, spin_system, None, 0.0)
        assert np.abs(rho - free @ rho0 @ free.conj().T).max() <= 1e-10

    def test_composite_y90_at_1000_khz_per_cm(self, spin_system):
        seq = nominal_composite_y90(spin_system)
        wf = noise_waveform(seq, khz_per_cm_to_t_per_m(1000.0))
        zs = member_positions(EnsembleSpec(n_members=5))
        for z, u in zip(zs, ensemble_propagators(seq, spin_system, wf, zs)):
            assert np.abs(u - expm_oracle(seq, spin_system, wf, z)).max() <= 1e-10
        # the first 16 events (18 fused segments) at the two outermost
        # members against the 30-digit oracle, so that the bound measures
        # the engine's error rather than expm_oracle's
        prefix = PulseSequence(seq.events[:16])
        segments = piecewise_segments(prefix, spin_system, wf)
        assert sum(not commutes_with_jz(s.h) and s.grad != 0.0 for s in segments) >= 10
        zs = zs[[0, -1]]
        for z, u in zip(zs, ensemble_propagators(prefix, spin_system, wf, zs)):
            assert np.abs(u - segments_oracle_30_digits(segments, spin_system, z)).max() <= 1e-10

    def test_batches_fill_block_columns(self, spin_system, monkeypatch):
        # the spy stays, as no plan output shows a batch's columns: fits batch
        # BLOCK // n_p pieces of one n_p per Taylor call, whose columns share
        # one squaring count, each still its own exponential; here many pieces
        # are too wide to fit, and each takes one call at the 100 members
        seq = nominal_composite_y90(spin_system)
        wf = noise_waveform(seq, khz_per_cm_to_t_per_m(1000.0))
        zs = member_positions(EnsembleSpec(n_members=100))
        calls, expm = [], ensemble._expm_members

        def spy(h, shifts, dt, *args):
            calls.append((np.broadcast_to(h.reshape(4, 4, -1), (4, 4, shifts.size)).copy(), shifts,
                          np.broadcast_to(dt, shifts.shape), expm(h, shifts, dt, *args)))
            return calls[-1][-1]
        monkeypatch.setattr(ensemble, "_expm_members", spy)
        us = ensemble_propagators(seq, spin_system, wf, zs)
        monkeypatch.undo()
        assert all(shifts.size <= BLOCK for _, shifts, _, _ in calls)
        assert any(shifts.size > zs.size for _, shifts, _, _ in calls)
        jz_half = np.diag(ops.SPIN_PROJECTION)
        for h, shifts, dt, u in calls:
            exponent = -1j * (h.transpose(2, 0, 1) + shifts[:, None, None] * jz_half) * dt[:, None, None]
            assert np.abs(u.transpose(2, 0, 1) - scipy.linalg.expm(exponent)).max() <= 1e-12
        # expm_oracle's own pieces are off by about 5e-11 at this gradient
        for i in (0, 50, 99):
            assert np.abs(us[i] - expm_oracle(seq, spin_system, wf, zs[i])).max() <= 1e-10

    @pytest.mark.parametrize("grad, match", [
        (khz_per_cm_to_t_per_m(1e7), "unitarity"),  # squaring amplifies round-off past 1e-10
        (1e299, "squarings"),                       # exponent 1-norm beyond theta 2^53
        (1e305, "not finite"),                      # gamma g overflows to inf
    ], ids=["1e7_khz_per_cm", "1e299_t_per_m", "1e305_t_per_m"])
    def test_absurd_gradient_breaks_the_contract(self, spin_system, grad, match):
        seq = nominal_composite_y90(spin_system)
        wf = noise_waveform(seq, grad)
        with pytest.raises(NumericalContractError, match=match):
            ensemble_propagators(seq, spin_system, wf, member_positions(EnsembleSpec(n_members=101)))


class TestChebyshevPieces:
    @property_settings
    @given(hermitians, st.floats(0.0, 20.0), st.floats(-4.0, 1.5), st.sampled_from([-1.0, 1.0]),
           st.integers(-3, 3), st.integers(0, 2 ** 32 - 1))
    def test_members_match_scipy_expm(self, h, angle, log_w, sign, offset, seed):
        # one RF piece of half-width about 10^log_w rad, at about as many
        # members as the term count N it needs: whatever the member count, it
        # is fitted when N < RUN_TERMS, and otherwise takes its own Taylor
        # exponential; either way the chain's one entry is the factor itself
        sys, dt, z_max = SpinSystem(), 30e-6, 5e-3
        segment = Segment("evolve", dt, h * (angle / dt), sign * 10.0 ** log_w / (sys.gamma * z_max * dt))
        n_terms = int(np.searchsorted(_half_widths(), abs(sys.gamma * segment.grad) * z_max * dt)) + 1
        zs = np.random.default_rng(seed).uniform(-z_max, z_max, max(2, n_terms + offset))
        zs[0] = z_max
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "piecewise_segments", lambda *args: [segment])
            us = ensemble_propagators(None, sys, None, zs)
            factors, _, ((_, chain),) = plan(None, sys, None, zs)
        assert fitted(factors) == [n_terms if n_terms < RUN_TERMS else None]
        assert len(chain) == 1 and chain[0] is factors[0]
        jz_half = np.diag(ops.SPIN_PROJECTION)
        for z, u in zip(zs, us):
            exact = scipy.linalg.expm(-1j * (segment.h + sys.gamma * z * segment.grad * jz_half) * dt)
            assert np.abs(u - exact).max() <= 1e-12

    def test_composite_y90_at_100_khz_per_cm(self, spin_system):
        # the shipped sweep's strongest point: every RF piece of the prefix
        # is fitted, some run holds several; against the 30-digit oracle
        seq = nominal_composite_y90(spin_system)
        wf = noise_waveform(seq, khz_per_cm_to_t_per_m(100.0))
        prefix = PulseSequence(seq.events[:16])
        zs = member_positions(EnsembleSpec(n_members=101))
        us = ensemble_propagators(prefix, spin_system, wf, zs)
        factors, widths, _ = plan(prefix, spin_system, wf, zs)
        assert None not in fitted(factors) and len(fitted(factors)) == len(rf_pieces(prefix, spin_system, wf)) >= 10
        assert any(len(fitted(factors[i:j])) > 1 for i, j, _ in ensemble._group_runs(widths))
        segments = piecewise_segments(prefix, spin_system, wf)
        for i in (0, 50, 100):
            assert np.abs(us[i] - segments_oracle_30_digits(segments, spin_system, zs[i])).max() <= 1e-12

    def test_term_count_table_is_increasing(self):
        assert _half_widths().shape == (RUN_TERMS,)
        assert np.all(np.diff(_half_widths()) > 0)


class TestRuns:
    @pytest.mark.parametrize("wf", [None, RF_WAVEFORM], ids=["no_waveform", "gradient"])
    def test_empty_sequence_is_the_identity(self, spin_system, wf):
        # an empty chain multiplies out to the identity, exactly, at any z
        seq = PulseSequence(())
        zs = np.multiply.outer([1.0, 0.5, 0.0], np.linspace(-5e-3, 5e-3, 5))
        assert np.array_equal(propagator(seq, spin_system), np.eye(4))
        assert np.array_equal(ensemble_propagators(seq, spin_system, wf, 1e-3), np.eye(4))
        assert np.array_equal(ensemble_propagators(seq, spin_system, wf, zs), np.broadcast_to(np.eye(4), zs.shape + (4, 4)))

    @property_settings
    @given(spin_systems, sequences, waveforms, st.floats(0.0, 3.0),
           st.sampled_from([RUN_TERMS + 1, RUN_TERMS - 1, 5, 2]), st.integers(0, 2 ** 32 - 1))
    def test_chains_match_expm_oracle(self, sys, seq, wf, log_scale, n, seed):
        # gradients up to 1000x the strategy's 0.2 T/m, so that chains split
        # into several runs and some factors stay unfitted
        wf = GradientWaveform(wf.step_time, wf.values * 10.0 ** log_scale)
        zs = np.random.default_rng(seed).uniform(-5e-3, 5e-3, n)
        us = ensemble_propagators(seq, sys, wf, zs)
        factors, widths, ((_, chain),) = plan(seq, sys, wf, zs)
        runs = ensemble._group_runs(widths)
        assert len(widths) == len(factors) == len(piecewise_segments(seq, sys, wf))
        assert [start for start, _, _ in runs] + [len(widths)] == [0] + [stop for _, stop, _ in runs]
        for start, stop, n_terms in runs:
            if n_terms is None:
                assert stop == start + 1 and ensemble._term_count(widths[start]) >= RUN_TERMS
            else:
                assert n_terms == ensemble._term_count(sum(widths[start:stop])) < RUN_TERMS
        assert terms(chain) == [n_terms for _, _, n_terms in runs]
        for i in (0, n // 2, n - 1):
            assert np.abs(us[i] - expm_oracle(seq, sys, wf, zs[i])).max() <= 1e-10

    @property_settings
    @given(spin_systems, sequences, st.none() | waveforms.map(lambda wf: GradientWaveform(wf.step_time, 0 * wf.values)))
    def test_zero_gradient_is_one_run_of_one_term(self, sys, seq, wf):
        zs = np.linspace(-5e-3, 5e-3, 7)
        us = ensemble_propagators(seq, sys, wf, zs)
        factors, _, chains = plan(seq, sys, wf, zs)
        assert len(factors) == len(piecewise_segments(seq, sys, wf)) and fitted(factors) == []
        assert [terms(chain) for _, chain in chains] == [[1]]
        oracle = expm_oracle(seq, sys, wf, 0.0)
        assert max(np.abs(u - oracle).max() for u in us) <= 1e-10

    def test_pieces_are_fitted_at_their_own_term_count(self, spin_system):
        # in composite_y90 the 630 us delays set a run's N; each RF piece is
        # fitted alone at the n_p < N terms its own half-width needs, so no
        # exponential is taken at the run's N points
        seq = nominal_composite_y90(spin_system)
        wf = noise_waveform(seq, khz_per_cm_to_t_per_m(1.0))
        factors, widths, _ = plan(seq, spin_system, wf, member_positions(EnsembleSpec(n_members=1001)))
        pieces = [(i, n_terms) for start, stop, n_terms in ensemble._group_runs(widths)
                  for i in range(start, stop) if isinstance(factors[i], np.ndarray)]
        assert len(pieces) == len(rf_pieces(seq, spin_system, wf)) > 100
        for i, n_terms in pieces:
            assert factors[i].shape[1] == ensemble._term_count(widths[i]) < n_terms
        # a third of the columns of each piece at its run's N points
        assert 3 * sum(factors[i].shape[1] for i, _ in pieces) <= sum(n for _, n in pieces)

    def test_mixed_run_matches_expm_oracle(self, spin_system):
        # long delays and short pulses in one run: N from the delays, each
        # n_p from its pulse, and the chain is that one fitted run
        pulse = RfPulse(math.pi / 2 / 62.4e-6, 0.4, 62.4e-6)
        seq = PulseSequence((Delay(630e-6), pulse, Delay(630e-6), IdealRotation("pi_x_pair"),
                             Delay(630e-6), RfPulse(pulse.amplitude, 1.9, 124.8e-6), Delay(315e-6), pulse))
        wf = static_waveform(3.6e-3)
        zs = np.linspace(-5e-3, 5e-3, 101)
        us = ensemble_propagators(seq, spin_system, wf, zs)
        factors, widths, ((_, chain),) = plan(seq, spin_system, wf, zs)
        ((_, _, n_terms),) = ensemble._group_runs(widths)
        n_p = fitted(factors)
        assert len(n_p) == len(rf_pieces(seq, spin_system, wf)) == 3 and None not in n_p
        assert max(n_p) < n_terms / 2 < RUN_TERMS
        assert terms(chain) == [n_terms]
        for z, u in zip(zs, us):
            assert np.abs(u - expm_oracle(seq, spin_system, wf, z)).max() <= 1e-12


class TestNonFinitePositions:
    SEQ = PulseSequence(RF_SEQUENCE.events + (Delay(1e-4), IdealRotation("pi_x_pair"), Delay(2e-5)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("wf", [None, static_waveform(0.0)], ids=["no_waveform", "zero_waveform"])
    def test_without_gradient_is_the_propagator_at_zero(self, spin_system, bad, wf):
        assert ensemble_propagators(self.SEQ, spin_system, wf, bad).tobytes() == \
            ensemble_propagators(self.SEQ, spin_system, wf, 0.0).tobytes()
        # several members: the one run of one term, read with T_0 alone
        zs = np.array([-3e-3, bad, 0.0, 2e-3, bad])
        assert ensemble_propagators(self.SEQ, spin_system, wf, zs).tobytes() == \
            ensemble_propagators(self.SEQ, spin_system, wf, np.zeros(zs.size)).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("n", [1, 5, BLOCK + 1])
    def test_under_a_gradient_breaks_the_contract(self, spin_system, bad, n):
        zs = np.linspace(-5e-3, 5e-3, n)
        zs[n // 2] = bad
        with pytest.raises(NumericalContractError, match="not finite"):
            ensemble_propagators(self.SEQ, spin_system, RF_WAVEFORM, zs if n > 1 else bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("wf", [None, static_waveform(0.0)], ids=["no_waveform", "zero_waveform"])
    def test_rows_without_gradient_are_the_propagator_at_zero(self, spin_system, bad, wf):
        # rows of several widths, the widest and the narrowest holding bad
        zs = np.array([[-3e-3, bad, 0.0], [1e-3, 2e-3, -1e-3], [0.0, 0.0, 0.0], [bad, 0.0, bad]])
        assert ensemble_propagators(self.SEQ, spin_system, wf, zs).tobytes() == \
            ensemble_propagators(self.SEQ, spin_system, wf, np.zeros(zs.shape)).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_any_row_under_a_gradient_breaks_the_contract(self, spin_system, bad, row):
        zs = np.multiply.outer([1.0, 0.5, 0.0], np.linspace(-5e-3, 5e-3, 5))
        zs[row, 1] = bad
        with pytest.raises(NumericalContractError, match="not finite"):
            ensemble_propagators(self.SEQ, spin_system, RF_WAVEFORM, zs)


def runs_between_rotations(items, is_rotation) -> list:
    runs = [[]]
    for item in items:
        if is_rotation(item):
            runs.append([])
        else:
            runs[-1].append(item)
    return runs


def cut_then_fuse(seq, sys, wf) -> list:
    """Reference for piecewise_segments in two passes, as [kind, drive,
    h or u, duration, grad, sum of g dt]: every delay and pulse cut at each
    step of the same waveform clock up to its last value, past which the
    rest of an event is one cut; then each run of cuts of one drive (amplitude,
    phase), or of the internal Hamiltonian (drive None: a delay or a pulse
    of amplitude 0), merged, at the mean gradient for the internal
    Hamiltonian and otherwise while the gradient value stays the same."""
    h_int = internal_hamiltonian(sys)
    built = {None: h_int}  # one Hamiltonian per drive, as the walk builds them
    cuts, k, t_in, last = [], 0, 0.0, len(wf.values) - 1
    for ev in seq.events:
        if isinstance(ev, IdealRotation):
            cuts.append(("rotate", None, ev.unitary, 0.0, 0.0))
            continue
        drive = (ev.amplitude, ev.phase) if isinstance(ev, RfPulse) and ev.amplitude else None
        h = built.setdefault(drive, h_int + rf_hamiltonian(*drive) if drive else h_int)
        rem = ev.duration
        while rem:
            step = min(rem, wf.step_time - t_in) if k < last else rem
            step = rem if rem - step <= 1e-12 else step
            cuts.append(("evolve", drive, h, step, float(wf.values[min(k, last)])))
            rem, t_in = rem - step, t_in + step
            if t_in >= wf.step_time - 1e-12:
                k, t_in = k + 1, 0.0
    fused = []
    for kind, drive, m, dt, g in cuts:
        prev = fused[-1] if fused else None
        if (kind == "evolve" and prev and prev[0] == "evolve" and prev[1] == drive
                and (drive is None or prev[4] == g)):
            area, duration = prev[5] + g * dt, prev[3] + dt
            fused[-1] = ["evolve", drive, m, duration, area / duration if drive is None else g, area]
        else:
            fused.append([kind, drive, m, dt, g, g * dt])
    return fused


class TestFusion:
    @property_settings
    @given(spin_systems, sequences, waveforms)
    def test_matches_cut_then_fuse(self, sys, seq, wf):
        # the one walk makes the same sums in the same order: equal bits
        got = [(s.kind, (s.u if s.kind == "rotate" else s.h).tobytes(), s.duration, s.grad, s.commutes)
               for s in piecewise_segments(seq, sys, wf)]
        assert got == [(kind, m.tobytes(), dt, g, kind == "evolve" and drive is None)
                       for kind, drive, m, dt, g, _ in cut_then_fuse(seq, sys, wf)]

    @pytest.mark.parametrize("k", range(-300, 7))
    def test_commute_verdict_is_scale_free(self, spin_system, k):
        # the verdict follows the event kind, not a tolerance: a pulse of any
        # nonzero amplitude stays apart as RF pieces under each gradient
        # step, and the delays around it fuse, each into one segment
        wf = GradientWaveform(step_time=20e-6, values=np.array([0.1, -0.05, 0.2, 0.03]))
        seq = PulseSequence((Delay(30e-6), RfPulse(10.0 ** k, 0.3, 20e-6), Delay(30e-6)))
        segments = piecewise_segments(seq, spin_system, wf)
        assert [(s.commutes, s.grad) for s in segments] == [
            (True, pytest.approx((0.1 * 20 - 0.05 * 10) / 30, rel=1e-12)), (False, -0.05), (False, 0.2),
            (True, pytest.approx((0.2 * 10 + 0.03 * 20) / 30, rel=1e-12))]
        assert [s.commutes for s in piecewise_segments(seq, spin_system)] == [True, False, True]

    def test_feeble_pulse_propagator_matches_oracle(self, spin_system):
        wf = GradientWaveform(step_time=20e-6, values=np.array([0.1, -0.05, 0.2, 0.03]))
        seq = PulseSequence((Delay(30e-6), RfPulse(1e-200, 0.3, 20e-6), Delay(30e-6)))
        zs = np.array([-0.004, 0.001, 0.005])
        for z, u in zip(zs, ensemble_propagators(seq, spin_system, wf, zs)):
            assert np.abs(u - expm_oracle(seq, spin_system, wf, z)).max() <= 1e-10

    def test_zero_amplitude_pulse_fuses_with_delays(self, spin_system):
        wf = GradientWaveform(step_time=20e-6, values=np.array([0.1, -0.05, 0.2, 0.03]))
        seq = PulseSequence((Delay(30e-6), RfPulse(0.0, 0.3, 20e-6), Delay(30e-6)))
        [seg] = piecewise_segments(seq, spin_system, wf)
        assert seg.commutes
        assert seg.h.tobytes() == internal_hamiltonian(spin_system).tobytes()
        assert seg.duration == pytest.approx(80e-6, rel=1e-12)
        assert seg.grad * seg.duration == pytest.approx((0.1 - 0.05 + 0.2 + 0.03) * 20e-6, rel=1e-12)

    def test_long_piece_past_the_waveform_is_one_cut(self):
        # past the last value the gradient is constant: a delay of 1e13 s
        # is one cut, not 2e17 waveform steps (run apart, so that a walk
        # that steps on fails by its timeout rather than hanging)
        code = ("import numpy as np\n"
                "from dfsim import SpinSystem\n"
                "from dfsim.ensemble import GradientWaveform\n"
                "from dfsim.pulses import Delay, PulseSequence, piecewise_segments\n"
                "segs = piecewise_segments(PulseSequence((Delay(1e13),)), SpinSystem(),"
                " GradientWaveform(50.6e-6, np.zeros(3)))\n"
                "print(len(segs), repr(segs[0].duration))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "10000000000000.0"]

    def test_pulse_after_the_waveform_is_one_segment(self, spin_system):
        # the waveform ends at 151.8 us, within the delay: the pulse is one
        # cut of its whole duration, not a sum of 50.6 us steps
        wf = GradientWaveform(step_time=50.6e-6, values=np.array([0.1, -0.05, 0.2]))
        seq = PulseSequence((Delay(200e-6), RfPulse(1e5, 0.0, 10.0)))
        _, pulse = piecewise_segments(seq, spin_system, wf)
        assert (pulse.commutes, pulse.grad, pulse.duration) == (False, 0.2, 10.0)

    @property_settings
    @given(spin_systems, st.integers(1, 5000).map(lambda k: k * 1e-6), waveforms)
    def test_hold_fuses_to_one_segment(self, sys, t, wf):
        fused = piecewise_segments(PulseSequence((Delay(t),)), sys, wf)
        assert len(fused) == 1
        assert fused[0].duration == pytest.approx(t, rel=1e-12)

    def test_rf_pieces_under_distinct_gradients_stay_apart(self, spin_system):
        wf = GradientWaveform(step_time=20e-6, values=np.array([0.1, -0.05, 0.2, 0.03, -0.15, 0.07]))
        seq = PulseSequence((RfPulse(5e4, 0.3, 100e-6), RfPulse(5e4, 0.3, 20e-6)))
        segments = piecewise_segments(seq, spin_system, wf)
        assert [(s.duration, s.grad) for s in segments] == [(pytest.approx(20e-6, rel=1e-12), g) for g in wf.values]

    def test_rf_pieces_without_gradient_merge(self, spin_system):
        wf = GradientWaveform(step_time=20e-6, values=np.zeros(6))
        seq = PulseSequence((RfPulse(5e4, 0.3, 100e-6), RfPulse(5e4, 0.3, 20e-6)))
        fused = piecewise_segments(seq, spin_system, wf)
        assert [(s.duration, s.grad) for s in fused] == [(pytest.approx(120e-6, rel=1e-12), 0.0)]

    @property_settings
    @given(spin_systems, sequences, st.none() | waveforms)
    def test_rotations_always_split_runs(self, sys, seq, wf):
        segments = piecewise_segments(seq, sys, wf)
        assert [s.u.tobytes() for s in segments if s.kind == "rotate"] == [
            ev.unitary.tobytes() for ev in seq.events if isinstance(ev, IdealRotation)]
        runs = runs_between_rotations(segments, lambda s: s.kind == "rotate")
        event_runs = runs_between_rotations(seq.events, lambda ev: isinstance(ev, IdealRotation))
        assert len(runs) == len(event_runs)
        for run, events in zip(runs, event_runs):
            assert bool(run) == bool(events)
            assert sum(s.duration for s in run) == pytest.approx(sum(ev.duration for ev in events), rel=1e-12)


class TestGradientDiffusionEcho:
    def test_no_diffusion_is_coherent(self, spin_system, rng):
        spec = EnsembleSpec(n_members=100, diffusion_d=0.0)
        rho0 = np.outer(*(lambda k: (k, k.conj()))(random_ket(rng, 4)))
        out = gradient_diffusion_echo(0.6, 745e-6, 36e-3, spec, spin_system, rho0, seed=1)
        u = ops.expm_hermitian(internal_hamiltonian(spin_system), 2 * 745e-6 + 36e-3)
        assert np.abs(out - u @ rho0 @ u.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n_members", [100, 1000, 10000])
    def test_decay_matches_gaussian_average(self, spin_system, n_members):
        # oracle: <exp(i m phi)> over Gaussian displacements
        # = exp(-D (gamma g m delta)^2 Delta), so the member mean tends to
        # the exact channel the memory experiment reads
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
        assert np.abs(out - collective_dephasing(rate).apply(u @ rho0 @ u.conj().T)).max() <= tol

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
        from dfsim.ensemble import diffusion_phase_kicks
        grad, delta, big_delta = 0.05, 745e-6, 36.275e-3
        spec = EnsembleSpec(n_members=20000, diffusion_d=2e-9)
        strength = spec.diffusion_d * (spin_system.gamma * grad * delta) ** 2 * big_delta
        kicks = diffusion_phase_kicks(grad, delta, big_delta, spec, spin_system, seed=8)
        s_mc = ensemble_channel(kicks).superoperator()
        s_analytic = collective_dephasing(strength).superoperator()
        assert np.abs(s_mc - s_analytic).max() <= 3.0 / np.sqrt(spec.n_members)


class TestWeakNoise:
    """The calibrated composite y(pi/2) under the seed-40 unit walk at
    1 kHz/cm scaled by eps, as noisy_gate runs it: default system, 1001
    members. The members sit symmetrically about z = 0, so odd orders in
    eps cancel in their mean and the loss is f0 - fe(eps) = a eps^2 + O(eps^4)."""

    @pytest.fixture(scope="class")
    def fe(self):
        sys = SpinSystem()
        seq = composite_y90(sys)
        zs = member_positions(EnsembleSpec(n_members=1001))
        shape = random_walk_waveform(int(math.ceil(seq.duration / DEFAULT_STEP_TIME)) + 1, 40).values
        grad = khz_per_cm_to_t_per_m(1.0, sys.gamma) * shape
        target = ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)

        def fe(eps):
            return float(gate_fidelities(seq, sys, target, GradientWaveform(DEFAULT_STEP_TIME, eps * grad), zs).mean())
        return fe

    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 1.0])
    def test_fidelity_is_even_in_the_noise(self, fe, eps):
        assert abs(fe(eps) - fe(-eps)) <= 1e-13

    def test_loss_is_quadratic_in_the_noise(self, fe):
        f0 = fe(0.0)
        a1, a2 = ((f0 - fe(eps)) / eps ** 2 for eps in (1e-3, 2e-3))
        assert abs(a2 - a1) <= 1e-4 * a1


class TestContinuumMean:
    """The shipped 1001 midpoint members against the exact average over the
    whole sample, for the calibrated composite y(pi/2) on the default system
    under the unit walk of each seed, scaled as noisy_gate scales it. A
    member's F_e is an entire function of z, so the kernel at the Chebyshev
    points of [-L/2, L/2] gives the continuum mean (degree 512, checked
    against 1024). The midpoint rule's error grows with the strength:
    measured at most 2.6e-7 up to 2 kHz/cm (seed 42 at 2 kHz/cm) and
    2.2e-6 up to 20 kHz/cm (seed 1000 at 20 kHz/cm)."""

    SYS = SpinSystem()
    TARGET = ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)
    SPEC = EnsembleSpec()

    @pytest.fixture(scope="class")
    def seq(self):
        return composite_y90(self.SYS)

    @pytest.mark.parametrize("seed", [42, 1000, 7])
    @pytest.mark.parametrize("khz", [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_members_are_within_bound_of_the_continuum(self, seq, seed, khz):
        walk = random_walk_waveform(math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, seed)
        g = khz_per_cm_to_t_per_m(khz, self.SYS.gamma)

        def fe(z):
            return gate_fidelities(seq, self.SYS, self.TARGET, walk, g * z)
        exact, check = (continuum_mean(fe, self.SPEC.sample_length / 2, deg) for deg in (512, 1024))
        assert abs(exact - check) <= 1e-11
        members = float(fe(member_positions(self.SPEC)).mean())
        assert abs(exact - members) <= (3e-7 if khz <= 2.0 else 3e-6)


class TestScaleInvariance:
    """The gradient enters only as gamma g(t) z, so the waveform eps w at
    positions z is the waveform w at eps z, and a sample of length L under
    strength g is one of length 2L under g/2: noisy_gate's sweep points are
    one function of position. On the calibrated composite y(pi/2) under the
    1 kHz/cm walk of the drawn seed, default system."""

    SYS = SpinSystem()
    TARGET = ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)

    @pytest.fixture(scope="class")
    def seq(self):
        return composite_y90(self.SYS)

    def fe(self, seq, wf, zs):
        return float(gate_fidelities(seq, self.SYS, self.TARGET, wf, zs).mean())

    def walk(self, seq, seed):
        return scaled_walk(khz_per_cm_to_t_per_m(1.0), math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, seed)

    @settings(property_settings, max_examples=25)
    @given(st.floats(-2.0, 2.0), st.integers(0, 2 ** 32 - 1), st.integers(2, 300))
    def test_scaled_waveform_is_scaled_positions(self, seq, log_eps, seed, n):
        eps, zs, w = 10.0 ** log_eps, member_positions(EnsembleSpec(n_members=n)), self.walk(seq, seed)
        assert abs(self.fe(seq, GradientWaveform(w.step_time, eps * w.values), zs) - self.fe(seq, w, eps * zs)) <= 1e-12

    @settings(property_settings, max_examples=25)
    @given(st.floats(-2.0, 2.0), st.integers(0, 2 ** 32 - 1), st.integers(2, 300))
    def test_double_length_at_half_strength(self, seq, log_eps, seed, n):
        eps, w = 10.0 ** log_eps, self.walk(seq, seed)
        a = self.fe(seq, GradientWaveform(w.step_time, eps * w.values), member_positions(EnsembleSpec(n_members=n)))
        b = self.fe(seq, GradientWaveform(w.step_time, eps / 2 * w.values),
                    member_positions(EnsembleSpec(n_members=n, sample_length=0.02)))
        assert abs(a - b) <= 1e-12


class TestRows:
    """Positions of shape (P, n): one row per sweep point of one unit walk."""

    def test_one_row_is_the_one_dimensional_call(self, spin_system):
        seq = nominal_composite_y90(spin_system)
        wf, zs = noise_waveform(seq, khz_per_cm_to_t_per_m(1.0)), member_positions(EnsembleSpec(n_members=101))
        us = ensemble_propagators(seq, spin_system, wf, zs[None])
        assert us.shape == (1, 101, 4, 4)
        assert us.tobytes() == ensemble_propagators(seq, spin_system, wf, zs).tobytes()

    def test_runs_are_fitted_once_at_the_widest_row(self):
        # the shipped sweep's gate (seed 42, 1001 members): all 141 RF pieces
        # of its 206 factors are fitted at the 100 kHz/cm row, in 3604
        # exponential columns; no chain, widest first, holds an unfitted
        # piece, so narrower rows refit with products alone, into the README's
        # chain lengths; every row agrees with that row alone (4.6e-13 at most)
        sys = SpinSystem()
        seq = composite_y90(sys)
        khz = [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
        zs = np.multiply.outer([khz_per_cm_to_t_per_m(x) for x in khz], member_positions(EnsembleSpec()))
        wf = random_walk_waveform(math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, 42)
        us = ensemble_propagators(seq, sys, wf, zs)
        factors, _, chains = plan(seq, sys, wf, zs)
        n_p = fitted(factors)
        assert (len(factors), len(n_p), sum(n_p)) == (206, 141, 3604)
        assert [r for r, _ in chains] == list(range(10, -1, -1))
        assert [len(chain) for _, chain in chains] == [113, 84, 40, 20, 10, 4, 2, 1, 1, 1, 1]
        assert all(None not in fitted(chain) for _, chain in chains)
        for row, u in zip(zs, us):
            assert np.abs(u - ensemble_propagators(seq, sys, wf, row)).max() <= 1e-12

    def test_rows_of_a_long_sweep_are_their_rows_alone(self):
        # 200 distinct widths: refits nest at most 1 + log2 of the widest
        # chain's length deep, so a row's round-off does not build up with
        # the number of wider rows (refits of the previous row's chain
        # measured 2.0e-12 here)
        sys = SpinSystem()
        seq = composite_y90(sys)
        khz = np.geomspace(100.0, 1.0, 200)
        zs = np.multiply.outer([khz_per_cm_to_t_per_m(x) for x in khz], member_positions(EnsembleSpec(n_members=11)))
        wf = random_walk_waveform(math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, 42)
        us = ensemble_propagators(seq, sys, wf, zs)
        for i in [*range(0, 200, 10), 199]:
            assert np.abs(us[i] - ensemble_propagators(seq, sys, wf, zs[i])).max() <= 1e-12

    @settings(property_settings, max_examples=20)
    @given(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0, 30.0, 100.0]), min_size=1, max_size=5),
           st.integers(2, 300), st.integers(0, 2 ** 32 - 1))
    def test_each_row_is_its_row_alone(self, scales, n, seed):
        # rows of any widths, 0 and repeated widths among them, in any order
        sys = SpinSystem()
        seq = nominal_composite_y90(sys)
        wf = scaled_walk(khz_per_cm_to_t_per_m(1.0), math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, seed)
        zs = np.multiply.outer(scales, member_positions(EnsembleSpec(n_members=n)))
        for row, u in zip(zs, ensemble_propagators(seq, sys, wf, zs)):
            assert np.abs(u - ensemble_propagators(seq, sys, wf, row)).max() <= 1e-12

    @property_settings
    @given(spin_systems, st.floats(1e-6, 1e-2), st.floats(-1e6, 1e6), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
    def test_member_phases_act_as_the_full_product(self, sys, dt, rate, n, seed):
        # a wide delay turns rows 0 and 3 and applies its shared zero-quantum
        # block to rows 1-2, as the member product with u0 times its phases
        rng = np.random.default_rng(seed)
        z = rng.uniform(-5e-3, 5e-3, n)
        q = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))[0].transpose(1, 2, 0)
        fitted = np.concatenate([q.real.reshape(16, n), q.imag.reshape(16, n)])  # read with the identity basis
        u0 = ops.expm_hermitian(internal_hamiltonian(sys), dt)[:, :, None]
        phases = np.exp(-1j * rate * np.multiply.outer(ops.SPIN_PROJECTION, z))
        u = ensemble._multiply_out([fitted, (u0, rate, None)], z, np.eye(n))
        assert np.abs(u - ensemble._matmul(u0 * phases, q)).max() <= 1e-15

    def test_a_run_of_one_rf_piece_is_its_fit(self, spin_system):
        # the piece's own fit, at n_p = N terms, is the run's coefficients,
        # with no second product (and DCT-II) at the same N points
        seq = PulseSequence((RfPulse(math.pi / 2 / 62.4e-6, 0.4, 62.4e-6),))
        wf, zs = static_waveform(5e-3), np.linspace(-5e-3, 5e-3, 101)  # w = 0.42 rad
        us = ensemble_propagators(seq, spin_system, wf, zs)
        factors, _, ((_, chain),) = plan(seq, spin_system, wf, zs)
        assert len(fitted(factors)) == 1 and None not in fitted(factors)
        assert len(chain) == 1 and chain[0] is factors[0]
        for z, u in zip(zs, us):
            assert np.abs(u - expm_oracle(seq, spin_system, wf, z)).max() <= 1e-12


class TestReduce:
    """`reduce` maps each block's checked propagators to member values as
    the block is made; the call returns those in the shape of z."""

    SYS = SpinSystem()
    TARGET = ops.expm_hermitian(ops.PAULI["y"], math.pi / 4)

    def spy(self, seen):
        """member_gate_fidelities against TARGET, recording each block's
        member count."""
        return lambda u: seen.append(len(u)) or member_gate_fidelities(u, self.TARGET)

    # rows of 300 members (two blocks each) at scales 1, 0, 0.3 and 1: a
    # zero row and two rows of equal width; one such row; one position; none
    @pytest.mark.parametrize("z", [np.multiply.outer([1.0, 0.0, 0.3, 1.0], np.linspace(-5e-3, 5e-3, 300)),
                                   np.linspace(-5e-3, 5e-3, 300), 3e-3, np.empty((2, 0))])
    def test_equals_reduce_of_the_propagators(self, z):
        seq = nominal_composite_y90(self.SYS)
        wf = scaled_walk(khz_per_cm_to_t_per_m(10.0), math.ceil(seq.duration / DEFAULT_STEP_TIME) + 1, 5)
        seen = []
        got = ensemble_propagators(seq, self.SYS, wf, z, reduce=self.spy(seen))
        want = member_gate_fidelities(ensemble_propagators(seq, self.SYS, wf, z), self.TARGET)
        assert got.shape == np.shape(z) and got.tobytes() == want.tobytes()
        assert sum(seen) == np.size(z) and all(m <= BLOCK for m in seen)

    @pytest.mark.parametrize("z", [0.002, np.array([-0.001, 0.0, 0.003])])
    def test_non_unitary_segment_breaks_the_contract(self, spin_system, monkeypatch, z):
        # as without reduce, and reduce never sees the failing block
        monkeypatch.setitem(ROTATIONS, "pi_x_pair", 1.001 * ROTATIONS["pi_x_pair"])
        seq = PulseSequence((Delay(1e-4), IdealRotation("pi_x_pair"), Delay(1e-4)))
        seen = []
        with pytest.raises(NumericalContractError, match="unitarity"):
            ensemble_propagators(seq, spin_system, static_waveform(0.1), z, reduce=self.spy(seen))
        assert seen == []

    def test_sees_only_the_blocks_checked_before_a_failing_one(self, spin_system, monkeypatch):
        # the second of three blocks is made non-unitary: reduce sees the
        # first, and the call raises before the third is made
        seq, zs = nominal_composite_y90(spin_system), np.linspace(-5e-3, 5e-3, 2 * BLOCK + 1)
        multiply, blocks = ensemble._multiply_out, []

        def corrupt(chain, z, basis):
            u = multiply(chain, z, basis)
            if np.shares_memory(z, zs):  # a block, not a fit
                blocks.append(z.size)
                if len(blocks) == 2:
                    u *= 1.001
            return u
        monkeypatch.setattr(ensemble, "_multiply_out", corrupt)
        seen = []
        with pytest.raises(NumericalContractError, match="unitarity"):
            ensemble_propagators(seq, spin_system, static_waveform(0.1), zs, reduce=self.spy(seen))
        assert seen == [BLOCK] and blocks == [BLOCK, BLOCK]
