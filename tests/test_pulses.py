import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given

from dfsim import operators as ops
from dfsim.ensemble import GradientWaveform
from dfsim.errors import NumericalContractError
from dfsim.hamiltonians import SpinSystem, internal_hamiltonian, logical_decompose
from dfsim.metrics import member_gate_fidelities
from dfsim.pulses import (
    Delay,
    IdealRotation,
    PulseSequence,
    RfPulse,
    average_hamiltonian,
    build_sequence,
    composite_y90,
    dfs_residence_fraction,
    enc_x,
    enc_z,
    encoded_cp_train,
    piecewise_segments,
    propagator,
    sequence_from_text,
    sequence_to_text,
    state_trajectory,
    toggling_frames,
    xx_train,
    xy_train,
)

from conftest import property_settings, sequences


def rot_1q(axis, theta):
    return ops.expm_hermitian(ops.PAULI[axis], theta / 2)


class TestEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            Delay(0.0)
        with pytest.raises(ValueError):
            RfPulse(-1.0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            RfPulse(1.0, 0.0, 1e-5, shape="gaussian")
        with pytest.raises(ValueError):
            IdealRotation("pi_q")

    def test_nutation_angle(self):
        p = RfPulse(math.pi / 62.4e-6, 0.0, 62.4e-6)
        assert p.nutation_angle == pytest.approx(math.pi)

    def test_sequence_rejects_non_events(self):
        with pytest.raises(ValueError):
            PulseSequence(("delay",))


class TestPropagator:
    def test_delay_only_is_internal_evolution(self, spin_system):
        t = 3.3e-3
        u = propagator(PulseSequence((Delay(t),)), spin_system)
        assert np.abs(u - ops.expm_hermitian(internal_hamiltonian(spin_system), t)).max() <= 1e-12

    def test_hard_pi_pulse_without_internal_evolution(self):
        # with the internal Hamiltonian switched off the hard pi pair is
        # exactly -sx1 sx2
        sys = SpinSystem(nu1=0.0, nu2=0.0, j_coupling=0.0)
        d = 10e-6
        u = propagator(PulseSequence((RfPulse(math.pi / d, 0.0, d),)), sys)
        xx = ops.pauli_embed(1, "x") @ ops.pauli_embed(2, "x")
        assert np.abs(u + xx).max() <= 1e-10

    def test_hard_pi_pulse_short_duration_limit(self, spin_system):
        xx = ops.pauli_embed(1, "x") @ ops.pauli_embed(2, "x")
        errs = []
        for d in (10e-6, 5e-6, 2.5e-6):
            u = propagator(PulseSequence((RfPulse(math.pi / d, 0.0, d),)), spin_system)
            errs.append(np.abs(u + xx).max())
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 2e-3

    def test_xy_train_is_encoded_identity(self, spin_system):
        # idealized refocusing train: net code-block action is a pure phase
        u = propagator(xy_train(n_pulses=2, spacing=300e-6), spin_system)
        blk = ops.code_block(u)
        assert abs(abs(np.trace(blk) / 2) - 1.0) <= 1e-12

    def test_encoded_cp_matches_average_hamiltonian_in_fast_limit(self, spin_system):
        total = 1.28e-3
        hbar = average_hamiltonian(encoded_cp_train(2, total / 2), spin_system)
        errs = []
        for n in (64, 128):
            seq = encoded_cp_train(n, total / n)
            u = propagator(seq, spin_system)
            target = ops.expm_hermitian(hbar, total)
            phase = np.trace(target.conj().T @ u)
            errs.append(np.abs(u - target * phase / abs(phase)).max())
        assert errs[1] <= 0.6 * errs[0]
        assert errs[1] <= 1e-4

    def test_unitarity_across_many_segments(self, spin_system):
        seq = enc_x(2 * math.pi - 1e-9, spin_system)  # 256 cycles
        waveform = GradientWaveform(step_time=10e-6, values=np.full(40000, 0.01))
        from dfsim.pulses import piecewise_segments
        assert len(piecewise_segments(seq, spin_system, waveform)) >= 10_000
        u = propagator(seq, spin_system, waveform=waveform, z=0.003)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10


class TestTogglingFrames:
    def test_single_pair_flips_zeeman_terms(self, spin_system):
        seq = xx_train(n_pulses=2, spacing=1e-3)
        frames = toggling_frames(seq, spin_system)
        assert len(frames) == 3
        flipped = np.pi * (-spin_system.nu1 * ops.SIGMA_Z1 - spin_system.nu2 * ops.SIGMA_Z2
                           + spin_system.j_coupling * ops.DOT_12 / 2)
        assert np.abs(frames[1] - flipped).max() <= 1e-9
        assert np.abs(frames[2] - frames[0]).max() <= 1e-9

    def test_empty_sequence(self, spin_system):
        frames = toggling_frames(PulseSequence(()), spin_system)
        assert len(frames) == 1
        assert np.abs(frames[0] - internal_hamiltonian(spin_system)).max() == 0

    def test_xy_train_commutation_with_jz(self, spin_system):
        # every partial pulse product either commutes or anticommutes with Jz
        seq = xy_train(n_pulses=2, spacing=1e-3)
        u = np.eye(4, dtype=complex)
        for ev in seq.events:
            if isinstance(ev, IdealRotation):
                u = ev.unitary @ u
                comm = np.abs(u @ ops.J_Z - ops.J_Z @ u).max()
                anti = np.abs(u @ ops.J_Z + ops.J_Z @ u).max()
                assert min(comm, anti) <= 1e-12

    def test_non_cyclic_rejected(self, spin_system):
        seq = PulseSequence((Delay(1e-3), IdealRotation("pi_x_pair")))
        with pytest.raises(NumericalContractError):
            toggling_frames(seq, spin_system)

    def test_finite_pulses_rejected(self, spin_system):
        seq = PulseSequence((RfPulse(1e4, 0.0, 1e-5), RfPulse(1e4, 0.0, 1e-5)))
        with pytest.raises(ValueError):
            toggling_frames(seq, spin_system)


class TestAverageHamiltonian:
    def test_xx_train_removes_zeeman_terms(self, spin_system):
        hbar = average_hamiltonian(xx_train(2, 1e-3), spin_system)
        assert abs(np.trace(ops.SIGMA_Z1 @ hbar)) / 4 <= 1e-12
        assert abs(np.trace(ops.SIGMA_Z2 @ hbar)) / 4 <= 1e-12
        expected = np.pi * spin_system.j_coupling * ops.DOT_12 / 2
        assert np.abs(hbar - expected).max() <= 1e-9

    def test_xy_train_removes_flipflop_coupling(self, spin_system):
        hbar = average_hamiltonian(xy_train(2, 1e-3), spin_system)
        assert abs(np.trace(ops.FLIPFLOP_12 @ hbar)) / 8 <= 1e-12
        assert abs(np.trace(ops.SIGMA_Z1 @ hbar)) / 4 <= 1e-12
        assert abs(np.trace(ops.SIGMA_Z2 @ hbar)) / 4 <= 1e-12
        zz = ops.SIGMA_Z1 @ ops.SIGMA_Z2
        assert np.abs(hbar - np.pi * spin_system.j_coupling * zz / 2).max() <= 1e-9

    def test_encoded_cp_keeps_only_logical_x(self, spin_system):
        hbar = average_hamiltonian(encoded_cp_train(2, 1e-3), spin_system)
        cz, cx, cy, _ = logical_decompose(hbar, ops.logical_frame("hybrid"))
        assert abs(cz) <= 1e-9
        assert abs(cy) <= 1e-9
        assert cx == pytest.approx(np.pi * spin_system.j_coupling, rel=1e-9)


class TestBuilders:
    def test_enc_z_duration_formula(self, spin_system):
        seq = enc_z(math.pi / 2, spin_system)
        cz = abs(logical_decompose(internal_hamiltonian(spin_system),
                                   ops.logical_frame("hybrid"))[0])
        assert seq.events[0].duration == pytest.approx((2 * math.pi - math.pi / 2) / (2 * cz))

    def test_enc_z_gate_fidelity(self, spin_system):
        u = propagator(enc_z(math.pi / 2, spin_system), spin_system)
        assert member_gate_fidelities(u, rot_1q("z", math.pi / 2), encoded=True) >= 0.999

    def test_enc_z_additivity_on_code_block(self, spin_system):
        u = propagator(enc_z(1.1, spin_system), spin_system) \
            @ propagator(enc_z(0.7, spin_system), spin_system)
        u12 = propagator(enc_z(1.8, spin_system), spin_system)
        overlap = abs(np.trace(ops.code_block(u.conj().T @ u12)) / 2) ** 2
        assert overlap >= 1.0 - 1e-4

    def test_enc_x_uses_64_cycles_for_quarter_turn(self, spin_system):
        seq = enc_x(math.pi / 2, spin_system)
        pulses = [ev for ev in seq.events if isinstance(ev, RfPulse)]
        assert len(pulses) == 64
        assert all(p.duration == pytest.approx(62.4e-6) for p in pulses)
        delays = [ev for ev in seq.events if isinstance(ev, Delay)]
        assert sum(d.duration for d in delays) == pytest.approx(64 * 630e-6)

    def test_enc_x_waltz_phase_pattern(self, spin_system):
        seq = enc_x(math.pi / 2, spin_system)
        phases = [p.phase for p in seq.events if isinstance(p, RfPulse)][:8]
        assert phases == [0.0, 0.0, math.pi, math.pi] * 2

    def test_enc_x_gate_fidelity(self, spin_system):
        u = propagator(enc_x(math.pi / 2, spin_system), spin_system)
        assert member_gate_fidelities(u, rot_1q("x", math.pi / 2), encoded=True) >= 0.999

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi, 3 * math.pi / 2])
    def test_enc_x_other_angles(self, spin_system, theta):
        seq = enc_x(theta, spin_system)
        n_pulses = sum(isinstance(ev, RfPulse) for ev in seq.events)
        assert n_pulses % 4 == 0  # whole phase-cycle periods only
        u = propagator(seq, spin_system)
        assert member_gate_fidelities(u, rot_1q("x", theta), encoded=True) >= 0.999

    def test_enc_x_zero_angle_is_empty(self, spin_system):
        assert enc_x(0.0, spin_system).events == ()

    def test_enc_x_rejects_odd_phase_pattern(self, spin_system):
        with pytest.raises(ValueError, match="even"):
            enc_x(math.pi / 2, spin_system, waltz_phases=(0.0, 0.0, math.pi))

    def test_composite_y90_gate_fidelity(self, spin_system):
        u = propagator(composite_y90(spin_system), spin_system)
        assert member_gate_fidelities(u, rot_1q("y", math.pi / 2), encoded=True) >= 0.999

    @pytest.mark.parametrize("params", [{}, {"nu2": 250.0, "j_coupling": 12.0}])
    def test_calibration_matches_scalar_scan(self, params):
        # reference: one scalar fidelity at a time, s1 outer and s2 inner,
        # moving only on strict improvement
        sys = SpinSystem(**params)
        nominal = composite_y90(sys, calibrate=False)
        t_pre, t_post = nominal.events[0].duration, nominal.events[-1].duration
        h_int = internal_hamiltonian(sys)
        u_x = propagator(enc_x(math.pi / 2, sys), sys)
        target = rot_1q("y", math.pi / 2)

        def fidelity(s1, s2):
            u = ops.expm_hermitian(h_int, t_post * s2) @ u_x @ ops.expm_hermitian(h_int, t_pre * s1)
            m = ops.decoding_unitary() @ u @ ops.encoding_unitary()
            return sum(abs(np.trace(target.conj().T @ m[np.ix_((b, 2 + b), (0, 2))]) / 2) ** 2
                       for b in (0, 1))

        best = (fidelity(1.0, 1.0), 1.0, 1.0)
        centre, span = (1.0, 1.0), 0.05
        for _ in range(3):
            for s1 in np.linspace(centre[0] - span, centre[0] + span, 21):
                for s2 in np.linspace(centre[1] - span, centre[1] + span, 21):
                    f = fidelity(s1, s2)
                    if f > best[0]:
                        best = (f, float(s1), float(s2))
            centre, span = (best[1], best[2]), span / 10
        calibrated = composite_y90(sys)
        assert calibrated.events[0].duration == t_pre * best[1]
        assert calibrated.events[-1].duration == t_post * best[2]

    def test_composite_rotation_algebra(self):
        # exp(-i pi/4 sz) sx exp(+i pi/4 sz) = sy, exactly, in every frame
        for choice in ("independent", "product", "hybrid"):
            f = ops.logical_frame(choice)
            r = ops.expm_hermitian(f.sz, math.pi / 4)
            assert np.abs(r @ f.sx @ r.conj().T - f.sy).max() <= 1e-12

    def test_build_sequence_dispatch(self, spin_system):
        assert build_sequence("enc_z", spin_system, theta=1.0).label.startswith("enc_z")
        assert build_sequence("xx_train", spin_system, n_pulses=2, spacing=1e-3).cycle_length == 2
        with pytest.raises(ValueError):
            build_sequence("p9", spin_system)

    def test_composite_pulse_shape_is_more_robust_to_amplitude_error(self):
        # +10% miscalibrated inversion: the 90x-180y-90x composite holds up
        sys = SpinSystem(nu1=0.0, nu2=0.0)
        d = 62.4e-6
        hard = PulseSequence((RfPulse(1.1 * math.pi / d, 0.0, d),))
        comp = PulseSequence((RfPulse(1.1 * math.pi / d, 0.0, 2 * d,
                                      shape="composite_90x_180y_90x"),))
        p_hard = abs(propagator(hard, sys)[3, 0]) ** 2
        p_comp = abs(propagator(comp, sys)[3, 0]) ** 2
        assert p_comp > p_hard
        assert p_comp >= 0.99
        assert p_hard <= 0.96


class TestResidence:
    def test_delay_only_is_one(self, spin_system):
        _, p_zero, _ = ops.zq_projectors()
        frac = dfs_residence_fraction(PulseSequence((Delay(5e-3),)), spin_system, p_zero / 2)
        assert frac == pytest.approx(1.0, abs=1e-9)

    def test_enc_x_stays_mostly_protected(self, spin_system):
        _, p_zero, _ = ops.zq_projectors()
        frac = dfs_residence_fraction(enc_x(math.pi / 2, spin_system), spin_system, p_zero / 2)
        assert frac >= 0.90

    def test_continuous_drive_is_worse_than_pulsed(self, spin_system):
        _, p_zero, _ = ops.zq_projectors()
        pulsed = dfs_residence_fraction(enc_x(math.pi / 2, spin_system), spin_system, p_zero / 2)
        seq = enc_x(math.pi / 2, spin_system)
        total, n_pulses = seq.duration, 64
        continuous = PulseSequence(
            (RfPulse(n_pulses * math.pi / total, 0.0, total),), label="cw")
        cw = dfs_residence_fraction(continuous, spin_system, p_zero / 2)
        assert cw < pulsed

    def test_rejects_state_outside_code_space(self, spin_system):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            dfs_residence_fraction(PulseSequence((Delay(1e-3),)), spin_system, rho)


def substeps(seg) -> int:
    """state_trajectory's substep count: pieces of at most max(duration/32, 1 us)."""
    return max(1, math.ceil(seg.duration / max(seg.duration / 32, 1e-6)))


def residence_oracle(seq, sys, rho0, waveform, z):
    """Time-weighted code-space population, stepped through the unfused
    segments with state_trajectory's substeps and scipy exponentials."""
    p_zero = ops.zq_projectors()[1]
    rho, weight, total = rho0, 0.0, 0.0
    for seg in piecewise_segments(seq, sys, waveform):
        if seg.kind == "rotate":
            rho = seg.u @ rho @ seg.u.conj().T
            continue
        n = substeps(seg)
        dt = seg.duration / n
        u = scipy.linalg.expm(-1j * (seg.h + sys.gamma * z * seg.grad * ops.J_Z / 2) * dt)
        for _ in range(n):
            rho = u @ rho @ u.conj().T
            weight += np.trace(p_zero @ rho).real * dt
            total += dt
    return weight / total


class TestTrajectory:
    # state_trajectory zips its substep plan against the engine's unitaries
    # one to one, so it must see the unfused segments
    WAVEFORMS = (None, GradientWaveform(step_time=1.0, values=np.array([0.05])),
                 GradientWaveform(step_time=50.6e-6, values=np.linspace(-0.2, 0.2, 7)))

    @pytest.mark.parametrize("wf", WAVEFORMS)
    def test_one_yield_per_substep_of_the_unfused_segments(self, spin_system, wf):
        seq = composite_y90(spin_system, calibrate=False)
        rho0 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        want = sum(substeps(s) for s in piecewise_segments(seq, spin_system, wf) if s.kind == "evolve")
        assert sum(1 for _ in state_trajectory(seq, spin_system, rho0, waveform=wf, z=0.002)) == want

    @pytest.mark.parametrize("wf", WAVEFORMS[:2])
    def test_residence_matches_oracle(self, spin_system, wf):
        seq = enc_x(math.pi / 2, spin_system)
        rho0 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        got = dfs_residence_fraction(seq, spin_system, rho0, waveform=wf, z=0.002)
        assert got == pytest.approx(residence_oracle(seq, spin_system, rho0, wf, 0.002), abs=1e-10)


class TestSerialization:
    def test_roundtrip(self, spin_system):
        seq = composite_y90(spin_system, calibrate=False)
        text = sequence_to_text(seq)
        back = sequence_from_text(text)
        assert back.label == seq.label
        assert back.cycle_length == seq.cycle_length
        assert len(back.events) == len(seq.events)
        for a, b in zip(seq.events, back.events):
            assert type(a) is type(b)
            if isinstance(a, Delay):
                assert b.duration == pytest.approx(a.duration, rel=1e-10)
            elif isinstance(a, RfPulse):
                assert b.amplitude == pytest.approx(a.amplitude, rel=1e-10)
                assert b.phase == pytest.approx(a.phase, abs=1e-10)
                assert b.shape == a.shape

    def test_roundtrip_rotations(self):
        seq = xy_train(2, 1e-3)
        back = sequence_from_text(sequence_to_text(seq))
        assert [ev.name for ev in back.events if isinstance(ev, IdealRotation)] \
            == ["pi_x1_y2", "pi_x1_y2"]

    def test_units_in_text(self, spin_system):
        text = sequence_to_text(enc_x(math.pi / 2, spin_system))
        assert "us=62.4" in text
        assert "phase_deg=180" in text

    @property_settings
    @given(sequences)
    def test_roundtrip_property(self, seq):
        back = sequence_from_text(sequence_to_text(seq))
        assert (back.label, back.cycle_length) == (seq.label, seq.cycle_length)
        assert [type(ev) for ev in back.events] == [type(ev) for ev in seq.events]
        for a, b in zip(seq.events, back.events):
            if isinstance(a, IdealRotation):
                assert b.name == a.name
                continue
            assert b.duration == pytest.approx(a.duration, rel=1e-11, abs=0)
            if isinstance(a, RfPulse):
                assert b.amplitude == pytest.approx(a.amplitude, rel=1e-11, abs=0)
                assert b.phase == pytest.approx(a.phase, rel=1e-11, abs=0)
                assert b.shape == a.shape

    def test_bad_line_reports_location(self):
        with pytest.raises(ValueError, match="line 2"):
            sequence_from_text("delay us=10\nwobble x=1\n")
