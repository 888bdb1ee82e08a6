import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from dfsim import operators as ops
from dfsim import pulses
from dfsim.ensemble import GradientWaveform, ensemble_propagators
from dfsim.errors import NumericalContractError
from dfsim.hamiltonians import SpinSystem, internal_hamiltonian
from dfsim.metrics import member_gate_fidelities
from dfsim.pulses import (
    Delay,
    IdealRotation,
    PulseSequence,
    RfPulse,
    average_hamiltonian,
    composite_y90,
    dfs_residence_fraction,
    enc_x,
    enc_z,
    piecewise_segments,
    propagator,
    state_trajectory,
    xx_train,
    xy_train,
)

from conftest import (code_block, composite_90x_180y_90x, event_hamiltonian, expm_oracle, logical_coefficients,
                      nominal_composite_y90, property_settings, sequences, spin_systems)


def rot_1q(axis, theta):
    return ops.expm_hermitian(ops.PAULI[axis], theta / 2)


class TestEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            Delay(0.0)
        with pytest.raises(ValueError):
            RfPulse(-1.0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            IdealRotation("pi_q")

    @pytest.mark.parametrize("make", [
        lambda: Delay(math.inf), lambda: Delay(math.nan),
        lambda: RfPulse(1.0, 0.0, math.nan), lambda: RfPulse(1.0, 0.0, math.inf),
        lambda: RfPulse(math.nan, 0.0, 1e-5), lambda: RfPulse(math.inf, 0.0, 1e-5),
        lambda: RfPulse(1.0, math.nan, 1e-5), lambda: RfPulse(1.0, -math.inf, 1e-5),
    ], ids=["delay-inf", "delay-nan", "pulse-duration-nan", "pulse-duration-inf",
            "amplitude-nan", "amplitude-inf", "phase-nan", "phase-minus-inf"])
    def test_non_finite_fields_rejected(self, make):
        # a non-finite duration would never be used up by the flattener
        with pytest.raises(ValueError, match="finite"):
            make()

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
        blk = code_block(u)
        assert abs(abs(np.trace(blk) / 2) - 1.0) <= 1e-12

    def test_encoded_cp_matches_average_hamiltonian_in_fast_limit(self, spin_system):
        total = 1.28e-3
        hbar = average_hamiltonian(xx_train(2, total / 2), spin_system)
        errs = []
        for n in (64, 128):
            seq = xx_train(n, total / n)
            u = propagator(seq, spin_system)
            target = ops.expm_hermitian(hbar, total)
            phase = np.trace(target.conj().T @ u)
            errs.append(np.abs(u - target * phase / abs(phase)).max())
        assert errs[1] <= 0.6 * errs[0]
        assert errs[1] <= 1e-4

    def test_unitarity_across_many_segments(self, spin_system):
        # 256 cycles; 1.5 us waveform steps cut each pulse into about 43 RF
        # pieces under a gradient, which fusion keeps apart, since the
        # gradient value alternates from step to step
        seq = enc_x(2 * math.pi - 1e-9, spin_system)
        waveform = GradientWaveform(step_time=1.5e-6, values=0.01 * (1 + np.arange(120_000) % 2))
        assert len(piecewise_segments(seq, spin_system, waveform)) >= 10_000
        u = ensemble_propagators(seq, spin_system, waveform, 0.003)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10

    def test_constant_gradient_merges_each_pulse(self, spin_system):
        # under one gradient value each pulse is one exponential: 256 pulses
        # and the 257 delay runs between and around them
        waveform = GradientWaveform(step_time=1.5e-6, values=np.full(120_000, 0.01))
        seq = enc_x(2 * math.pi - 1e-9, spin_system)
        segments = piecewise_segments(seq, spin_system, waveform)
        assert len(segments) == 513
        assert all(s.grad == 0.01 for s in segments if not s.commutes)
        short = enc_x(math.pi / 8, spin_system)
        assert len(piecewise_segments(short, spin_system, waveform)) == 33
        u = ensemble_propagators(short, spin_system, waveform, 0.003)
        assert np.abs(u - expm_oracle(short, spin_system, waveform, 0.003)).max() <= 1e-10

    @pytest.mark.parametrize("duration", [50e-6 + 9e-13, 9e-13, 100e-6 - 5e-13])
    def test_time_within_the_clock_tolerance_is_kept(self, spin_system, duration):
        # remainders of at most 1e-12 s past a waveform step boundary, and
        # pieces that short, still evolve; the gradient is the same in
        # every step, so the step a remainder is charged to does not matter
        seq = PulseSequence((RfPulse(1e5, 0.0, duration), Delay(20e-6), RfPulse(1e5, 0.7, duration)))
        waveform = GradientWaveform(step_time=50e-6, values=np.full(8, 0.05))
        segments = piecewise_segments(seq, spin_system, waveform)
        assert sum(s.duration for s in segments) == pytest.approx(seq.duration, rel=1e-14, abs=0)
        u = ensemble_propagators(seq, spin_system, waveform, 0.003)
        assert np.abs(u - expm_oracle(seq, spin_system, waveform, 0.003)).max() <= 1e-10


    @given(seq=sequences, system=spin_systems, step_time=st.floats(0.0, exclude_min=True, allow_infinity=False))
    @property_settings
    def test_no_waveform_walks_a_one_value_zero_waveform(self, seq, system, step_time):
        plain = piecewise_segments(seq, system)
        held = piecewise_segments(seq, system, GradientWaveform(step_time, [0.0]))
        assert len(plain) == len(held)
        for a, b in zip(plain, held):
            assert (a.kind, a.duration, a.grad, a.commutes) == (b.kind, b.duration, b.grad, b.commutes)
            for x, y in ((a.h, b.h), (a.u, b.u)):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x.tobytes() == y.tobytes()


class TestTogglingFrames:
    # average_hamiltonian weights each delay by the toggling frame it is spent in
    def test_single_pair_flips_zeeman_terms(self, spin_system):
        # a delay between the two pulses of a pair is spent in the flipped frame alone,
        # and a delay after both in the first frame again
        pair = IdealRotation("pi_x_pair")
        flipped = np.pi * (-spin_system.nu1 * ops.SIGMA_Z1 - spin_system.nu2 * ops.SIGMA_Z2
                           + spin_system.j_coupling * ops.DOT_12 / 2)
        inside = average_hamiltonian(PulseSequence((pair, Delay(1e-3), pair)), spin_system)
        after = average_hamiltonian(PulseSequence((pair, pair, Delay(1e-3))), spin_system)
        assert np.abs(inside - flipped).max() <= 1e-9
        assert np.abs(after - internal_hamiltonian(spin_system)).max() <= 1e-9

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
        hbar = average_hamiltonian(xx_train(2, 1e-3), spin_system)
        cz, cx, cy = logical_coefficients(hbar)
        assert abs(cz) <= 1e-9
        assert abs(cy) <= 1e-9
        assert cx == pytest.approx(np.pi * spin_system.j_coupling, rel=1e-9)

    @pytest.mark.parametrize("seq", [
        xx_train(2, 1e-3),
        xy_train(4, 2e-4),
        # unequal delays, two in a row, and both rotations: a cyclic train
        # whose frames are not the plain mean
        PulseSequence((Delay(1e-3), IdealRotation("pi_x_pair"), Delay(2e-3), Delay(3e-4),
                       IdealRotation("pi_x1_y2"), Delay(5e-4), IdealRotation("pi_x1_y2"),
                       Delay(1.5e-3), IdealRotation("pi_x_pair"), Delay(7e-4))),
    ], ids=["xx_train", "xy_train", "mixed"])
    def test_weights_toggling_frames_as_its_own_walk_did(self, spin_system, seq):
        # reference: each delay weighted by its toggling frame, the frame
        # built afresh for every delay
        h_int = internal_hamiltonian(spin_system)
        u = np.eye(4, dtype=complex)
        acc = np.zeros((4, 4), dtype=complex)
        t_total = 0.0
        for ev in seq.events:
            if isinstance(ev, IdealRotation):
                u = ev.unitary @ u
            else:
                acc += (u.conj().T @ h_int @ u) * ev.duration
                t_total += ev.duration
        assert average_hamiltonian(seq, spin_system).tobytes() == (acc / t_total).tobytes()

    def test_rejects_what_toggling_frames_rejects(self, spin_system):
        with pytest.raises(NumericalContractError, match="not cyclic"):
            average_hamiltonian(PulseSequence((Delay(1e-3), IdealRotation("pi_x_pair"))), spin_system)
        with pytest.raises(ValueError, match="ideal pulses"):
            average_hamiltonian(PulseSequence((Delay(1e-3), RfPulse(1e4, 0.0, 1e-5))), spin_system)
        with pytest.raises(ValueError, match="no delays"):
            average_hamiltonian(PulseSequence((IdealRotation("pi_x_pair"),) * 2), spin_system)
        assert np.array_equal(average_hamiltonian(PulseSequence(()), spin_system),
                              internal_hamiltonian(spin_system))


class TestBuilders:
    def test_enc_z_duration_formula(self, spin_system):
        seq = enc_z(math.pi / 2, spin_system)
        cz = abs(logical_coefficients(internal_hamiltonian(spin_system))[0])
        assert seq.events[0].duration == pytest.approx((2 * math.pi - math.pi / 2) / (2 * cz))

    def test_enc_z_gate_fidelity(self, spin_system):
        u = propagator(enc_z(math.pi / 2, spin_system), spin_system)
        assert member_gate_fidelities(u, rot_1q("z", math.pi / 2)) >= 0.999

    def test_enc_z_additivity_on_code_block(self, spin_system):
        u = propagator(enc_z(1.1, spin_system), spin_system) \
            @ propagator(enc_z(0.7, spin_system), spin_system)
        u12 = propagator(enc_z(1.8, spin_system), spin_system)
        overlap = abs(np.trace(code_block(u.conj().T @ u12)) / 2) ** 2
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
        assert member_gate_fidelities(u, rot_1q("x", math.pi / 2)) >= 0.999

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi, 3 * math.pi / 2])
    def test_enc_x_other_angles(self, spin_system, theta):
        seq = enc_x(theta, spin_system)
        n_pulses = sum(isinstance(ev, RfPulse) for ev in seq.events)
        assert n_pulses % 4 == 0  # whole phase-cycle periods only
        u = propagator(seq, spin_system)
        assert member_gate_fidelities(u, rot_1q("x", theta)) >= 0.999

    def test_enc_x_zero_angle_is_empty(self, spin_system):
        assert enc_x(0.0, spin_system).events == ()

    def test_composite_y90_gate_fidelity(self, spin_system):
        u = propagator(composite_y90(spin_system), spin_system)
        assert member_gate_fidelities(u, rot_1q("y", math.pi / 2)) >= 0.999

    @pytest.mark.parametrize("params", [{}, {"nu2": 250.0, "j_coupling": 12.0}])
    def test_calibration_matches_scalar_scan(self, params):
        # reference: one scalar fidelity at a time, s1 outer and s2 inner,
        # moving only on strict improvement
        sys = SpinSystem(**params)
        nominal = nominal_composite_y90(sys)
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

    def test_composite_pulse_shape_is_more_robust_to_amplitude_error(self):
        # +10% miscalibrated inversion: the 90x-180y-90x composite holds up
        sys = SpinSystem(nu1=0.0, nu2=0.0)
        d = 62.4e-6
        hard = PulseSequence((RfPulse(1.1 * math.pi / d, 0.0, d),))
        comp = PulseSequence(composite_90x_180y_90x(RfPulse(1.1 * math.pi / d, 0.0, 2 * d)))
        p_hard = abs(propagator(hard, sys)[3, 0]) ** 2
        p_comp = abs(propagator(comp, sys)[3, 0]) ** 2
        assert p_comp > p_hard
        assert p_comp >= 0.99
        assert p_hard <= 0.96


class TestResidence:
    def test_delay_only_is_one(self, spin_system):
        frac = dfs_residence_fraction(PulseSequence((Delay(5e-3),)), spin_system)
        assert frac == pytest.approx(1.0, abs=1e-9)

    def test_enc_x_stays_mostly_protected(self, spin_system):
        frac = dfs_residence_fraction(enc_x(math.pi / 2, spin_system), spin_system)
        assert type(frac) is float and frac >= 0.90

    def test_continuous_drive_is_worse_than_pulsed(self, spin_system):
        pulsed = dfs_residence_fraction(enc_x(math.pi / 2, spin_system), spin_system)
        seq = enc_x(math.pi / 2, spin_system)
        total, n_pulses = seq.duration, 64
        continuous = PulseSequence(
            (RfPulse(n_pulses * math.pi / total, 0.0, total),))
        cw = dfs_residence_fraction(continuous, spin_system)
        assert cw < pulsed


def residence_oracle(seq, sys, rho0):
    """Time-averaged code-space population by Van Loan's block exponential
    (C. F. Van Loan, "Computing integrals involving the matrix exponential",
    IEEE TAC 1978): for a piece of duration T with Liouvillian L,
    scipy.linalg.expm([[L, I], [0, 0]] T) holds exp(L T) in its top-left
    block and the integral of exp(L t) over [0, T] in its top-right one.
    Walks the events unmerged and uses no eigensolver."""
    p_zero, eye = ops.zq_projectors()[1], np.eye(4)
    vec = np.asarray(rho0, dtype=complex).reshape(-1, order="F")  # column stacking
    weight = total = 0.0
    for ev in seq.events:
        if isinstance(ev, IdealRotation):
            vec = np.kron(ev.unitary.conj(), ev.unitary) @ vec
            continue
        h, duration = event_hamiltonian(ev, sys), ev.duration
        block = np.zeros((32, 32), dtype=complex)
        block[:16, :16] = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        block[:16, 16:] = np.eye(16)
        e = scipy.linalg.expm(block * duration)
        weight += np.trace(p_zero @ (e[:16, 16:] @ vec).reshape(4, 4, order="F")).real
        vec = e[:16, :16] @ vec
        total += duration
    return weight / total


def residence_oracle_30_digits(seq, sys, rho0):
    """Time-averaged code-space population at 30 significant digits: the
    population over each event is integrated by the 12-point
    Gauss-Legendre rule at mpmath's 30-digit nodes, with the state at each
    node from mpmath.expm, and rounded to double precision only at the end.
    The rule is exact to polynomial degree 23; on the events tested here
    (largest eigenvalue gap times duration 6.28) it agrees with the
    48-point rule to 2.5e-21. Exponentials are cached per distinct
    (h, duration)."""
    p_zero = mpmath.matrix(ops.zq_projectors()[1].tolist())
    with mpmath.workdps(30):
        nodes = GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)  # 12 (x, weight) on [-1, 1]
        flows = {}
        rho = mpmath.matrix(np.asarray(rho0).tolist())
        weight = total = mpmath.mpf(0)
        for ev in seq.events:
            if isinstance(ev, IdealRotation):
                u = mpmath.matrix(ev.unitary.tolist())
                rho = u * rho * u.H
                continue
            h, duration = event_hamiltonian(ev, sys), ev.duration
            key = h.tobytes(), duration
            if key not in flows:
                gen, t = -1j * mpmath.matrix(h.tolist()), mpmath.mpf(duration)
                flows[key] = ([(w * t / 2, mpmath.expm(gen * (x + 1) * t / 2)) for x, w in nodes],
                              mpmath.expm(gen * t))
            at_nodes, u = flows[key]
            for w, un in at_nodes:
                s = un * rho * un.H
                weight += w * sum(p_zero[k, k] * s[k, k] for k in range(4)).real
            rho = u * rho * u.H
            total += duration
        return float(weight / total)


def trajectory_oracle(seq, sys, rho0):
    """Reference for `state_trajectory`: the per-segment walk, one
    eigendecomposition of each evolve segment's Hamiltonian, with the state
    carried from segment to segment in each segment's eigenbasis."""
    rho = np.asarray(rho0, dtype=complex)
    for seg in piecewise_segments(seq, sys):
        if seg.kind == "rotate":
            rho = seg.u @ rho @ seg.u.conj().T
            continue
        w, v = np.linalg.eigh(seg.h)
        r = v.conj().T @ rho @ v
        x = np.subtract.outer(w, w) * seg.duration
        mean = v @ (r * np.exp(-0.5j * x) * np.sinc(x / (2 * math.pi))) @ v.conj().T
        rho = v @ (r * np.exp(-1j * x)) @ v.conj().T
        yield mean, seg.duration, rho


def assert_walks_as_oracle(seq, sys):
    ket = np.array([1.0, 1j, -1.0, 2.0]) / math.sqrt(7)  # populations and coherences in every block
    rho0 = np.outer(ket, ket.conj())
    got, want = (list(walk(seq, sys, rho0)) for walk in (state_trajectory, trajectory_oracle))
    assert len(got) == len(want)
    for (mean, dt, rho), (mean_ref, dt_ref, rho_ref) in zip(got, want):
        assert dt == dt_ref
        assert np.abs(mean - mean_ref).max() <= 1e-13
        assert np.abs(rho - rho_ref).max() <= 1e-13


def cut(seq, frac):
    """`seq` with every delay and pulse cut in two at `frac` of its duration,
    each half with the same drive."""
    events = []
    for ev in seq.events:
        first = ev.duration * frac
        events += ([ev] if isinstance(ev, IdealRotation) else
                   [dataclasses.replace(ev, duration=first), dataclasses.replace(ev, duration=ev.duration - first)])
    return PulseSequence(events)


class TestTrajectory:
    SEQ_TAIL = (IdealRotation("pi_x_pair"),) + composite_90x_180y_90x(RfPulse(5e4, 0.3, 124.8e-6))

    def test_one_yield_per_evolve_segment(self, spin_system):
        seq = PulseSequence(nominal_composite_y90(spin_system).events + self.SEQ_TAIL)
        rho0 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        evolve = [seg.duration for seg in piecewise_segments(seq, spin_system) if seg.kind == "evolve"]
        timed = [ev for ev in seq.events if not isinstance(ev, IdealRotation)]
        got = list(state_trajectory(seq, spin_system, rho0))
        assert [dt for _, dt, _ in got] == evolve
        assert len(evolve) < len(timed)  # delays across cycle boundaries merged
        u = expm_oracle(seq, spin_system, None, 0.0)
        assert np.abs(got[-1][2] - u @ rho0 @ u.conj().T).max() <= 1e-10
        for mean, _, rho in got:
            for state in (mean, rho):
                assert np.abs(state - state.conj().T).max() <= 1e-12
                assert abs(np.trace(state) - 1) <= 1e-12

    def test_each_distinct_pulse_hamiltonian_built_once_per_walk(self, spin_system, monkeypatch):
        seq = PulseSequence(nominal_composite_y90(spin_system).events + self.SEQ_TAIL)
        n_pulses = sum(isinstance(ev, RfPulse) for ev in seq.events)
        real, built = pulses.rf_hamiltonian, []
        monkeypatch.setattr(pulses, "rf_hamiltonian", lambda *args: built.append(args) or real(*args))
        rho0 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        for walk in (lambda: piecewise_segments(seq, spin_system),
                     lambda: list(state_trajectory(seq, spin_system, rho0))):
            built.clear()
            walk()
            assert len(built) == len(set(built)) < n_pulses

    @pytest.mark.parametrize("build", [lambda sys: enc_x(math.pi / 2, sys), composite_y90],
                             ids=["enc_x_90", "composite_y90"])
    def test_residence_matches_van_loan_oracle(self, spin_system, build):
        seq = build(spin_system)
        got = dfs_residence_fraction(seq, spin_system)
        assert abs(got - residence_oracle(seq, spin_system, ops.zq_projectors()[1] / 2)) <= 1e-12

    def test_residence_matches_30_digit_oracle(self, spin_system):
        seq = PulseSequence(enc_x(math.pi / 32, spin_system).events + self.SEQ_TAIL)
        assert len(seq.events) == 16  # 12 of enc_x, the rotation and the composite's three pulses
        got = dfs_residence_fraction(seq, spin_system)
        assert abs(got - residence_oracle_30_digits(seq, spin_system, ops.zq_projectors()[1] / 2)) <= 1e-14

    @pytest.mark.parametrize("frac", [0.5, 0.3])
    def test_residence_does_not_depend_on_cuts(self, spin_system, frac):
        seq = enc_x(math.pi / 2, spin_system)
        split = cut(seq, frac)
        assert len(split.events) == 2 * len(seq.events)
        got = dfs_residence_fraction(split, spin_system)
        assert abs(got - dfs_residence_fraction(seq, spin_system)) <= 1e-13

    @pytest.mark.parametrize("build", [lambda sys: enc_x(math.pi / 2, sys), composite_y90],
                             ids=["enc_x_90", "composite_y90"])
    def test_matches_per_segment_walk(self, spin_system, build):
        assert_walks_as_oracle(build(spin_system), spin_system)

    @given(seq=sequences, system=spin_systems)
    @example(seq=PulseSequence((IdealRotation("pi_x_pair"), Delay(1e-4), RfPulse(5e4, 0.3, 2e-5))),
             system=SpinSystem())
    @example(seq=PulseSequence((RfPulse(5e4, 0.3, 2e-5), Delay(1e-4), IdealRotation("pi_x1_y2"))),
             system=SpinSystem())
    @example(seq=PulseSequence((Delay(1e-4), IdealRotation("pi_x_pair"), IdealRotation("pi_x1_y2"),
                                RfPulse(5e4, -1.2, 3e-5), Delay(2e-4))), system=SpinSystem())
    @property_settings
    def test_matches_per_segment_walk_on_drawn_sequences(self, seq, system):
        assert_walks_as_oracle(seq, system)

    @pytest.mark.parametrize("events", [(), (IdealRotation("pi_x_pair"), IdealRotation("pi_x1_y2"))],
                             ids=["empty", "rotations_only"])
    def test_no_evolve_segment_yields_nothing(self, spin_system, events):
        seq, rho0 = PulseSequence(events), ops.zq_projectors()[1] / 2
        assert list(state_trajectory(seq, spin_system, rho0)) == []
        with pytest.raises(ValueError, match="no finite-duration events"):
            dfs_residence_fraction(seq, spin_system)

    @pytest.mark.parametrize("build", [lambda sys: enc_z(math.pi / 2, sys), lambda sys: enc_x(math.pi / 2, sys),
                                       composite_y90], ids=["enc_z_90", "enc_x_90", "composite_y90"])
    def test_one_eigendecomposition_and_one_flattening_per_call(self, spin_system, monkeypatch, build):
        # the walk stays batched: one eigh on the stack of every segment's
        # Hamiltonian, whatever the segment count
        seq, rho0 = build(spin_system), ops.zq_projectors()[1] / 2
        calls = []
        for owner, name in ((np.linalg, "eigh"), (pulses, "piecewise_segments")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
        steps = list(state_trajectory(seq, spin_system, rho0))
        assert sorted(calls) == ["eigh", "piecewise_segments"]
        assert len(steps) == len([seg for seg in piecewise_segments(seq, spin_system) if seg.kind == "evolve"])
