"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import scipy.linalg

from dfsim import operators as ops
from dfsim.channels import coherence_decay_factors, collective_dephasing
from dfsim.ensemble import EnsembleSpec, gradient_diffusion_echo
from dfsim.experiments import (
    crusher_experiment,
    gates_experiment,
    natural_experiment,
    noisy_gate_experiment,
    config_from_dict,
    EXPERIMENTS,
    run,
)
from dfsim.hamiltonians import SpinSystem, internal_hamiltonian
from dfsim.metrics import entanglement_fidelity, gate_fidelity_from_states
from dfsim.pulses import average_hamiltonian, propagator, xx_train, xy_train

from conftest import lindblad_superoperator, random_ket, random_unitary
from test_metrics import DEPOLARIZING, random_unital_channel

SYS = SpinSystem()


def report(criterion: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_crusher_table():
    t0 = time.perf_counter()
    _, reports = crusher_experiment(SYS, EXPERIMENTS["crusher"].sweep)
    rows = {r.label: r for r in reports}
    elapsed = time.perf_counter() - t0
    un = rows["unencoded_crusher"]
    ok = (
        abs(un.f0 - 1.00) <= 1e-6
        and abs(un.fplus - 0.50) <= 1e-6
        and abs(un.fplusi - 0.50) <= 1e-6
        and abs(un.fe - 0.50) <= 1e-6
        and abs(rows["encoded_crusher"].fe - 1.0) <= 1e-6
        and abs(rows["encoded_no_noise"].fe - 1.0) <= 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"crusher table (1.00, 0.50, 0.50, 0.50) / encoded 1.0 in {elapsed:.2f} s")


def test_criterion_2_kraus_suite(rng):
    gammas = list(np.logspace(-3, 1, 20)) + [math.inf]
    ok = True
    for gamma in gammas:
        ch = collective_dephasing(gamma)
        s = sum(k.conj().T @ k for k in ch.kraus_ops)
        ok &= np.abs(s - np.eye(4)).max() <= 1e-10
        if math.isfinite(gamma):
            d1, d2 = coherence_decay_factors(gamma)
            ok &= abs(d1 - math.exp(-gamma)) <= 1e-10
            ok &= abs(d2 - math.exp(-4 * gamma)) <= 1e-10
        for _ in range(5):
            c = random_ket(rng)
            ket = c[0] * ops.basis_ket("01") + c[1] * ops.basis_ket("10")
            rho = np.outer(ket, ket.conj())
            ok &= np.abs(ch.apply(rho) - rho).max() <= 1e-10
    report(2, bool(ok), "Kraus completeness, e^-gamma / e^-4gamma decay, zero-quantum invariance")


def test_criterion_3_gradient_diffusion_oracle():
    t0 = time.perf_counter()
    grad, delta, big_delta = 0.05, 745e-6, 36.275e-3
    ket = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    rho0 = np.outer(ket, ket.conj())
    u = ops.expm_hermitian(internal_hamiltonian(SYS), 2 * delta + big_delta)
    ok = True
    ratio = None
    for n_members in (100, 1000, 10000):
        spec = EnsembleSpec(n_members=n_members, diffusion_d=2e-9, seed=17)
        rate = spec.diffusion_d * (SYS.gamma * grad * delta) ** 2 * big_delta
        out = gradient_diffusion_echo(grad, delta, big_delta, spec, SYS, rho0)
        undone = u.conj().T @ out @ u
        d1 = (undone[0, 1] / rho0[0, 1]).real
        d2 = (undone[0, 3] / rho0[0, 3]).real
        tol = 3.0 / math.sqrt(n_members)
        ok &= abs(d1 - math.exp(-rate)) <= tol
        ok &= abs(d2 - math.exp(-4 * rate)) <= tol
        if n_members == 10000:
            ratio = math.log(d2) / math.log(d1)
            ok &= abs(ratio - 4.0) <= 0.05 * 4.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, bool(ok), f"echo decay matches exp(-D (gamma g m delta)^2 Delta); "
                        f"order ratio {ratio:.3f} ~ 4; {elapsed:.1f} s")


def test_criterion_4_average_hamiltonian_suite():
    hbar_xx = average_hamiltonian(xx_train(2, 1e-3), SYS)
    hbar_xy = average_hamiltonian(xy_train(2, 1e-3), SYS)
    ok = abs(np.trace(ops.SIGMA_Z1 @ hbar_xx)) / 4 <= 1e-12
    ok &= abs(np.trace(ops.SIGMA_Z2 @ hbar_xx)) / 4 <= 1e-12
    ok &= abs(np.trace(ops.FLIPFLOP_12 @ hbar_xy)) / 8 <= 1e-12

    # first-order convergence of the exact propagator to exp(-i Hbar T)
    total = 1.28e-3
    dts = (10e-6, 5e-6, 2.5e-6, 1.25e-6)
    errs = []
    for dt in dts:
        n = int(round(total / dt))
        seq = xx_train(n, dt)
        u = propagator(seq, SYS)
        target = ops.expm_hermitian(average_hamiltonian(seq, SYS), total)
        phase = np.trace(target.conj().T @ u)
        errs.append(np.abs(u - target * phase / abs(phase)).max())
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok &= 0.9 <= slope <= 1.1
    report(4, bool(ok), f"refocusing trains zero the targeted terms exactly; "
                        f"convergence slope {slope:.3f}")


def test_criterion_5_encoded_gates():
    t0 = time.perf_counter()
    rows, _ = gates_experiment(SYS, EXPERIMENTS["gates"].sweep)
    elapsed = time.perf_counter() - t0
    by_name = {r["gate"]: r for r in rows}
    ok = all(by_name[g]["fe"] >= 0.999 for g in ("enc_z_90", "enc_x_90", "composite_y90"))
    ok &= by_name["enc_x_90"]["dfs_residence"] >= 0.90
    ok &= elapsed < 60.0
    detail = ", ".join(f"{g}: {by_name[g]['fe']:.5f}" for g in sorted(by_name))
    report(5, bool(ok), f"{detail}; x-gate residence {by_name['enc_x_90']['dfs_residence']:.3f}; "
                        f"{elapsed:.1f} s")


def test_criterion_6_fidelity_identities(rng):
    ok = True
    for _ in range(100):
        ch = random_unital_channel(rng)
        u = random_unitary(rng)
        ok &= abs(gate_fidelity_from_states(ch, u).fe - entanglement_fidelity(ch, u)) <= 1e-9
    _, reports = crusher_experiment(SYS, EXPERIMENTS["crusher"].sweep)
    ok &= all(r.fbar - (2.0 / 3.0 * r.fe + 1.0 / 3.0) == 0.0 for r in reports)
    ok &= abs(entanglement_fidelity(DEPOLARIZING, np.eye(2)) - 0.25) <= 1e-12
    report(6, bool(ok), "three-state formula == Kraus form (1e-9, 100 channels); "
                        "fbar identity; depolarizing F_e = 0.25")


def test_criterion_7_noisy_composite_sweep():
    t0 = time.perf_counter()
    spec = EnsembleSpec(n_members=1001)
    sweep = EXPERIMENTS["noisy_gate"].sweep
    rows, _ = noisy_gate_experiment(SYS, spec, sweep, seed=42)
    elapsed = time.perf_counter() - t0
    fes = [r["fe"] for r in rows]
    low = [r["fe"] for r in rows if r["grad_max_t_per_m"] <= 0.55 * 2.349e-3]  # <= 0.5 kHz/cm
    ok = len(low) >= 4 and max(low) - min(low) <= 0.02     # flat plateau at low noise
    ok &= all(b <= a + 0.02 for a, b in zip(fes, fes[1:]))  # non-increasing within MC tol
    ok &= all(abs(r["fe_memory"] - 1.0) <= 1e-6 for r in rows)
    ok &= elapsed < 300.0
    report(7, bool(ok), f"plateau spread {max(low) - min(low):.4f}, curve non-increasing, "
                        f"held memory at 1.0; n=1001 sweep in {elapsed:.1f} s")


def test_criterion_8_natural_noise_curves():
    times = [round(t, 3) for t in np.linspace(0.0, 3.0, 13)]
    ok = True
    for f in (0.5, 0.9, 1.0):
        sweep = {**EXPERIMENTS["natural"].sweep, "times_s": times, "f_collective": f}
        rows, _ = natural_experiment(SYS, sweep)
        ok &= abs(rows[0]["c_encoded"] - rows[0]["c_unencoded"]) <= 1e-12
        for r in rows[1:]:
            ok &= r["c_encoded"] > r["c_unencoded"]
    # f = 1: encoded decay rate equals the T1-induced rate of the
    # continuous-time master-equation oracle within 2 percent
    rows, _ = natural_experiment(SYS, {**EXPERIMENTS["natural"].sweep, "times_s": [0.0, 3.0],
                                       "f_collective": 1.0})
    rate_channel = -math.log(rows[-1]["c_encoded"]) / 3.0
    gen = lindblad_superoperator(SYS, 1.0)
    exact = scipy.linalg.expm(gen * 3.0)
    unit = np.zeros((4, 4), dtype=complex)
    unit[1, 2] = 1.0
    from dfsim.channels import unvec, vec
    rate_oracle = -math.log(unvec(exact @ vec(unit))[1, 2].real) / 3.0
    ok &= abs(rate_channel - rate_oracle) <= 0.02 * rate_oracle
    report(8, bool(ok), f"encoded C(t) >= un-encoded for f in (0.5, 0.9, 1.0); "
                        f"f=1 rate {rate_channel:.5f} vs oracle {rate_oracle:.5f} (T1 leakage)")


def test_criterion_9_determinism(tmp_path):
    ok = True
    for raw in (
        {"experiment": "memory", "seed": 99, "ensemble": {"n_members": 64},
         "sweep": {"gradients_t_per_m": [0.0, 0.3, 0.6]}},
        {"experiment": "noisy_gate", "seed": 99, "ensemble": {"n_members": 32},
         "sweep": {"grad_max_khz_per_cm": [0.0, 5.0]}},
        {"experiment": "natural", "sweep": {"times_s": [0.0, 1.0]}},
    ):
        a = run(config_from_dict(dict(raw), overrides={"out": str(tmp_path / "a")}))
        b = run(config_from_dict(dict(raw), overrides={"out": str(tmp_path / "b")}))
        ok &= a["csv"].read_bytes() == b["csv"].read_bytes()
        ok &= a["json"].read_bytes() == b["json"].read_bytes()
    report(9, bool(ok), "identical config+seed give byte-identical CSV and JSON")
