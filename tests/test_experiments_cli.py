import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dfsim import cli, experiments
from dfsim.ensemble import EnsembleSpec
from dfsim.errors import ConfigError, NumericalContractError
from dfsim.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    config_from_dict,
    crusher_experiment,
    fit_decay,
    gates_experiment,
    memory_experiment,
    natural_experiment,
    noisy_gate_experiment,
    run,
)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({"experiment": "crusher"})
        assert cfg.spin_system.nu2 == 137.5
        assert cfg.sweep["processes"]
        assert cfg.label == "crusher"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="wobble"):
            config_from_dict({"experiment": "crusher", "wobble": 1})

    def test_field_level_message(self):
        with pytest.raises(ConfigError, match="spin_system"):
            config_from_dict({"experiment": "crusher", "spin_system": {"t1": -2.0}})
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"experiment": "crusher", "seed": "many"})

    def test_seed_required_for_ensemble_experiments(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"experiment": "memory"})
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"experiment": "noisy_gate"})
        config_from_dict({"experiment": "memory", "seed": 1})  # fine

    def test_overrides_beat_config(self):
        cfg = config_from_dict({"experiment": "memory", "seed": 1},
                               overrides={"seed": 9, "out": "elsewhere"})
        assert cfg.seed == 9 and cfg.out_dir == "elsewhere"

    def test_sweep_merge_keeps_defaults(self):
        cfg = config_from_dict({"experiment": "natural",
                                "sweep": {"f_collective": 0.5}})
        assert cfg.sweep["f_collective"] == 0.5
        assert "times_s" in cfg.sweep

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig(experiment="teleport")
        with pytest.raises(ConfigError, match="experiment"):
            config_from_dict({"experiment": ["memory"]})

    def test_sweep_typo_rejected(self):
        with pytest.raises(ConfigError, match="time_s"):
            config_from_dict({"experiment": "natural", "sweep": {"time_s": [1.0]}})

    def test_default_lists_are_not_shared(self):
        first = config_from_dict({"experiment": "gates"})
        first.sweep["gates"].append("enc_z_90")
        second = config_from_dict({"experiment": "gates"})
        assert second.sweep["gates"] == ["enc_z_90", "enc_x_90", "composite_y90"]
        assert EXPERIMENTS["gates"].sweep["gates"] == ["enc_z_90", "enc_x_90", "composite_y90"]

    def test_label_must_be_plain_stem(self):
        with pytest.raises(ConfigError, match="label"):
            config_from_dict({"experiment": "crusher", "label": "../evil"})


class TestFitDecay:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0, 2, 15)
        y = 0.42 * np.exp(-t / 0.7) + 0.5
        fit = fit_decay(t, y)
        assert fit["a"] == pytest.approx(0.42, abs=1e-6)
        assert fit["tau"] == pytest.approx(0.7, abs=1e-6)
        assert fit["flag"] == "ok"

    def test_constant_curve_flags_no_decay(self):
        fit = fit_decay([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
        assert fit["flag"] == "no_decay"
        assert fit["a"] == 0.0

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_decay([0.0, 1.0], [1.0, 0.9])


class TestCrusher:
    def test_table_values(self, spin_system):
        _, reports = crusher_experiment(spin_system, EXPERIMENTS["crusher"].sweep)
        reports = {r.label: r for r in reports}
        un = reports["unencoded_crusher"]
        assert (un.f0, un.fplus, un.fplusi, un.fe) == pytest.approx((1.0, 0.5, 0.5, 0.5), abs=1e-9)
        assert reports["encoded_no_noise"].fe == pytest.approx(1.0, abs=1e-9)
        assert reports["encoded_crusher"].fe == pytest.approx(1.0, abs=1e-9)

    def test_threshold_flags(self, spin_system):
        _, reports = crusher_experiment(spin_system, EXPERIMENTS["crusher"].sweep)
        blobs = [r.to_dict() for r in reports]
        assert all("fe_above_threshold" in b for b in blobs)

    def test_runs_listed_processes_in_order(self, spin_system):
        sweep = {"processes": ["encoded_crusher", "unencoded_crusher"]}
        rows, reports = crusher_experiment(spin_system, sweep)
        assert [r["process"] for r in rows] == sweep["processes"]
        assert [r.label for r in reports] == sweep["processes"]
        assert [r["fe"] for r in rows] == pytest.approx([1.0, 0.5], abs=1e-9)


class TestMemory:
    def test_encoded_branch_is_flat_at_one(self, spin_system):
        spec = EnsembleSpec(n_members=101)
        rows, _, _ = memory_experiment(spin_system, spec, EXPERIMENTS["memory"].sweep, seed=3)
        assert all(abs(r["fe_encoded"] - 1.0) <= 1e-9 for r in rows)

    def test_unencoded_branch_tracks_gaussian_average(self, spin_system):
        spec = EnsembleSpec(n_members=400)
        rows, _, _ = memory_experiment(spin_system, spec, EXPERIMENTS["memory"].sweep, seed=3)
        for r in rows:
            expected = 0.5 + 0.5 * math.exp(-r["noise_strength"])
            assert abs(r["fe_unencoded"] - expected) <= 3.0 / math.sqrt(400)

    def test_time_sweep_recovers_diffusion_rate(self, spin_system):
        # fitted tau must match 1/(D (gamma g delta)^2) within 5 percent
        spec = EnsembleSpec(n_members=4000, diffusion_d=2e-9)
        grad, delta = 0.05, 745e-6
        rate = spec.diffusion_d * (spin_system.gamma * grad * delta) ** 2
        sweep = {**EXPERIMENTS["memory"].sweep, "gradient_t_per_m": grad,
                 "diffusion_times_s": list(np.linspace(0.1, 2.5, 9) / rate / 10)}
        rows, _, fit = memory_experiment(spin_system, spec, sweep, seed=12)
        assert fit is not None and fit["flag"] == "ok"
        assert fit["tau"] == pytest.approx(1.0 / rate, rel=0.05)


class TestNatural:
    def test_encoded_beats_unencoded(self, spin_system):
        rows, _ = natural_experiment(spin_system, {**EXPERIMENTS["natural"].sweep,
                                                   "times_s": [0.0, 0.5, 1.5, 3.0]})
        assert rows[0]["c_encoded"] == pytest.approx(1.0, abs=1e-12)
        for r in rows[1:]:
            assert r["c_encoded"] > r["c_unencoded"]

    def test_unencoded_is_t2_decay(self, spin_system):
        rows, _ = natural_experiment(spin_system, {**EXPERIMENTS["natural"].sweep, "times_s": [1.0]})
        assert rows[0]["c_unencoded"] == pytest.approx(math.exp(-1.0 / 3.5), abs=1e-9)


class TestGates:
    def test_all_three_gates(self, spin_system):
        rows, _ = gates_experiment(spin_system, EXPERIMENTS["gates"].sweep)
        by_name = {r["gate"]: r for r in rows}
        assert set(by_name) == {"enc_z_90", "enc_x_90", "composite_y90"}
        for r in rows:
            assert r["fe"] >= 0.999


class TestNoisyGate:
    def test_zero_noise_matches_noiseless_and_memory_reference_is_flat(self, spin_system):
        spec = EnsembleSpec(n_members=51)
        sweep = {**EXPERIMENTS["noisy_gate"].sweep, "grad_max_khz_per_cm": [0.0, 5.0]}
        rows, _ = noisy_gate_experiment(spin_system, spec, sweep, seed=4)
        gates_rows, _ = gates_experiment(spin_system, EXPERIMENTS["gates"].sweep)
        noiseless = next(r["fe"] for r in gates_rows if r["gate"] == "composite_y90")
        assert rows[0]["fe"] == pytest.approx(noiseless, abs=1e-9)
        assert all(abs(r["fe_memory"] - 1.0) <= 1e-9 for r in rows)
        assert rows[1]["fe"] < rows[0]["fe"]


class TestRegistry:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_runner_calls_experiment_by_name(self, monkeypatch, tmp_path, name):
        calls = []

        def stub(*args):
            calls.append(args)
            return [], []

        monkeypatch.setattr(experiments, f"{name}_experiment", stub)
        run(config_from_dict({"experiment": name, "seed": 1, "out": str(tmp_path)}))
        assert len(calls) == 1
        assert (tmp_path / f"{name}.csv").read_text() == EXPERIMENTS[name].header + "\n"

    def test_gate_table_calls_builders_by_name(self, monkeypatch, spin_system):
        real, calls = experiments.composite_y90, []

        def uncalibrated(sys):
            calls.append(sys)
            return real(sys, calibrate=False)

        monkeypatch.setattr(experiments, "composite_y90", uncalibrated)
        gates_experiment(spin_system, {"gates": ["composite_y90"]})
        sweep = {**EXPERIMENTS["noisy_gate"].sweep, "grad_max_khz_per_cm": [0.0]}
        noisy_gate_experiment(spin_system, EnsembleSpec(n_members=3), sweep, seed=1)
        assert calls == [spin_system, spin_system]

    def test_readme_schema_table_lists_the_registry_headers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = dict(re.findall(r"^\| (\w+) \| `([^`]+)` \|$", readme, re.M))
        assert table == {name: record.header for name, record in EXPERIMENTS.items()}


class TestRunAndCli:
    def test_run_writes_csv_and_json(self, tmp_path, spin_system):
        cfg = config_from_dict({"experiment": "crusher", "out": str(tmp_path)})
        result = run(cfg)
        csv_text = result["csv"].read_text()
        assert csv_text.splitlines()[0] == "process,f0,fplus,fplusi,fe"
        blob = json.loads(result["json"].read_text())
        assert blob["experiment"] == "crusher"
        assert all("fe_above_threshold" in r for r in blob["reports"])

    def test_deterministic_outputs(self, tmp_path):
        raw = {"experiment": "memory", "seed": 77,
               "ensemble": {"n_members": 64},
               "sweep": {"gradients_t_per_m": [0.0, 0.2, 0.4]}}
        a = run(config_from_dict(dict(raw), overrides={"out": str(tmp_path / "a")}))
        b = run(config_from_dict(dict(raw), overrides={"out": str(tmp_path / "b")}))
        assert a["csv"].read_bytes() == b["csv"].read_bytes()
        assert a["json"].read_bytes() == b["json"].read_bytes()

    def test_cli_happy_path(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"sweep": {"processes": ["unencoded_crusher"]}}))
        code = cli.main(["crusher", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "crusher.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("unencoded_crusher,")
        assert (tmp_path / "crusher_report.json").exists()

    def test_cli_headers(self, tmp_path):
        code = cli.main(["natural", "--out", str(tmp_path), "--label", "nat"])
        assert code == 0
        header = (tmp_path / "nat.csv").read_text().splitlines()[0]
        assert header == "t_s,c_encoded,c_unencoded"

    def test_cli_members_and_seed_flags(self, tmp_path):
        code = cli.main(["memory", "--seed", "5", "--members", "32", "--out", str(tmp_path)])
        assert code == 0
        blob = json.loads((tmp_path / "memory_report.json").read_text())
        assert blob["seed"] == 5

    def test_cli_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["memory", "--out", str(tmp_path)]) == 2  # missing seed
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["crusher", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, config, field", [
        ("natural", {"spin_system": {"t1": math.nan}}, "t1"),
        ("memory", {"ensemble": {"n_members": 2.5}}, "n_members"),
        ("memory", {"sweep": {"gradients_t_per_m": [0.1, math.nan]}}, "gradients_t_per_m"),
        ("noisy-gate", {"sweep": {"grad_max_t_per_m": [0.0, math.nan]}}, "grad_max_t_per_m"),
        ("gates", {"sweep": {"gates": ["enc_q"]}}, "gates"),
        ("memory", {"sweep": {"small_delta_s": "long"}}, "sweep.small_delta_s"),
        ("memory", {"sweep": {"gradient_t_per_m": "steep", "diffusion_times_s": [0.1, 0.2, 0.3]}},
         "sweep.gradient_t_per_m"),
        ("noisy-gate", {"sweep": {"step_time_s": "fast"}}, "sweep.step_time_s"),
        ("natural", {"sweep": {"dt_s": 0}}, "sweep.dt_s"),
        ("natural", {"sweep": {"dt_s": 1.0}}, "sweep.dt_s"),
        ("natural", {"sweep": {"times_s": [0, 1e308]}}, "sweep.times_s"),
        ("gates", {"sweep": {"gates": []}}, "sweep.gates: must be a non-empty list"),
        ("memory", {"sweep": {"gradients_t_per_m": []}}, "sweep.gradients_t_per_m"),
        ("noisy-gate", {"sweep": {"grad_max_khz_per_cm": []}}, "sweep.grad_max_khz_per_cm"),
        ("gates", {"sweep": {"gates": "enc_z_90"}}, "sweep.gates: must be a non-empty list"),
        ("crusher", {"sweep": {"processes": ["bogus"]}}, "sweep.processes"),
    ], ids=["t1_nan", "n_members_fraction", "gradients_nan", "grad_max_nan", "unknown_gate",
            "small_delta_text", "gradient_text", "step_time_text", "dt_zero", "dt_coarse",
            "times_overflow", "gates_empty", "gradients_empty", "grad_max_empty", "gates_string",
            "unknown_process"])
    def test_cli_bad_value_exit_code(self, tmp_path, capsys, experiment, config, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = cli.main([experiment, "--config", str(path), "--seed", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and field in err

    def test_cli_numerical_contract_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(config):
            raise NumericalContractError("positivity lost")

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["crusher", "--out", str(tmp_path)]) == 3
        assert "numerical contract" in capsys.readouterr().err

    def test_cli_noisy_gate_contract_exit_code(self, tmp_path, monkeypatch, capsys):
        # a held-memory target that is not unitary breaks the noisy-gate contract
        monkeypatch.setattr(experiments, "data_blocks", lambda us, encoded: 2 * np.eye(2)[None])
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ensemble": {"n_members": 3},
                                    "sweep": {"grad_max_khz_per_cm": [0.0]}}))
        code = cli.main(["noisy-gate", "--config", str(path), "--seed", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "numerical contract" in capsys.readouterr().err

    def test_cli_noisy_gate_schema(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "ensemble": {"n_members": 16},
            "sweep": {"grad_max_khz_per_cm": [0.0, 2.0]},
        }))
        code = cli.main(["noisy-gate", "--config", str(config), "--seed", "3",
                         "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "noisy_gate.csv").read_text().splitlines()[0]
        assert header == "grad_max_t_per_m,fe,fe_stderr,fe_memory"
