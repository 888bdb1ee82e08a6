import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dfsim import cli, experiments
from dfsim import operators as ops
from dfsim.ensemble import EnsembleSpec
from dfsim.errors import ConfigError, NumericalContractError
from dfsim.experiments import (
    CRUSHER_PROCESSES,
    EXPERIMENTS,
    GATES,
    ExperimentConfig,
    config_from_dict,
    crusher_experiment,
    gates_experiment,
    memory_experiment,
    natural_experiment,
    noisy_gate_experiment,
    run,
)
from dfsim.hamiltonians import SpinSystem
from dfsim.units import GAMMA_PROTON

from conftest import lindblad_superoperator, nominal_composite_y90, property_settings


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
            config_from_dict({"experiment": "noisy_gate"})
        config_from_dict({"experiment": "noisy_gate", "seed": 1})  # fine
        config_from_dict({"experiment": "memory"})  # draws nothing

    @pytest.mark.parametrize("seed", [-1, 1.7, True, "7", math.inf, math.nan])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed: must be a non-negative integer"):
            config_from_dict({"experiment": "memory", "seed": seed})
        with pytest.raises(ConfigError, match="seed: must be a non-negative integer"):
            ExperimentConfig("memory", seed=seed)
        assert config_from_dict({"experiment": "memory", "seed": 7.0}).seed == 7
        assert type(ExperimentConfig("memory", seed=np.int64(7)).seed) is int

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

    @pytest.mark.parametrize("raw", [[1, 2], None, "x", 3])
    def test_config_must_be_a_mapping(self, raw):
        with pytest.raises(ConfigError, match="^config: must be a JSON object"):
            config_from_dict(raw, {"experiment": "crusher"})

    @pytest.mark.parametrize("key, value", [("out", None), ("out", ["a"]), ("out", 3),
                                            ("label", False), ("label", 12), ("label", None)])
    def test_out_and_label_must_be_strings(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: must be a string"):
            config_from_dict({"experiment": "crusher", key: value})


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
        rows, _ = memory_experiment(spin_system, spec, EXPERIMENTS["memory"].sweep)
        assert all(abs(r["fe_encoded"] - 1.0) <= 1e-9 for r in rows)

    def test_unencoded_branch_is_stejskal_tanner_decay(self, spin_system):
        # the sample average is exact: F_e = 0.5 + 0.5 exp(-s) for the
        # un-encoded spin and 1 for the encoded one, to round-off; the
        # default sweep, extended out to s = 26
        sweep = dict(EXPERIMENTS["memory"].sweep)
        sweep["gradients_t_per_m"] = sweep["gradients_t_per_m"] + [1.0, 3.0]
        rows, reports = memory_experiment(spin_system, EnsembleSpec(), sweep)
        for r in rows:
            assert abs(r["fe_unencoded"] - (0.5 + 0.5 * math.exp(-r["noise_strength"]))) <= 1e-15
            assert abs(r["fe_encoded"] - 1.0) <= 1e-15
        assert all(None not in (rep.f0, rep.fplus, rep.fplusi) for rep in reports)

    def test_cli_output_depends_on_neither_seed_nor_members(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "configs" / "memory.json"
        outputs = []
        for k, flags in enumerate((["--seed", "42"], ["--seed", "7", "--members", "3"], [])):
            out = tmp_path / str(k)
            assert cli.main(["memory", "--config", str(config), "--out", str(out)] + flags) == 0
            blob = json.loads((out / "memory_report.json").read_text())
            outputs.append(((out / "memory.csv").read_bytes(), blob["reports"]))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


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

    def test_shipped_unencoded_column_is_exact_t2_decay(self):
        config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "natural.json").read_text())
        rows, _ = natural_experiment(SpinSystem(**config["spin_system"]),
                                     {**EXPERIMENTS["natural"].sweep, **config["sweep"]})
        assert [r["t_s"] for r in rows] == config["sweep"]["times_s"]
        for r in rows:
            assert abs(r["c_unencoded"] - math.exp(-r["t_s"] / config["spin_system"]["t2"])) <= 1e-15

    @staticmethod
    def expm_coherence(spins, f, t, encoded):
        """C of the Lindblad propagator expm(L t), with explicit encode and
        decode of |+> x |0> and |+i> x |0>: the composed-superoperator path
        natural_experiment once had, here as an oracle."""
        s = scipy.linalg.expm(lindblad_superoperator(spins, f) * t)
        u_enc, u_dec = ops.encoding_unitary(), ops.decoding_unitary()
        ancilla = np.diag([1.0, 0.0])
        total = 0.0
        for ket, pauli in ((np.array([1.0, 1.0]), "x"), (np.array([1.0, 1.0j]), "y")):
            rho = np.kron(np.outer(ket, ket.conj()) / 2, ancilla)
            if encoded:
                rho = u_enc @ rho @ u_enc.conj().T
            out = (s @ rho.reshape(-1, order="F")).reshape(4, 4, order="F")
            if encoded:
                out = u_dec @ out @ u_dec.conj().T
            total += np.trace(np.kron(ops.PAULI[pauli], np.eye(2)) @ out).real
        return total / 2

    @pytest.mark.parametrize("f", [0.0, 0.5, 0.9, 1.0])
    def test_shipped_sweep_matches_lindblad_propagator(self, f):
        config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "natural.json").read_text())
        spins = SpinSystem(**config["spin_system"])
        rows, _ = natural_experiment(spins, {**config["sweep"], "f_collective": f})
        for r in rows:
            assert abs(r["c_encoded"] - self.expm_coherence(spins, f, r["t_s"], True)) <= 1e-14
            assert abs(r["c_unencoded"] - self.expm_coherence(spins, f, r["t_s"], False)) <= 1e-14

    def test_unsorted_and_repeated_times_give_the_sorted_rows(self, spin_system):
        times = [1.5, 0.0, 3.0, 0.5, 1.5, 0.0]
        sweep = EXPERIMENTS["natural"].sweep
        rows, reports = natural_experiment(spin_system, {**sweep, "times_s": times})
        want_rows, want_reports = natural_experiment(spin_system, {**sweep, "times_s": sorted(times)})
        assert rows == want_rows
        assert [r["t_s"] for r in rows] == sorted(times)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in want_reports]


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

    def test_point_does_not_depend_on_its_place_in_the_sweep(self, spin_system):
        # one noise shape per run, scaled per point: the 5 kHz/cm row is the
        # same whether a 1 kHz/cm point comes before it or not
        spec = EnsembleSpec(n_members=32)
        sweep = EXPERIMENTS["noisy_gate"].sweep
        pair, _ = noisy_gate_experiment(spin_system, spec, {**sweep, "grad_max_khz_per_cm": [1.0, 5.0]}, seed=9)
        alone, _ = noisy_gate_experiment(spin_system, spec, {**sweep, "grad_max_khz_per_cm": [5.0]}, seed=9)
        assert pair[1] == alone[0]

    def test_khz_per_cm_converts_with_the_spin_system_gamma(self, spin_system):
        spec = EnsembleSpec(n_members=3)
        sweep = {**EXPERIMENTS["noisy_gate"].sweep, "grad_max_khz_per_cm": [5.0]}
        proton, _ = noisy_gate_experiment(spin_system, spec, sweep, seed=1)
        doubled, _ = noisy_gate_experiment(SpinSystem(gamma=2 * GAMMA_PROTON), spec, sweep, seed=1)
        assert doubled[0]["grad_max_t_per_m"] == proton[0]["grad_max_t_per_m"] / 2


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

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_runner_returns_rows_and_reports(self, name):
        # a tiny config of each experiment: two results, and rows keyed by
        # the header's columns in order
        tiny = {"memory": {"gradients_t_per_m": [0.1]}, "natural": {"times_s": [0.5]},
                "gates": {"gates": ["enc_z_90"]}, "noisy_gate": {"grad_max_khz_per_cm": [1.0]}}
        config = ExperimentConfig(name, ensemble=EnsembleSpec(n_members=3), sweep=tiny.get(name, {}), seed=1)
        result = EXPERIMENTS[name].runner(config)
        assert isinstance(result, tuple) and len(result) == 2
        rows, reports = result
        assert rows and reports
        assert all(list(row) == EXPERIMENTS[name].header.split(",") for row in rows)

    def test_gate_table_calls_builders_by_name(self, monkeypatch, spin_system):
        calls = []

        def uncalibrated(sys):
            calls.append(sys)
            return nominal_composite_y90(sys)

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
        # noisy_gate at 300 members interpolates its RF pieces in z
        for raw in ({"experiment": "memory", "seed": 77, "ensemble": {"n_members": 64},
                     "sweep": {"gradients_t_per_m": [0.0, 0.2, 0.4]}},
                    {"experiment": "noisy_gate", "seed": 77, "ensemble": {"n_members": 300},
                     "sweep": {"grad_max_khz_per_cm": [5.0, 100.0]}}):
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

    @pytest.mark.parametrize("subcommand", ["gates", "noisy-gate"])
    def test_cli_subcommand_must_match_the_config_experiment(self, tmp_path, capsys, subcommand):
        # the config's label would name the files of another experiment
        config = Path(__file__).resolve().parents[1] / "configs" / "crusher.json"
        code = cli.main([subcommand, "--config", str(config), "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: experiment: the config names 'crusher'")
        assert not list(tmp_path.iterdir())
        assert cli.main(["crusher", "--config", str(config), "--out", str(tmp_path)]) == 0

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

    @pytest.mark.parametrize("members", [10 ** 6 + 1, 10 ** 400], ids=["above_bound", "400_digits"])
    def test_cli_members_flag_above_bound(self, tmp_path, capsys, members):
        code = cli.main(["noisy-gate", "--seed", "1", "--members", str(members), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ensemble: n_members must be from 2 to 1000000")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("j_coupling", [1e300, 2e307, 2.8e307])
    def test_cli_gates_at_huge_coupling(self, tmp_path, j_coupling):
        # the logical z rate pi (nu2 - nu1) does not depend on J
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"spin_system": {"j_coupling": j_coupling}}))
        assert cli.main(["gates", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_cli_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["noisy-gate", "--out", str(tmp_path)]) == 2  # missing seed
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["crusher", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"x"'])
    @pytest.mark.parametrize("members", [[], ["--members", "3"]], ids=["", "members"])
    def test_cli_config_that_is_not_an_object(self, tmp_path, capsys, text, members):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert cli.main(["memory", "--config", str(path), "--out", str(tmp_path)] + members) == 2
        assert capsys.readouterr().err.startswith("config error: config: must be a JSON object")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("ensemble", [[1], "ab", 3])
    @pytest.mark.parametrize("members", [[], ["--members", "3"]], ids=["", "members"])
    def test_cli_ensemble_that_is_not_a_mapping(self, tmp_path, capsys, ensemble, members):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ensemble": ensemble}))
        assert cli.main(["memory", "--config", str(path), "--out", str(tmp_path)] + members) == 2
        assert capsys.readouterr().err.startswith("config error: ensemble: must be a mapping")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("config, field", [({"out": None, "label": False}, "out"),
                                               ({"out": ["a"], "label": 12}, "out"),
                                               ({"label": False}, "label"), ({"label": None}, "label")])
    def test_cli_out_and_label_that_are_not_strings(self, tmp_path, monkeypatch, capsys, config, field):
        monkeypatch.chdir(tmp_path)  # a relative output directory lands here
        Path("c.json").write_text(json.dumps(config))
        assert cli.main(["crusher", "--config", "c.json"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: must be a string")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_cli_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        # json.load raises a plain ValueError for an integer literal of more
        # than 4300 digits, not a JSONDecodeError
        path = tmp_path / "c.json"
        path.write_text('{"ensemble": {"n_members": 1' + "0" * 5000 + "}}")
        assert cli.main(["memory", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: {str(path)!r} is not valid JSON: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("experiment", ["noisy-gate", "memory"])
    def test_cli_negative_seed_exit_code(self, tmp_path, capsys, experiment):
        config = Path(__file__).resolve().parents[1] / "configs" / f"{experiment.replace('-', '_')}.json"
        code = cli.main([experiment, "--config", str(config), "--seed=-1", "--members", "3",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "seed: must be a non-negative integer" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, config, field", [
        ("natural", {"spin_system": {"t1": math.nan}}, "t1"),
        ("memory", {"ensemble": {"n_members": 2.5}}, "n_members"),
        ("memory", {"sweep": {"gradients_t_per_m": [0.1, math.nan]}}, "gradients_t_per_m"),
        ("noisy-gate", {"sweep": {"grad_max_khz_per_cm": [0.0, math.nan]}}, "sweep.grad_max_khz_per_cm"),
        ("noisy-gate", {"sweep": {"grad_max_t_per_m": [0.0]}}, "unknown field(s) for noisy_gate: ['grad_max_t_per_m']"),
        ("gates", {"sweep": {"gates": ["enc_q"]}}, "gates"),
        ("memory", {"sweep": {"small_delta_s": "long"}}, "sweep.small_delta_s"),
        ("memory", {"sweep": {"gradient_t_per_m": "steep"}}, "unknown field(s) for memory: ['gradient_t_per_m']"),
        ("noisy-gate", {"sweep": {"step_time_s": "fast"}}, "sweep.step_time_s"),
        ("noisy-gate", {"sweep": {"step_time_s": 1e-12}}, "sweep.step_time_s"),
        ("natural", {"sweep": {"dt_s": 1e-3}}, "unknown field(s) for natural: ['dt_s']"),
        ("gates", {"sweep": {"gates": []}}, "sweep.gates: must be a non-empty list"),
        ("memory", {"sweep": {"gradients_t_per_m": []}}, "sweep.gradients_t_per_m"),
        ("noisy-gate", {"sweep": {"grad_max_khz_per_cm": []}}, "sweep.grad_max_khz_per_cm"),
        ("gates", {"sweep": {"gates": "enc_z_90"}}, "sweep.gates: must be a non-empty list"),
        ("crusher", {"sweep": {"processes": ["bogus"]}}, "sweep.processes"),
        ("memory", {"sweep": {"gradients_t_per_m": [1e200]}}, "sweep.gradients_t_per_m"),
        ("memory", {"sweep": {"gradient_t_per_m": 1e200, "diffusion_times_s": [0.1, 0.2, 0.3]}},
         "unknown field(s) for memory: ['diffusion_times_s', 'gradient_t_per_m']"),
        ("memory", {"ensemble": {"seed": 7}}, "'seed'"),
        ("noisy-gate", {"ensemble": {"grad_max": 3.0}}, "'grad_max'"),
        ("gates", {"spin_system": {"nu1": 0.0, "nu2": 0.0}}, "spin_system: encoded z gates assume"),
        ("noisy-gate", {"spin_system": {"nu1": 200.0}, "ensemble": {"n_members": 3}},
         "spin_system: encoded z gates assume"),
        ("noisy-gate", {"spin_system": {"gamma": 0.0}, "ensemble": {"n_members": 3}}, "spin_system.gamma"),
        ("noisy-gate", {"spin_system": {"gamma": 1e-310}, "ensemble": {"n_members": 3}}, "spin_system.gamma"),
        ("noisy-gate", {"spin_system": {"gamma": -2.6e8}, "ensemble": {"n_members": 3}}, "spin_system.gamma"),
        ("noisy-gate", {"sweep": {"grad_max_khz_per_cm": [1e308]}, "ensemble": {"n_members": 3}},
         "sweep.grad_max_khz_per_cm"),
        ("crusher", {"label": "a\u0000b"}, "label"),
        ("natural", {"spin_system": {"t1": 1e-309, "t2": 1e-309}, "sweep": {"times_s": [0.5]}},
         "spin_system: relaxation time t1"),
        ("natural", {"spin_system": {"t2": 1e-309}}, "spin_system: relaxation time t2"),
        ("noisy-gate", {"ensemble": {"sample_length": 1e308, "n_members": 3},
                        "sweep": {"grad_max_khz_per_cm": [1.0]}}, "ensemble.sample_length"),
        ("gates", {"spin_system": {"nu2": 1e308}}, "spin_system: nu2 = 1e+308 Hz overflows"),
        ("gates", {"spin_system": {"nu1": -5e307, "nu2": 5.5e307}}, "spin_system: nu2 = 5.5e+307 Hz overflows"),
        ("gates", {"spin_system": {"nu1": "7"}}, "spin_system: nu1 must be a real number"),
        ("gates", {"spin_system": {"nu2": 10 ** 400}}, "spin_system: nu2 must be a real number"),
        ("memory", {"ensemble": {"n_members": True}}, "ensemble: n_members must be an integer"),
        ("noisy-gate", {"ensemble": {"n_members": 3, "sample_length": 10 ** 400}}, "ensemble: sample_length"),
        ("natural", {"sweep": {"times_s": ["7"]}}, "sweep.times_s"),
        ("natural", {"sweep": {"f_collective": True}}, "sweep.f_collective"),
        ("memory", {"ensemble": {"diffusion_d": 1e308}, "sweep": {"gradients_t_per_m": [0.05]}},
         "ensemble.diffusion_d = 1e+308"),
        ("noisy-gate", {"ensemble": {"n_members": 10 ** 400}, "sweep": {"grad_max_khz_per_cm": [1.0]}},
         "ensemble: n_members must be from 2 to 1000000"),
        ("noisy-gate", {"ensemble": {"n_members": 10 ** 6 + 1}}, "ensemble: n_members must be from 2 to 1000000"),
    ], ids=["t1_nan", "n_members_fraction", "gradients_nan", "grad_max_nan", "grad_max_t_per_m",
            "unknown_gate", "small_delta_text", "gradient_text", "step_time_text", "step_time_tiny",
            "dt_s_unknown", "gates_empty", "gradients_empty",
            "grad_max_empty", "gates_string", "unknown_process", "gradients_overflow",
            "gradient_overflow", "ensemble_seed", "ensemble_grad_max", "gates_equal_shifts",
            "noisy_gate_nu1_above_nu2", "gamma_zero", "gamma_subnormal", "gamma_negative",
            "grad_max_overflow", "label_nul", "t1_t2_rate_overflow", "t2_rate_overflow",
            "sample_length_overflow",
            "nu2_overflow", "shift_sum_overflow", "nu1_string", "nu2_int_overflow", "n_members_bool",
            "sample_length_int_overflow", "times_string", "f_collective_bool", "diffusion_d_strength_overflow",
            "n_members_400_digits", "n_members_above_bound"])
    def test_cli_bad_value_exit_code(self, tmp_path, capsys, experiment, config, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = cli.main([experiment, "--config", str(path), "--seed", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and field in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("field, sign", [("nu1", -1.0), ("nu2", 1.0), ("j_coupling", 1.0)])
    def test_cli_shift_bound_on_both_sides(self, tmp_path, capsys, field, sign):
        # the largest accepted magnitude, by bisection over the bit patterns
        # of positive floats (which order them): 2 pi times it is the largest float
        def as_float(bits):
            return struct.unpack("<d", struct.pack("<q", bits))[0]

        def accepted(x):
            try:
                SpinSystem(**{field: sign * x})
            except ValueError:
                return False
            return True

        lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (1.0, math.inf))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(as_float(mid)) else (lo, mid)
        last, first = sign * as_float(lo), sign * as_float(hi)
        assert abs(last) == pytest.approx(sys.float_info.max / (2 * math.pi), rel=1e-12)
        path = tmp_path / "c.json"
        for experiment in ("gates", "noisy-gate"):
            flags = ["--members", "3"] if experiment == "noisy-gate" else []
            path.write_text(json.dumps({"spin_system": {field: first}, "sweep": {}}))
            assert cli.main([experiment, "--config", str(path), "--seed", "1", "--out", str(tmp_path)] + flags) == 2
            assert capsys.readouterr().err.startswith(f"config error: spin_system: {field} = {first!r} Hz overflows")
            # the last accepted value runs to a documented exit with no numpy
            # warning, which the test configuration would raise as an error
            sweep = {"grad_max_khz_per_cm": [0.0]} if experiment == "noisy-gate" else {}
            path.write_text(json.dumps({"spin_system": {field: last}, "sweep": sweep}))
            code = cli.main([experiment, "--config", str(path), "--seed", "1", "--out", str(tmp_path)] + flags)
            err = capsys.readouterr().err
            assert code in (0, 2, 3) and "RuntimeWarning" not in err and "delay duration" not in err
            if experiment == "gates":
                assert code == 0

    def test_cli_nul_in_out_dir_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"out": str(tmp_path / "a\u0000b")}))
        assert cli.main(["crusher", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: out: cannot write")

    def test_cli_natural_time_beyond_any_step_grid(self, tmp_path):
        # the holding channel is exact at any duration, so no time is too long
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sweep": {"times_s": [0, 1e308]}}))
        assert cli.main(["natural", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "natural.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1e+308"]
        assert all(math.isfinite(float(c)) for row in rows for c in row[1:])

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

    def test_cli_noisy_gate_absurd_gradient_exit_code(self, tmp_path, capsys):
        # the squaring phase of the RF-piece exponential cannot hold unitarity
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ensemble": {"n_members": 3},
                                    "sweep": {"grad_max_khz_per_cm": [1e8]}}))
        code = cli.main(["noisy-gate", "--config", str(path), "--seed", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "unitarity" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [{"big_delta_s": 1e300, "gradients_t_per_m": [0.0]},
                                       {"small_delta_s": 1e300, "gradients_t_per_m": [0.0]}],
                             ids=["big_delta", "small_delta"])
    def test_cli_memory_without_gradient_at_huge_diffusion(self, tmp_path, sweep):
        # no gradient, no noise: however large D, delta or Delta is, both branches hold at 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ensemble": {"diffusion_d": 1e10}, "sweep": sweep}))
        assert cli.main(["memory", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "memory.csv").read_text().splitlines()[1:]
        assert rows and all(row == "0,1,1" for row in rows)  # noise_strength, fe_encoded, fe_unencoded

    @staticmethod
    def memory_at_delay(tmp_path, capfd, big_delta, unencoded):
        """Run the CLI at diffusion delay `big_delta` and the default
        gradient 0.05 T/m: exit 0, empty stderr, the encoded cell at 1 and
        the un-encoded one at `unencoded`."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sweep": {"gradients_t_per_m": [0.05], "big_delta_s": big_delta}}))
        code = cli.main(["memory", "--config", str(path), "--members", "8", "--seed", "1",
                         "--out", str(tmp_path)])
        assert code == 0
        assert capfd.readouterr().err == ""
        (row,) = (tmp_path / "memory.csv").read_text().splitlines()[1:]
        _, encoded, unencoded_cell = map(float, row.split(","))
        assert (encoded, unencoded_cell) == (1.0, unencoded)

    def test_cli_memory_curve_at_the_floor(self, tmp_path, capfd):
        # long decayed: the un-encoded spin is fully phase damped
        self.memory_at_delay(tmp_path, capfd, 1e30, 0.5)

    def test_cli_memory_curve_at_tiny_times(self, tmp_path, capfd):
        # not yet decayed, and no underflow warning on the way
        self.memory_at_delay(tmp_path, capfd, 1e-200, 1.0)

    def test_python_m_dfsim(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "dfsim", "gates", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: dfsim gates")

    def test_import_loads_only_numpy_and_the_standard_library(self):
        # numpy is the one runtime dependency. Only what `import dfsim` adds
        # counts (`site` may have loaded other packages before it), and not
        # the module objects that compiled extensions make at run time
        # (Cython's `cython_runtime`), which no finder loaded
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "import dfsim\n"
                "added = {name.partition('.')[0] for name, module in sys.modules.items()\n"
                "         if name not in before and module.__spec__ is not None}\n"
                "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["dfsim", "numpy"]

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


# Config fuzzing against the exit-code contract: every field of an
# experiment's schema is drawn from its valid range or, now and then, from a
# pool of hostile values. A run exits 0 with finite cells in their documented
# ranges, or 2 naming a field that was drawn hostile.
HOSTILE = [0, -0.0, 5e-324, 1e-309, 1e308, 10 ** 400, math.inf, math.nan, -1, True, "7", [], {}, None]


def _listed(values):
    return st.lists(values, min_size=1, max_size=2)


SPIN_FIELDS = {"nu1": st.floats(-50.0, 50.0), "nu2": st.floats(100.0, 500.0), "j_coupling": st.floats(0.0, 20.0),
               "t1": st.floats(4.0, 10.0), "t2": st.floats(0.5, 3.5), "gamma": st.floats(1e8, 3e8)}
# n_members and every sweep list is always drawn: their defaults are large
ENSEMBLE_FIELDS = {"n_members": st.integers(2, 3), "sample_length": st.floats(1e-3, 0.02),
                   "diffusion_d": st.floats(1e-10, 1e-8)}
SWEEP_FIELDS = {
    "memory": {"gradients_t_per_m": _listed(st.floats(0.0, 0.6)), "small_delta_s": st.floats(1e-4, 1e-3),
               "big_delta_s": st.floats(1e-3, 0.1)},
    "crusher": {"processes": _listed(st.sampled_from(sorted(CRUSHER_PROCESSES)))},
    "natural": {"times_s": _listed(st.floats(0.0, 3.0)), "f_collective": st.floats(0.0, 1.0)},
    "gates": {"gates": _listed(st.sampled_from(sorted(GATES)))},
    "noisy_gate": {"grad_max_khz_per_cm": _listed(st.floats(0.0, 100.0)), "step_time_s": st.floats(2e-4, 1e-3)},
}
LIST_FIELDS = {"gradients_t_per_m", "processes", "times_s", "gates", "grad_max_khz_per_cm"}
# documented range of every numeric CSV column
CELL_RANGES = {"noise_strength": (0.0, math.inf), "fe_encoded": (0.0, 1.0), "fe_unencoded": (0.0, 1.0),
               "f0": (0.0, 1.0), "fplus": (0.0, 1.0), "fplusi": (0.0, 1.0), "fe": (0.0, 1.0),
               "t_s": (0.0, math.inf), "c_encoded": (-1.0, 1.0), "c_unencoded": (-1.0, 1.0),
               "dfs_residence": (0.0, 1.0), "grad_max_t_per_m": (0.0, math.inf), "fe_stderr": (0.0, math.inf),
               "fe_memory": (0.0, 1.0)}


@st.composite
def fuzzed_configs(draw):
    """(experiment, config, names of the fields drawn hostile)."""
    experiment = draw(st.sampled_from(sorted(SWEEP_FIELDS)))
    hostile = set()

    def value(name, valid):
        if draw(st.integers(0, 11)) > 0:
            return draw(valid)
        hostile.add(name)
        bad = draw(st.sampled_from(HOSTILE))
        return [bad] if name in LIST_FIELDS and draw(st.booleans()) else bad

    config = {"spin_system": {k: value(k, v) for k, v in SPIN_FIELDS.items()},
              "ensemble": {k: value(k, v) for k, v in ENSEMBLE_FIELDS.items()},
              "sweep": {k: value(k, v) for k, v in SWEEP_FIELDS[experiment].items()},
              "seed": value("seed", st.integers(0, 100)),
              "label": value("label", st.just("") | st.from_regex(r"[a-z0-9_]{1,8}", fullmatch=True))}
    return experiment, config, hostile


@given(fuzzed_configs())
@property_settings
def test_fuzzed_configs_exit_0_or_name_a_hostile_field(case):
    experiment, config, hostile = case
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "c.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([experiment.replace("_", "-"), "--config", str(path), "--out", out])
        err = err.getvalue()
        if code == 2:
            assert any(re.search(rf"\b{name}\b", err) for name in hostile), (hostile, err)
            return
        assert code == 0, err
        stem = config["label"] or experiment
        header, *rows = (Path(out) / f"{stem}.csv").read_text().splitlines()
        assert rows
        for row in rows:
            for column, cell in zip(header.split(","), row.split(",")):
                if column in CELL_RANGES:
                    lo, hi = CELL_RANGES[column]
                    assert lo - 1e-12 <= float(cell) <= hi + 1e-12 and math.isfinite(float(cell)), (column, cell)
