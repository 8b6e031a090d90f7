import json

import numpy as np
import pytest

from qpjumps import io
from qpjumps.cli import main
from qpjumps.core import serialize_config, validate_config
from qpjumps.experiments import preset_config

from support import power_law_series


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("rng_seed = 7\nduration = 0.25\n")
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestSnr:
    def test_prints_paper_separation(self, capsys):
        assert main(["snr"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["i_over_sigma"]) == pytest.approx(2.5912, abs=5e-4)
        assert float(values["peak_separation_2i"]) == pytest.approx(5.182, abs=5e-3)


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config_file), "--out", str(out),
                     "--emit-truth"]) == 0
        record = io.read_iq(out / "record.iq")
        assert len(record) == 50_000  # 0.25 s at 5 us
        assert (out / "record.truth").exists()
        manifest = read_manifest(out)
        assert manifest["rng_seed"] == 7
        assert manifest["record_counts"]["samples"] == 50_000
        config = validate_config(config_file.read_text())
        assert manifest["config_hash"] == io.config_hash(config)

    def test_sample_arithmetic_small(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("rng_seed = 1\nduration = 0.001\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(io.read_iq(out / "record.iq")) == 200

    def test_seed_flag_overrides(self, tmp_path, config_file):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", str(config_file), "--out", str(a)])
        main(["simulate", "--config", str(config_file), "--out", str(b), "--seed", "7"])
        main(["simulate", "--config", str(config_file), "--out", str(c), "--seed", "8"])
        assert (a / "record.iq").read_bytes() == (b / "record.iq").read_bytes()
        assert (a / "record.iq").read_bytes() != (c / "record.iq").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 2

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rng_seed = 1\nduration = 1\nefficiency = 2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


class TestFilterAndStats:
    def test_filter_writes_states(self, tmp_path, config_file):
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["filter", "--record", str(out / "record.iq"),
                     "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "states.csv").read_text().splitlines()
        assert lines[0] == "time_s,state"
        assert len(lines) == 50_001

    def test_stats_outputs(self, tmp_path, config_file):
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["stats", "--record", str(out / "record.iq"),
                     "--config", str(config_file), "--out", str(out),
                     "--window", "0.05"]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "t_s,tau_g_s,tau_e_s,F,one_minus_F,sigma_z"
        assert len(report) == 6  # five 50 ms windows
        assert (out / "hist_0000_g.csv").exists()
        assert (out / "hist_0000_e.csv").exists()

    def test_corrupt_record_exit_code(self, tmp_path, config_file):
        path = tmp_path / "bad.iq"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        assert main(["stats", "--record", str(path), "--out", str(tmp_path)]) == 3

    def test_empty_record_rejected(self, tmp_path):
        path = tmp_path / "empty.iq"
        path.write_bytes(b"")
        assert main(["stats", "--record", str(path), "--out", str(tmp_path)]) == 3

    def test_zero_sample_record_rejected(self, tmp_path):
        path = tmp_path / "zero.iq"
        io.write_iq(path, io.IQRecord(t_meas=5e-6, i=np.empty(0), q=np.empty(0)))
        assert main(["stats", "--record", str(path), "--out", str(tmp_path)]) == 3

    def test_bad_separation_rejected(self, tmp_path, config_file):
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["filter", "--record", str(out / "record.iq"),
                     "--separation", "0.5", "--out", str(out)]) == 2


class TestFitCommands:
    def test_fit_thermal_round_trip(self, tmp_path):
        t = np.linspace(0, 10e-3, 24)
        temps = 0.045 + 0.01 * np.exp(-t / 2.2e-3)
        series = tmp_path / "temps.csv"
        io.write_series_csv(series, t, temps, "temperature_K")
        out = tmp_path / "fit"
        assert main(["fit-thermal", "--input", str(series), "--out", str(out),
                     "--bootstrap", "10"]) == 0
        report = dict(
            line.split(",") for line in (out / "fit.csv").read_text().splitlines()[1:]
        )
        assert float(report["tau_th_s"]) == pytest.approx(2.2e-3, rel=1e-6)
        assert report["status"] == "converged"

    def test_fit_thermal_warned_exit(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1e-2, 16)
        series = tmp_path / "temps.csv"
        io.write_series_csv(series, t, 0.05 + 1e-3 * rng.standard_normal(16), "temperature_K")
        assert main(["fit-thermal", "--input", str(series), "--out",
                     str(tmp_path / "f"), "--bootstrap", "4"]) == 1

    def test_fit_recovery_too_few_bins_exit(self, tmp_path):
        series = tmp_path / "tau.csv"
        io.write_series_csv(series, [1e-3, 2e-3, 3e-3], [1e-4] * 3, "tau_e_s")
        assert main(["fit-recovery", "--input", str(series),
                     "--out", str(tmp_path / "f"), "--bootstrap", "4"]) == 4

    def test_fit_psd_on_synthetic_series(self, tmp_path):
        rng = np.random.default_rng(5)
        x = power_law_series(1024, 1.0, 1.4, amplitude=1.0, floor=2e-2, rng=rng)
        series = tmp_path / "series.csv"
        io.write_series_csv(series, np.arange(1024.0), x, "tau_g_s")
        out = tmp_path / "psd"
        assert main(["fit-psd", "--input", str(series), "--out", str(out),
                     "--bootstrap", "8"]) == 0
        report = dict(
            line.split(",") for line in (out / "fit.csv").read_text().splitlines()[1:]
        )
        assert abs(float(report["alpha"]) - 1.4) < 0.3
        assert (out / "psd.csv").exists()
        assert (out / "residuals.csv").exists()


class TestExperiment:
    def test_unknown_name_lists_available(self, tmp_path, capsys):
        assert main(["experiment", "nope", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        for name in ("quiet-noisy", "qp-pulses", "field-cool", "recovery", "psd"):
            assert name in err

    def test_quiet_noisy_bundle(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "quiet-noisy", "--out", str(out),
                     "--set", "duration=4"]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 5
        summary = dict(
            line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]
        )
        assert "median_tau_g_s" in summary
        manifest = read_manifest(out)
        assert manifest["record_counts"]["windows"] == 4

    def test_composition_equals_monolith(self, tmp_path):
        # simulate + stats with the same seed reproduces the experiment's report
        config = preset_config("quiet-noisy", {"duration": "3"})
        exp_out = tmp_path / "exp"
        assert main(["experiment", "quiet-noisy", "--out", str(exp_out),
                     "--set", "duration=3"]) == 0

        cfg_path = tmp_path / "qn.cfg"
        cfg_path.write_text(serialize_config(config))
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_out)]) == 0
        assert main(["stats", "--record", str(sim_out / "record.iq"),
                     "--config", str(cfg_path), "--out", str(sim_out),
                     "--window", "1.0"]) == 0
        assert (sim_out / "report.csv").read_bytes() == (exp_out / "report.csv").read_bytes()

    def test_experiment_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["experiment", "quiet-noisy", "--out", str(out),
                         "--set", "duration=2"]) == 0
        for name in ("report.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma, mb = read_manifest(a), read_manifest(b)
        ma.pop("wall_clock_s"), mb.pop("wall_clock_s")
        assert ma == mb
