import argparse
import contextlib
import hashlib
import io as io_module
import json
import math
import pathlib
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpjumps import analysis, cli, experiments, fitting, io, optimize
from qpjumps.analysis import two_point_filter
from qpjumps.cli import build_parser, main
from qpjumps.core import QubitParams, load_config, serialize_config, validate_config
from qpjumps.experiments import preset_config, run_simulation, run_stats
from qpjumps.jumpsim import (
    _BLOCK,
    IQRecord,
    qp_rate_coefficient,
    sample_count,
    snr_separation,
)

from support import iteration_capped, power_law_series, run_with_address_limit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("rng_seed = 7\nduration = 0.25\n")
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def readme_flags() -> dict[str, set[str]]:
    """Flags per command in the README's usage block; a line that starts
    with blanks continues the command above it."""
    block = README.read_text().split("```\nqpjumps ", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    for line in ("qpjumps " + block).splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("qpjumps "):
            command = line.split()[1]
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


class TestParser:
    def test_flags_match_readme(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: {opt for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()
        }
        assert parsed == readme_flags()

    @pytest.mark.parametrize("argv", [
        ["experiment", "quiet-noisy", "--config", "x.cfg"],
        ["simulate", "--config", "x.cfg", "--workers", "2"],
        ["experiment", "recovery", "--workers", "2"],
        ["fit-psd", "--input", "s.csv", "--bootstrap", "8"],
        ["filter", "--record", "r.iq", "--emit-truth"],
        ["snr", "--out", "o"],
        ["snr", "--seed", "3"],
    ])
    def test_flag_outside_its_command_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    # sha256 of the files of simulate --emit-truth and filter on 2 s of
    # quiet-noisy at seed 101: the record, its trajectory and its runs
    PINNED = {
        "record.iq": "6b3b4e0621b0166242517b93090dc36cd84e00134514d3b8a18bb0b6424a3e63",
        "record.truth": "cfcca1a270db429b3c1a089fc9a4ad560ef31827cef9ca8676c7ed039a24f068",
        "states.csv": "c5dc3306a29d6dc44275b273389dcb5f60d704edd9b0e0d3bff60ba45f468793",
    }

    def test_record_truth_and_states_bytes_are_pinned(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(serialize_config(preset_config("quiet-noisy", {"duration": "2"},
                                                      seed=101)))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--emit-truth"]) == 0
        assert main(["filter", "--record", str(out / "record.iq"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self.PINNED}
        assert got == self.PINNED

    def test_sample_arithmetic_small(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("rng_seed = 1\nduration = 0.001\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(io.read_iq(out / "record.iq")) == 200

    @pytest.mark.parametrize("flags", [[], ["--emit-truth"]])
    def test_duration_under_one_bin_exits_2(self, tmp_path, flags, capsys):
        # 2 us at t_meas = 5 us: no whole bin, so no record
        cfg = tmp_path / "s.cfg"
        cfg.write_text("rng_seed = 1\nduration = 2e-6\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == (
            "configuration error: duration = 2e-06 s is shorter than one t_meas = 5e-06 s "
            "bin: the record would hold no samples\n")
        assert not out.exists()

    # duration / t_meas past an int64 count, or infinite: int() of it
    # overflowed in sample_count
    @pytest.mark.parametrize("key", ["duration=1e308", "duration=1e999", "duration=1e15",
                                     "t_meas=1e-320"])
    def test_sample_count_past_int64_exits_2(self, tmp_path, key, capsys):
        out = tmp_path / "o"
        assert main(["experiment", "quiet-noisy", "--out", str(out), "--set", key]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: duration = ") and err.count("\n") == 1
        assert "fits an int64" in err
        assert not out.exists()

    # a steady relaxation rate of 1e12 1/s (or inf) made the sampler draw
    # about 1e12 flips, and a quiet state that generates QPs with nothing to
    # remove them made N grow without bound: either took memory until a
    # MemoryError traceback (exit 1), so the child runs under a limit
    @pytest.mark.parametrize("keys", [
        ["gamma_background=1e12"],
        ["gamma_background=1e308", "gamma_scale=10"],
        ["qp_generation=0", "qp_trapping=0", "mod_quiet_generation=1"],
    ])
    def test_config_past_the_flip_ceiling_exits_2(self, tmp_path, keys):
        out = tmp_path / "o"
        argv = ["experiment", "quiet-noisy", "--out", str(out), "--set", "duration=1"]
        for key in keys:
            argv += ["--set", key]
        status, result = run_with_address_limit(_main_with_stderr, argv)
        assert status == "returned", result
        code, err = result
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert not out.exists()

    def test_seed_flag_overrides(self, tmp_path, config_file):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", str(config_file), "--out", str(a)])
        main(["simulate", "--config", str(config_file), "--out", str(b), "--seed", "7"])
        main(["simulate", "--config", str(config_file), "--out", str(c), "--seed", "8"])
        assert (a / "record.iq").read_bytes() == (b / "record.iq").read_bytes()
        assert (a / "record.iq").read_bytes() != (c / "record.iq").read_bytes()

    def test_pure_recombination(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("rng_seed = 1\nduration = 0.01\nqp_generation = 0\n"
                       "qp_trapping = 0\nqp_recombination = 1e10\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    # simulate pulls its record from the synthesis in ranges of io's
    # _BLOCK samples; they join into run_simulation's whole record.  At
    # _BLOCK + 1 they cut the occupancy's blocks off their edges
    @pytest.mark.parametrize("stream_block", [7777, _BLOCK + 1])
    def test_record_file_holds_the_whole_record(self, tmp_path, monkeypatch, stream_block):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("rng_seed = 5\nduration = 0.7\n")
        monkeypatch.setattr(io, "_BLOCK", stream_block)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, iq = run_simulation(load_config(cfg))
        assert len(iq) > 2 * _BLOCK
        pairs = np.empty(2 * len(iq), dtype="<f8")
        pairs[0::2], pairs[1::2] = iq.i, iq.q
        header = io._HEADER.pack(io.IQ_MAGIC, io.IQ_VERSION, iq.t_meas, len(iq))
        assert (out / "record.iq").read_bytes() == header + pairs.tobytes()

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
        samples = read_manifest(out)["record_counts"]["samples"]
        assert main(["filter", "--record", str(out / "record.iq"),
                     "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "states.csv").read_text().splitlines()
        assert lines[0] == "start_s,state,samples"
        # expanding the runs gives the filter's states, one per sample
        starts, states, lengths = zip(*(line.split(",") for line in lines[1:]))
        lengths = np.array(lengths, dtype=np.int64)
        expanded = np.repeat([io.STATE_CHARS.index(c) for c in states], lengths)
        sep = snr_separation(load_config(config_file).meas)
        record = io.read_iq(out / "record.iq")
        want = two_point_filter(record.read(0, len(record)), sep).states
        assert expanded.tolist() == want.tolist()
        assert lengths.sum() == samples == 50_000
        assert starts[0] == "0"

    def test_bins_per_decade_past_a_window_exits_2(self, tmp_path, config_file):
        # 10^8 bins per decade used to allocate a histogram of hundreds of
        # millions of bins; run only in a child whose address space may
        # grow by 1 GiB, where such an allocation fails fast
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])

        def stats():
            err = io_module.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["stats", "--record", str(out / "record.iq"),
                             "--out", str(out / "stats"), "--window", "0.05",
                             "--bins-per-decade", "100000000"])
            return code, err.getvalue()

        status, result = run_with_address_limit(stats)
        assert status == "returned", result
        code, err = result
        assert code == 2 and err.count("\n") == 1, err
        assert "bins_per_decade = 100000000" in err
        assert not (out / "stats").exists()

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
        # every window's histograms, as from the whole estimate's windows
        record = io.read_iq(out / "record.iq")
        est = two_point_filter(record.read(0, len(record)),
                               snr_separation(load_config(config_file).meas))
        want = {}
        for w, sub in enumerate(analysis.split_windows(est, 0.05)):
            dwells = analysis.extract_dwells(sub)
            for state, durations in (("g", dwells.ground), ("e", dwells.excited)):
                if len(durations):
                    hist = analysis.log_histogram(durations, est.t_meas,
                                                  experiments.DEFAULT_BINS_PER_DECADE)
                    path = tmp_path / f"hist_{w:04d}_{state}.csv"
                    io.write_histogram_csv(path, hist, analysis.poisson_prediction(hist))
                    want[path.name] = path.read_bytes()
        got = {p.name: p.read_bytes() for p in out.glob("hist_*.csv")}
        assert len(got) == 10 and got == want

    # filter's blocks: one sample, seven, one _BLOCK and one more; a record
    # of runs that cross the block edges, and one that is a single run
    @pytest.mark.parametrize("block", [1, 7, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("case", ["runs", "one run"])
    def test_blocked_filter_writes_the_whole_estimate_rows(self, tmp_path, monkeypatch,
                                                          block, case):
        n = 300 if block < 100 else 2 * _BLOCK + 50
        rng = np.random.default_rng(block)
        sep = 2.5
        if case == "runs":
            states = np.repeat(np.arange(n) % 2, rng.geometric(1 / 40, n))[:n]
            i = sep * (1.0 - 2.0 * states) + rng.standard_normal(n)
        else:
            i = np.full(n, sep)
        whole = IQRecord(t_meas=5e-6, i=i, q=rng.standard_normal(n))
        path = tmp_path / "r.iq"
        io.write_iq(path, whole)
        est = two_point_filter(whole, sep)
        want = tmp_path / "want.csv"
        io.write_states_csv(want, [est])
        edges = np.arange(block, n, block)
        crossing = np.sum(est.states[edges - 1] == est.states[edges])
        if case == "runs":
            assert crossing > 0
        else:
            assert len(want.read_text().splitlines()) == 2

        filtered = []
        real_filter = experiments.two_point_filter

        def recorded(iq, separation, initial=None):
            filtered.append(len(iq))
            return real_filter(iq, separation, initial)

        monkeypatch.setattr(experiments, "two_point_filter", recorded)
        monkeypatch.setattr(experiments, "_BLOCK", block)
        out = tmp_path / "out"
        assert main(["filter", "--record", str(path), "--separation", str(sep),
                     "--out", str(out)]) == 0
        assert (out / "states.csv").read_bytes() == want.read_bytes()
        assert filtered == np.diff([*range(0, n, block), n]).tolist()

    @pytest.mark.parametrize("command", ["stats", "filter"])
    def test_record_that_shrinks_after_read_iq_exits_3(self, tmp_path, config_file,
                                                       monkeypatch, command, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--out", str(sim)]) == 0
        read_iq = io.read_iq

        def shrinking(path):
            record = read_iq(path)
            with open(path, "r+b") as fh:
                fh.truncate(24 + 16 * 1000)
            return record

        monkeypatch.setattr(io, "read_iq", shrinking)
        out = tmp_path / "out"
        window = ["--window", "0.05"] if command == "stats" else []
        assert main([command, "--record", str(sim / "record.iq"), *window,
                     "--config", str(config_file), "--out", str(out)]) == 3
        assert "payload ended early at offset 16024" in capsys.readouterr().err
        assert not out.exists()

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

    # windows of 20 samples, and of 1 s on a 0.25 s record
    @pytest.mark.parametrize("window", ["0.0001", "1.0"])
    def test_bad_window_is_a_configuration_error(self, tmp_path, config_file, window,
                                                 capsys):
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["stats", "--record", str(out / "record.iq"), "--window", window,
                     "--config", str(config_file), "--out", str(out / "stats")]) == 2
        assert "window" in capsys.readouterr().err

    def test_bins_per_decade_below_one_writes_no_data_file(self, tmp_path, config_file,
                                                           capsys):
        # 100-sample windows hold too few dwells for a fidelity, so the first
        # histogram is built only after report.csv would be written
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        stats = out / "stats"
        assert main(["stats", "--record", str(out / "record.iq"), "--window", "0.0005",
                     "--bins-per-decade", "0", "--config", str(config_file),
                     "--out", str(stats)]) == 2
        assert "bins_per_decade" in capsys.readouterr().err
        assert not stats.exists()

    def test_bad_separation_rejected(self, tmp_path, config_file):
        out = tmp_path / "run"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["filter", "--record", str(out / "record.iq"),
                     "--separation", "0.5", "--out", str(out)]) == 2

    @staticmethod
    def _noise_record(tmp_path):
        """A 0.5 s record of unit noise, 100,000 samples."""
        path = tmp_path / "noise.iq"
        rng = np.random.default_rng(0)
        io.write_iq(path, IQRecord(t_meas=5e-6, i=rng.standard_normal(100_000),
                                   q=rng.standard_normal(100_000)))
        return str(path)

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["filter", "stats"])
    def test_separation_that_is_not_finite_exits_2(self, tmp_path, command, separation,
                                                    capsys):
        out = tmp_path / "out"
        window = ["--window", "0.05"] if command == "stats" else []
        assert main([command, "--record", self._noise_record(tmp_path), *window,
                     "--separation", separation, "--out", str(out)]) == 2
        assert "separation must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", ["nan", "inf"])
    def test_window_that_is_not_finite_exits_2(self, tmp_path, window, capsys):
        out = tmp_path / "out"
        assert main(["stats", "--record", self._noise_record(tmp_path),
                     "--window", window, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid input: window must be a finite number of seconds, got {window}\n"
        assert not out.exists()

    def test_window_of_no_finite_sample_count_exits_2(self, tmp_path, capsys):
        # 1e308 s over 5 us is inf samples: round() of it raised OverflowError
        out = tmp_path / "out"
        assert main(["stats", "--record", self._noise_record(tmp_path),
                     "--window", "1e308", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("invalid input: window = 1e+308 s at t_meas = 5e-06 s holds inf "
                       "samples, not a finite count\n")
        assert not out.exists()

    def test_bins_per_decade_past_a_float_exits_2(self, tmp_path, capsys):
        # 10^400 times a float raised OverflowError before the grid was checked
        out = tmp_path / "out"
        assert main(["stats", "--record", self._noise_record(tmp_path), "--window", "0.05",
                     f"--bins-per-decade={10**400}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: bins_per_decade = 1000") and err.count("\n") == 1
        assert not out.exists()


# the record commands' numeric flags as --flag=value texts, each drawn with
# whether the flag alone lets the command run on a 0.5 s record at 5 us:
# 0, negative, subnormal, huge, NaN and infinite values beside small valid
# ones.  --separation must exceed 1; --window must hold 100 samples to the
# record's 100,000 as a finite count; --bins-per-decade must be at least 1
# and give a window's log grid no more bins than its samples (10^400, past
# a float, raised OverflowError there)
_REFUSED_FLOATS = st.sampled_from(["0", "-0.0", "5e-324", "nan", "inf", "-inf"])
RECORD_FLAG_VALUES = {
    "--separation": st.one_of(
        st.tuples(st.one_of(_REFUSED_FLOATS, st.sampled_from(["1", "0.5"]),
                            st.floats(max_value=0).map(repr)), st.just(False)),
        st.tuples(st.one_of(st.sampled_from(["1e308", "2.59"]),
                            st.floats(min_value=1, max_value=1e308, exclude_min=True)
                            .map(repr)), st.just(True))),
    "--window": st.one_of(
        st.tuples(st.one_of(_REFUSED_FLOATS, st.sampled_from(["1e308", "1e300", "4.9e-4",
                                                              "0.6"]),
                            st.floats(max_value=0).map(repr)), st.just(False)),
        st.tuples(st.sampled_from(["0.05", "0.1", "0.125", "0.25", "0.5"]),
                  st.just(True))),
    "--bins-per-decade": st.one_of(
        st.tuples(st.one_of(st.integers(max_value=0), st.integers(min_value=10**5),
                            st.sampled_from([10**308, 10**400])).map(str),
                  st.just(False)),
        st.tuples(st.integers(min_value=1, max_value=20).map(str), st.just(True))),
}
RECORD_FLAGS = {"filter": ["--separation"],
                "stats": ["--separation", "--window", "--bins-per-decade"]}


@pytest.fixture(scope="module")
def noise_record(tmp_path_factory):
    """TestFilterAndStats._noise_record, made once for the module."""
    return TestFilterAndStats._noise_record(tmp_path_factory.mktemp("noise"))


# every record-command flag drawn at once, each as --flag=value (a bare
# -inf reads as an option).  A refused value gives exit 2 with one stderr
# line and no --out directory; valid values give exit 0.  Each case runs
# in a child under an address-space limit, so a value that allocates
# before it is refused fails fast there
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_flags_are_refused_with_one_line(noise_record, data):
    command = data.draw(st.sampled_from(sorted(RECORD_FLAGS)))
    flags = {flag: data.draw(RECORD_FLAG_VALUES[flag], label=flag)
             for flag in RECORD_FLAGS[command]}
    if command == "stats" and "--window" not in flags:
        flags["--window"] = ("0.05", True)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        argv = [command, "--record", noise_record, "--out", str(out),
                *(f"{flag}={text}" for flag, (text, _) in flags.items())]
        status, result = run_with_address_limit(_main_with_stderr, argv)
        assert status == "returned", result
        code, err = result
        if all(valid for _, valid in flags.values()):
            assert (code, err) == (0, ""), argv
            assert out.is_dir()
        else:
            assert code == 2 and err.count("\n") == 1, (argv, err)
            assert err.startswith("invalid input: "), err
            assert "Traceback" not in err
            assert not out.exists()


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

    def test_fit_thermal_flat_data_warns_not_overflows(self, tmp_path):
        # near-flat noise: Levenberg-Marquardt drives the decay time towards
        # infinity, where exp(log tau) used to overflow
        temps = [0.05100396157584217, 0.0493820929552924, 0.05182201136332833,
                 0.048679569029986706, 0.049338471978184785, 0.050935049988114024,
                 0.05004905461382531, 0.05200239258364526]
        series = tmp_path / "temps.csv"
        io.write_series_csv(series, np.arange(8) / 7, temps, "temperature_K")
        out = tmp_path / "f"
        # no RuntimeWarning either: an overflow on the way, in the fit or in
        # the bootstrap's spread, is a defect even when the exit code holds
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit-thermal", "--input", str(series), "--out", str(out)]) == 1
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        report = dict(line.split(",") for line in (out / "fit.csv").read_text().splitlines())
        assert report["status"] == "warned"
        assert all(math.isfinite(float(v)) for k, v in report.items() if k.endswith("_err_k"))

    def test_fit_recovery_too_few_bins_exit(self, tmp_path):
        series = tmp_path / "tau.csv"
        io.write_series_csv(series, [1e-3, 2e-3, 3e-3], [1e-4] * 3, "tau_e_s")
        assert main(["fit-recovery", "--input", str(series),
                     "--out", str(tmp_path / "f"), "--bootstrap", "4"]) == 4

    def test_fit_recovery_constant_series_models_the_steady_value(self, tmp_path):
        # nothing to recover: tau is NaN, and the model is the steady density
        series = tmp_path / "tau.csv"
        io.write_series_csv(series, np.arange(1, 9) * 1e-3, [1e-4] * 8, "tau_e_s")
        out = tmp_path / "f"
        assert main(["fit-recovery", "--input", str(series), "--out", str(out)]) == 1
        report = dict(line.split(",") for line in (out / "fit.csv").read_text().splitlines())
        assert report["status"] == "warned" and report["tau_ss_s"] == "nan"
        rows = (out / "residuals.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        for row in rows:
            _, model, residual = row.split(",")
            assert model == report["x_steady"] and float(residual) == 0.0

    def test_fit_psd_on_synthetic_series(self, tmp_path):
        rng = np.random.default_rng(5)
        x = power_law_series(1024, 1.0, 1.4, amplitude=1.0, floor=2e-2, rng=rng)
        series = tmp_path / "series.csv"
        io.write_series_csv(series, np.arange(1024.0), x, "tau_g_s")
        out = tmp_path / "psd"
        assert main(["fit-psd", "--input", str(series), "--out", str(out)]) == 0
        report = dict(
            line.split(",") for line in (out / "fit.csv").read_text().splitlines()[1:]
        )
        assert abs(float(report["alpha"]) - 1.4) < 0.3
        assert (out / "psd.csv").exists()
        assert (out / "residuals.csv").exists()

    @pytest.mark.parametrize("command", ["fit-psd", "fit-thermal", "fit-recovery"])
    def test_bad_config_writes_no_data_file(self, tmp_path, command):
        t = np.arange(64.0) * 1e-3
        series = tmp_path / "series.csv"
        io.write_series_csv(series, t, 1e-4 * (1.0 + np.exp(-t / 8e-3)), "value")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rng_seed = 1\nduration = 1\nefficiency = 2\n")
        out = tmp_path / "fit"
        assert main([command, "--input", str(series), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_fit_psd_nonconvergence_exit(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        x = power_law_series(1024, 1.0, 1.4, amplitude=1.0, floor=2e-2, rng=rng)
        series = tmp_path / "series.csv"
        io.write_series_csv(series, np.arange(1024.0), x, "tau_g_s")
        monkeypatch.setattr(fitting, "optimize", iteration_capped(optimize, 1))
        assert main(["fit-psd", "--input", str(series), "--out",
                     str(tmp_path / "psd")]) == 4

    # one row has no spacing: its median used to warn twice ("Mean of empty
    # slice") before the length was checked; two rows are too short too
    @pytest.mark.parametrize("rows", [1, 2])
    def test_fit_psd_on_too_few_rows_prints_one_line(self, tmp_path, capsys, rows):
        series = tmp_path / "series.csv"
        io.write_series_csv(series, np.arange(float(rows)), np.ones(rows), "tau_g_s")
        out = tmp_path / "psd"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit-psd", "--input", str(series), "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1, err
        assert not out.exists()


    # series no fit can use: a time or value that is not finite (NaN
    # values excepted for fit-psd, where they mark missing windows), or
    # times that span no time
    @pytest.mark.parametrize("command, column, bad", [
        ("fit-recovery", "value", "inf"), ("fit-recovery", "value", "nan"),
        ("fit-recovery", "time", "inf"), ("fit-recovery", "same", None),
        ("fit-thermal", "value", "inf"), ("fit-thermal", "time", "nan"),
        ("fit-thermal", "same", None),
        ("fit-psd", "time", "inf"), ("fit-psd", "time", "nan"),
    ])
    def test_unusable_series_exits_4(self, tmp_path, capsys, command, column, bad):
        if command == "fit-psd":  # the series of test_fit_psd_on_synthetic_series
            t = np.arange(1024.0)
            values = power_law_series(1024, 1.0, 1.4, amplitude=1.0, floor=2e-2,
                                      rng=np.random.default_rng(5))
        else:
            t = np.arange(1.0, 65.0) * 1e-4
            values = (1e-4 if command == "fit-recovery" else 0.045) * (1.0 + np.exp(-t / 2e-3))
        rows = [[repr(float(a)), repr(float(b))] for a, b in zip(t, values)]
        if column == "same":
            rows = [["1e-3", b] for _, b in rows]
        else:
            rows[5][column == "value"] = bad
        series = tmp_path / "series.csv"
        series.write_text("t_s,value\n" + "".join(f"{a},{b}\n" for a, b in rows))
        out = tmp_path / "fit"
        flags = [] if command == "fit-psd" else ["--bootstrap", "2"]
        assert main([command, "--input", str(series), "--out", str(out), *flags]) == 4
        err = capsys.readouterr().err
        assert err.startswith("fit error: ") and err.count("\n") == 1, err
        assert ("span no time" if column == "same" else "must be finite") in err
        assert not out.exists()

    def test_bootstrap_past_the_ceiling_exits_2_before_allocating(self, tmp_path):
        # 10^9 refits once asked np.empty for 22.4 GiB before the first
        # refit: run only in a child under an address-space limit, where
        # that is a fast MemoryError
        series = _fit_series("fit-thermal", tmp_path / "temps.csv")
        out = tmp_path / "fit"
        status, result = run_with_address_limit(
            _main_with_stderr, ["fit-thermal", "--input", str(series), "--out", str(out),
                                "--bootstrap", "1000000000"])
        assert status == "returned", result
        code, err = result
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith("invalid input: ") and "at most 10000 refits" in err
        assert not out.exists()

    # each fit command's numeric flags at 0, negative, huge and just past
    # their ceilings: --bootstrap takes 2 to N_BOOTSTRAP_MAX, --segments 1
    # to the segments of at least 16 samples the series has (64 here),
    # --seed an unsigned 64-bit integer.  No large valid count is drawn: the
    # only valid value is seed 0.  Every case runs in a child under an
    # address-space limit, so a count that allocates before it is refused
    # fails fast there
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_numeric_flags_are_refused_with_one_line(self, data):
        command, flag = data.draw(st.sampled_from(FIT_FLAGS))
        low, ceiling = FIT_FLAG_RANGES[flag]
        value = data.draw(st.one_of(st.just(0), st.integers(max_value=-1),
                                    st.integers(min_value=ceiling + 1),
                                    st.just(ceiling + 1)))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            series = _fit_series(command, tmp / "series.csv")
            out = tmp / "fit"
            argv = [command, "--input", str(series), "--out", str(out)]
            if command != "fit-psd" and flag != "--bootstrap":
                argv += ["--bootstrap", "4"]
            status, result = run_with_address_limit(_main_with_stderr,
                                                    [*argv, flag, str(value)])
            assert status == "returned", result
            code, err = result
            if low <= value <= ceiling:
                assert (code, err) == (0, "")
                assert (out / "fit.csv").exists()
            else:
                assert code == 2 and err.count("\n") == 1, err
                assert err.startswith(("invalid input: ", "configuration error: ")), err
                assert "Traceback" not in err
                assert not out.exists()


# the fit commands' numeric flags, and each flag's (least, most) valid value
FIT_FLAGS = [("fit-recovery", "--bootstrap"), ("fit-thermal", "--bootstrap"),
             ("fit-psd", "--segments"), ("fit-recovery", "--seed"),
             ("fit-thermal", "--seed"), ("fit-psd", "--seed")]
FIT_FLAG_RANGES = {"--bootstrap": (2, fitting.N_BOOTSTRAP_MAX), "--segments": (1, 64),
                   "--seed": (0, 2**64 - 1)}


def _fit_series(command: str, path):
    """A series that command fits with exit 0, written to path: a recovery
    from 2.6e-7 to 4e-8 as dwells, a temperature decay, or 1024 samples of
    a power-law spectrum."""
    if command == "fit-psd":
        t = np.arange(1024.0)
        values = power_law_series(1024, 1.0, 1.4, amplitude=1.0, floor=2e-2,
                                  rng=np.random.default_rng(5))
    else:
        t = np.geomspace(5e-6, 9e-3, 25)
        if command == "fit-recovery":
            qubit = QubitParams()
            x = 4e-8 + 2.6e-7 * np.exp(-t / 125e-6)
            values = 1.0 / (x * qp_rate_coefficient(qubit) + qubit.gamma_background)
        else:
            values = 0.045 + 0.01 * np.exp(-t / 2.2e-3)
    io.write_series_csv(path, t, values, "value")
    return path


def _main_with_stderr(argv):
    """main(argv) and what it wrote to stderr."""
    err = io_module.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestManifestProvenance:
    """A command run without --config records no configuration hash, and
    its seed only when --seed is given."""

    @pytest.fixture()
    def series(self, tmp_path):
        t = np.arange(64.0) * 1e-3
        path = tmp_path / "series.csv"
        io.write_series_csv(path, t, 0.045 + 0.01 * np.exp(-t / 8e-3), "value")
        return path

    @pytest.mark.parametrize("command", ["fit-psd", "fit-thermal", "fit-recovery"])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_fit_without_config(self, tmp_path, series, command, seed):
        out = tmp_path / "fit"
        argv = [command, "--input", str(series), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        main(argv)
        manifest = read_manifest(out)
        assert manifest["config_hash"] is None
        assert manifest["rng_seed"] == seed

    @pytest.mark.parametrize("command", ["filter", "stats"])
    def test_record_commands_with_and_without_config(self, tmp_path, config_file,
                                                      command):
        main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
        record = str(tmp_path / "record.iq")
        extra = ["--window", "0.05"] if command == "stats" else []
        bare, given = tmp_path / "bare", tmp_path / "given"
        assert main([command, "--record", record, "--separation", "2.6",
                     "--out", str(bare)] + extra) == 0
        assert main([command, "--record", record, "--config", str(config_file),
                     "--out", str(given)] + extra) == 0
        assert read_manifest(bare)["config_hash"] is None
        assert read_manifest(bare)["rng_seed"] is None
        config = validate_config(config_file.read_text())
        assert read_manifest(given)["config_hash"] == io.config_hash(config)
        assert read_manifest(given)["rng_seed"] == 7


class TestExperiment:
    # 3 ms used to bin against the wrong phase; with 10.05 ms the first
    # pulse start plus its length exceeds the period
    @pytest.mark.parametrize("first", ["3ms", "10.05ms"])
    def test_recovery_with_a_late_first_pulse(self, tmp_path, first):
        out = tmp_path / "exp"
        assert main(["experiment", "recovery", "--out", str(out), "--set", "duration=20.23",
                     "--set", "pulse_count=2000", "--set", f"pulse_first={first}"]) == 0
        report = dict(line.split(",")
                      for line in (out / "recovery_fit.csv").read_text().splitlines())
        assert report["status"] == "converged"

    def test_recovery_wait_past_the_readout_window_exits_2(self, tmp_path, capsys,
                                                           monkeypatch):
        def no_simulation(*args):
            raise AssertionError("a chunk was simulated")

        monkeypatch.setattr(experiments, "simulate_layers", no_simulation)
        out = tmp_path / "exp"
        assert main(["experiment", "recovery", "--out", str(out),
                     "--set", "pulse_wait=0.02", "--set", "pulse_count=600",
                     "--set", "duration=6.063"]) == 2
        assert "pulse_wait" in capsys.readouterr().err
        assert not out.exists()

    # bootstrap errors need two refits: one gave zero errors, none NaN
    @pytest.mark.parametrize("boot", ["0", "1"])
    @pytest.mark.parametrize("command", ["fit-recovery", "fit-thermal"])
    def test_bootstrap_below_two_is_invalid_input(self, tmp_path, command, boot, capsys):
        t = np.geomspace(5e-6, 9e-3, 25)
        if command == "fit-recovery":
            x = 4e-8 + 2.6e-7 * np.exp(-t / 125e-6)
            qubit = QubitParams()
            values = 1.0 / (x * qp_rate_coefficient(qubit) + qubit.gamma_background)
        else:
            values = 0.045 + 0.01 * np.exp(-t / 2.2e-3)
        series = tmp_path / "series.csv"
        io.write_series_csv(series, t, values, "value")
        argv = [command, "--input", str(series), "--out"]
        assert main(argv + [str(tmp_path / "two"), "--bootstrap", "2"]) == 0
        out = tmp_path / "fit"
        assert main(argv + [str(out), "--bootstrap", boot]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and f"2 refits, got {boot}" in err
        assert not out.exists()

    def test_unknown_name_lists_available(self, tmp_path, capsys):
        assert main(["experiment", "nope", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        for name in ("quiet-noisy", "qp-pulses", "field-cool", "recovery", "psd"):
            assert name in err

    # a record shorter than the 1 s or 0.1 s window; windows of 50 samples
    @pytest.mark.parametrize("name, keys", [
        ("quiet-noisy", ["duration=0.5"]),
        ("psd", ["duration=0.09"]),
        ("quiet-noisy", ["duration=4", "t_meas=0.02"]),
        ("psd", ["duration=4", "t_meas=0.002"]),
    ])
    def test_bad_window_is_a_configuration_error(self, tmp_path, name, keys, capsys):
        argv = ["experiment", name, "--out", str(tmp_path)]
        for key in keys:
            argv += ["--set", key]
        assert main(argv) == 2
        assert "window" in capsys.readouterr().err

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

        # the preset's example histograms are stats' histograms of the
        # windows with the largest and the smallest fidelity
        report = run_stats(io.read_iq(sim_out / "record.iq"), snr_separation(config.meas))
        f = report.fidelity_ground
        for tag, w in (("quiet", np.nanargmax(f)), ("noisy", np.nanargmin(f))):
            for state in ("g", "e"):
                example = exp_out / f"example_{tag}_{state}.csv"
                assert example.read_bytes() == (
                    sim_out / f"hist_{w:04d}_{state}.csv").read_bytes()

    def test_each_window_is_scanned_for_dwells_once(self, tmp_path, monkeypatch):
        calls = []
        extract = analysis.extract_dwells

        def counted(est):
            calls.append(len(est))
            return extract(est)

        for module in (analysis, experiments, cli):
            monkeypatch.setattr(module, "extract_dwells", counted)
        config = preset_config("quiet-noisy", {"duration": "3"})
        per = round(experiments.DEFAULT_WINDOW / config.meas.t_meas)
        cfg_path = tmp_path / "qn.cfg"
        cfg_path.write_text(serialize_config(config))
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_out)]) == 0
        assert main(["stats", "--record", str(sim_out / "record.iq"),
                     "--config", str(cfg_path), "--out", str(sim_out)]) == 0
        assert (sim_out / "hist_0002_g.csv").exists()
        assert calls == [per] * 3

        calls.clear()
        exp_out = tmp_path / "exp"
        assert main(["experiment", "quiet-noisy", "--out", str(exp_out),
                     "--set", "duration=3"]) == 0
        assert (exp_out / "example_noisy_g.csv").exists()
        assert calls == [per] * 3

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


def test_record_commands_grow_by_under_2_5_bytes_per_sample(tmp_path):
    # numpy reports its buffers to tracemalloc.  On quiet-noisy from 20 s to
    # 40 s, holding the whole record grew simulate's traced peak by 16.7 B
    # per added sample, stats' by 16.1 B and filter's by 19.0 B.  Streamed
    # in blocks they grow by 0.39, 0.11 and 0.31 B; simulate --emit-truth
    # also grew by 0.39 B, for the whole trajectory it kept.  With the
    # trajectory read a segment at a time it grows by 0.14 B, as its
    # largest segment grows from 6,104 to 8,037 knots, near the most a
    # segment holds; stats and filter do not read it.  The traced peaks at
    # 20 s are bounded too.  With ranges of 2^19 samples they were 21.9,
    # 8.4 and 10.7 MiB; with write_iq and filter at _BLOCK samples a range
    # and run_stats at one 1 s window a block, they are 7.9, 4.9 and 2.4
    peaks = {}
    for duration in (20, 40):
        config = preset_config("quiet-noisy", {"duration": str(duration)})
        cfg = tmp_path / f"{duration}.cfg"
        cfg.write_text(serialize_config(config))
        out = tmp_path / str(duration)
        record = str(out / "record.iq")
        for command, argv in (
            ("simulate", ["--out", str(out), "--emit-truth"]),
            ("stats", ["--record", record, "--out", str(out / "stats")]),
            ("filter", ["--record", record, "--out", str(out / "filter")]),
        ):
            tracemalloc.start()
            try:
                assert main([command, "--config", str(cfg), *argv]) == 0
                peaks[command, duration] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    t_meas = config.meas.t_meas
    added = sample_count(40, t_meas) - sample_count(20, t_meas)
    for command, bound, mib in (("simulate", 0.2, 12), ("stats", 2.5, 7),
                                ("filter", 2.5, 5)):
        growth = (peaks[command, 40] - peaks[command, 20]) / added
        assert growth < bound, (command, growth)
        assert peaks[command, 20] < mib * 2**20, (command, peaks[command, 20])
