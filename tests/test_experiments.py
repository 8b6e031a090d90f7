import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qpjumps import cli, experiments, io
from qpjumps.core import ConfigError, PeriodicPulses, ScenarioConfig
from qpjumps.experiments import (
    preset_config,
    recovery_bin_edges,
    recovery_chunk_stats,
    run_experiment,
    run_recovery,
    run_simulation,
    run_stats,
    simulate_record,
    tau_fidelity_correlation,
)
from qpjumps.jumpsim import (
    STATE_EXCITED,
    STATE_GROUND,
    IQRecord,
    TruthTrace,
    sample_count,
    snr_separation,
)

from support import whole_record_experiment


class TestPresetConfigs:
    def test_all_presets_validate(self):
        for name in ("quiet-noisy", "qp-pulses", "field-cool", "recovery", "psd"):
            config = preset_config(name)
            assert config.duration > 0

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_config("nope")

    def test_overrides_and_seed(self):
        config = preset_config("quiet-noisy", {"duration": "5"}, seed=999)
        assert config.duration == 5.0
        assert config.rng_seed == 999

    def test_bad_override_propagates(self):
        with pytest.raises(ConfigError):
            preset_config("quiet-noisy", {"efficiency": "7"})

    def test_recovery_preset_shape(self):
        config = preset_config("recovery")
        assert config.pulse_periodic is not None
        assert config.pulse_periodic.count == 10_000
        assert len(config.pulses) == 10_000
        assert config.qubit.gamma_background == 0.0


class TestRecoveryMachinery:
    def test_bin_edges_span_readout(self):
        config = preset_config("recovery")
        edges = recovery_bin_edges(config)
        assert edges[0] == pytest.approx(config.pulse_wait)
        assert edges[-1] == config.pulse_periodic.period - config.pulse_periodic.length

    def test_jump_is_binned_from_the_pulse_before_it(self):
        # the train starts 3 ms in; the qubit is excited from t = 0 and
        # relaxes t_rel after the second pulse ends
        train = PeriodicPulses(first=3e-3, period=10.105e-3, length=100e-6, inject=0,
                               count=3)
        config = ScenarioConfig(duration=train.first + 3 * train.period, rng_seed=0,
                                pulse_periodic=train)
        edges = recovery_bin_edges(config)
        t_rel = 1e-3
        truth = TruthTrace(
            duration=config.duration,
            times=np.array([0.0, config.pulses[1].end + t_rel]),
            states=np.array([STATE_EXCITED, STATE_GROUND], dtype=np.uint8),
            counts=np.zeros(2, dtype=np.int64),
        )
        exposure, counts, t_sum = recovery_chunk_stats(truth, config, edges)
        k = np.searchsorted(edges, t_rel, side="right") - 1
        assert counts.sum() == 1 and counts[k] == 1
        assert t_sum[k] == pytest.approx(t_rel, rel=1e-9)
        assert t_sum.sum() == t_sum[k]
        # bins before k are excited after the first two pulses, bin k after
        # the first and up to the jump after the second
        width = np.diff(edges)
        assert exposure[:k] == pytest.approx(2 * width[:k], rel=1e-9)
        assert exposure[k] == pytest.approx(width[k] + t_rel - edges[k], rel=1e-9)

    def test_jump_during_the_next_pulse_is_not_binned(self):
        # the qubit is excited from t = 0 and relaxes halfway through the
        # second pulse, past the first readout window
        train = PeriodicPulses(first=0.0, period=10.105e-3, length=100e-6, inject=0,
                               count=2)
        config = ScenarioConfig(duration=2 * train.period, rng_seed=0,
                                pulse_periodic=train)
        edges = recovery_bin_edges(config)
        pulse = config.pulses[1]
        truth = TruthTrace(
            duration=config.duration,
            times=np.array([0.0, pulse.start + pulse.length / 2]),
            states=np.array([STATE_EXCITED, STATE_GROUND], dtype=np.uint8),
            counts=np.zeros(2, dtype=np.int64),
        )
        exposure, counts, t_sum = recovery_chunk_stats(truth, config, edges)
        assert counts.sum() == 0 and t_sum.sum() == 0
        # every bin is excited after the first pulse only, and the last one
        # stops where the second pulse starts
        window = train.period - train.length
        assert exposure == pytest.approx(np.diff(edges), rel=1e-9)
        assert exposure[-1] == pytest.approx(window - edges[-2], rel=1e-9)

    def test_small_run_fits(self):
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        times, tau_e, n_jumps, fit, events = run_recovery(config)
        assert len(times) >= 5
        assert np.all(n_jumps >= 25)
        assert fit.status == "converged"
        # loose bounds at 600 cycles; the acceptance suite runs 1e4
        assert fit.tau == pytest.approx(125e-6, rel=0.35)

    def test_chunked_output_is_pinned(self):
        # 600 cycles are two chunks; the pins hold each chunk's spawned
        # seed and the order in which the chunks are summed
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        times, tau_e, n_jumps, fit, events = run_recovery(config)
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (times, tau_e, n_jumps)]
        assert digests == [
            "0b56e553f7f219a47aee0f75e278bc009045def369467bfc9357af6854b24f3d",
            "bc5e77972adc0a2dde46b69c706fe93986dc99ab9bcb37576ab267775f4553dd",
            "6dc528d9c87f8dc29f80cb7a34055b71cf677f55909c46f42ea03d59b5ec7904",
        ]
        assert events == {"events": 156183, "qp_events": 115589, "qubit_flips": 40594}

    def test_tau_e_csv_is_pinned(self, tmp_path):
        # the digest was taken when the recovery driver joined the rows of
        # tau_e.csv itself; the fit's files are left out, as they rest on
        # the optimizer's last bits
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        run_experiment("recovery", config, tmp_path)
        assert hashlib.sha256((tmp_path / "tau_e.csv").read_bytes()).hexdigest() == (
            "128bf576a6a78440c45944eb6a9c9670bc088908d22099920e9ef53fc56df8e9")

    def test_wait_past_the_readout_window_fails_before_any_chunk(self, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("a chunk was simulated")

        monkeypatch.setattr(experiments, "simulate_joint", no_simulation)
        config = preset_config("recovery", {"pulse_wait": "0.02", "pulse_count": "600",
                                            "duration": "6.063"})
        with pytest.raises(ValueError, match="pulse_wait"):
            run_recovery(config)

    def test_experiments_take_one_worker_only(self, tmp_path):
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        with pytest.raises(ValueError, match="workers"):
            run_experiment("recovery", config, tmp_path / "exp", workers=2)
        assert not (tmp_path / "exp").exists()


def test_pulses_suppress_and_traps_extend_quiet_windows():
    # the cooled run is quiet in every window, so the last check fails when
    # the base run never leaves the quiet state: about 0.5 e^-6 = 0.1% of
    # seeds at 48 s, and 1 of 20 seed pairs at 24 s
    base = preset_config("quiet-noisy", {"duration": "48"})
    truth, iq = run_simulation(base)
    rep_base = run_stats(iq, snr_separation(base.meas))
    quiet_level = float(np.nanpercentile(rep_base.tau_ground, 60))

    pulsed = preset_config("qp-pulses", {"duration": "8.084", "pulse_count": "800"})
    truth, iq = run_simulation(pulsed)
    rep_pulsed = run_stats(iq, snr_separation(pulsed.meas))
    # every pulsed second sits below the quiet-regime dwell level
    assert np.nanmax(rep_pulsed.tau_ground) < quiet_level

    cooled = preset_config("field-cool", {"duration": "24"})
    truth, iq = run_simulation(cooled)
    rep_cooled = run_stats(iq, snr_separation(cooled.meas))
    quiet_frac = lambda rep: float(np.nanmean(rep.tau_ground > 4e-4))
    assert quiet_frac(rep_cooled) > quiet_frac(rep_base)


def test_quiet_noisy_alternation_short_run():
    config = preset_config("quiet-noisy", {"duration": "40"})
    truth, iq = run_simulation(config)
    report = run_stats(iq, snr_separation(config.meas))
    assert tau_fidelity_correlation(report) > 0.3
    # mean ground dwell swings between a couple hundred microseconds and
    # about a millisecond across seconds
    tau = report.tau_ground[np.isfinite(report.tau_ground)]
    assert tau.min() < 2.5e-4
    assert tau.max() > 7e-4


# (preset, duration): each leaves a partial window at the end, 0.7 of a
# 1 s window and 0.5 of a 0.1 s one
STREAMED = {"quiet-noisy": "30.7", "psd": "32.05"}


@pytest.fixture(scope="module")
def whole_record_files(tmp_path_factory):
    """Data files of the whole-record oracle (tests/support.py), per preset."""
    files = {}
    for name, duration in STREAMED.items():
        out = tmp_path_factory.mktemp(name)
        whole_record_experiment(name, preset_config(name, {"duration": duration}), out)
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    return files


class TestStreamedPresets:
    """The presets synthesize and filter their record block by block; the
    files must equal the whole-record path's byte for byte, whatever the
    block size."""

    # STREAM_BLOCK values: under one window (so one window a block), three
    # windows and 7 samples (three windows a block, not a multiple of
    # jumpsim's _BLOCK), and more than the record (one block)
    @pytest.mark.parametrize("block", [1, "3 windows + 7", 10**9])
    @pytest.mark.parametrize("name", sorted(STREAMED))
    def test_files_equal_the_whole_record_path(self, name, block, tmp_path, monkeypatch,
                                               whole_record_files):
        config = preset_config(name, {"duration": STREAMED[name]})
        window = experiments.PSD_WINDOW if name == "psd" else experiments.DEFAULT_WINDOW
        per = round(window / config.meas.t_meas)
        if block == "3 windows + 7":
            block = 3 * per + 7
        monkeypatch.setattr(io, "STREAM_BLOCK", block)
        ranges = []

        def recorded(truth, meas, i, q=None, start=0):
            assert q is None
            ranges.append((start, start + len(i)))
            return synthesize(truth, meas, i, q, start)

        synthesize = experiments.synthesize_iq
        monkeypatch.setattr(experiments, "synthesize_iq", recorded)
        _, counts = run_experiment(name, config, tmp_path)

        got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        want = whole_record_files[name]
        assert want.keys() <= got.keys()
        for fname, data in want.items():
            assert got[fname] == data, fname
        # consecutive ranges of whole windows; the last also takes the tail
        n = sample_count(config.duration, config.meas.t_meas)
        size = max(1, block // per) * per
        assert counts["samples"] == n and n % per > 0
        assert [lo for lo, _ in ranges] == list(range(0, n // per * per, size))
        assert [hi for _, hi in ranges[:-1]] == [lo for lo, _ in ranges[1:]]
        assert ranges[-1][1] == n

    @pytest.mark.parametrize("name, keys, message", [
        ("quiet-noisy", {"duration": "0.5"}, "record shorter than one window"),
        ("psd", {"duration": "0.09"}, "record shorter than one window"),
        ("quiet-noisy", {"duration": "4", "t_meas": "0.02"},
         "window must cover at least 100 samples"),
        ("psd", {"duration": "4", "t_meas": "0.002"},
         "window must cover at least 100 samples"),
    ])
    def test_window_errors_come_before_any_block(self, name, keys, message, tmp_path,
                                                 monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a block was synthesized")

        monkeypatch.setattr(experiments, "synthesize_iq", refused)
        with pytest.raises(ValueError, match=message):
            run_experiment(name, preset_config(name, keys), tmp_path)

    def test_memory_grows_by_under_2_5_bytes_per_sample(self, tmp_path):
        # numpy reports its buffers to tracemalloc.  Holding the whole I/Q
        # record grew the traced peak by 18.1 B per added sample, and
        # keeping 1 B of states per sample beside the stream by 2.66 B.
        # With only the dwells kept it grows by 1.87 B, a margin of 0.63 B
        # under the bound: the trajectory, its tables and the dwells, which
        # grow with the events rather than the samples
        peaks = {}
        for duration in (40, 80):
            config = preset_config("quiet-noisy", {"duration": str(duration)})
            tracemalloc.start()
            try:
                run_experiment("quiet-noisy", config, tmp_path / str(duration))
                peaks[duration] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        t_meas = config.meas.t_meas
        added = sample_count(80, t_meas) - sample_count(40, t_meas)
        assert (peaks[80] - peaks[40]) / added < 2.5


class SlowStream:
    """A noise stream that takes 50 ms over each draw."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, *args, **kwargs):
        time.sleep(0.05)
        return self.rng.standard_normal(*args, **kwargs)


class SlowRecord(experiments.SynthesizedRecord):
    """A synthesized record whose streams are slow, so that its worker is
    still drawing while a failure unwinds."""

    def __post_init__(self):
        self.i_rng = SlowStream(self.i_rng)
        if self.q_rng is not None:
            self.q_rng = SlowStream(self.q_rng)


class ThirdReadFails(SlowRecord):
    """A slow record whose third range fails, as a full disk would, once
    its worker is drawing the range after."""

    reads = 0

    def blocks(self, bounds):
        for block in super().blocks(bounds):
            self.reads += 1
            if self.reads == 3:
                raise OSError("third read")
            yield block


class TestSynthesizedRecord:
    """The record draws the next range's noise on one worker thread while
    the caller works on the range in hand."""

    # 8 s: 1.6 M samples, four ranges of run_stats (two 1 s windows each)
    # and of write_iq, so the third read leaves a range to draw
    CONFIG = preset_config("quiet-noisy", {"duration": "8"})

    @pytest.fixture(scope="class")
    def whole(self):
        return run_simulation(self.CONFIG)

    def record(self, cls=experiments.SynthesizedRecord, with_q=True):
        truth, record = simulate_record(self.CONFIG, with_q)
        return cls(truth, record.meas, record.i_rng, record.q_rng)

    @pytest.mark.parametrize("cuts", [
        [0, 10, 20, 30],                 # equal ranges
        [0, 10, 15, 16, 40],             # shorter ranges, then a longer one
        [0, 0, 100, 300, 301, 700],      # an empty first range; a longer, a shorter
        [0, 5, 1000, 1000, 1010],        # an empty range mid-stream
        [0, 700],                        # one range, drawn by the caller alone
    ])
    def test_ranges_in_order_hold_the_whole_record(self, whole, cuts):
        blocks = list(self.record().blocks(cuts))
        assert len(blocks) == len(cuts) - 1
        for block, lo, hi in zip(blocks, cuts[:-1], cuts[1:]):
            assert block.i.tobytes() == whole[1].i[lo:hi].tobytes()
            assert block.q.tobytes() == whole[1].q[lo:hi].tobytes()

    def test_ranges_not_from_sample_0_are_refused(self):
        # the streams are drawn from sample 0: a range from elsewhere
        # would get other samples' noise
        with pytest.raises(ValueError, match="ranges from sample 100: "):
            next(self.record().blocks([100, 150]))

    # the last block of run_stats runs on to the record's end: longer than
    # the others (whole blocks then a partial window) or shorter; either
    # way the worker draws it ahead at its own length
    @pytest.mark.parametrize("duration, last", [("4.5", "longer"), ("5.5", "shorter")])
    def test_run_stats_last_block_against_the_range_drawn_ahead(self, duration, last):
        config = preset_config("quiet-noisy", {"duration": duration})
        truth, whole = run_simulation(config)
        n = len(whole)
        per = round(experiments.DEFAULT_WINDOW / config.meas.t_meas)
        size = io.STREAM_BLOCK // per * per
        reads = []

        class Recorded(experiments.SynthesizedRecord):
            def blocks(self, bounds):
                for block, lo, hi in zip(super().blocks(bounds), bounds[:-1], bounds[1:]):
                    reads.append((lo, hi, block.i.tobytes()))
                    yield block

        _, record = simulate_record(config, with_q=False)
        got = run_stats(Recorded(truth, record.meas, record.i_rng),
                        snr_separation(config.meas))
        want = run_stats(IQRecord(t_meas=whole.t_meas, i=whole.i, q=None),
                         snr_separation(config.meas))
        assert [(lo, hi) for lo, hi, _ in reads[:-1]] == [
            (lo, lo + size) for lo in range(0, reads[-1][0], size)]
        lo, hi = reads[-1][:2]
        assert hi == n and (hi - lo > size if last == "longer" else hi - lo < size)
        for lo, hi, data in reads:
            assert data == whole.i[lo:hi].tobytes()
        for column in ("tau_ground", "tau_excited", "fidelity_ground", "sigma_z"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_no_thread_outlives_run_stats(self, monkeypatch):
        before = threading.active_count()
        run_stats(self.record(with_q=False), 5.0)
        assert threading.active_count() == before
        record = self.record(ThirdReadFails, with_q=False)
        with pytest.raises(OSError, match="third read"):
            run_stats(record, 5.0)
        assert record.reads == 3
        assert threading.active_count() == before

        # and when the work on a block fails, outside the reads
        reports = []

        def second_report_fails(*args):
            reports.append(args)
            if len(reports) == 2:
                raise OSError("second report")
            return report(*args)

        report = experiments.windowed_report
        monkeypatch.setattr(experiments, "windowed_report", second_report_fails)
        # failed holds the traceback, as a caller's handler would, and with
        # it the frames that refer to the block generator: run_stats must
        # close the generator itself
        with pytest.raises(OSError, match="second report") as failed:
            run_stats(self.record(SlowRecord, with_q=False), 5.0)
        assert threading.active_count() == before
        assert failed.tb is not None

    def test_no_thread_outlives_write_iq(self, tmp_path):
        before = threading.active_count()
        io.write_iq(tmp_path / "r.iq", self.record())
        assert threading.active_count() == before
        # the third of four ranges fails
        record = self.record(ThirdReadFails)
        with pytest.raises(OSError, match="third read"):
            io.write_iq(tmp_path / "s.iq", record)
        assert record.reads == 3
        assert threading.active_count() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.iq"]

    def test_no_thread_outlives_simulate(self, tmp_path, monkeypatch):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("rng_seed = 5\nduration = 8\n")
        before = threading.active_count()
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert threading.active_count() == before
        monkeypatch.setattr(experiments, "SynthesizedRecord", ThirdReadFails)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
        assert threading.active_count() == before
        assert not (tmp_path / "b" / "record.iq").exists()

    def test_two_ranges_in_flight(self, tmp_path, monkeypatch):
        # the range in hand and the one the worker fills, with their
        # scratch: 2.3 and 2.5 ranges' bytes.  A loop that held on to the
        # range before would add a third (3.3 and 3.5).  16 s: 3.2 M
        # samples in four ranges of 10^6 (five windows)
        size = 10**6
        config = preset_config("quiet-noisy", {"duration": "16"})
        monkeypatch.setattr(io, "STREAM_BLOCK", size)
        for with_q, read in ((True, lambda r: io.write_iq(tmp_path / "r.iq", r)),
                             (False, lambda r: run_stats(r, 5.0))):
            truth, record = simulate_record(config, with_q)
            truth.excited_cumulative  # the trace's table is not the loop's
            tracemalloc.start()
            try:
                read(record)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ranges = peak / (8 * size * (2 if with_q else 1))
            assert ranges < 3, (with_q, ranges)

    def test_one_range_and_recovery_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        run_simulation(preset_config("quiet-noisy", {"duration": "0.5"}))
        run_recovery(preset_config("recovery", {"pulse_count": "600",
                                                "duration": "6.063"}))
        assert started == []
        run_stats(self.record(with_q=False), 5.0)
        assert len(started) == 1  # one worker for the loop's four ranges

    def test_records_read_side_by_side_under_fast_switching(self, whole):
        # three callers and their workers on two cores, switching threads
        # every microsecond: each record's ranges still hold its streams
        bounds = [0, 1, 300, 301, 9000, 20000, 20001, 50000]
        got = {}

        def read(k):
            got[k] = list(self.record().blocks(bounds))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=read, args=(k,)) for k in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(got) == [0, 1, 2]
        for blocks in got.values():
            assert np.concatenate([b.i for b in blocks]).tobytes() == whole[1].i[:50000].tobytes()
            assert np.concatenate([b.q for b in blocks]).tobytes() == whole[1].q[:50000].tobytes()
