import copy
import hashlib
import json
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qpjumps import cli, experiments, io, jumpsim
from qpjumps.core import ConfigError, PeriodicPulses, ScenarioConfig, serialize_config
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
    run_starts,
    sample_count,
    simulate_joint,
    simulate_layers,
    snr_separation,
)

from support import (
    event_counts,
    trace_layers,
    whole_record_experiment,
    whole_trace_chunk_stats,
)


def joined_trace(*args):
    raise AssertionError("a whole trace was joined")


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
        assert len(config.pulse_start) == 10_000
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
            times=np.array([0.0, config.pulse_start[1] + config.pulse_length[1] + t_rel]),
            states=np.array([STATE_EXCITED, STATE_GROUND], dtype=np.uint8),
            counts=np.zeros(2, dtype=np.int64),
        )
        exposure, counts, t_sum = recovery_chunk_stats(trace_layers(truth), config, edges)
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
        truth = TruthTrace(
            duration=config.duration,
            times=np.array([0.0, config.pulse_start[1] + config.pulse_length[1] / 2]),
            states=np.array([STATE_EXCITED, STATE_GROUND], dtype=np.uint8),
            counts=np.zeros(2, dtype=np.int64),
        )
        exposure, counts, t_sum = recovery_chunk_stats(trace_layers(truth), config, edges)
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

    def test_chunked_output_is_pinned(self, monkeypatch):
        # 600 cycles are two chunks; the pins hold each chunk's spawned
        # seed and the order in which the chunks are summed.  They were
        # taken when each chunk's trace was joined whole: read as segments,
        # the chunks must give the same bytes
        monkeypatch.setattr(experiments, "simulate_joint", joined_trace)
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        times, tau_e, n_jumps, fit, events = run_recovery(config)
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (times, tau_e, n_jumps)]
        assert digests == [
            "0b56e553f7f219a47aee0f75e278bc009045def369467bfc9357af6854b24f3d",
            "4c1019f172f48966b9d3dfc6f4939abe089278b3f2feb5a35c70a4056dccff94",
            "6dc528d9c87f8dc29f80cb7a34055b71cf677f55909c46f42ea03d59b5ec7904",
        ]
        assert events == {"events": 156183, "qp_events": 115589, "qubit_flips": 40594}

    def test_tau_e_csv_is_pinned(self, tmp_path, monkeypatch):
        # the digest was taken when the recovery driver joined the rows of
        # tau_e.csv itself; the fit's files are left out, as they rest on
        # the optimizer's last bits
        monkeypatch.setattr(experiments, "simulate_joint", joined_trace)
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        run_experiment("recovery", config, tmp_path)
        assert hashlib.sha256((tmp_path / "tau_e.csv").read_bytes()).hexdigest() == (
            "128bf576a6a78440c45944eb6a9c9670bc088908d22099920e9ef53fc56df8e9")

    def test_events_equal_those_of_the_merged_chunks(self, monkeypatch):
        # two chunks: the events counted as layer lengths equal those of
        # each chunk's trace, merged and joined whole from the same streams
        calls = []

        def recorded(chunk, *rngs):
            calls.append((chunk, copy.deepcopy(rngs)))
            return simulate_layers(chunk, *rngs)

        monkeypatch.setattr(experiments, "simulate_layers", recorded)
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        events = run_recovery(config)[4]
        assert len(calls) == 2
        want = {}
        for chunk, rngs in calls:
            for key, value in event_counts(simulate_joint(chunk, *rngs)).items():
                want[key] = want.get(key, 0) + value
        assert events == want

    def test_wait_past_the_readout_window_fails_before_any_chunk(self, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("a chunk was simulated")

        monkeypatch.setattr(experiments, "simulate_layers", no_simulation)
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


class TestRecoveryChunkStats:
    """recovery_chunk_stats reads a trajectory's layers in one pass; its
    bytes equal those of the whole-trace oracle (tests/support.py) however
    the layers are cut."""

    @pytest.fixture(scope="class")
    def chunk(self):
        """40 cycles of the recovery preset, with a knot added exactly on a
        bin edge (the state and count in force there, repeated), and the
        index of that knot."""
        config = preset_config("recovery", {"pulse_count": "40", "duration": "0.4042"})
        truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        rel_edges = recovery_bin_edges(config)
        edge = config.pulse_start[3] + config.pulse_length[3] + rel_edges[5]
        j = int(np.searchsorted(truth.times, edge))
        assert truth.times[j - 1] < edge < truth.times[j]
        truth = TruthTrace(duration=truth.duration,
                           times=np.insert(truth.times, j, edge),
                           states=np.insert(truth.states, j, truth.states[j - 1]),
                           counts=np.insert(truth.counts, j, truth.counts[j - 1]))
        return config, rel_edges, truth, j

    # the whole trace as one segment's layers (None), and cuts at random
    # knots, on the knot at a bin edge, on a relaxation (e -> g) and on the
    # knot after it, so one segment holds a single knot
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_segments_equal_the_whole_trace(self, chunk, seed):
        config, rel_edges, truth, at_edge = chunk
        want = whole_trace_chunk_stats(truth, config, rel_edges)
        assert want[1].sum() > 100 and want[0].sum() > 0
        cuts = []
        if seed is not None:
            rng = np.random.default_rng(seed)
            relax = np.flatnonzero((truth.states[:-1] == STATE_EXCITED)
                                   & (truth.states[1:] == STATE_GROUND)) + 1
            flip = int(rng.choice(relax))
            cuts = [at_edge, flip, flip + 1, *rng.integers(1, len(truth.times), 30)]
        got = recovery_chunk_stats(iter(trace_layers(truth, cuts)), config, rel_edges)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # the sampler's own layers against its merged trace, from a ground and
    # from an excited start (an excited start is a flip at t = 0)
    @pytest.mark.parametrize("seed", [104, 3])
    def test_sampler_layers_equal_its_merged_trace(self, chunk, seed):
        config, rel_edges = replace(chunk[0], rng_seed=seed), chunk[1]
        truth = simulate_joint(config, *np.random.default_rng(seed).spawn(3))
        assert truth.states[0] == (STATE_EXCITED if seed == 3 else STATE_GROUND)
        want = whole_trace_chunk_stats(truth, config, rel_edges)
        got = recovery_chunk_stats(
            simulate_layers(config, *np.random.default_rng(seed).spawn(3)), config, rel_edges)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # a train whose pulse ends and t - first end are exact (dyadic times),
    # and the recovery preset's
    @pytest.mark.parametrize("first, period, length, wait", [
        (2.0**-8, 2.0**-6, 2.0**-12, 2.0**-14), (0.0, 10.105e-3, 100e-6, 5e-6)],
        ids=["dyadic", "recovery"])
    def test_within_a_few_ulps_of_the_exact_overlap(self, first, period, length, wait):
        # 100 small traces with knots on first edges and interior edges
        # (pulse end + rel edge, in floats), one ulp either side and at
        # random, against the exact overlap of the excited intervals with
        # each pulse's bin, in Fractions of the floats.  A flip at t sits at
        # P_q + r in the bins' frame, (q, r) = divmod(t - P_0, period):
        # off its time by d = |P_q + r - t|, from the rounding of t - P_0
        # and P_q against P_0 + q * period, 0 for the dyadic train.  Moving
        # a flip by d moves a bin's overlap by at most d, and only where
        # the move meets one of the bin's windows.  In the frame, w * X has
        # w and the product rounded once each, each e - r is off by at most
        # 2^-53 w, and each of the f additions rounds once on a partial sum
        # that stays within [0, n w], as each of the n pulses adds between
        # 0 and w; so a bin is within (f + 2) n w 2^-52 plus the d of each
        # flip whose move meets its windows
        rng = np.random.default_rng(26)
        ulp = Fraction(1, 2**52)
        worst = Fraction(0)
        for case in range(100):
            n = int(rng.integers(1, 6))
            train = PeriodicPulses(first=first, period=period, length=length, inject=0,
                                   count=n)
            config = ScenarioConfig(duration=first + n * period, rng_seed=0,
                                    pulse_periodic=train, pulse_wait=wait)
            rel_edges = recovery_bin_edges(config)
            ends = config.pulse_start + config.pulse_length
            on_edges = np.concatenate((
                rng.choice(ends + rel_edges[0], size=int(rng.integers(0, 4))),
                rng.choice((ends[:, None] + rel_edges[None, :]).ravel(),
                           size=int(rng.integers(0, 8)))))
            times = np.unique(np.concatenate((
                [0.0], on_edges, np.nextafter(on_edges, -np.inf),
                np.nextafter(on_edges, np.inf),
                rng.uniform(0.0, config.duration, size=int(rng.integers(0, 30))))))
            states = rng.integers(0, 2, size=len(times)).astype(np.uint8)
            truth = TruthTrace(duration=config.duration, times=times, states=states,
                               counts=np.zeros(len(times), dtype=np.int64))
            exposure = recovery_chunk_stats(trace_layers(truth), config, rel_edges)[0]

            # excited seconds before T, exactly
            knots = [Fraction(t) for t in times] + [Fraction(config.duration)]
            before = [Fraction(0)]
            for j, x in enumerate(states):
                before.append(before[-1] + x * (knots[j + 1] - knots[j]))

            def excited_before(t):
                j = int(np.searchsorted(times, t, side="right")) - 1
                return before[j] + states[j] * (t - knots[j])

            edges = [Fraction(e) for e in rel_edges]
            pulse_ends = [Fraction(p) for p in ends]
            # the flips in the frame: the bins they meet moving, their d
            flips = run_starts(states, STATE_GROUND)
            cycle, rel = np.divmod(times[flips] - ends[0], period)
            idx = np.searchsorted(rel_edges, rel, side="right") - 1
            moves = [Fraction(0)] * (len(edges) - 1)
            binned = [0] * (len(edges) - 1)
            for t, q, r, k in zip(times[flips], cycle.astype(int), rel, idx):
                if not 0 <= q < n:
                    continue
                if 0 <= k < len(binned):
                    binned[k] += 1
                t, moved = Fraction(t), pulse_ends[q] + Fraction(r)
                lo, hi = min(t, moved) - pulse_ends[q], max(t, moved) - pulse_ends[q]
                for b in range(len(moves)):
                    if lo <= edges[b + 1] and hi >= edges[b]:
                        moves[b] += hi - lo
            for b in range(len(edges) - 1):
                exact = sum((excited_before(p + edges[b + 1]) - excited_before(p + edges[b])
                             for p in pulse_ends), Fraction(0))
                error = abs(Fraction(exposure[b]) - exact)
                w = edges[b + 1] - edges[b]
                assert error <= (binned[b] + 2) * n * w * ulp + moves[b], (case, b)
                worst = max(worst, error / (n * w))
        assert worst > 0  # the bound is met by rounded values, not by exact ones


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

    # STATS_BLOCK values: under one window (so one window a block), three
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
        monkeypatch.setattr(experiments, "STATS_BLOCK", block)
        ranges, passes = [], set()

        def recorded(occupancy, meas, i, q=None):
            assert q is None
            lo = ranges[-1][1] if ranges else 0
            ranges.append((lo, lo + len(i)))
            passes.add(occupancy)
            return synthesize(occupancy, meas, i, q)

        synthesize = experiments.synthesize_iq
        monkeypatch.setattr(experiments, "synthesize_iq", recorded)
        reports = []

        def reported(*args, **kwargs):
            reports.append(stats(*args, **kwargs))
            return reports[-1]

        stats = experiments.run_stats
        monkeypatch.setattr(experiments, "run_stats", reported)
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
        assert ranges[-1][1] == n
        # one occupancy pass for the whole loop
        assert len(passes) == 1
        # psd writes no histogram and keeps no dwells; the alternation
        # presets keep the two example windows' for their histograms
        report, = reports
        f = report.fidelity_ground
        assert set(report.dwells) == (
            set() if name == "psd" else {np.nanargmax(f), np.nanargmin(f)})

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

    def test_memory_grows_by_under_0_2_bytes_per_sample(self, tmp_path):
        # numpy reports its buffers to tracemalloc.  Holding the whole I/Q
        # record grew the traced peak by 18.1 B per added sample, and
        # keeping 1 B of states per sample beside the stream by 2.66 B.
        # With only the dwells kept it grew by 1.88 B, and with the
        # trajectory's occupancy table and the sampler's whole-length
        # scratch gone by 1.04 B: the whole trajectory and every window's
        # dwells, which grow with the events.  With the trajectory read a
        # segment at a time and two windows' dwells kept, nothing grows
        # with the record
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
        assert (peaks[80] - peaks[40]) / added < 0.2

    def test_event_counts_include_the_tail(self, tmp_path, monkeypatch):
        # 2.0099 s at 10 ms samples: 200 bins, then 9.9 ms of knots past the
        # last one.  Segments of 7 QP steps leave whole segments in the
        # tail, which the occupancy never reads
        monkeypatch.setattr(jumpsim, "_SEGMENT", 7)
        config = preset_config("quiet-noisy", {"duration": "2.0099", "t_meas": "0.01"})
        truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        n = sample_count(config.duration, config.meas.t_meas)
        assert n == 200 and np.count_nonzero(truth.times > n * config.meas.t_meas) > 10
        want = event_counts(truth)

        _, counts = run_experiment("quiet-noisy", config, tmp_path / "exp")
        assert {key: counts[key] for key in want} == want
        cfg = tmp_path / "s.cfg"
        cfg.write_text(serialize_config(config))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert {key: manifest["record_counts"][key] for key in want} == want


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

    # 8 s: 1.6 M samples, eight ranges of run_stats (one 1 s window each)
    # and 25 of write_iq (_BLOCK samples each), so the third read leaves a
    # range to draw
    CONFIG = preset_config("quiet-noisy", {"duration": "8"})

    @pytest.fixture(scope="class")
    def whole(self):
        return run_simulation(self.CONFIG)

    def record(self, cls=experiments.SynthesizedRecord, with_q=True):
        record = simulate_record(self.CONFIG, with_q)
        return cls(record.trajectory, record.duration, record.meas, record.i_rng,
                   record.q_rng)

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

    def test_a_second_read_is_refused_before_any_draw(self, whole):
        # the first read uses up the trajectory's segments and the noise
        # streams; a second would have read no segment (an IndexError deep
        # in the occupancy) or other noise
        record = self.record()
        bounds = [0, 300, 700]
        first = list(record.blocks(bounds))
        got = [(block.i.tobytes(), block.q.tobytes()) for block in first]
        drawn = [rng.bit_generator.state for rng in (record.i_rng, record.q_rng)]
        with pytest.raises(ValueError, match="a synthesized record is read once"):
            next(record.blocks(bounds))
        assert [rng.bit_generator.state for rng in (record.i_rng, record.q_rng)] == drawn
        assert [(block.i.tobytes(), block.q.tobytes()) for block in first] == got
        assert b"".join(i for i, _ in got) == whole[1].i[:700].tobytes()
        assert b"".join(q for _, q in got) == whole[1].q[:700].tobytes()

    def test_ranges_not_from_sample_0_are_refused(self):
        # the streams are drawn from sample 0: a range from elsewhere
        # would get other samples' noise
        with pytest.raises(ValueError, match="ranges from sample 100: "):
            next(self.record().blocks([100, 150]))

    # the last block of run_stats runs on to the record's end: longer than
    # the others (whole blocks then a partial window) or shorter (one
    # window of a two-window block, then a partial one); either way the
    # worker draws it ahead at its own length.  0.56 s windows put two in
    # a block, so that the last block can be shorter: 4.5 s holds 8
    # windows and 5.5 s holds 9
    @pytest.mark.parametrize("duration, last", [("4.5", "longer"), ("5.5", "shorter")])
    def test_run_stats_last_block_against_the_range_drawn_ahead(self, duration, last):
        config = preset_config("quiet-noisy", {"duration": duration})
        _, whole = run_simulation(config)
        n = len(whole)
        window = 0.56
        per = round(window / config.meas.t_meas)
        size = experiments.STATS_BLOCK // per * per
        assert size == 2 * per
        reads = []

        class Recorded(experiments.SynthesizedRecord):
            def blocks(self, bounds):
                for block, lo, hi in zip(super().blocks(bounds), bounds[:-1], bounds[1:]):
                    reads.append((lo, hi, block.i.tobytes()))
                    yield block

        record = simulate_record(config, with_q=False)
        got = run_stats(Recorded(record.trajectory, config.duration, record.meas,
                                 record.i_rng),
                        snr_separation(config.meas), window)
        want = run_stats(IQRecord(t_meas=whole.t_meas, i=whole.i, q=None),
                         snr_separation(config.meas), window)
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
        # the third of 25 ranges fails
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
        # scratch: 2.2 and 2.7 ranges' bytes.  A loop that held on to the
        # range before would add a third (3.2 and 3.7).  16 s: 3.2 M
        # samples in four ranges of 10^6 (five windows), write_iq's and
        # run_stats' blocks both patched to that size.  write_iq's pairs
        # buffer, one range of I and Q interleaved, is not a range in
        # flight and is not counted.  The trajectory is sampled
        # beforehand, so that the sampler's working set (about 2.4 MB,
        # 0.3 of a range of I) is not counted as a range
        size = 10**6
        config = preset_config("quiet-noisy", {"duration": "16"})
        monkeypatch.setattr(io, "_BLOCK", size)
        monkeypatch.setattr(experiments, "STATS_BLOCK", size)
        for with_q, read in ((True, lambda r: io.write_iq(tmp_path / "r.iq", r)),
                             (False, lambda r: run_stats(r, 5.0))):
            record = simulate_record(config, with_q)
            record = replace(record, trajectory=list(record.trajectory))
            tracemalloc.start()
            try:
                read(record)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            range_bytes = 8 * size * (2 if with_q else 1)
            pairs = range_bytes if with_q else 0
            ranges = (peak - pairs) / range_bytes
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
        assert len(started) == 1  # one worker for the loop's eight ranges

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
