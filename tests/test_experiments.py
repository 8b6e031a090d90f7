import numpy as np
import pytest

from qpjumps.core import ConfigError, PeriodicPulses, ScenarioConfig
from qpjumps.experiments import (
    preset_config,
    recovery_bin_edges,
    recovery_chunk_stats,
    run_recovery,
    run_simulation,
    run_stats,
    tau_fidelity_correlation,
)
from qpjumps.jumpsim import STATE_EXCITED, STATE_GROUND, TruthTrace, snr_separation


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
        times, tau_e, n_jumps, fit, events = run_recovery(config, workers=1)
        assert len(times) >= 5
        assert np.all(n_jumps >= 25)
        assert fit.status == "converged"
        # loose bounds at 600 cycles; the acceptance suite runs 1e4
        assert fit.tau == pytest.approx(125e-6, rel=0.35)

    def test_worker_count_does_not_change_results(self):
        config = preset_config("recovery", {"pulse_count": "600",
                                            "duration": "6.063"})
        serial = run_recovery(config, workers=1)
        parallel = run_recovery(config, workers=3)
        assert np.array_equal(serial[0], parallel[0])
        assert np.array_equal(serial[1], parallel[1])
        assert serial[3].tau == parallel[3].tau


def test_pulses_suppress_and_traps_extend_quiet_windows():
    # the cooled run is quiet in every window, so the last check fails when
    # the base run never leaves the quiet state: about 0.5 e^-6 = 0.1% of
    # seeds at 48 s, and 1 of 20 seed pairs at 24 s
    base = preset_config("quiet-noisy", {"duration": "48"})
    truth, iq = run_simulation(base)
    rep_base = run_stats(iq, snr_separation(base.meas))[1]
    quiet_level = float(np.nanpercentile(rep_base.tau_ground, 60))

    pulsed = preset_config("qp-pulses", {"duration": "8.084", "pulse_count": "800"})
    truth, iq = run_simulation(pulsed)
    rep_pulsed = run_stats(iq, snr_separation(pulsed.meas))[1]
    # every pulsed second sits below the quiet-regime dwell level
    assert np.nanmax(rep_pulsed.tau_ground) < quiet_level

    cooled = preset_config("field-cool", {"duration": "24"})
    truth, iq = run_simulation(cooled)
    rep_cooled = run_stats(iq, snr_separation(cooled.meas))[1]
    quiet_frac = lambda rep: float(np.nanmean(rep.tau_ground > 4e-4))
    assert quiet_frac(rep_cooled) > quiet_frac(rep_base)


def test_quiet_noisy_alternation_short_run():
    config = preset_config("quiet-noisy", {"duration": "40"})
    truth, iq = run_simulation(config)
    est, report = run_stats(iq, snr_separation(config.meas))
    assert tau_fidelity_correlation(report) > 0.3
    # mean ground dwell swings between a couple hundred microseconds and
    # about a millisecond across seconds
    tau = report.tau_ground[np.isfinite(report.tau_ground)]
    assert tau.min() < 2.5e-4
    assert tau.max() > 7e-4
