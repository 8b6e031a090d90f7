import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.optimize import curve_fit

from dataclasses import replace

from qpjumps.core import (
    BOLTZMANN,
    PLANCK,
    MeasurementParams,
    Modulation,
    PeriodicPulses,
    Pulse,
    QubitParams,
    ScenarioConfig,
    ThermalParams,
    serialize_config,
    temperature_to_polarization,
    validate_config,
)
from qpjumps import jumpsim
from qpjumps.experiments import preset_config, run_simulation
from qpjumps.kinetics import QpKineticsParams, evolve_ode, steady_state
from qpjumps.jumpsim import (
    _BLOCK,
    STATE_EXCITED,
    STATE_GROUND,
    TruthTrace,
    occupancy_blocks,
    qp_generation_rate,
    relaxation_rate,
    run_starts,
    sample_count,
    simulate_joint,
    simulate_layers,
    snr_separation,
    synthesize_iq,
    thermal_decay_constant,
    thermal_transient,
)

from support import (
    event_counts,
    noiseless_iq,
    occupancy_chi2,
    qp_relaxation_rate,
    qubit_intervals,
    reference_pulses,
    relaxation_jump_times,
    scalar_qubit_layer,
    stationary_qn,
    thermal_excitation_rate,
    trace_layers,
    transition_rate_chi2,
    whole_record_iq,
)

KIN = QpKineticsParams()
QUBIT = QubitParams()


def frozen_config(n_initial, duration, seed=1, gamma_background=0.0, **extra):
    """Scenario with the QP number frozen at n_initial."""
    return ScenarioConfig(
        duration=duration,
        rng_seed=seed,
        qubit=QubitParams(gamma_background=gamma_background),
        kinetics=QpKineticsParams(generation=0.0, trapping=0.0, recombination=0.0),
        n_initial=n_initial,
        **extra,
    )


class TestSnrSeparation:
    def test_default_parameters(self):
        sep = snr_separation(MeasurementParams())
        assert sep == pytest.approx(2.5912, abs=5e-4)
        assert 2 * sep == pytest.approx(5.2, abs=0.05)

    def test_vanishes_without_efficiency(self):
        sep = snr_separation(MeasurementParams(efficiency=1e-30))
        assert sep < 1e-10

    def test_large_dispersive_shift_limit(self):
        m = MeasurementParams(chi=MeasurementParams().kappa * 1e5)
        expected = math.sqrt(2 * m.n_photons * m.kappa * m.t_meas * m.efficiency)
        assert snr_separation(m) == pytest.approx(expected, rel=1e-9)

    @given(
        scale=st.floats(min_value=1.01, max_value=10.0),
        n=st.floats(min_value=0.1, max_value=50.0),
        tm=st.floats(min_value=1e-7, max_value=1e-3),
        eta=st.floats(min_value=0.01, max_value=0.99),
        chi=st.floats(min_value=1e4, max_value=1e9),
    )
    def test_monotone_in_each_knob(self, scale, n, tm, eta, chi):
        base = MeasurementParams(n_photons=n, t_meas=tm, efficiency=eta,
                                 chi=2 * math.pi * chi)
        sep = snr_separation(base)
        assert snr_separation(MeasurementParams(n_photons=n * scale, t_meas=tm,
                                                efficiency=eta, chi=base.chi)) > sep
        assert snr_separation(MeasurementParams(n_photons=n, t_meas=tm * scale,
                                                efficiency=eta, chi=base.chi)) > sep
        if eta * scale <= 1.0:
            assert snr_separation(MeasurementParams(n_photons=n, t_meas=tm,
                                                    efficiency=eta * scale,
                                                    chi=base.chi)) > sep
        assert snr_separation(MeasurementParams(n_photons=n, t_meas=tm,
                                                efficiency=eta,
                                                chi=base.chi * scale)) > sep


class TestRates:
    def test_no_qps_no_background(self):
        assert relaxation_rate(0, KIN, QUBIT) == 0.0

    def test_reference_density_gives_105_us(self):
        # sqrt(2*48.4e9/665e6) * 4 pi^2 * 0.5e9 * 4e-8, evaluated directly
        expected = math.sqrt(2 * 48.4e9 / 665e6) * 4 * math.pi**2 * 0.5e9 * 4e-8
        n = 4e-8 * KIN.n_pairs
        rate = relaxation_rate(n, KIN, QUBIT)
        assert rate == pytest.approx(expected, rel=1e-12)
        assert rate == pytest.approx(9.53e3, rel=5e-3)
        assert 1.0 / rate == pytest.approx(105e-6, rel=5e-3)

    def test_linear_in_count(self):
        q = QubitParams(gamma_background=123.0)
        for n in (1, 3, 17):
            lo = relaxation_rate(n, KIN, q) - q.gamma_background
            hi = relaxation_rate(2 * n, KIN, q) - q.gamma_background
            assert hi == pytest.approx(2 * lo, rel=1e-12)

    def test_injection_scales_qp_term_exactly(self):
        q = QubitParams(gamma_background=55.0)
        n, n_inj = 4, 9
        before = relaxation_rate(n, KIN, q) - q.gamma_background
        after = relaxation_rate(n + n_inj, KIN, q) - q.gamma_background
        assert after / before == pytest.approx((n + n_inj) / n, rel=1e-12)

    def test_elementwise_law_matches_the_scalar_reference(self):
        q = QubitParams(gamma_background=300.0, gamma_scale=0.5)
        n = np.array([0, 1, 7, 40])
        rates = relaxation_rate(n, KIN, q)
        assert rates.shape == n.shape
        for k, rate in zip(n, rates):
            assert rate == pytest.approx(qp_relaxation_rate(k, KIN, q), rel=1e-12)

    def test_excitation_freezes_out(self):
        assert thermal_excitation_rate(2, KIN, QUBIT, 1e-4) == pytest.approx(0.0, abs=1e-120)

    def test_excitation_at_measured_temperature(self):
        gamma_down = qp_relaxation_rate(2, KIN, QUBIT)
        gamma_up = thermal_excitation_rate(2, KIN, QUBIT, 0.045)
        ratio = gamma_up / gamma_down
        assert ratio == pytest.approx(0.49, abs=0.005)
        assert ratio / (1 + ratio) == pytest.approx(0.33, abs=0.005)

    def test_unit_exponent(self):
        f = QUBIT.f_ge
        t_match = PLANCK * f / BOLTZMANN
        ratio = thermal_excitation_rate(1, KIN, QUBIT, t_match) / qp_relaxation_rate(1, KIN, QUBIT)
        assert ratio == pytest.approx(1.0 / math.e, rel=1e-12)


class TestPulseEnergetics:
    def test_temperature_step_10_mk(self):
        th = ThermalParams(power=1e-10, specific_heat=1e-11, mass=0.1)
        assert thermal_transient(th, 100e-6) == pytest.approx(10e-3, rel=1e-9)

    def test_zero_length_pulse(self):
        assert thermal_transient(ThermalParams(), 0.0) == 0.0

    def test_generation_rate_about_1e6_per_us(self):
        rate = qp_generation_rate(1e-10, 0.4e-3)
        assert rate * 1e-6 == pytest.approx(1.56e6, rel=5e-3)

    def test_substrate_decay_constant_20_us(self):
        tau = thermal_decay_constant(
            specific_heat=1e-11, length=3e-3, mass=0.1, conductivity=6e-5, area=2.5e-6
        )
        assert tau == pytest.approx(20e-6, rel=1e-9)


class TestSimulateJoint:
    def test_everything_frozen_gives_no_events(self):
        config = frozen_config(0, duration=1.0)
        trace = simulate_joint(config, *np.random.default_rng(0).spawn(3))
        assert len(trace) == 0
        assert trace.times.tolist() == [0.0]
        assert trace.counts[0] == 0
        assert trace.states[0] in (STATE_GROUND, STATE_EXCITED)
        # occupancy helpers still work on an event-free trace
        assert next(occupancy_blocks(trace_layers(trace), 1.0, [0, 1]))[0] in (0.0, 1.0)

    def test_frozen_population_dwells_are_exponential(self):
        config = frozen_config(2, duration=4.0, seed=21)
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        gamma_down = qp_relaxation_rate(2, KIN, config.qubit)
        gamma_up = thermal_excitation_rate(2, KIN, config.qubit, config.qubit.temperature)

        starts, durations, states = qubit_intervals(trace)
        interior = slice(1, -1)
        d_e = durations[interior][states[interior] == STATE_EXCITED]
        d_g = durations[interior][states[interior] == STATE_GROUND]
        assert len(d_e) > 3000 and len(d_g) > 3000
        for dwells, rate in ((d_e, gamma_down), (d_g, gamma_up)):
            mean = dwells.mean()
            sem = dwells.std() / math.sqrt(len(dwells))
            assert abs(mean - 1.0 / rate) < 3 * sem
            ks = stats.kstest(dwells, "expon", args=(0, dwells.mean()))
            assert ks.pvalue > 0.01

    def test_frozen_population_stationary_occupancy(self):
        config = frozen_config(2, duration=4.0, seed=22)
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        p_expected = temperature_to_polarization(config.qubit.temperature, config.qubit.f_ge)
        # decorrelated snapshots give clean binomial statistics
        ts = np.arange(1e-3, config.duration, 2e-3)
        idx = np.searchsorted(trace.times, ts, side="right") - 1
        states = trace.states[idx]
        p_hat = np.mean(states == STATE_EXCITED)
        sigma = math.sqrt(p_expected * (1 - p_expected) / len(ts))
        assert abs(p_hat - p_expected) < 3 * sigma

    def test_injection_event_recorded(self):
        config = ScenarioConfig(
            duration=5e-3,
            rng_seed=4,
            qubit=QubitParams(),
            kinetics=QpKineticsParams(generation=0.0, trapping=8000.0),
            n_initial=0,
            pulse_schedule=(validate_config(
                "rng_seed = 0\nduration = 5e-3\npulse_schedule = 1e-3:100us:10\n"
            ).pulse_schedule),
        )
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        end = config.pulse_start[0] + config.pulse_length[0]
        k = np.searchsorted(trace.times, end)
        assert trace.times[k] == end
        before = trace.counts[k - 1]
        assert trace.counts[k] == before + 10
        # injected QPs decay away afterwards
        assert trace.counts[-1] < 10

    def test_periodic_train_alone_injects(self):
        train = PeriodicPulses(first=0.5e-3, period=1e-3, length=10e-6, inject=5, count=20)
        config = ScenarioConfig(
            duration=0.021, rng_seed=3, n_initial=0, pulse_periodic=train,
            kinetics=QpKineticsParams(generation=0.0, trapping=8000.0),
        )
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        dn = np.diff(trace.counts)
        assert list(trace.times[1:][dn > 0]) == [
            start + length for start, length, _ in reference_pulses(train=train)]
        assert np.all(dn[dn > 0] == train.inject)

    def test_pulse_ending_at_the_duration_adds_no_knot(self):
        config = ScenarioConfig(
            duration=0.01, rng_seed=0, n_initial=0,
            kinetics=QpKineticsParams(generation=0.0),
            pulse_schedule=(Pulse(0.0075, 0.0025, 5),),
        )
        assert config.pulse_start[0] + config.pulse_length[0] == config.duration
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        assert trace.times.tolist() == [0.0]
        assert event_counts(trace)["events"] == 0

    def test_replaced_train_simulates_what_serializes(self):
        # a train replaced after parsing must not keep the parsed pulses
        config = validate_config(
            "rng_seed = 5\nduration = 0.1\nqp_generation = 0\n"
            "pulse_period = 10 ms\npulse_length = 100 us\n"
            "pulse_inject = 10\npulse_count = 9\n"
        )
        quiet = replace(config, pulse_periodic=replace(config.pulse_periodic, inject=0))
        reread = validate_config(serialize_config(quiet))
        assert reread == quiet
        for name in ("pulse_start", "pulse_length", "pulse_inject"):
            assert getattr(reread, name).tobytes() == getattr(quiet, name).tobytes()
        assert quiet.pulse_inject.tolist() == [0] * 9
        a = simulate_joint(quiet, *np.random.default_rng(quiet.rng_seed).spawn(3))
        b = simulate_joint(reread, *np.random.default_rng(reread.rng_seed).spawn(3))
        for field in ("times", "states", "counts"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert np.all(np.diff(a.counts) <= 0)

    def test_thermal_transient_raises_excitation_rate(self):
        # strong heating pulse on a frozen population: measured excitation
        # rate right after the pulse matches the decaying-temperature model
        thermal = ThermalParams(power=1e-10, specific_heat=2e-13, mass=0.1,
                                tau_thermal=2e-3)
        delta_t = thermal_transient(thermal, 100e-6)
        assert delta_t == pytest.approx(0.5)
        train = validate_config(
            "rng_seed = 0\nduration = 1\n"
            "pulse_first = 0\npulse_period = 10e-3\npulse_length = 100us\n"
            "pulse_inject = 0\npulse_count = 99\n"
        ).pulse_periodic
        config = ScenarioConfig(
            duration=1.0, rng_seed=77,
            qubit=QubitParams(),
            kinetics=QpKineticsParams(generation=0.0, trapping=0.0, recombination=0.0),
            n_initial=2, thermal=thermal, pulse_periodic=train,
        )
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))

        t_base = config.qubit.temperature
        hf_kb = PLANCK * config.qubit.f_ge / BOLTZMANN
        gamma_down = qp_relaxation_rate(2, KIN, config.qubit)

        window = 0.5e-3  # look right after each pulse, while still hot
        s = trace.states
        t = np.concatenate((trace.times, [config.duration]))
        seg_start, seg_end, seg_state = t[:-1], t[1:], s

        jumps = 0
        exposure = 0.0
        for end in (config.pulse_start + config.pulse_length).tolist():
            lo, hi = end, end + window
            # ground-state exposure inside [lo, hi)
            overlap = np.clip(np.minimum(seg_end, hi) - np.maximum(seg_start, lo), 0, None)
            exposure += float(overlap[seg_state == STATE_GROUND].sum())
            flips = (s[:-1] == STATE_GROUND) & (s[1:] == STATE_EXCITED)
            jt = trace.times[1:][flips]
            jumps += int(np.sum((jt >= lo) & (jt < hi)))

        def rate(u):
            temp = t_base + delta_t * math.exp(-u / thermal.tau_thermal)
            return gamma_down * math.exp(-hf_kb / temp)

        # occupancy-weighted mean rate ~ plain time average (occupancy varies little)
        mean_rate, _ = integrate.quad(rate, 0, window)
        mean_rate /= window
        measured = jumps / exposure
        assert measured == pytest.approx(mean_rate, rel=0.12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_invariants(self, seed):
        config = ScenarioConfig(
            duration=20e-3,
            rng_seed=seed,
            kinetics=KIN,
            qubit=QubitParams(gamma_background=500.0),
            pulse_schedule=validate_config(
                "rng_seed = 0\nduration = 20e-3\npulse_schedule = 5e-3:100us:6\n"
            ).pulse_schedule,
        )
        trace = simulate_joint(config, *np.random.default_rng(seed).spawn(3))
        t, s, n = trace.times, trace.states, trace.counts
        assert np.all(np.diff(t) > 0)
        assert np.all(n >= 0)
        changed = (np.diff(s.astype(int)) != 0) | (np.diff(n) != 0)
        assert changed.all()
        assert t[-1] <= config.duration

    @settings(max_examples=25, deadline=None)
    @given(
        g=st.floats(min_value=0.0, max_value=2e-3),
        s_rate=st.floats(min_value=100.0, max_value=2e4),
        r=st.floats(min_value=0.0, max_value=1e10),
        n0=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_birth_death_steps(self, g, s_rate, r, n0, seed):
        config = ScenarioConfig(
            duration=20e-3,
            rng_seed=seed,
            kinetics=QpKineticsParams(generation=g, trapping=s_rate, recombination=r),
            qubit=QubitParams(gamma_background=500.0),
            n_initial=n0,
            pulse_schedule=validate_config(
                "rng_seed = 0\nduration = 20e-3\n"
                "pulse_schedule = 5e-3:100us:6, 12e-3:50us:3\n"
            ).pulse_schedule,
        )
        trace = simulate_joint(config, *np.random.default_rng(seed).spawn(3))
        t, s, n = trace.times, trace.states, trace.counts
        assert np.all(n >= 0)
        dn = np.diff(n)
        flips = np.diff(s.astype(int)) != 0
        # a qubit flip never changes N
        assert np.all(dn[flips] == 0)
        # N moves by +inject at pulse ends and by a kinetic step elsewhere
        ends = dict(zip((config.pulse_start + config.pulse_length).tolist(),
                        config.pulse_inject.tolist()))
        at_end = np.isin(t[1:], list(ends))
        assert [float(x) for x in t[1:][at_end]] == sorted(ends)
        assert list(dn[at_end]) == [ends[e] for e in sorted(ends)]
        assert np.all(np.isin(dn[~at_end & ~flips], (2, -1, -2)))

    def test_pure_decay_mean_dwell(self):
        # one QP injected per pulse and no generation: the wait from each
        # pulse end to the QP's loss is exponential at the trapping rate;
        # the 3-SEM bound fails by chance for about 0.3% of seeds
        kin = QpKineticsParams(generation=0.0, trapping=2000.0, recombination=0.0)
        train = PeriodicPulses(first=0.0, period=10e-3, length=10e-6, inject=1,
                               count=3000)
        config = ScenarioConfig(duration=train.count * train.period, rng_seed=11,
                                kinetics=kin, n_initial=0, pulse_periodic=train)
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        t, n = trace.times, trace.counts
        ends = config.pulse_start + config.pulse_length
        dn = np.diff(n)
        assert np.array_equal(t[1:][dn == 1], ends)
        deaths = t[1:][dn == -1]
        assert set(dn) <= {-1, 0, 1} and len(deaths) == len(ends)
        waits = deaths - ends
        assert np.all(waits > 0)
        mean = waits.mean()
        err = waits.std() / math.sqrt(len(waits))
        assert abs(mean - 1.0 / 2000.0) < 3 * err

    def test_mean_field_matches_ode(self):
        # with r = 0 the mean QP number relaxes exactly linearly, so after
        # each 8-QP injection onto the stationary population it follows the
        # rate equation started from x_bar + 8/n_pairs; a 12 tau period
        # leaves 8 e^-12 QPs of the previous pulse, far below the SEM.
        # With five 3-SEM bounds, a chance failure hits at most 1.4% of seeds
        tau = 125e-6
        train = PeriodicPulses(first=12 * tau - 10e-6, period=12 * tau, length=10e-6,
                               inject=8, count=10_000)
        config = ScenarioConfig(duration=train.count * train.period, rng_seed=99,
                                kinetics=KIN, pulse_periodic=train)
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        t, n = trace.times, trace.counts
        checkpoints = np.array([0.5, 1.0, 2.0, 4.0, 8.0]) * tau
        ends = config.pulse_start + config.pulse_length
        idx = np.searchsorted(t, ends[:, None] + checkpoints, side="right") - 1
        samples = n[idx] / KIN.n_pairs
        mean = samples.mean(axis=0)
        sem = samples.std(axis=0) / math.sqrt(len(ends))
        x0 = steady_state(KIN) + train.inject / KIN.n_pairs
        expected = evolve_ode(x0, KIN, np.concatenate(([0.0], checkpoints)))[1:]
        assert np.all(np.abs(mean - expected) < 3 * sem)

    def test_default_regime_population_one_to_two(self):
        config = ScenarioConfig(duration=2.0, rng_seed=5)
        trace = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        t, n = trace.times, trace.counts
        time_avg = np.sum(n * np.diff(np.append(t, trace.duration))) / trace.duration
        assert 1.0 < time_avg < 2.0


N_MAX = 40  # truncation of the oracle; the stationary mass beyond it is negligible

ORACLE_CASES = {
    "default-kinetics": ScenarioConfig(
        duration=20.0, rng_seed=1, qubit=QubitParams(gamma_background=200.0),
    ),
    "recombination": ScenarioConfig(
        duration=10.0, rng_seed=2, qubit=QubitParams(gamma_background=200.0),
        kinetics=QpKineticsParams(generation=1e-3, trapping=2000.0, recombination=1e10),
    ),
    # simulate_joint does not record the modulator state, so this case is
    # checked on the (q, N) marginal and on the modulator-independent rates
    "modulated": ScenarioConfig(
        duration=20.0, rng_seed=3, qubit=QubitParams(gamma_background=200.0),
        modulation=Modulation(quiet_generation=1.6e-5, mean_quiet=1e-3, mean_noisy=1.5e-3),
    ),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_run(request):
    config = ORACLE_CASES[request.param]
    return config, simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))


class TestJointOracle:
    """simulate_joint against the truncated joint generator (tests/support.py).

    Each p > 0.01 check fails by chance for about 1% of seeds: over seeds
    100-199, each case and check failed for 1 or 2 of them.
    """

    def test_stationary_occupancy(self, oracle_run):
        # (q, N) snapshots every 2 ms: 13-16 QP relaxation times, and 3.3
        # correlation times (0.6 ms) of the modulator in the modulated case
        config, truth = oracle_run
        p_value, cells = occupancy_chi2(truth, stationary_qn(config, N_MAX))
        assert cells >= 10
        assert p_value > 0.01

    def test_transition_rates(self, oracle_run):
        config, truth = oracle_run
        p_value, dof, forbidden = transition_rate_chi2(truth, config, N_MAX)
        assert forbidden == 0
        assert dof >= 30
        assert p_value > 0.01

    def test_n_marginal_mean_is_flux_balance(self):
        # mean of the truncated law reproduces generation*n_pairs/trapping
        pi_n = stationary_qn(ScenarioConfig(duration=1.0, rng_seed=0), N_MAX).sum(axis=0)
        mean = float(np.arange(len(pi_n)) @ pi_n)
        assert mean == pytest.approx(KIN.generation * KIN.n_pairs / KIN.trapping, rel=1e-6)


def _pulse_train(text):
    return validate_config(f"rng_seed = 0\nduration = 1\n{text}\n").pulse_periodic


QUBIT_LAYER_CASES = {
    # the first candidate finds the qubit excited and accepts, so the first
    # run of accepts continues an excited state: it relaxes first
    "excited-start": frozen_config(2, duration=0.05, seed=3),
    "no-candidates": frozen_config(0, duration=0.05, seed=1),
    # N = 0 between injected QPs and no background: zero-rate segments
    "zero-rate-segments": ScenarioConfig(
        duration=0.2, rng_seed=5, n_initial=0,
        kinetics=QpKineticsParams(generation=0.0, trapping=8000.0, recombination=0.0),
        pulse_periodic=_pulse_train("pulse_first = 0\npulse_period = 1e-3\n"
                                   "pulse_length = 10us\npulse_inject = 3\npulse_count = 150"),
    ),
    "thermal-transient": frozen_config(
        2, duration=0.2, seed=7,
        thermal=ThermalParams(power=1e-10, specific_heat=2e-13, mass=0.1, tau_thermal=2e-3),
        pulse_periodic=_pulse_train("pulse_first = 0\npulse_period = 10e-3\n"
                                   "pulse_length = 100us\npulse_inject = 0\npulse_count = 19"),
    ),
}


class TestQubitLayerOracle:
    """The vectorized qubit layer against a scalar loop over the same
    candidates and uniforms (tests/support.py), with candidates drawn 7 at
    a time and _BLOCK (eight times the default) at a time."""

    @pytest.mark.parametrize("block", [7, _BLOCK])
    @pytest.mark.parametrize("case", sorted(QUBIT_LAYER_CASES))
    def test_flips_equal_scalar_loop_bit_for_bit(self, case, block, monkeypatch):
        config = QUBIT_LAYER_CASES[case]
        monkeypatch.setattr(jumpsim, "_CANDIDATES", block)
        truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        _, candidates, uniforms = np.random.default_rng(config.rng_seed).spawn(3)
        initial, flips, accepts = scalar_qubit_layer(config, truth, candidates, uniforms)

        s = truth.states
        assert s[0] == initial
        assert truth.times[1:][s[1:] != s[:-1]].tobytes() == flips.tobytes()
        # each case exercises what it is named for
        if case == "excited-start":
            assert initial == STATE_EXCITED and accepts[0]
            assert len(flips) > 100
        elif case == "no-candidates":
            assert accepts == [] and len(truth) == 0
        elif case == "zero-rate-segments":
            dwell = np.diff(np.append(truth.times, truth.duration))
            assert dwell[truth.counts == 0].sum() > 0.1 * truth.duration
            assert len(flips) > 100
        else:
            assert sum(accepts) > 100 and len(flips) > 100

    def test_block_size_does_not_change_the_trace(self, monkeypatch):
        config = ScenarioConfig(
            duration=0.2, rng_seed=13, qubit=QubitParams(gamma_background=300.0),
            modulation=Modulation(quiet_generation=1.6e-5, mean_quiet=0.02, mean_noisy=0.02),
            thermal=ThermalParams(power=1e-10, specific_heat=2e-13, mass=0.1,
                                  tau_thermal=2e-3),
            pulse_periodic=_pulse_train(
                "pulse_first = 0\npulse_period = 10e-3\n"
                "pulse_length = 100us\npulse_inject = 4\npulse_count = 19"),
        )
        whole = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        monkeypatch.setattr(jumpsim, "_CANDIDATES", 7)
        blocked = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        assert len(whole) > 1000
        for field in ("times", "states", "counts"):
            assert getattr(blocked, field).tobytes() == getattr(whole, field).tobytes()


DETERMINISM_CASES = {
    # five modulator switches in 2 s at these mean residences
    "quiet-noisy": preset_config("quiet-noisy", {
        "duration": "2", "mod_mean_quiet": "0.25", "mod_mean_noisy": "0.25"}),
    "recovery": preset_config("recovery", {"duration": "0.50525", "pulse_count": "50"}),
    # recombination after 3000 injected QPs reaches over 1500 distinct counts
    "recombination-injection": ScenarioConfig(
        duration=0.01, rng_seed=7, n_initial=0,
        kinetics=QpKineticsParams(recombination=1e10),
        pulse_schedule=(Pulse(1e-3, 100e-6, 3000),),
    ),
    # no generation: once the injected QPs are trapped, every rate is zero
    # until the next pulse end
    "zero-rate-pulses": ScenarioConfig(
        duration=0.05, rng_seed=5, n_initial=0,
        kinetics=QpKineticsParams(generation=0.0, trapping=8000.0),
        pulse_periodic=_pulse_train("pulse_first = 0\npulse_period = 1e-3\n"
                                   "pulse_length = 10us\npulse_inject = 3\npulse_count = 40"),
    ),
}

# sha256 of the times, states and counts bytes of each case's trace.  Only
# a change of the draw order, declared in CHANGES.md, or a change of
# numpy's random streams may update these digests.
DETERMINISM_DIGESTS = {
    "quiet-noisy": (
        "f0f4d00b2a9c8497c4b6fb50ff0b865bbd503cb78f1da047e6ba189e5f614cce",
        "fb984ae1d45eef706cc8425e1c83673a872be7f5d08f8f1f0629cf069b78560e",
        "ac53a53b84621b718b1f0b625476913c946cdcb7b2d160552c67bdaa89841e2e",
    ),
    "recovery": (
        "79eee272ee1198f12285fcbb9a89a20fc2228fedb353acf5b4f325d956295578",
        "567bae39cb362b13192c14f09aeb8346689d480381c78f06d7a35c7ffde2c6c4",
        "10b7433f767b77ba41e81dc85c9ccf4133d3e3a733dd8608e8a25e7b47ef239b",
    ),
    "recombination-injection": (
        "d452ac74fa7f0f0141cefc9ca0abd60e72cd387e683eb69e69c5ef3ebfbc53fc",
        "c0fb80d6df8c6779bef75e06aa0f1556e389c40d9898fb0ac886f8df4f831960",
        "64cc6a5477f9962ba0f96c0d71f9a638b5cfac21dac0cb7ae25227eec9298134",
    ),
    "zero-rate-pulses": (
        "df21a9f875e8dae9f71bac5ee8af9d4d2689681f8de1974af13e3cb340f3d8d1",
        "f6d83f8d1b404810fc43b8b91e7e9c5f72c3504ac4d5319986c74d47c395855f",
        "bf00ed43411559fa2b337122dd07cfdc8e432a287d2aaf6d08a2a9e5fcd97aca",
    ),
}


def _trace_digests(truth):
    return tuple(hashlib.sha256(getattr(truth, field).tobytes()).hexdigest()
                 for field in ("times", "states", "counts"))


@pytest.mark.parametrize("case", sorted(DETERMINISM_CASES))
def test_trace_bytes_are_pinned(case):
    config = DETERMINISM_CASES[case]
    truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
    assert _trace_digests(truth) == DETERMINISM_DIGESTS[case]


# (QP steps per segment, candidates drawn at a time): single steps and
# candidates, 7 of each, and each at 1 with the other at its default
SEGMENT_SIZES = [(1, 1), (7, 7), (1, None), (None, 1)]


@pytest.mark.parametrize("segment, candidates", SEGMENT_SIZES)
@pytest.mark.parametrize("case", sorted(DETERMINISM_CASES))
def test_trace_does_not_depend_on_segment_size(case, segment, candidates, monkeypatch):
    if segment is not None:
        monkeypatch.setattr(jumpsim, "_SEGMENT", segment)
    if candidates is not None:
        monkeypatch.setattr(jumpsim, "_CANDIDATES", candidates)
    config = DETERMINISM_CASES[case]
    layers = list(simulate_layers(config, *np.random.default_rng(config.rng_seed).spawn(3)))
    # each segment holds a knot, starts from the (count, state) that the one
    # before left, and runs to the next one's first knot, the last to the
    # duration
    assert all(len(s.knot_t) + len(s.flips) > 0 for s in layers)
    assert [s.before for s in layers[1:]] == [s.after() for s in layers[:-1]]
    assert [s.end for s in layers] == [min([*s.knot_t[:1], *s.flips[:1]])
                                       for s in layers[1:]] + [config.duration]
    # and their merged knots, joined, are the pinned trace
    truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
    assert _trace_digests(truth) == DETERMINISM_DIGESTS[case]


class TestSynthesizeIq:
    def _flat_truth(self, state, duration):
        return TruthTrace(
            duration=duration, times=np.zeros(1),
            states=np.array([state], dtype=np.uint8), counts=np.zeros(1, dtype=np.int64),
        )

    def test_pure_ground_noiseless(self):
        meas = MeasurementParams()
        truth = self._flat_truth(STATE_GROUND, 10 * meas.t_meas)
        iq = noiseless_iq(truth, meas)
        assert np.all(iq.i == pytest.approx(snr_separation(meas)))
        assert np.all(iq.q == 0.0)

    def test_half_split_bin_is_zero(self):
        meas = MeasurementParams()
        truth = TruthTrace(
            duration=meas.t_meas,
            times=np.array([0.0, meas.t_meas / 2]),
            states=np.array([STATE_GROUND, STATE_EXCITED], dtype=np.uint8),
            counts=np.array([0, 0], dtype=np.int64),
        )
        iq = noiseless_iq(truth, meas)
        assert iq.i[0] == pytest.approx(0.0, abs=1e-12)

    def test_sample_counts(self):
        assert sample_count(1.0, 5e-6) == 200_000
        assert sample_count(0.001, 5e-6) == 200
        assert sample_count(160.0, 5e-6) == 32_000_000
        assert sample_count(256.0, 5e-6) == 51_200_000

    def test_histogram_separation_recovers_snr(self):
        config = validate_config("rng_seed = 42\nduration = 1\n")
        truth, iq = run_simulation(config)
        assert len(iq) == 200_000

        def mixture(x, w, m1, m2, s1, s2):
            return (
                w * np.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
                + (1 - w) * np.exp(-0.5 * ((x - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
            )

        hist, edges = np.histogram(iq.i, bins=120, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        sep = snr_separation(config.meas)
        popt, _ = curve_fit(mixture, centers, hist, p0=[0.6, sep, -sep, 1.0, 1.0])
        assert abs(popt[1] - popt[2]) == pytest.approx(5.2, abs=0.1)

    def test_noise_is_unit_normal_about_the_mean_record(self):
        # 2e5 samples: the bounds are over 6 standard errors, so a chance
        # failure is below 1e-8
        config = validate_config("rng_seed = 42\nduration = 1\n")
        truth, iq = run_simulation(config)
        mean = noiseless_iq(truth, config.meas)
        for noise in (iq.i - mean.i, iq.q - mean.q):
            assert abs(noise.mean()) < 0.015
            assert abs(noise.std() - 1.0) < 0.01

    def test_duration_preserved(self):
        config = validate_config("rng_seed = 9\nduration = 0.0123\n")
        truth, iq = run_simulation(config)
        assert len(iq) == sample_count(0.0123, config.meas.t_meas)


# record lengths around the synthesis block size: one sample, a block less
# one, one block, a block and one, and three blocks plus a remainder
BLOCK_LENGTHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17)


@st.composite
def knotted_traces(draw):
    """(truth, meas): knots on bin edges and one ulp off them, at t = 0 and
    at the duration, repeated states as a pulse-end injection leaves them,
    and dense random knots that put thousands in one block."""
    n = draw(st.sampled_from(BLOCK_LENGTHS))
    t_meas = draw(st.sampled_from((5e-6, 1e-3, 3.7e-6)))
    duration = n * t_meas
    assume(sample_count(duration, t_meas) == n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = rng.integers(0, n + 1, size=draw(st.integers(0, 2000)))
    on_edges = k.astype(float) * t_meas
    nudged = np.nextafter(on_edges, rng.choice([-np.inf, np.inf], size=len(k)))
    inside = rng.uniform(0.0, duration, size=draw(st.integers(0, 3000)))
    ends = [v for v in (0.0, duration) if draw(st.booleans())]
    times = np.unique(np.concatenate((on_edges, nudged, inside, ends)))
    times = times[(times >= 0.0) & (times <= duration)]
    states = rng.integers(0, 2, size=len(times)).astype(np.uint8)
    # the t = 0 knot comes first; a drawn knot at 0.0 repeats its time
    initial = draw(st.sampled_from((STATE_GROUND, STATE_EXCITED)))
    truth = TruthTrace(
        duration=duration, times=np.concatenate(([0.0], times)),
        states=np.concatenate(([initial], states)).astype(np.uint8),
        counts=np.arange(len(times) + 1, dtype=np.int64),
    )
    return truth, MeasurementParams(t_meas=t_meas)


class TestBlockedRecordOracle:
    """synthesize_iq against the whole-array occupancy and noise draws."""

    @settings(max_examples=40, deadline=None)
    @given(knotted_traces(), st.integers(0, 2**32 - 1))
    def test_equals_whole_record_bit_for_bit(self, case, seed):
        truth, meas = case
        n = sample_count(truth.duration, meas.t_meas)
        i_rng, q_rng = np.random.default_rng(seed).spawn(2)
        got = synthesize_iq(occupancy_blocks(trace_layers(truth), meas.t_meas, [0, n]), meas,
                            i_rng.standard_normal(n, dtype=np.float32),
                            q_rng.standard_normal(n, dtype=np.float32))
        want = whole_record_iq(truth, meas, *np.random.default_rng(seed).spawn(2))
        assert got.i.tobytes() == want.i.tobytes()
        assert got.q.tobytes() == want.q.tobytes()

    def test_simulated_pulse_injections(self):
        # pulse ends inject QPs without a qubit flip; the record spans three
        # blocks plus a remainder
        meas = MeasurementParams()
        duration = (3 * _BLOCK + 17) * meas.t_meas
        config = validate_config(
            f"rng_seed = 3\nduration = {duration!r}\n"
            "pulse_first = 0\npulse_period = 0.1\npulse_length = 100us\n"
            "pulse_inject = 5\npulse_count = 9\n"
        )
        truth, got = run_simulation(config)
        want = whole_record_iq(truth, meas,
                               *np.random.default_rng(config.rng_seed).spawn(5)[3:])
        assert len(got) == 3 * _BLOCK + 17
        assert got.i.tobytes() == want.i.tobytes()
        assert got.q.tobytes() == want.q.tobytes()


class TestRecordRanges:
    """The presets synthesize their record a range of bins at a time."""

    @settings(max_examples=40, deadline=None)
    @given(knotted_traces(), st.lists(st.floats(0.0, 1.0), max_size=6),
           st.lists(st.floats(0.0, 1.0), max_size=6), st.integers(0, 2**32 - 1))
    def test_ranges_join_into_the_whole_record(self, case, cuts, knot_cuts, seed):
        truth, meas = case
        n = sample_count(truth.duration, meas.t_meas)
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        ranges = list(zip(bounds[:-1], bounds[1:]))
        # the trace as segments cut at knots, on bin edges among them
        segments = trace_layers(truth, [int(c * len(truth.times)) for c in knot_cuts])
        # each yielded block is scratch that the next one overwrites
        layers = trace_layers(truth)
        whole = [block.copy() for block in occupancy_blocks(layers, meas.t_meas, [0, n])]
        pieces = [block.copy() for block in occupancy_blocks(layers, meas.t_meas, bounds)]
        assert np.concatenate(pieces).tobytes() == np.concatenate(whole).tobytes()
        streamed = [block.copy() for block in occupancy_blocks(segments, meas.t_meas, bounds)]
        assert np.concatenate(streamed).tobytes() == np.concatenate(whole).tobytes()
        # a block ends at every range bound
        assert set(bounds) <= {0, *np.cumsum([len(p) for p in pieces]).tolist()}

        want = whole_record_iq(truth, meas, *np.random.default_rng(seed).spawn(2))
        i_rng = np.random.default_rng(seed).spawn(2)[0]
        occupancy = occupancy_blocks(iter(segments), meas.t_meas, bounds)
        got = [synthesize_iq(occupancy, meas, i_rng.standard_normal(hi - lo, dtype=np.float32))
               for lo, hi in ranges]
        assert all(block.q is None for block in got)
        assert [len(block) for block in got] == [hi - lo for lo, hi in ranges]
        assert np.concatenate([block.i for block in got]).tobytes() == want.i.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(knotted_traces(), st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), max_size=4),
           st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_ranges_from_any_bin_equal_the_whole_pass(self, case, start, cuts, knot_cuts):
        # a pass from bin lo holds no sum carried from bin 0
        truth, meas = case
        n = sample_count(truth.duration, meas.t_meas)
        lo = int(start * n)
        bounds = sorted({lo, n, *(lo + int(c * (n - lo)) for c in cuts)})
        segments = trace_layers(truth, [int(c * len(truth.times)) for c in knot_cuts])
        whole = np.concatenate([block.copy() for block in
                                occupancy_blocks(trace_layers(truth), meas.t_meas, [0, n])])
        part = [block.copy() for block in occupancy_blocks(segments, meas.t_meas, bounds)]
        assert np.concatenate(part + [np.empty(0)]).tobytes() == whole[lo:].tobytes()

    def test_q_is_checked_only_when_present(self):
        assert len(jumpsim.IQRecord(t_meas=1.0, i=np.zeros(3), q=None)) == 3
        with pytest.raises(ValueError, match="equal length"):
            jumpsim.IQRecord(t_meas=1.0, i=np.zeros(3), q=np.zeros(2))


class TestOccupancy:
    """Each bin's excited fraction from its first edge's state and its
    flips."""

    def test_within_a_few_ulps_of_the_exact_overlap(self):
        # 300 small traces with knots on the edges float(k) * t_meas, one
        # ulp either side of them and at random, against the exact overlap
        # of the excited intervals with each bin, in Fractions of the
        # floats.  The width e1 - e0 is exact, each e1 - t_j is off by at
        # most 2^-53 w and each addition and the division round once, so a
        # bin with f flips is within (f + 1) 2^-52 of the exact fraction;
        # a bin without flips is its first edge's state exactly
        rng = np.random.default_rng(12)
        ulp = Fraction(1, 2**52)
        worst = Fraction(0)
        for case in range(300):
            t_meas = float(rng.choice([5e-6, 3.7e-6, 1e-3, 0.1, 1.0 / 3.0]))
            n = int(rng.integers(1, 12))
            on_edges = rng.integers(0, n + 1, size=int(rng.integers(0, 8))) * t_meas
            times = np.unique(np.concatenate((
                [0.0], on_edges, np.nextafter(on_edges, -np.inf),
                np.nextafter(on_edges, np.inf),
                rng.uniform(0.0, n * t_meas, size=int(rng.integers(0, 12))))))
            times = times[(times >= 0.0) & (times <= n * t_meas)]
            states = rng.integers(0, 2, size=len(times)).astype(np.uint8)
            truth = TruthTrace(duration=n * t_meas, times=times, states=states,
                               counts=np.zeros(len(times), dtype=np.int64))
            got = np.concatenate([b.copy() for b in
                                  occupancy_blocks(trace_layers(truth), t_meas, [0, n])])
            knots = [Fraction(t) for t in times] + [Fraction(n * t_meas)]
            for b in range(n):
                e0, e1 = Fraction(float(b) * t_meas), Fraction(float(b + 1) * t_meas)
                excited = sum((min(knots[j + 1], e1) - max(knots[j], e0)
                               for j in range(len(times))
                               if states[j] and knots[j + 1] > e0 and knots[j] < e1),
                              Fraction(0))
                flips = sum(1 for j in range(1, len(times))
                            if e0 < knots[j] <= e1 and states[j] != states[j - 1])
                error = abs(Fraction(got[b]) - excited / (e1 - e0))
                if flips == 0:
                    assert error == 0, (case, b)
                assert error <= (flips + 1) * ulp, (case, b)
                worst = max(worst, error)
        assert worst > 0  # the bound is met by rounded values, not by no flips

    def test_simulated_bins_without_a_flip_are_exactly_0_or_1(self):
        # two blocks of a quiet-noisy record, its trajectory as the
        # sampler's layers
        config = preset_config("quiet-noisy", {"duration": "0.5"})
        n = sample_count(config.duration, config.meas.t_meas)
        truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
        layers = simulate_layers(config, *np.random.default_rng(config.rng_seed).spawn(3))
        f_e = np.concatenate([b.copy() for b in
                              occupancy_blocks(layers, config.meas.t_meas, [0, n])])
        edges = np.arange(n + 1, dtype=float) * config.meas.t_meas
        flips = run_starts(truth.states)[1:]
        with_flips = np.zeros(n, dtype=bool)
        b = np.searchsorted(edges, truth.times[flips]) - 1
        with_flips[b[b < n]] = True
        assert 100 < np.count_nonzero(with_flips) < n - 100
        state = truth.states[np.searchsorted(truth.times, edges[:-1], side="right") - 1]
        assert f_e[~with_flips].tolist() == state[~with_flips].astype(float).tolist()


def test_relaxation_jump_times():
    truth = TruthTrace(
        duration=1.0,
        times=np.array([0.0, 0.2, 0.5, 0.7]),
        states=np.array([STATE_EXCITED, STATE_GROUND, STATE_EXCITED, STATE_GROUND],
                        dtype=np.uint8),
        counts=np.array([1, 1, 1, 1], dtype=np.int64),
    )
    assert np.allclose(relaxation_jump_times(truth), [0.2, 0.7])


@st.composite
def runs_of_values(draw):
    """1-d arrays built from runs: a small alphabet, so neighbouring runs
    often merge; runs of one element and of thousands; empty arrays; and
    the uint8 states and int64 counts of a trace."""
    values = draw(st.lists(st.integers(0, 2), max_size=40))
    lengths = draw(st.lists(st.sampled_from((1, 2, 3, 5000)),
                            min_size=len(values), max_size=len(values)))
    dtype = draw(st.sampled_from((np.uint8, np.int64)))
    return np.repeat(np.array(values, dtype=dtype), np.array(lengths, dtype=np.int64))


class TestRunStarts:
    # nothing before the values, their first value, and a value unlike any
    # of them (runs_of_values draws 0 to 2); the empty array with each
    @pytest.mark.parametrize("before", ["none", "first", "other"])
    @settings(max_examples=200, deadline=None)
    @given(runs_of_values())
    @example(np.empty(0, dtype=np.uint8))
    def test_runs_rebuild_the_input_and_are_maximal(self, before, values):
        b = {"none": None, "first": values[0] if len(values) else 0, "other": 3}[before]
        starts = run_starts(values, b)
        if b is None:
            lengths = np.diff(starts, append=len(values))
            assert np.array_equal(np.repeat(values[starts], lengths), values)
            assert np.all(lengths >= 1)
            assert np.all(values[starts][1:] != values[starts][:-1])
            assert starts[:1].tolist() == [0][:len(values)]
        else:
            # the starts inside values of the runs of b followed by values
            joined = run_starts(np.concatenate((np.array([b], dtype=values.dtype), values)))
            assert starts.tolist() == (joined[1:] - 1).tolist()
            assert (0 in starts) == (before == "other" and len(values) > 0)
