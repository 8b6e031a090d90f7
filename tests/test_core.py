import math
import pathlib
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpjumps.core import (
    BOLTZMANN,
    CONFIG_SCHEMA,
    MAX_FLIPS_PER_SAMPLE,
    PLANCK,
    TWO_PI,
    ConfigError,
    MeasurementParams,
    Modulation,
    PeriodicPulses,
    Pulse,
    QubitParams,
    ScenarioConfig,
    ThermalParams,
    config_reference,
    junction_power,
    polarization_to_temperature,
    serialize_config,
    temperature_to_polarization,
    validate_config,
)
from qpjumps.experiments import experiment_names, preset_config
from qpjumps.jumpsim import steady_relaxation_rate
from qpjumps.kinetics import QpKineticsParams
from support import reference_pulse_fault, reference_pulses

MINIMAL = "rng_seed = 7\nduration = 1\n"

# every key but pulse_schedule, which excludes the periodic train, at a
# value other than its default
ALL_KEYS = (
    "rng_seed = 11\nduration = 3 s\n"
    "f_ge = 700 MHz\nf_gap = 45 GHz\nf_inductive = 0.6 GHz\n"
    "gamma_background = 1500\ntemperature = 50 mK\n"
    "n_photons = 3\nkappa_over_2pi = 5.1 MHz\nchi_over_2pi = 0.9 MHz\n"
    "t_meas = 4 us\nefficiency = 0.3\n"
    "qp_generation = 1e-4\nqp_trapping = 2000\nqp_recombination = 1e6\n"
    "n_cooper_pairs = 4e7\nn_initial = 3\ngamma_scale = 0.8\npulse_wait = 7 us\n"
    "mod_quiet_generation = 5e-6\nmod_mean_quiet = 1.5\nmod_mean_noisy = 2.5\n"
    "pulse_first = 1 ms\npulse_period = 20 ms\npulse_length = 50 us\n"
    "pulse_inject = 4\npulse_count = 100\n"
    "thermal_power = 90 pW\nthermal_specific_heat = 2e-11\nthermal_mass = 50 mg\n"
    "thermal_tau = 3 ms\nthermal_i_critical = 300 nA\nthermal_v_gap = 0.38 mV\n"
)

# the parameter type behind each group of config keys ("" is the scenario)
GROUP_TYPES = {
    "": ScenarioConfig,
    "qubit": QubitParams,
    "meas": MeasurementParams,
    "kinetics": QpKineticsParams,
    "modulation": Modulation,
    "pulse_periodic": PeriodicPulses,
    "thermal": ThermalParams,
}


def _target(key):
    group, _, name = CONFIG_SCHEMA[key].target.rpartition(".")
    return group, name


class TestPolarizationTemperature:
    def test_measured_population_gives_45_mk(self):
        t = polarization_to_temperature(0.33, 665e6)
        assert t == pytest.approx(45.07e-3, abs=0.5e-3)

    def test_zero_excitation_limit(self):
        assert polarization_to_temperature(1e-9, 665e6) < 2e-3
        assert polarization_to_temperature(1e-12, 665e6) < polarization_to_temperature(1e-9, 665e6)

    def test_unit_log_ratio(self):
        # at p = 1/(1+e) the occupation log-ratio is exactly 1
        f = BOLTZMANN / PLANCK  # h f / k_B = 1 K
        assert polarization_to_temperature(1.0 / (1.0 + math.e), f) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.7, -0.1, 1.0])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            polarization_to_temperature(bad, 665e6)

    @given(
        p=st.floats(min_value=0.01, max_value=0.49),
        f=st.floats(min_value=1e6, max_value=1e11),
    )
    def test_round_trip(self, p, f):
        back = temperature_to_polarization(polarization_to_temperature(p, f), f)
        assert back == pytest.approx(p, rel=1e-12)


def test_angular_frequency_pin():
    # kappa/2pi = 4.7 MHz corresponds to 2.953e7 rad/s to 4 significant figures
    kappa = MeasurementParams().kappa
    assert kappa == pytest.approx(2.953e7, abs=0.5e4)
    assert TWO_PI * 4.7e6 == kappa


def test_power_from_junction_values():
    assert junction_power(280e-9, 0.4e-3) == pytest.approx(1.12e-10, rel=1e-12)


class TestConfigParsing:
    def test_minimal_file_fills_defaults(self):
        config = validate_config(MINIMAL)
        assert config.rng_seed == 7
        assert config.duration == 1.0
        assert config.meas.n_photons == 2.5
        assert config.meas.t_meas == 5e-6
        assert config.qubit.f_ge == 665e6
        assert config.kinetics.trapping == 8000.0
        assert config.thermal is None
        assert config.modulation is None
        assert [len(config.pulse_start), len(config.pulse_length),
                len(config.pulse_inject)] == [0, 0, 0]

    def test_paper_default_values_accepted(self):
        text = MINIMAL + (
            "n_photons = 2.5\n"
            "kappa_over_2pi = 4.7 MHz\n"
            "chi_over_2pi = 1 MHz\n"
            "t_meas = 5 us\n"
            "efficiency = 0.21\n"
            "temperature = 45 mK\n"
            "f_ge = 665 MHz\n"
        )
        config = validate_config(text)
        assert config.meas.kappa == pytest.approx(TWO_PI * 4.7e6)
        assert config.meas.chi == pytest.approx(TWO_PI * 1e6)
        assert config.meas.t_meas == pytest.approx(5e-6)
        assert config.qubit.temperature == pytest.approx(0.045)

    def test_invalid_efficiency_names_key(self):
        with pytest.raises(ConfigError, match="efficiency"):
            validate_config(MINIMAL + "efficiency = 1.5\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="no_such_key"):
            validate_config(MINIMAL + "no_such_key = 3\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="duration"):
            validate_config("rng_seed = 1\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="t_meas"):
            validate_config(MINIMAL + "t_meas = fast\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            validate_config(MINIMAL + "t_meas = 5 us\nt_meas = 6 us\n")

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="t_meas"):
            validate_config(MINIMAL + "t_meas = 5 MHz\n")

    def test_comments_and_blank_lines(self):
        config = validate_config("# scenario\n\nrng_seed = 3 # seed\nduration = 2 s\n")
        assert config.rng_seed == 3
        assert config.duration == 2.0

    def test_qubit_frequency_invariant(self):
        with pytest.raises(ConfigError, match="f_ge"):
            validate_config(MINIMAL + "f_ge = 100 GHz\nf_gap = 48.4 GHz\n")

    def test_pulse_schedule_explicit(self):
        config = validate_config(
            MINIMAL + "pulse_schedule = 0:100us:10, 0.5:100us:10\n"
        )
        assert config.pulse_start.tolist() == [0.0, 0.5]
        assert config.pulse_length.tolist() == pytest.approx([100e-6, 100e-6])
        assert config.pulse_inject.tolist() == [10, 10]
        assert config.pulse_inject.dtype == np.int64

    def test_pulses_must_not_overlap(self):
        with pytest.raises(ConfigError, match="overlap"):
            validate_config(MINIMAL + "pulse_schedule = 0:1ms:1, 0.5ms:1ms:1\n")

    def test_pulses_must_fit_duration(self):
        with pytest.raises(ConfigError, match="duration"):
            validate_config(MINIMAL + "pulse_schedule = 0.9999:1ms:1\n")

    @pytest.mark.parametrize("item, problem", [
        ("1 MHz:1ms:1", "unknown unit 'MHz'"),
        ("0:1ms:1.5", "expected an integer"),
    ])
    def test_pulse_schedule_errors_name_the_key_and_item(self, item, problem):
        with pytest.raises(ConfigError) as err:
            validate_config(MINIMAL + f"pulse_schedule = {item}\n")
        assert str(err.value).startswith(f"pulse_schedule item {item!r}: {problem}")

    def test_periodic_and_explicit_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            validate_config(
                MINIMAL + "pulse_schedule = 0:1ms:1\npulse_period = 10ms\n"
            )

    def test_scenario_takes_one_pulse_form(self):
        train = PeriodicPulses(period=10e-3, length=100e-6, inject=1, count=2)
        with pytest.raises(ValueError, match="not both"):
            ScenarioConfig(duration=1.0, rng_seed=0, pulse_schedule=(Pulse(0.5, 1e-3, 1),),
                           pulse_periodic=train)

    def test_pulses_view_is_sorted_and_schedule_keeps_its_order(self):
        text = MINIMAL + "pulse_schedule = 0.5:1ms:2, 0:1ms:1\n"
        config = validate_config(text)
        assert [p.start for p in config.pulse_schedule] == [0.5, 0.0]
        assert config.pulse_start.tolist() == [0.0, 0.5]
        assert config.pulse_inject.tolist() == [1, 2]
        assert "pulse_schedule = 0.5:0.001:2, 0.0:0.001:1\n" in serialize_config(config)

    def test_periodic_expansion(self):
        config = validate_config(
            MINIMAL
            + "pulse_period = 10.105 ms\npulse_length = 100 us\n"
            + "pulse_inject = 10\npulse_count = 5\n"
        )
        assert len(config.pulse_start) == 5
        assert config.pulse_start[1] == pytest.approx(10.105e-3)

    @pytest.mark.parametrize("key, problem", [
        ("pulse_first = -1e-3", "pulse start must be >= 0 and length > 0"),
        ("pulse_inject = -1", "pulse injection count must be non-negative"),
        ("pulse_inject = 1e19", "pulse injection count must fit an int64"),
    ])
    def test_periodic_pulse_faults_name_the_pulse_keys(self, key, problem):
        keys = {"pulse_period": "10 ms", "pulse_length": "100 us", "pulse_inject": "1",
                "pulse_count": "5"}
        name, _, value = key.partition(" = ")
        keys[name] = value
        text = MINIMAL + "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert str(err.value) == (
            "invalid value among [pulse_first, pulse_period, pulse_length, pulse_inject, "
            f"pulse_count]: {problem}")

    def test_thermal_enabled_by_any_thermal_key(self):
        config = validate_config(MINIMAL + "thermal_mass = 0.1\n")
        assert config.thermal is not None
        # default power comes from the junction values
        assert config.thermal.power == pytest.approx(1.12e-10)

    def test_thermal_key_alone_gives_default_thermal_params(self):
        assert validate_config(MINIMAL + "thermal_mass = 0.1\n").thermal == ThermalParams()

    def test_minimal_file_equals_default_scenario(self):
        assert validate_config(MINIMAL) == ScenarioConfig(duration=1.0, rng_seed=7)

    @pytest.mark.parametrize("text, missing", [
        ("mod_mean_quiet = 2\n", "mod_quiet_generation"),
        ("pulse_period = 10 ms\npulse_inject = 1\npulse_count = 2\n", "pulse_length"),
    ])
    def test_group_key_without_required_partner(self, text, missing):
        with pytest.raises(ConfigError, match=missing):
            validate_config(MINIMAL + text)

    def test_modulation_block(self):
        config = validate_config(
            MINIMAL + "mod_quiet_generation = 1.6e-5\nmod_mean_quiet = 2\n"
        )
        assert config.modulation is not None
        assert config.modulation.mean_noisy == 4.0


class TestConfigRoundTrip:
    CASES = [
        MINIMAL,
        MINIMAL + "thermal_mass = 0.1\nmod_quiet_generation = 1.6e-5\n",
        MINIMAL + "pulse_schedule = 0:100us:10, 0.5:100us:0\n",
        MINIMAL + "pulse_period = 10.105ms\npulse_length = 100us\n"
        + "pulse_inject = 7\npulse_count = 3\ngamma_scale = 0.75\n",
        ALL_KEYS,
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_serialize_fixed_point(self, text):
        once = serialize_config(validate_config(text))
        twice = serialize_config(validate_config(once))
        assert once == twice

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_preserves_config(self, text):
        config = validate_config(text)
        assert validate_config(serialize_config(config)) == config


class TestSchema:
    def test_every_target_names_a_field(self):
        for key in CONFIG_SCHEMA:
            group, name = _target(key)
            assert name in {f.name for f in fields(GROUP_TYPES[group])}, key

    def test_every_field_is_set_by_exactly_one_key(self):
        keyed = Counter(_target(key) for key in CONFIG_SCHEMA)
        assert max(keyed.values()) == 1
        for group, cls in GROUP_TYPES.items():
            names = {f.name for f in fields(cls)}
            if not group:
                names -= set(GROUP_TYPES)
            assert {name for g, name in keyed if g == group} == names, group

    def test_all_keys_case_sets_every_key_off_default(self):
        config = validate_config(ALL_KEYS)
        given = {line.partition("=")[0].strip() for line in ALL_KEYS.splitlines()}
        assert given == set(CONFIG_SCHEMA) - {"pulse_schedule"}
        for key in given:
            group, name = _target(key)
            owner = getattr(config, group) if group else config
            default = next(f.default for f in fields(GROUP_TYPES[group]) if f.name == name)
            assert getattr(owner, name) != default, key


def test_scenario_initial_count_defaults_to_steady_mean():
    config = validate_config(MINIMAL)
    # x_bar * n_pairs = 4e-8 * 3.75e7 = 1.5, rounds to 2
    assert config.initial_count() == 2
    explicit = validate_config(MINIMAL + "n_initial = 5\n")
    assert explicit.initial_count() == 5


def test_direct_construction_validates():
    with pytest.raises(ValueError):
        QubitParams(f_ge=-1.0)
    with pytest.raises(ValueError):
        MeasurementParams(efficiency=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(duration=1.0, rng_seed=-1)


def _pulse_form(schedule=(), train=None):
    return {"pulse_schedule": tuple(Pulse(*p) for p in schedule), "pulse_periodic": train}


def _pulse_forms():
    """Schedules of a few pulses, whose starts and lengths repeat and sum
    to each other's values so that they touch and overlap, and trains
    whose lengths come within one ULP of the period."""
    values = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.30000000000000004, 0.5, 1e-3, 1.0])
    lengths = st.sampled_from([0.1, 0.2, 0.25, 1e-3, 0.7])
    schedules = st.lists(st.tuples(values, lengths, st.integers(0, 3)), min_size=1,
                         max_size=6).map(lambda schedule: _pulse_form(schedule=schedule))
    trains = st.builds(
        lambda period, shorter, count, first: _pulse_form(train=PeriodicPulses(
            period=period, length=float(np.nextafter(period, 0.0)) if shorter else period / 2,
            inject=1, count=count, first=first)),
        st.sampled_from([0.01, 0.1, 10.105e-3, 0.3]), st.booleans(), st.integers(1, 40),
        st.sampled_from([0.0, 1e-3, 0.2]))
    return st.one_of(schedules, trains)


class TestPulseArrays:
    """The config's pulse arrays against the per-pulse arithmetic and
    check they replace (tests/support.py): equal bit for bit, refusing
    what the check refuses, with the first fault's message."""

    @staticmethod
    def _check(form, duration):
        pulses = reference_pulses(form["pulse_schedule"], form["pulse_periodic"])
        fault = reference_pulse_fault(pulses, duration)
        if fault is not None:
            with pytest.raises(ValueError) as err:
                ScenarioConfig(duration=duration, rng_seed=0, **form)
            assert str(err.value) == fault
            return
        config = ScenarioConfig(duration=duration, rng_seed=0, **form)
        starts, lengths, injects = zip(*pulses)
        assert config.pulse_start.tobytes() == np.array(starts, dtype=float).tobytes()
        assert config.pulse_length.tobytes() == np.array(lengths, dtype=float).tobytes()
        assert config.pulse_inject.dtype == np.int64
        assert config.pulse_inject.tolist() == list(injects)

    @pytest.mark.parametrize("name", ["qp-pulses", "recovery"])
    def test_preset_trains(self, name):
        config = preset_config(name)
        self._check(_pulse_form(train=config.pulse_periodic), config.duration)

    @given(form=_pulse_forms(), duration=st.sampled_from([0.3, 0.4, 0.5, 1.0, 1.5]))
    def test_arrays_and_faults_equal_the_per_pulse_loop(self, form, duration):
        self._check(form, duration)

    @pytest.mark.parametrize("schedule, train, duration, fault", [
        # 0.1 + 0.2 rounds past 0.3: the pulses overlap by rounding alone
        ([(0.1, 0.2, 1), (0.3, 0.1, 1)], None, 1.0, "pulses must not overlap"),
        # a train whose pulse 14 ends one ULP past pulse 15's start
        ((), PeriodicPulses(period=0.01, length=float(np.nextafter(0.01, 0.0)), inject=1,
                            count=16, first=1e-3), 1.0, "pulses must not overlap"),
        ((), PeriodicPulses(period=0.01, length=float(np.nextafter(0.01, 0.0)), inject=1,
                            count=15, first=1e-3), 1.0, None),
        # the last end on the duration is accepted, one ULP past it is not
        ((), PeriodicPulses(period=0.01, length=1e-3, inject=1, count=3), 0.02 + 1e-3, None),
        ((), PeriodicPulses(period=0.01, length=1e-3, inject=1, count=3),
         float(np.nextafter(0.02 + 1e-3, 0.0)), "pulses must end within duration"),
        # an unsorted schedule is checked in start order
        ([(0.5, 1e-3, 2), (0.0, 1e-3, 1)], None, 1.0, None),
        ([(0.5, 0.1, 2), (0.45, 0.1, 1)], None, 1.0, "pulses must not overlap"),
        # the first fault in start order names the error
        ([(0.5, 0.6, 1), (0.9, 0.05, 1)], None, 1.0, "pulses must end within duration"),
        ([(0.9, 0.2, 1), (0.5, 0.6, 1), (0.1, 0.5, 1)], None, 1.0, "pulses must not overlap"),
    ])
    def test_named_cases(self, schedule, train, duration, fault):
        form = _pulse_form(schedule, train)
        assert reference_pulse_fault(
            reference_pulses(form["pulse_schedule"], train), duration) == fault
        self._check(form, duration)

    def test_arrays_are_read_only(self):
        config = preset_config("recovery")
        with pytest.raises(ValueError):
            config.pulse_start[0] = 1.0


class TestFlipCeiling:
    """validate_config refuses a steady relaxation rate past
    MAX_FLIPS_PER_SAMPLE flips per t_meas sample, and no preset is near it."""

    def test_ceiling_is_inclusive(self):
        # no QPs: the steady rate is gamma_background alone
        base = MINIMAL + "qp_generation = 0\nt_meas = 4 us\n"
        at = MAX_FLIPS_PER_SAMPLE / 4e-6
        assert validate_config(base + f"gamma_background = {at!r}\n").qubit.gamma_background == at
        with pytest.raises(ConfigError, match="flips per t_meas"):
            validate_config(base + f"gamma_background = {at * (1 + 1e-12)!r}\n")

    def test_modulated_quiet_state_counts(self):
        # the quiet state generates more than the noisy one here
        text = (MINIMAL + "qp_generation = 0\nmod_quiet_generation = 2e7\n"
                "mod_mean_quiet = 1\nmod_mean_noisy = 1\n")
        with pytest.raises(ConfigError, match="flips per t_meas"):
            validate_config(text)
        assert steady_relaxation_rate(validate_config(text.replace("2e7", "3e-4"))) > 0

    # never run: a billion QPs give about 3e7 flips per sample after the
    # first injection, and 1e9 trapping steps for the QP layer
    @pytest.mark.parametrize("name, key, value", [
        ("qp-pulses", "pulse_inject", "1000000000"),
        ("recovery", "pulse_inject", "1000000000"),
        ("quiet-noisy", "pulse_schedule", "1:100us:5, 2:100us:1000000000, 3:100us:5"),
    ])
    def test_the_largest_injection_counts(self, name, key, value):
        with pytest.raises(ConfigError) as err:
            preset_config(name, {key: value})
        assert "flips per t_meas" in str(err.value)
        assert "largest pulse injection, 1000000000 QPs (" + key + ")" in str(err.value)

    def test_injection_ceiling_is_at_the_largest_pulse(self):
        # no QPs at the steady state, so the rate is the injection's alone
        base = MINIMAL + "qp_generation = 0\n"
        per_qp = steady_relaxation_rate(validate_config(base), 1)
        below = int(0.999 * MAX_FLIPS_PER_SAMPLE / 5e-6 / per_qp)
        above = int(1.001 * MAX_FLIPS_PER_SAMPLE / 5e-6 / per_qp)
        schedule = "pulse_schedule = 0.1:1ms:{}, 0.2:1ms:{}\n"
        assert validate_config(base + schedule.format(below, below)).pulse_inject.max() == below
        with pytest.raises(ConfigError, match="flips per t_meas"):
            validate_config(base + schedule.format(below, above))

    @pytest.mark.parametrize("name", experiment_names())
    def test_presets_are_far_below(self, name):
        config = preset_config(name)
        assert steady_relaxation_rate(config) * config.meas.t_meas < 1e-3 * MAX_FLIPS_PER_SAMPLE


def test_config_reference_doc_is_current():
    # regenerate with scripts/generate_config_reference.py
    doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "config_keys.md"
    assert doc.read_text() == config_reference()
