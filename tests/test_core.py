import math
import pathlib
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpjumps.core import (
    BOLTZMANN,
    CONFIG_SCHEMA,
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
from qpjumps.kinetics import QpKineticsParams

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
        assert config.pulses == ()

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
        assert len(config.pulses) == 2
        assert config.pulses[0].start == 0.0
        assert config.pulses[0].length == pytest.approx(100e-6)
        assert config.pulses[0].inject == 10

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
        assert [p.start for p in config.pulses] == [0.0, 0.5]
        assert "pulse_schedule = 0.5:0.001:2, 0.0:0.001:1\n" in serialize_config(config)

    def test_periodic_expansion(self):
        config = validate_config(
            MINIMAL
            + "pulse_period = 10.105 ms\npulse_length = 100 us\n"
            + "pulse_inject = 10\npulse_count = 5\n"
        )
        assert len(config.pulses) == 5
        assert config.pulses[1].start == pytest.approx(10.105e-3)

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


def test_config_reference_doc_is_current():
    # regenerate with scripts/generate_config_reference.py
    doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "config_keys.md"
    assert doc.read_text() == config_reference()
