import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpjumps.core import (
    BOLTZMANN,
    PLANCK,
    TWO_PI,
    ConfigError,
    MeasurementParams,
    QubitParams,
    ScenarioConfig,
    config_reference,
    gap_frequency,
    junction_power,
    polarization_to_temperature,
    serialize_config,
    temperature_to_polarization,
    validate_config,
)

MINIMAL = "rng_seed = 7\nduration = 1\n"


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


def test_gap_frequency_and_power_from_junction_values():
    assert gap_frequency(0.4e-3) == pytest.approx(48.36e9, rel=1e-3)
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

    def test_periodic_and_explicit_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            validate_config(
                MINIMAL + "pulse_schedule = 0:1ms:1\npulse_period = 10ms\n"
            )

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
