"""Shared domain types, constants, unit conventions and configuration.

Conventions used throughout the package:

* every energy is stored as a frequency E/h in Hz, so no hbar bookkeeping
  is needed anywhere;
* every time is in seconds internally; unit suffixes (us, MHz, mK, ...)
  are accepted in configuration files and converted at the boundary;
* kappa and chi are angular (rad/s) internally, while the corresponding
  config keys take the linear frequencies kappa_over_2pi / chi_over_2pi
  that instruments display.

All parameter types are frozen dataclasses: they validate on construction
and are safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .kinetics import QpKineticsParams, steady_state

PLANCK = 6.62607015e-34  # J s
BOLTZMANN = 1.380649e-23  # J / K
ELEMENTARY_CHARGE = 1.602176634e-19  # C
TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Raised for unparseable or invariant-violating configuration input."""


_BOTH_PULSE_FORMS = "give either pulse_schedule or pulse_first/period/... , not both"


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitParams:
    """Two-level qubit parameters.

    f_ge: transition frequency (Hz); f_gap: superconducting gap as a
    frequency Delta/h (Hz); f_inductive: inductive energy as a frequency
    E_L/h (Hz); gamma_background: relaxation rate from non-QP channels
    (1/s); temperature: effective bath temperature (K); gamma_scale:
    multiplier on the whole relaxation rate, QP and background terms alike.
    """

    f_ge: float = 665e6
    f_gap: float = 48.4e9
    f_inductive: float = 0.5e9
    gamma_background: float = 0.0
    temperature: float = 0.045
    gamma_scale: float = 1.0

    def __post_init__(self):
        if self.f_ge <= 0 or self.f_gap <= 0 or self.f_inductive <= 0:
            raise ValueError("qubit frequencies must be positive")
        if self.gamma_background < 0:
            raise ValueError("gamma_background must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.gamma_scale <= 0:
            raise ValueError("gamma_scale must be positive")
        if self.f_ge >= 2.0 * self.f_gap:
            raise ValueError("f_ge must be below twice f_gap (pair-breaking photon)")


@dataclass(frozen=True)
class MeasurementParams:
    """Dispersive readout parameters.

    n_photons: mean cavity photon number; kappa: cavity linewidth (rad/s);
    chi: dispersive shift (rad/s); t_meas: integration time per sample (s);
    efficiency: total measurement efficiency in (0, 1].
    """

    n_photons: float = 2.5
    kappa: float = TWO_PI * 4.7e6
    chi: float = TWO_PI * 1e6
    t_meas: float = 5e-6
    efficiency: float = 0.21

    def __post_init__(self):
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.t_meas <= 0:
            raise ValueError("t_meas must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")


@dataclass(frozen=True)
class ThermalParams:
    """Substrate heating model for strong generation pulses.

    power: dissipated power during a pulse (W); specific_heat (J/g/K) and
    mass (g) set the temperature rise per unit energy; tau_thermal (s) is
    the observed equilibration constant.  i_critical (A) and v_gap (V)
    record the junction values behind power, which defaults to
    junction_power(i_critical, v_gap).
    """

    power: float | None = None
    specific_heat: float = 1e-11
    mass: float = 0.1
    tau_thermal: float = 2e-3
    i_critical: float = 280e-9
    v_gap: float = 0.4e-3

    def __post_init__(self):
        if self.power is None:
            object.__setattr__(self, "power", junction_power(self.i_critical, self.v_gap))
        for name in ("power", "specific_heat", "mass", "tau_thermal",
                     "i_critical", "v_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _check_pulse(start, length, inject) -> None:
    """Refuse a pulse that starts before 0, has no length or injects a
    negative count, or more than an int64 holds."""
    if start < 0 or length <= 0:
        raise ValueError("pulse start must be >= 0 and length > 0")
    if inject < 0:
        raise ValueError("pulse injection count must be non-negative")
    if inject >= 2**63:
        raise ValueError("pulse injection count must fit an int64")


@dataclass(frozen=True)
class Pulse:
    """One generation pulse of a pulse_schedule: starts at `start`, lasts
    `length`, injects `inject` QPs into the array when it ends."""

    start: float
    length: float
    inject: int

    def __post_init__(self):
        _check_pulse(self.start, self.length, self.inject)


@dataclass(frozen=True)
class PeriodicPulses:
    """Compact description of an evenly spaced pulse train: count pulses
    of the given length, each injecting inject QPs, pulse i starting at
    first + i * period.  Each pulse is checked as a Pulse is."""

    period: float
    length: float
    inject: int
    count: int
    first: float = 0.0

    def __post_init__(self):
        if self.period <= 0 or self.length <= 0 or self.count < 1:
            raise ValueError("periodic pulse train needs period, length > 0 and count >= 1")
        if self.length >= self.period:
            raise ValueError("pulse length must be shorter than the period")
        _check_pulse(self.first, self.length, self.inject)


@dataclass(frozen=True)
class Modulation:
    """Slow two-state telegraph modulation of the QP generation rate.

    The generation coefficient switches between the kinetics value (noisy
    state) and quiet_generation (quiet state), with exponential residence
    times of the given means.
    """

    quiet_generation: float
    mean_quiet: float = 4.0
    mean_noisy: float = 4.0

    def __post_init__(self):
        if self.quiet_generation < 0:
            raise ValueError("quiet_generation must be non-negative")
        if self.mean_quiet <= 0 or self.mean_noisy <= 0:
            raise ValueError("modulation residence times must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated run.

    Pulses are given as a pulse_schedule or a pulse_periodic train, not
    both, and read as three read-only arrays in start order, set on
    construction: pulse_start, pulse_length and pulse_inject (int64).  A
    pulse ends at start + length.  A train's starts are first +
    np.arange(count) * period, and its lengths and injections broadcast
    views of its one value each; a schedule's come from its pulses sorted
    by start.  Construction refuses the first pulse, in that order, that
    starts before the one before it ends or ends past the duration.
    """

    duration: float
    rng_seed: int
    qubit: QubitParams = field(default_factory=QubitParams)
    meas: MeasurementParams = field(default_factory=MeasurementParams)
    kinetics: QpKineticsParams = field(default_factory=QpKineticsParams)
    thermal: ThermalParams | None = None
    pulse_schedule: tuple[Pulse, ...] = ()
    pulse_periodic: PeriodicPulses | None = None
    pulse_wait: float = 5e-6
    n_initial: int = -1  # -1: use the rounded steady-state mean
    modulation: Modulation | None = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must be an unsigned 64-bit integer")
        if self.pulse_wait < 0:
            raise ValueError("pulse_wait must be non-negative")
        if self.n_initial < -1:
            raise ValueError("n_initial must be -1 (auto) or a non-negative count")
        if self.pulse_schedule and self.pulse_periodic is not None:
            raise ValueError(_BOTH_PULSE_FORMS)
        train = self.pulse_periodic
        if train is not None:
            # first + i * period in place; a train's lengths and injections
            # are one value each, broadcast without a copy
            start = np.arange(train.count, dtype=float)
            start *= train.period
            start += train.first
            length = np.broadcast_to(np.float64(train.length), start.shape)
            inject = np.broadcast_to(np.int64(train.inject), start.shape)
        else:
            pulses = sorted(self.pulse_schedule, key=lambda p: p.start)
            start = np.array([p.start for p in pulses], dtype=float)
            length = np.array([p.length for p in pulses], dtype=float)
            inject = np.array([p.inject for p in pulses], dtype=np.int64)
        end = start + length
        # a pulse that starts before the one before it ends, or ends past
        # the duration; the first one names the fault
        overlap = np.zeros(len(end), dtype=bool)
        np.less(start[1:], end[:-1], out=overlap[1:])
        bad = np.flatnonzero(overlap | (end > self.duration))
        if len(bad):
            raise ValueError("pulses must not overlap" if overlap[bad[0]]
                             else "pulses must end within duration")
        for name, values in (("pulse_start", start), ("pulse_length", length),
                             ("pulse_inject", inject)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def initial_count(self) -> int:
        """Starting QP number: explicit n_initial, else rounded steady mean."""
        if self.n_initial >= 0:
            return self.n_initial
        return int(round(steady_state(self.kinetics) * self.kinetics.n_pairs))


# ---------------------------------------------------------------------------
# physics conversions
# ---------------------------------------------------------------------------

def polarization_to_temperature(p_excited: float, f_ge: float) -> float:
    """Effective temperature with excited-state occupation p_excited.

    Inverts the Boltzmann ratio p_e/p_g = exp(-h f_ge / kB T).  Only
    defined for 0 < p_excited < 0.5 (positive temperature).
    """
    if not 0.0 < p_excited < 0.5:
        raise ValueError("p_excited must be in (0, 0.5) for a positive temperature")
    return (PLANCK * f_ge / BOLTZMANN) / math.log((1.0 - p_excited) / p_excited)


def temperature_to_polarization(temperature: float, f_ge: float) -> float:
    """Excited-state occupation of a two-level system at the given temperature."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    boltzmann_ratio = math.exp(-PLANCK * f_ge / (BOLTZMANN * temperature))
    return boltzmann_ratio / (1.0 + boltzmann_ratio)


def junction_power(i_critical: float, v_gap: float) -> float:
    """Power dissipated by a junction driven into the resistive branch."""
    return i_critical * v_gap


# ---------------------------------------------------------------------------
# configuration text format
# ---------------------------------------------------------------------------
#
# One `key = value` per line, '#' starts a comment, values may carry a unit
# suffix appropriate for the key (times: s/ms/us/ns, frequencies:
# Hz/kHz/MHz/GHz, temperatures: K/mK).  docs/config_keys.md is generated
# from the schema below.

_UNIT_TABLES = {
    "time": {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9},
    "freq": {"": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "temp": {"": 1.0, "K": 1.0, "mK": 1e-3},
    "power": {"": 1.0, "W": 1.0, "nW": 1e-9, "pW": 1e-12},
    "current": {"": 1.0, "A": 1.0, "uA": 1e-6, "nA": 1e-9},
    "voltage": {"": 1.0, "V": 1.0, "mV": 1e-3, "uV": 1e-6},
    "mass": {"": 1.0, "g": 1.0, "mg": 1e-3},
    "plain": {"": 1.0},
}

# The table below is the whole configuration surface.  Each key sets one
# field, named "group.field" (a bare field belongs to the scenario itself),
# to the parsed value times the key's scale: 2 pi for a key named
# x_over_2pi, which sets the angular field x, and 1 for every other key.
# A key's default is its field's default over the scale.  The scenario is
# always built.  Any other group is built when one of its keys is given,
# and its fields without a default must then be given too.  pulse_schedule
# is the one key with its own parser.

_GROUPS = {
    "": ScenarioConfig,
    "qubit": QubitParams,
    "meas": MeasurementParams,
    "kinetics": QpKineticsParams,
    "modulation": Modulation,
    "pulse_periodic": PeriodicPulses,
    "thermal": ThermalParams,
}
_SCHEDULE = "pulse_schedule"
# the most qubit flips per readout sample a config may expect at its steady
# QP density: no readout resolves more, and the record holds a block of
# samples' flips at a time
MAX_FLIPS_PER_SAMPLE = 1000.0


@dataclass(frozen=True)
class _Key:
    kind: str  # unit table name, "int" for integers, or "schedule"
    target: str
    doc: str

    @property
    def group(self) -> str:
        return self.target.rpartition(".")[0]

    @property
    def name(self) -> str:
        return self.target.rpartition(".")[2]


CONFIG_SCHEMA: dict[str, _Key] = {
    "rng_seed": _Key("int", "rng_seed", "unsigned 64-bit seed for all random draws"),
    "duration": _Key("time", "duration", "total simulated time (s)"),
    # qubit
    "f_ge": _Key("freq", "qubit.f_ge", "qubit transition frequency (Hz)"),
    "f_gap": _Key("freq", "qubit.f_gap", "superconducting gap as a frequency Delta/h (Hz)"),
    "f_inductive": _Key("freq", "qubit.f_inductive",
                        "inductive energy as a frequency E_L/h (Hz); derived default, "
                        "chosen so the default QP density gives a ~100 us lifetime"),
    "gamma_background": _Key("plain", "qubit.gamma_background", "non-QP relaxation rate (1/s)"),
    "temperature": _Key("temp", "qubit.temperature", "effective bath temperature (K)"),
    # measurement
    "n_photons": _Key("plain", "meas.n_photons", "mean readout cavity photon number"),
    "kappa_over_2pi": _Key("freq", "meas.kappa", "cavity linewidth kappa/2pi (Hz)"),
    "chi_over_2pi": _Key("freq", "meas.chi", "dispersive shift chi/2pi (Hz)"),
    "t_meas": _Key("time", "meas.t_meas", "integration time per sample (s)"),
    "efficiency": _Key("plain", "meas.efficiency", "total measurement efficiency, in (0, 1]"),
    # kinetics
    "qp_generation": _Key("plain", "kinetics.generation", "QP generation coefficient (1/s)"),
    "qp_trapping": _Key("plain", "kinetics.trapping", "single-QP trapping/diffusion rate (1/s)"),
    "qp_recombination": _Key("plain", "kinetics.recombination",
                             "QP recombination coefficient (1/s)"),
    "n_cooper_pairs": _Key("plain", "kinetics.n_pairs",
                           "Cooper pairs in the array; derived default, back-computed "
                           "from 1-2 QPs at density 4e-8"),
    "n_initial": _Key("int", "n_initial", "starting QP count; -1 uses the rounded steady mean"),
    "gamma_scale": _Key("plain", "qubit.gamma_scale",
                        "optional multiplier on the relaxation rate (readout photons "
                        "shorten the lifetime by ~25% at the default drive)"),
    "pulse_wait": _Key("time", "pulse_wait", "dead time after each pulse before readout (s)"),
    # modulation of the generation coefficient
    "mod_quiet_generation": _Key("plain", "modulation.quiet_generation",
                                 "quiet-state generation coefficient (1/s); absent "
                                 "disables modulation"),
    "mod_mean_quiet": _Key("time", "modulation.mean_quiet",
                           "mean residence in the quiet state (s)"),
    "mod_mean_noisy": _Key("time", "modulation.mean_noisy",
                           "mean residence in the noisy state (s)"),
    # pulse train
    _SCHEDULE: _Key("schedule", "pulse_schedule",
                    "explicit pulses: each starts at start (s), lasts length (s) "
                    "and injects count QPs when it ends"),
    "pulse_first": _Key("time", "pulse_periodic.first", "start of the first periodic pulse (s)"),
    "pulse_period": _Key("time", "pulse_periodic.period", "periodic pulse spacing (s)"),
    "pulse_length": _Key("time", "pulse_periodic.length", "pulse length (s)"),
    "pulse_inject": _Key("int", "pulse_periodic.inject", "QPs injected into the array per pulse"),
    "pulse_count": _Key("int", "pulse_periodic.count", "number of periodic pulses"),
    # thermal (any thermal_* key enables the substrate heating model)
    "thermal_power": _Key("power", "thermal.power",
                          "dissipated power during a pulse (W); default "
                          "i_critical * v_gap"),
    "thermal_specific_heat": _Key("plain", "thermal.specific_heat",
                                  "substrate specific heat (J/g/K)"),
    "thermal_mass": _Key("mass", "thermal.mass", "substrate mass (g)"),
    "thermal_tau": _Key("time", "thermal.tau_thermal",
                        "observed temperature equilibration time (s)"),
    "thermal_i_critical": _Key("current", "thermal.i_critical", "junction critical current (A)"),
    "thermal_v_gap": _Key("voltage", "thermal.v_gap", "junction gap voltage (V)"),
}



def _scale(key: str):
    return TWO_PI if key.endswith("_over_2pi") else 1  # an int 1 keeps ints ints


def _default(key: str):
    """The key's default: its field's default over the scale, or MISSING."""
    spec = CONFIG_SCHEMA[key]
    value = next(f.default for f in fields(_GROUPS[spec.group]) if f.name == spec.name)
    return value if value is MISSING or _scale(key) == 1 else value / _scale(key)


_VALUE_RE = re.compile(r"^([-+0-9.eE]+)\s*([A-Za-z]*)$")


def _parse_number(key: str, kind: str, text: str) -> float:
    """text as a number of the given kind; errors are prefixed with key."""
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{key}: cannot parse value {text!r}")
    num, suffix = m.groups()
    try:
        value = float(num)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {num!r}") from None
    if kind == "int":
        if suffix:
            raise ConfigError(f"{key}: integer keys take no unit suffix")
        if value != int(value):
            raise ConfigError(f"{key}: expected an integer, got {text!r}")
        return int(value)
    table = _UNIT_TABLES[kind]
    if suffix not in table:
        raise ConfigError(
            f"{key}: unknown unit {suffix!r} (expected one of "
            f"{sorted(u for u in table if u)})"
        )
    return value * table[suffix]


def _parse_pulse_schedule(text: str) -> tuple[Pulse, ...]:
    pulses = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"pulse_schedule: expected start:length:count, got {item!r}"
            )
        label = f"{_SCHEDULE} item {item!r}"
        start = _parse_number(label, "time", parts[0])
        length = _parse_number(label, "time", parts[1])
        count = _parse_number(label, "int", parts[2])
        try:
            pulses.append(Pulse(start, length, count))
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from None
    if not pulses:
        raise ConfigError("pulse_schedule: no pulses given")
    return tuple(pulses)


def validate_config(text: str) -> ScenarioConfig:
    """Parse and validate flat key-value configuration text.

    Unknown keys, bad numbers, invariant violations, a group key given
    without a required partner, a duration / t_meas that is not finite
    or does not fit an int64 sample count, and a relaxation rate
    (jumpsim.steady_relaxation_rate) over MAX_FLIPS_PER_SAMPLE / t_meas,
    at the steady QP number or at it plus the largest pulse injection,
    raise ConfigError naming the keys; keys left out take their parameter
    type's default.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{key}: empty value")
        raw[key] = value

    given: dict[str, dict] = {group: {} for group in _GROUPS}
    for key, value in raw.items():
        spec = CONFIG_SCHEMA[key]
        if key != _SCHEDULE:
            given[spec.group][spec.name] = _parse_number(key, spec.kind, value) * _scale(key)
    # before the groups: beside a schedule the periodic keys may be incomplete
    if _SCHEDULE in raw and given["pulse_periodic"]:
        raise ConfigError(_BOTH_PULSE_FORMS)

    def build(group: str):
        keys = [k for k, spec in CONFIG_SCHEMA.items() if spec.group == group]
        missing = [k for k in keys if k not in raw and _default(k) is MISSING]
        if missing:
            needed_by = f" (needed with the {group} keys given)" if group else ""
            raise ConfigError(f"missing required keys {missing}{needed_by}")
        try:
            return _GROUPS[group](**given[group])
        except ValueError as exc:
            raise ConfigError(f"invalid value among [{', '.join(keys)}]: {exc}") from None

    scenario = given[""]
    for group in _GROUPS:
        if group and given[group]:
            scenario[group] = build(group)
    if _SCHEDULE in raw:
        scenario[_SCHEDULE] = _parse_pulse_schedule(raw[_SCHEDULE])
    config = build("")
    # the record's sample count, jumpsim.sample_count, is an int64
    if not config.duration / config.meas.t_meas * (1.0 + 1e-12) < 2.0**63:
        raise ConfigError(f"duration = {config.duration:g} s over t_meas = "
                          f"{config.meas.t_meas:g} s gives no sample count that fits an int64")
    from .jumpsim import steady_relaxation_rate  # jumpsim imports this module

    try:
        rate = steady_relaxation_rate(config)
    except ValueError as exc:  # the quiet generation has no steady state
        raise ConfigError(f"invalid value among [mod_quiet_generation, qp_trapping, "
                          f"qp_recombination]: {exc}") from None
    # a pulse adds its QPs to the steady number, so the largest one raises
    # the rate furthest
    added = int(config.pulse_inject.max(initial=0))
    pulse_key = "pulse_inject" if config.pulse_periodic is not None else _SCHEDULE
    peak = steady_relaxation_rate(config, added)
    for value, what in (
        (rate, f"steady relaxation rate {rate:g} 1/s"),
        (peak, f"relaxation rate {peak:g} 1/s at the steady QP number plus the "
               f"largest pulse injection, {added} QPs ({pulse_key}),"),
    ):
        flips = value * config.meas.t_meas
        if not flips <= MAX_FLIPS_PER_SAMPLE:
            raise ConfigError(
                f"the qubit's {what} gives {flips:g} flips per t_meas = "
                f"{config.meas.t_meas:g} s sample, past the {MAX_FLIPS_PER_SAMPLE:g} "
                f"a record may expect")
    return config


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form of a config: SI base units, full float precision.

    validate_config(serialize_config(c)) reproduces c, and the serialized
    text is a fixed point of a parse/serialize round trip, which also makes
    it the hashable canonical form recorded in run manifests.
    """
    lines = []
    for key, spec in CONFIG_SCHEMA.items():
        if key == _SCHEDULE:
            if config.pulse_schedule:
                items = ", ".join(
                    f"{p.start!r}:{p.length!r}:{p.inject}" for p in config.pulse_schedule
                )
                lines.append(f"{key} = {items}")
            continue
        owner = getattr(config, spec.group) if spec.group else config
        if owner is None:
            continue
        value = getattr(owner, spec.name)
        if _scale(key) != 1:
            value /= _scale(key)
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())


def config_reference() -> str:
    """Markdown reference for every configuration key (used to generate
    docs/config_keys.md)."""
    unit_hint = {
        "time": "time (s; suffixes s, ms, us, ns)",
        "freq": "frequency (Hz; suffixes Hz, kHz, MHz, GHz)",
        "temp": "temperature (K; suffixes K, mK)",
        "power": "power (W; suffixes W, nW, pW)",
        "current": "current (A; suffixes A, uA, nA)",
        "voltage": "voltage (V; suffixes V, mV, uV)",
        "mass": "mass (g; suffixes g, mg)",
        "plain": "number (no suffix)",
        "int": "integer",
        "schedule": "comma list of `start:length:count` (times with suffixes "
                    "s, ms, us, ns; integer count)",
    }
    lines = [
        "# Configuration keys",
        "",
        "Flat `key = value` text, one pair per line, `#` starts a comment.",
        "Values may carry the unit suffixes listed for their kind; bare",
        "numbers are read in SI base units.",
        "",
        "A config is refused when `duration / t_meas` gives no sample count",
        "that fits an int64, or when the qubit would flip more than",
        f"{MAX_FLIPS_PER_SAMPLE:g} times per `t_meas` sample on average: its",
        "relaxation rate `gamma_scale * (x * coefficient + gamma_background)`",
        "at the steady-state QP density x of either modulator state, and at",
        "x plus the largest pulse injection over `n_cooper_pairs`, times",
        "`t_meas`, may be at most that.  No readout resolves more flips, and",
        "the record holds a block of samples' flips at a time.",
        "",
        "| key | kind | default | description |",
        "|-----|------|---------|-------------|",
    ]
    for key, spec in CONFIG_SCHEMA.items():
        value = _default(key)
        if value is MISSING and not spec.group:
            default = "required"
        elif value in (MISSING, None, ()):  # no default, or an empty schedule
            default = "unset"
        else:
            default = f"`{value!r}`"
        lines.append(f"| `{key}` | {unit_hint[spec.kind]} | {default} | {spec.doc} |")
    return "\n".join(lines) + "\n"
