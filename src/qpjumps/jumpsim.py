"""Joint qubit + quasiparticle continuous-time Markov chain and readout model.

The qubit relaxes at a rate linear in the instantaneous QP density and is
re-excited thermally at the detailed-balance rate for the current effective
temperature.  Generation pulses inject QPs instantaneously when they end and
may raise the effective temperature transiently.  The dispersive measurement
record is synthesized per integration bin from the exact fraction of the bin
spent in each state, at the separation set by the readout parameters.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    PLANCK,
    MeasurementParams,
    QubitParams,
    ScenarioConfig,
    ThermalParams,
    temperature_to_polarization,
)
from .kinetics import QpKineticsParams

STATE_GROUND = 0
STATE_EXCITED = 1

_RNG_BUF = 1 << 16
# samples per block of the record pipeline: its scratch arrays stay in cache
_BLOCK = 1 << 16


def snr_separation(meas: MeasurementParams) -> float:
    """Half-distance between the two readout distributions in sigma units."""
    return math.sqrt(
        2.0 * meas.n_photons * meas.kappa * meas.t_meas * meas.efficiency
    ) * meas.chi / math.sqrt(meas.chi**2 + meas.kappa**2)


def qp_rate_coefficient(qubit: QubitParams) -> float:
    """Relaxation rate per unit relative QP density (1/s).

    In frequency units the density-to-rate conversion is
    sqrt(2 f_gap / f_ge) * 4 pi^2 * f_inductive.
    """
    return math.sqrt(2.0 * qubit.f_gap / qubit.f_ge) * 4.0 * math.pi**2 * qubit.f_inductive


def qp_relaxation_rate(n_qp: float, kinetics: QpKineticsParams, qubit: QubitParams) -> float:
    """Excited-to-ground rate for n_qp quasiparticles in the array (1/s):
    gamma_scale * (x * qp_rate_coefficient + gamma_background)."""
    if n_qp < 0:
        raise ValueError("n_qp must be non-negative")
    x = n_qp / kinetics.n_pairs
    return qubit.gamma_scale * (x * qp_rate_coefficient(qubit) + qubit.gamma_background)


def thermal_excitation_rate(
    n_qp: float,
    kinetics: QpKineticsParams,
    qubit: QubitParams,
    temperature: float,
) -> float:
    """Ground-to-excited rate: detailed balance at the given temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    boltzmann_ratio = math.exp(-PLANCK * qubit.f_ge / (BOLTZMANN * temperature))
    return qp_relaxation_rate(n_qp, kinetics, qubit) * boltzmann_ratio


# ---------------------------------------------------------------------------
# pulse energetics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermalTransient:
    """Temperature step after a pulse and its exponential decay."""

    delta_temperature: float  # K
    tau: float  # s

    def offset(self, t) -> np.ndarray:
        """Temperature excess over the base at time t after the pulse."""
        return self.delta_temperature * np.exp(-np.asarray(t, dtype=float) / self.tau)

    def temperature(self, t, t_base: float) -> np.ndarray:
        return t_base + self.offset(t)


def thermal_transient(thermal: ThermalParams, t_pulse: float) -> ThermalTransient:
    """Temperature rise from a pulse of length t_pulse dumped into the substrate."""
    if t_pulse < 0:
        raise ValueError("pulse length must be non-negative")
    delta_e = thermal.power * t_pulse
    delta_t = delta_e / (thermal.specific_heat * thermal.mass)
    return ThermalTransient(delta_temperature=delta_t, tau=thermal.tau_thermal)


def qp_generation_rate(power: float, v_gap: float) -> float:
    """QPs generated per second by dissipated power (one QP per gap energy)."""
    return power / (ELEMENTARY_CHARGE * v_gap)


def qp_generation_count(thermal: ThermalParams, t_pulse: float, capture_fraction: float) -> float:
    """Expected QPs captured by the array from one pulse.

    capture_fraction is a free calibration knob: the total generated count
    is enormous, only a tiny fraction ends up in the array.
    """
    if capture_fraction < 0:
        raise ValueError("capture_fraction must be non-negative")
    return qp_generation_rate(thermal.power, thermal.v_gap) * t_pulse * capture_fraction


def thermal_decay_constant(
    specific_heat: float, length: float, mass: float, conductivity: float, area: float
) -> float:
    """Intrinsic substrate temperature decay constant C*l*m / (G*A)."""
    return specific_heat * length * mass / (conductivity * area)


# ---------------------------------------------------------------------------
# joint trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruthTrace:
    """Ground-truth trajectory of (qubit state, QP count) as knots.

    times are strictly increasing, with times[0] = 0.0; states[i] and
    counts[i] hold from times[i] until the next knot (or duration).  Every
    knot after the first is an event that changes the qubit state or the
    count (temperature and modulator moves are not recorded), so len()
    counts events, one fewer than the knots.
    """

    duration: float
    times: np.ndarray
    states: np.ndarray  # uint8, STATE_GROUND / STATE_EXCITED
    counts: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.times) - 1

    def qubit_intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal constant-qubit-state intervals as (start, duration, state).

        Includes the boundary intervals at the start and end of the record;
        callers doing dwell statistics should drop the first and last.
        """
        t, s = self.times, self.states
        flips = np.flatnonzero(np.diff(s.astype(np.int8)) != 0)
        starts = np.concatenate(([0.0], t[flips + 1]))
        ends = np.concatenate((t[flips + 1], [self.duration]))
        states = np.concatenate((s[:1], s[flips + 1]))
        return starts, ends - starts, states


def _excited_cumulative(truth: TruthTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, excited, cum): the knot times with the duration appended, whether
    each knot's segment is excited, and the excited seconds before each knot."""
    t = np.concatenate((truth.times, [truth.duration]))
    excited = truth.states == STATE_EXCITED
    cum = np.concatenate(([0.0], np.cumsum(np.diff(t) * excited)))
    return t, excited, cum


def excited_time_at(truth: TruthTrace, times) -> np.ndarray:
    """Cumulative seconds spent excited in [0, t) for each query time."""
    t, excited, cum = _excited_cumulative(truth)
    times = np.asarray(times, dtype=float)
    idx = np.searchsorted(t, times, side="right") - 1
    idx = np.clip(idx, 0, len(excited) - 1)
    return cum[idx] + (times - t[idx]) * excited[idx]


def occupancy_blocks(truth: TruthTrace, t_meas: float):
    """Fraction of each readout bin spent excited, in consecutive blocks.

    Bin k spans the edges float(k) * t_meas and float(k + 1) * t_meas, for
    the sample_count(duration, t_meas) bins of the record.  Each yielded
    array covers the next _BLOCK bins (fewer in the last block) and is
    scratch space: the caller may overwrite it, and the next block does.
    The values equal diff(excited_time_at(truth, edges)) / diff(edges) bit
    for bit, but the knot under each edge comes from one pass over the
    knots, not a search per edge, so the cost is O(knots + bins).
    """
    t, excited, cum = _excited_cumulative(truth)
    excited = excited.astype(float)
    last = len(excited) - 1
    # first edge at or after each knot, min{k : float(k) * t_meas >= t_j}:
    # a ceil, corrected with the same products that make the edges
    first = np.ceil(t / t_meas)
    first -= (first - 1.0) * t_meas >= t
    first += first * t_meas < t
    first = first.astype(np.int64)

    n = sample_count(truth.duration, t_meas)
    steps = np.arange(_BLOCK + 1, dtype=float)
    edges = np.empty(_BLOCK + 1)
    at = np.empty(_BLOCK + 1)
    part = np.empty(_BLOCK + 1)
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        e, c, d = edges[:m + 1], at[:m + 1], part[:m + 1]
        np.add(steps[:m + 1], lo, out=e)
        e *= t_meas
        # knot under each edge, as searchsorted(t, e, "right") - 1: knot j
        # is under edges first[j] to first[j + 1] - 1
        j0, j1 = np.searchsorted(first, [lo, lo + m + 1])
        runs = np.diff(np.concatenate(([lo], first[j0:j1], [lo + m + 1])))
        k = np.repeat(np.clip(np.arange(j0 - 1, j1), 0, last), runs)
        # excited seconds before each edge: cum[k] + (e - t[k]) * excited[k]
        # (k is in range; mode="clip" only spares take() a buffered copy)
        np.take(t, k, out=d, mode="clip")
        np.subtract(e, d, out=d)
        d *= np.take(excited, k, out=c, mode="clip")
        np.take(cum, k, out=c, mode="clip")
        c += d
        # diff(c) / diff(e), reusing d for the fraction and c for the width
        frac, width = d[:m], c[:m]
        np.subtract(c[1:], c[:-1], out=frac)
        np.subtract(e[1:], e[:-1], out=width)
        frac /= width
        yield frac


def relaxation_jump_times(truth: TruthTrace) -> np.ndarray:
    """Times of excited-to-ground transitions in the trajectory."""
    s = truth.states
    mask = (s[:-1] == STATE_EXCITED) & (s[1:] == STATE_GROUND)
    return truth.times[1:][mask]


def simulate_joint(config: ScenarioConfig, rng: np.random.Generator) -> TruthTrace:
    """Exact-jump sampling of the coupled (qubit, QP number) chain.

    QP propensities follow the birth-death mapping of the kinetics module;
    the qubit flips at the relaxation/excitation rates for the current
    count and effective temperature.  Pulses inject QPs when they end and,
    if a thermal model is configured, step the temperature up; the
    excitation rate then decays with the transient (sampled exactly by
    thinning against the monotone upper bound at the current time).
    """
    kin, qubit = config.kinetics, config.qubit
    ncp = kin.n_pairs
    g_noisy, s_rate, r_rate = kin.generation, kin.trapping, kin.recombination

    per_qp = qubit.gamma_scale * qp_rate_coefficient(qubit) / ncp
    bg = qubit.gamma_scale * qubit.gamma_background
    hf_over_kb = PLANCK * qubit.f_ge / BOLTZMANN
    t_base = qubit.temperature
    boltz_base = math.exp(-hf_over_kb / t_base)

    mod = config.modulation
    if mod is not None:
        gen_props = (0.5 * mod.quiet_generation * ncp, 0.5 * g_noisy * ncp)
        switch_rates = (1.0 / mod.mean_quiet, 1.0 / mod.mean_noisy)
    else:
        gen_props = (0.5 * g_noisy * ncp, 0.5 * g_noisy * ncp)
        switch_rates = (0.0, 0.0)

    transients = None
    tau_th = math.inf
    if config.thermal is not None and config.pulses:
        transients = {
            p.end: thermal_transient(config.thermal, p.length).delta_temperature
            for p in config.pulses
        }
        tau_th = config.thermal.tau_thermal

    # segment boundaries: pulse ends (injection/heating) and the final time
    boundaries = sorted(p.end for p in config.pulses)
    injections = {p.end: p.inject for p in config.pulses}
    boundaries.append(config.duration)

    buf = rng.random(_RNG_BUF).tolist()
    ib = 0

    def draw() -> float:
        nonlocal buf, ib
        if ib == _RNG_BUF:
            buf = rng.random(_RNG_BUF).tolist()
            ib = 0
        u = buf[ib]
        ib += 1
        return u

    n = config.initial_count()
    q = STATE_EXCITED if draw() < temperature_to_polarization(t_base, qubit.f_ge) else STATE_GROUND
    if mod is not None:
        p_quiet = mod.mean_quiet / (mod.mean_quiet + mod.mean_noisy)
        m_state = 0 if draw() < p_quiet else 1
    else:
        m_state = 1

    times = array("d", [0.0])
    states = array("b", [q])
    counts = array("q", [n])
    log = math.log
    exp = math.exp

    t = 0.0
    delta_t_amp = 0.0  # current thermal transient amplitude (K)
    t_amp = 0.0
    for t_edge in boundaries:
        while True:
            a_gen = gen_props[m_state]
            a_loss = s_rate * n
            a_rec = r_rate * n * (n - 1) / (2.0 * ncp)
            a_switch = switch_rates[m_state]
            relax = n * per_qp + bg
            if q == STATE_EXCITED:
                a_relax, a_exc = relax, 0.0
                boltz_now = 0.0
            else:
                a_relax = 0.0
                if delta_t_amp != 0.0:
                    offset = delta_t_amp * exp(-(t - t_amp) / tau_th)
                    if offset < 1e-9:
                        delta_t_amp = 0.0
                        boltz_now = boltz_base
                    else:
                        boltz_now = exp(-hf_over_kb / (t_base + offset))
                else:
                    boltz_now = boltz_base
                a_exc = relax * boltz_now
            total = a_gen + a_loss + a_rec + a_switch + a_relax + a_exc
            if total <= 0.0:
                t = t_edge
                break
            t_next = t - log(1.0 - draw()) / total
            if t_next >= t_edge:
                t = t_edge
                break
            u = draw() * total
            if u < a_gen:
                t = t_next
                n += 2
            elif u < a_gen + a_loss:
                t = t_next
                n -= 1
            elif u < a_gen + a_loss + a_rec:
                t = t_next
                n -= 2
            elif u < a_gen + a_loss + a_rec + a_switch:
                t = t_next
                m_state = 1 - m_state
                continue
            elif u < a_gen + a_loss + a_rec + a_switch + a_relax:
                t = t_next
                q = STATE_GROUND
            else:
                # thinning: accept the excitation candidate at the true rate,
                # which only fell since the bound was computed
                if delta_t_amp != 0.0:
                    offset = delta_t_amp * exp(-(t_next - t_amp) / tau_th)
                    boltz_true = exp(-hf_over_kb / (t_base + offset)) if offset > 0 else boltz_base
                    if draw() * boltz_now > boltz_true:
                        t = t_next
                        continue
                t = t_next
                q = STATE_EXCITED
            times.append(t)
            states.append(q)
            counts.append(n)
        if t_edge in injections:
            inject = injections[t_edge]
            if transients is not None:
                delta_t_amp = delta_t_amp * exp(-(t_edge - t_amp) / tau_th) + transients[t_edge]
                t_amp = t_edge
            if inject > 0:
                n += inject
                times.append(t_edge)
                states.append(q)
                counts.append(n)

    return TruthTrace(
        duration=config.duration,
        times=np.frombuffer(times, dtype=float).copy(),
        states=np.frombuffer(states, dtype=np.int8).astype(np.uint8),
        counts=np.frombuffer(counts, dtype=np.int64).copy(),
    )


# ---------------------------------------------------------------------------
# measurement record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IQRecord:
    """Quadrature samples in sigma units (unit-variance noise per sample)."""

    t_meas: float
    i: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if len(self.i) != len(self.q):
            raise ValueError("I and Q must have equal length")

    def __len__(self) -> int:
        return len(self.i)


def sample_count(duration: float, t_meas: float) -> int:
    """Number of complete integration bins in the record."""
    # relative slack: an absolute one falls below one ULP of large ratios
    return int(duration / t_meas * (1.0 + 1e-12))


def synthesize_iq(
    truth: TruthTrace,
    meas: MeasurementParams,
    rng: np.random.Generator,
) -> IQRecord:
    """Dispersive readout record for a trajectory.

    Each bin of length t_meas gets I = (f_g - f_e) * separation + noise and
    Q = noise, with f_g/f_e the exact fractions of the bin spent in each
    state (ground maps to +I).  I is built block by block; its noise comes
    from the generator's stream in order, then all of Q's.
    """
    n = sample_count(truth.duration, meas.t_meas)
    sep = snr_separation(meas)
    i = np.empty(n)
    lo = 0
    for f_e in occupancy_blocks(truth, meas.t_meas):
        hi = lo + len(f_e)
        # noise + (1 - 2 f_e) * sep, in place
        out = rng.standard_normal(out=i[lo:hi])
        f_e *= 2.0
        np.subtract(1.0, f_e, out=f_e)
        f_e *= sep
        out += f_e
        lo = hi
    q = rng.standard_normal(n)
    return IQRecord(t_meas=meas.t_meas, i=i, q=q)
