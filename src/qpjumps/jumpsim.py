"""Qubit + quasiparticle continuous-time Markov chain and readout model.

The qubit relaxes at a rate linear in the instantaneous QP number and is
re-excited thermally at the detailed-balance rate for the current effective
temperature.  Generation pulses inject QPs instantaneously when they end and
may raise the effective temperature transiently.

The QP number drives the qubit but the qubit never drives the QP number, so
the sampler works in two layers.  The (modulator, N) chain is sampled alone
by exact jumps.  The qubit is then a two-state chain with a known,
piecewise-constant relaxation rate, sampled by uniformization in vectorized
blocks: candidate times at the relaxation rate, each one relaxing an excited
qubit and exciting a ground one with the Boltzmann factor of the moment.

The dispersive measurement record is synthesized per integration bin from
the exact fraction of the bin spent in each state, at the separation set by
the readout parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
# samples per block of the record pipeline, and qubit candidates per block
# of the sampler: their scratch arrays stay in cache
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


def relaxation_rate(n, kinetics: QpKineticsParams, qubit: QubitParams):
    """Excited-to-ground rate for n quasiparticles in the array (1/s),
    elementwise: gamma_scale * (n / n_pairs * qp_rate_coefficient +
    gamma_background).  The sampler runs this law, and
    fitting.invert_relaxation inverts it."""
    per_qp = qubit.gamma_scale * qp_rate_coefficient(qubit) / kinetics.n_pairs
    return n * per_qp + qubit.gamma_scale * qubit.gamma_background


# ---------------------------------------------------------------------------
# pulse energetics
# ---------------------------------------------------------------------------

def thermal_transient(thermal: ThermalParams, t_pulse: float) -> float:
    """Temperature step (K) from a pulse of length t_pulse dumped into the
    substrate; it decays with thermal.tau_thermal."""
    if t_pulse < 0:
        raise ValueError("pulse length must be non-negative")
    delta_e = thermal.power * t_pulse
    return delta_e / (thermal.specific_heat * thermal.mass)


def qp_generation_rate(power: float, v_gap: float) -> float:
    """QPs generated per second by dissipated power (one QP per gap energy)."""
    return power / (ELEMENTARY_CHARGE * v_gap)


def thermal_decay_constant(
    specific_heat: float, length: float, mass: float, conductivity: float, area: float
) -> float:
    """Intrinsic substrate temperature decay constant C*l*m / (G*A)."""
    return specific_heat * length * mass / (conductivity * area)


# ---------------------------------------------------------------------------
# joint trajectory
# ---------------------------------------------------------------------------

def run_starts(values) -> np.ndarray:
    """Index of the first element and of every element that differs from
    the one before it: where each maximal run of equal values starts."""
    values = np.asarray(values)
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return np.flatnonzero(starts)


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

    def event_counts(self) -> dict[str, int]:
        """Events, and of them the QP-number changes and the qubit flips."""
        return {
            "events": len(self),
            "qp_events": len(run_starts(self.counts)) - 1,
            "qubit_flips": len(run_starts(self.states)) - 1,
        }

    def qubit_intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal constant-qubit-state intervals as (start, duration, state).

        Includes the boundary intervals at the start and end of the record;
        callers doing dwell statistics should drop the first and last.
        """
        first = run_starts(self.states)
        starts = self.times[first]
        return starts, np.append(starts[1:], self.duration) - starts, self.states[first]

    @cached_property
    def excited_cumulative(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, excited, cum): the knot times with the duration appended,
        whether each knot's segment is excited, and the excited seconds
        before each knot.  Built on first use and kept, so a record
        synthesized in ranges builds it once."""
        t = np.concatenate((self.times, [self.duration]))
        excited = self.states == STATE_EXCITED
        cum = np.concatenate(([0.0], np.cumsum(np.diff(t) * excited)))
        return t, excited, cum


def excited_time_at(truth: TruthTrace, times) -> np.ndarray:
    """Cumulative seconds spent excited in [0, t) for each query time."""
    t, excited, cum = truth.excited_cumulative
    times = np.asarray(times, dtype=float)
    idx = np.searchsorted(t, times, side="right") - 1
    idx = np.clip(idx, 0, len(excited) - 1)
    return cum[idx] + (times - t[idx]) * excited[idx]


def occupancy_blocks(truth: TruthTrace, t_meas: float, start: int = 0,
                     stop: int | None = None):
    """Fraction of each readout bin spent excited, in consecutive blocks.

    Bin k spans the edges float(k) * t_meas and float(k + 1) * t_meas; the
    blocks cover bins start to stop - 1, by default all
    sample_count(duration, t_meas) bins of the record.  Each yielded array
    covers the next _BLOCK bins (fewer in the last block) and is scratch
    space: the caller may overwrite it, and the next block does.  The
    values equal diff(excited_time_at(truth, edges)) / diff(edges) bit for
    bit, whatever the range, but the knot under each edge comes from one
    pass over the block's knots, not a search per edge, so the cost is
    O(knots + bins) over a record read in any number of ranges.
    """
    t, excited, cum = truth.excited_cumulative
    last = len(excited) - 1
    if stop is None:
        stop = sample_count(truth.duration, t_meas)
    size = min(_BLOCK, stop - start)
    steps = np.arange(size + 1, dtype=float)
    edges = np.empty(size + 1)
    at = np.empty(size + 1)
    part = np.empty(size + 1)
    for lo in range(start, stop, _BLOCK):
        m = min(_BLOCK, stop - lo)
        e, c, d = edges[:m + 1], at[:m + 1], part[:m + 1]
        np.add(steps[:m + 1], lo, out=e)
        e *= t_meas
        # knot under each edge, as searchsorted(t, e, "right") - 1: knot
        # j0 - 1 is under the first edge, and knots j0 to j1 - 1 lie after
        # it and at or before the last.  Each of those is under the edges
        # from the first at or after it, min{k : float(k) * t_meas >= t_j}:
        # a ceil, corrected with the same products that make the edges
        j0, j1 = np.searchsorted(t, (e[0], e[m]), side="right")
        tj = t[j0:j1]
        first = np.ceil(tj / t_meas)
        first -= (first - 1.0) * t_meas >= tj
        first += first * t_meas < tj
        runs = np.diff(np.concatenate(([lo], first.astype(np.int64), [lo + m + 1])))
        k = np.repeat(np.clip(np.arange(j0 - 1, j1), 0, last), runs)
        # excited seconds before each edge: cum[k] + (e - t[k]) * excited[k]
        # (k is in range; mode="clip" only spares take() a buffered copy)
        np.take(t, k, out=d, mode="clip")
        np.subtract(e, d, out=d)
        d *= excited[k]
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
    flips = run_starts(truth.states)[1:]
    return truth.times[flips[truth.states[flips] == STATE_GROUND]]


def _qp_layer(config: ScenarioConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Knot times and QP counts of the (modulator, N) chain.

    Exact-jump sampling of generation, trapping, recombination and modulator
    switches; each pulse end before the duration injects its QPs.  Every
    step takes one unit exponential and one uniform from buffers drawn
    _RNG_BUF at a time; a step that would cross the next pulse end (or the
    duration) stops there and its draws are dropped.  Knots are t = 0 and
    every change of N.  The cumulative propensities of a count are computed
    the first time the chain reaches it in a modulator state and are looked
    up after that, one cache per state, so the caches hold no more entries
    than the counts reached.  Knots are collected in lists and become
    arrays on return.
    """
    kin = config.kinetics
    ncp = kin.n_pairs
    trapping = kin.trapping
    pair_rate = kin.recombination / (2.0 * ncp)
    mod = config.modulation
    # (generation, switch) propensity per modulator state, 0 quiet, 1 noisy
    if mod is not None:
        props = ((0.5 * mod.quiet_generation * ncp, 1.0 / mod.mean_quiet),
                 (0.5 * kin.generation * ncp, 1.0 / mod.mean_noisy))
        p_quiet = mod.mean_quiet / (mod.mean_quiet + mod.mean_noisy)
        m_state = 0 if rng.random() < p_quiet else 1
    else:
        props = ((0.5 * kin.generation * ncp, 0.0),) * 2
        m_state = 1
    # a pulse that ends at the duration has no time left to act on
    edges = [(p.end, p.inject) for p in config.pulses if p.end < config.duration]
    edges.append((config.duration, 0))

    n = config.initial_count()
    times = [0.0]
    counts = [n]
    # (c_loss, c_rec, total) by count, one dict per modulator state
    caches = ({}, {})
    cache = caches[m_state]
    a_gen, a_switch = props[m_state]
    t = 0.0
    k = 0
    t_edge, inject = edges[0]
    while True:
        for e, u in zip(rng.standard_exponential(_RNG_BUF).tolist(),
                        rng.random(_RNG_BUF).tolist()):
            try:
                c_loss, c_rec, total = cache[n]
            except KeyError:
                c_loss = a_gen + trapping * n
                c_rec = c_loss + pair_rate * n * (n - 1)
                total = c_rec + a_switch
                cache[n] = c_loss, c_rec, total
            t_next = t + e / total if total > 0.0 else math.inf
            if t_next >= t_edge:
                t = t_edge
                if inject > 0:
                    n += inject
                    times.append(t)
                    counts.append(n)
                k += 1
                if k == len(edges):
                    return np.array(times, dtype=float), np.array(counts, dtype=np.int64)
                t_edge, inject = edges[k]
                continue
            t = t_next
            u *= total
            if u < a_gen:
                n += 2
            elif u < c_loss:
                n -= 1
            elif u < c_rec:
                n -= 2
            else:
                m_state = 1 - m_state
                cache = caches[m_state]
                a_gen, a_switch = props[m_state]
                continue
            times.append(t)
            counts.append(n)


def _boltzmann_factor(config: ScenarioConfig):
    """boltz(t) = exp(-h f_ge / kB T(t)) as a function of an array of times,
    with T the base temperature plus the exact sum of the decayed thermal
    transients of the pulses that ended at or before t."""
    hf_over_kb = PLANCK * config.qubit.f_ge / BOLTZMANN
    t_base = config.qubit.temperature
    if config.thermal is None or not config.pulses:
        boltz = math.exp(-hf_over_kb / t_base)
        return lambda t: boltz
    tau = config.thermal.tau_thermal
    # amp[k]: summed transient amplitude (K) just after ends[k], the k-th
    # pulse end; ends[0] = 0 with no amplitude covers the time before them
    ends = np.array([0.0] + [p.end for p in config.pulses])
    amp = np.zeros(len(ends))
    for k, p in enumerate(config.pulses, start=1):
        amp[k] = (amp[k - 1] * math.exp(-(ends[k] - ends[k - 1]) / tau)
                  + thermal_transient(config.thermal, p.length))

    def boltz(t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(ends, t, side="right") - 1
        offset = amp[k] * np.exp(-(t - ends[k]) / tau)
        return np.exp(-hf_over_kb / (t_base + offset))

    return boltz


def _qubit_flips(config: ScenarioConfig, knot_t: np.ndarray, knot_n: np.ndarray,
                 q0: int, candidate_rng: np.random.Generator,
                 uniform_rng: np.random.Generator) -> np.ndarray:
    """Flip times of the qubit on the QP path, by uniformization.

    Candidates come at the relaxation rate relax(N(t)), which is constant
    between knots, so its integral H(t) is piecewise linear: candidate i is
    at H^-1(E_i), with E_i the running sum of unit exponentials.  An excited
    qubit relaxes at every candidate; a ground one is excited where
    U_i < boltz(t_i).  Candidates are handled _BLOCK at a time, carrying the
    running sum and the last state across blocks.
    """
    rate = relaxation_rate(knot_n, config.kinetics, config.qubit)
    hazard = np.concatenate(([0.0], np.cumsum(rate * np.diff(knot_t, append=config.duration))))
    h_end = hazard[-1]

    boltz = _boltzmann_factor(config)

    flips = [np.empty(0)]
    h_carry = 0.0
    state = q0
    while True:
        e = candidate_rng.standard_exponential(_BLOCK)
        e[0] += h_carry
        np.cumsum(e, out=e)
        h_carry = e[-1]
        u = uniform_rng.random(_BLOCK)
        m = int(np.searchsorted(e, h_end))
        if m == 0:
            break
        e, u = e[:m], u[:m]
        # the knot whose segment holds each candidate; zero-rate segments
        # have no width in H and are never chosen
        j = np.searchsorted(hazard, e, side="right") - 1
        t = knot_t[j] + (e - hazard[j]) / rate[j]
        accept = u < boltz(t)
        # s_i = accept_i and not s_(i-1): the states alternate inside each
        # run of accepts, starting excited after a reject; an excited state
        # carried in acts as an accept just before the block
        idx = np.arange(m)
        last_reject = np.maximum.accumulate(np.where(accept, state - 1, idx))
        s = accept & ((idx - last_reject) & 1 == 1)
        # a flip wherever s changes, with the carried state standing before it
        flips.append(t[run_starts(np.concatenate(([state != 0], s)))[1:] - 1])
        state = int(s[-1])
        if m < _BLOCK:
            break
    return np.concatenate(flips)


def simulate_joint(config: ScenarioConfig, qp_rng: np.random.Generator,
                   candidate_rng: np.random.Generator,
                   uniform_rng: np.random.Generator) -> TruthTrace:
    """Sample the coupled (qubit, QP number) chain in two layers.

    The QP number drives the qubit and never the reverse, so the (modulator,
    N) chain is sampled alone from qp_rng, by exact jumps.  The qubit is then
    a two-state chain with the known piecewise-constant relaxation rate
    relax(N(t)) and excitation rate relax(N(t)) * boltz(t), where boltz
    follows the thermal transients of the pulses.  It is sampled by
    uniformization: candidate times from candidate_rng, acceptance uniforms
    (and the initial state) from uniform_rng.  The two layers' knots are
    merged into one trace.  The trace does not depend on _BLOCK.
    """
    qubit = config.qubit
    knot_t, knot_n = _qp_layer(config, qp_rng)
    q0 = STATE_EXCITED if uniform_rng.random() < temperature_to_polarization(
        qubit.temperature, qubit.f_ge) else STATE_GROUND
    flips = _qubit_flips(config, knot_t, knot_n, q0, candidate_rng, uniform_rng)

    # flip k goes after the QP knots at or before it and the k flips before it
    is_flip = np.zeros(len(knot_t) + len(flips), dtype=bool)
    is_flip[np.searchsorted(knot_t, flips, side="right") + np.arange(len(flips))] = True
    times = np.empty(len(is_flip))
    times[is_flip] = flips
    times[~is_flip] = knot_t
    return TruthTrace(
        duration=config.duration,
        times=times,
        states=((q0 + np.cumsum(is_flip)) & 1).astype(np.uint8),
        counts=knot_n[np.cumsum(~is_flip) - 1],
    )


# ---------------------------------------------------------------------------
# measurement record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IQRecord:
    """Quadrature samples in sigma units (unit-variance noise per sample).

    q is None for a record synthesized for analysis alone, which reads
    only I; such a record cannot be written to a file.
    """

    t_meas: float
    i: np.ndarray
    q: np.ndarray | None

    def __post_init__(self):
        if self.q is not None and len(self.i) != len(self.q):
            raise ValueError("I and Q must have equal length")

    def __len__(self) -> int:
        return len(self.i)

    def read(self, lo: int, hi: int) -> IQRecord:
        """Samples lo to hi - 1 as a record: views of this one's I and of
        its Q, when it has Q."""
        q = None if self.q is None else self.q[lo:hi]
        return IQRecord(t_meas=self.t_meas, i=self.i[lo:hi], q=q)

    def blocks(self, bounds):
        """Samples bounds[k] to bounds[k + 1] - 1 for each k, as views."""
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.read(lo, hi)


def sample_count(duration: float, t_meas: float) -> int:
    """Number of complete integration bins in the record."""
    # relative slack: an absolute one falls below one ULP of large ratios
    return int(duration / t_meas * (1.0 + 1e-12))


def synthesize_iq(
    truth: TruthTrace,
    meas: MeasurementParams,
    i: np.ndarray,
    q: np.ndarray | None = None,
    start: int = 0,
) -> IQRecord:
    """Dispersive readout record for bins start to start + len(i) - 1 of a
    trajectory, from their noise.

    Each bin of length t_meas gets I = (f_g - f_e) * separation + noise and
    Q = noise, with f_g/f_e the exact fractions of the bin spent in each
    state (ground maps to +I).  i holds the bins' I noise, and the levels
    are added to it in place, block by block: it becomes the record's I.
    q, Q's noise, is the record's Q as it is; None gives a record without
    Q.  Drawing the noise is left to the caller, so a range's draws can be
    made ahead of its occupancy; normal draws do not depend on how a
    stream is split, so consecutive ranges of one stream give the whole
    record bit for bit.
    """
    sep = snr_separation(meas)
    lo = 0
    for f_e in occupancy_blocks(truth, meas.t_meas, start, start + len(i)):
        hi = lo + len(f_e)
        # noise + (1 - 2 f_e) * sep, in place
        f_e *= 2.0
        np.subtract(1.0, f_e, out=f_e)
        f_e *= sep
        i[lo:hi] += f_e
        lo = hi
    return IQRecord(t_meas=meas.t_meas, i=i, q=q)
