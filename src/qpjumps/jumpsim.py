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

The sampler yields the trajectory in time segments, each as its two
layers, the QP knots and the qubit's flips (SegmentLayers), and every
reader takes them as it goes, so no whole-record trajectory need exist.
Only the truth file, one row per knot, and simulate_joint's whole trace
merge a segment's layers into knots.  The dispersive measurement record
is synthesized per integration bin from the exact fraction of the bin
spent in each state, read from the flips, at the separation set by the
readout parameters.
"""

from __future__ import annotations

import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

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
from .kinetics import QpKineticsParams, steady_state

STATE_GROUND = 0
STATE_EXCITED = 1

_RNG_BUF = 1 << 16
# samples per block of the record pipeline: its scratch arrays stay in cache
_BLOCK = 1 << 16
# QP-layer steps per segment of the trajectory, and qubit candidates drawn
# at a time.  Whole-refill segments (_RNG_BUF steps) put the sampler's
# working set on top of the record pipeline's and raise the presets' peak
_SEGMENT = 1 << 13
_CANDIDATES = 1 << 13


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


def steady_relaxation_rate(config: ScenarioConfig, added: int = 0) -> float:
    """relaxation_rate at the steady-state QP number of each modulator
    state plus added QPs, the larger of the two (1/s).  At added = 0, once
    the QP number has settled, the qubit flips at most this often on
    average: an excited qubit relaxes at this rate, and a ground one is
    excited more slowly.  At added = a pulse's injection it is the rate
    just after that pulse from the steady number."""
    kin = config.kinetics
    generations = [kin.generation]
    if config.modulation is not None:
        generations.append(config.modulation.quiet_generation)
    return max(relaxation_rate(steady_state(replace(kin, generation=g)) * kin.n_pairs
                               + added, kin, config.qubit) for g in generations)


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

def run_starts(values, before=None) -> np.ndarray:
    """Index of every element that starts a maximal run of equal values:
    each one that differs from the one before it, and the first unless it
    equals before, the value standing just before values (None: nothing
    stands there, so the first always starts a run).  A piece read with
    the last value of the piece before as before gives the starts of the
    runs that the whole, read at once, starts inside that piece."""
    values = np.asarray(values)
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = before is None or values[:1] != before
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return np.flatnonzero(starts)


@dataclass(frozen=True)
class TruthTrace:
    """Ground-truth trajectory of (qubit state, QP count) as knots.

    times are strictly increasing, with times[0] = 0.0; states[i] and
    counts[i] hold from times[i] until the next knot (or duration).  Every
    knot after the first is an event that changes the qubit state or the
    count (temperature and modulator moves are not recorded), so len()
    counts events, one fewer than the knots.  The trace holds these three
    arrays and nothing derived from them, 17 B per knot.

    _merge makes one segment's SegmentLayers a TruthTrace, for the truth
    file's rows (io.write_truth_csv), and simulate_joint joins every
    segment's into the whole trace; no other reader takes knots.
    """

    duration: float
    times: np.ndarray
    states: np.ndarray  # uint8, STATE_GROUND / STATE_EXCITED
    counts: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.times) - 1


def tally_events(layers, counts: Counter):
    """Yield the SegmentLayers of a trajectory as they come, adding its
    events into counts: "events", and of them "qp_events" (changes of N)
    and "qubit_flips" (changes of the state).  Every QP knot after the
    trajectory's first and every flip is an event, so these are the
    layers' lengths, less the first QP knot.  Once the last segment has
    passed, counts holds the trajectory's, added to what it held."""
    counts.update(events=-1, qp_events=-1)
    for segment in layers:
        counts.update(events=len(segment.knot_t) + len(segment.flips),
                      qp_events=len(segment.knot_t), qubit_flips=len(segment.flips))
        yield segment


def occupancy_blocks(layers, t_meas: float, bounds):
    """Fraction of each readout bin spent excited, in consecutive blocks.

    layers is an iterable of a trajectory's consecutive SegmentLayers, of
    which only the flips and the first before state are read.  Bin k spans
    the edges float(k) * t_meas and float(k + 1) * t_meas.  bounds are the
    bounds of consecutive ranges of bins, from any bin; the blocks cover
    them in order, at most _BLOCK bins each, and each range starts a new
    block.  Each yielded array is scratch: the caller may overwrite it,
    and the next block does.  A bin without a flip is x0, the state at its
    first edge, exactly: the first before state plus the parity of the
    flips at or before that edge.  A bin of width w whose flips are those
    after that edge and at or before the next, e, each to a state x_j, is
    (x0 * w + c_1 + c_2 + ...) / w, each c_j = (x_j - x_(j-1)) * (e - t_j)
    added in flip order, so no value depends on the bounds or the
    segments.  A flip's e is from ceil(t_j / t_meas), corrected by one
    step against the edges' own products.  Segments are pulled as the
    edges reach them, and only the flips past the last block's last edge
    are held.
    """
    segments = iter(layers)
    out = np.empty(min(_BLOCK, bounds[-1] - bounds[0]))
    # the flips past the last block's last edge, the state before them (the
    # first segment's before state until one is pulled), and the end of the
    # last segment pulled
    flips, state = np.empty(0), None
    end = -math.inf
    for start, stop in zip(bounds[:-1], bounds[1:]):
        for lo in range(start, stop, _BLOCK):
            m = min(_BLOCK, stop - lo)
            first, last = lo * t_meas, (lo + m) * t_meas
            if end <= last:
                pulled = [flips]
                for segment in segments:
                    if state is None:
                        state = int(segment.before[1])
                    pulled.append(segment.flips)
                    end = segment.end
                    if end > last:
                        break
                flips = np.concatenate(pulled)
                del pulled
            # x0, then the state after each flip of the block, in bin k - 1
            i0, i1 = np.searchsorted(flips, (first, last), side="right").tolist()
            t = flips[i0:i1]
            x = np.arange(state + i0, state + i1 + 1) & 1
            k = np.ceil(t / t_meas)
            k -= (k - 1.0) * t_meas >= t
            k += k * t_meas < t
            b = k.astype(np.intp) - (lo + 1)
            # each edge's state, then each flip's bin (its flips write one value)
            f = out[:m]
            f[:] = np.repeat(x, np.diff(b, prepend=-1, append=m - 1))
            e = k * t_meas
            c = np.where(x[1:] == STATE_EXCITED, e - t, t - e)
            w = e - (k - 1.0) * t_meas
            f[b] *= w
            np.add.at(f, b, c)
            f[b] /= w
            flips, state = flips[i1:], (state + i1) & 1
            yield f


def _qp_layer(config: ScenarioConfig, rng: np.random.Generator):
    """Knot times and QP counts of the (modulator, N) chain, as a stream
    of array chunks.

    Exact-jump sampling of generation, trapping, recombination and modulator
    switches; each pulse end before the duration, pulse_start +
    pulse_length from the config's arrays, injects its pulse_inject QPs.
    The arrays are read through memoryviews as the chain reaches each end,
    summed and compared with the duration as Python floats, so no
    per-pulse array or list is made.  Every step takes one unit
    exponential and one uniform: the exponentials are drawn _RNG_BUF at a
    time, then the uniforms one slice of _SEGMENT steps at a time, the
    stream order of _RNG_BUF of each.  A step that would cross the next
    pulse end (or the duration) stops there and its draws are dropped.  No
    step tests for a zero total propensity: there the step's division by
    zero raises, and the chain waits for that end.  Knots are t = 0 and
    every change of N.  The cumulative propensities of a count are
    computed the first time the chain reaches it in a modulator state and
    are looked up after that, one cache per state, so the caches hold no
    more entries than the counts reached.  Each slice's draws are iterated
    as Python floats through memoryviews, with no list of them, and its
    knots, collected in lists, are yielded as a chunk that struct packs
    (a slice of modulator switches alone yields none), so the draws do
    not depend on _SEGMENT and the lists hold one slice's knots.
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
    # the (end, inject) of each pulse that acts, then the duration: a pulse
    # that ends at the duration has no time left to act on
    duration = config.duration
    ends = map(operator.add, memoryview(config.pulse_start), memoryview(config.pulse_length))
    edges = chain(((end, inject) for end, inject in zip(ends, memoryview(config.pulse_inject))
                   if end < duration), ((duration, 0),))

    n = config.initial_count()
    # the knots of the slice in hand
    times = [0.0]
    counts = [n]
    # (c_loss, c_rec, total) by count, one dict per modulator state
    caches = ({}, {})
    cache = caches[m_state]
    a_gen, a_switch = props[m_state]
    t = 0.0
    edge = next(edges)
    t_edge, inject = edge
    while edge is not None:
        exponentials = memoryview(rng.standard_exponential(_RNG_BUF))
        for lo in range(0, _RNG_BUF, _SEGMENT):
            draws = exponentials[lo:lo + _SEGMENT]
            for e, u in zip(draws, memoryview(rng.random(len(draws)))):
                try:
                    c_loss, c_rec, total = cache[n]
                except KeyError:
                    c_loss = a_gen + trapping * n
                    c_rec = c_loss + pair_rate * n * (n - 1)
                    if c_rec == math.inf:  # no event could be told from another
                        raise ValueError(f"the QP rates at N = {n} overflow: qp_generation, "
                                         "qp_trapping or qp_recombination is too large")
                    total = c_rec + a_switch
                    cache[n] = c_loss, c_rec, total
                try:
                    t += e / total
                except ZeroDivisionError:
                    t = t_edge
                if t >= t_edge:
                    t = t_edge
                    if inject > 0:
                        n += inject
                        times.append(t)
                        counts.append(n)
                    edge = next(edges, None)
                    if edge is None:
                        break
                    t_edge, inject = edge
                    continue
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
            if times:
                # struct packs a list of Python numbers in about half the
                # time np.fromiter takes to read it
                m = len(times)
                yield (np.frombuffer(struct.pack(f"{m}d", *times)),
                       np.frombuffer(struct.pack(f"{m}q", *counts), np.int64))
                times.clear()
                counts.clear()
            if edge is None:
                break


def _boltzmann_factor(config: ScenarioConfig):
    """boltz(t) = exp(-h f_ge / kB T(t)) as a function of an array of times,
    with T the base temperature plus the exact sum of the decayed thermal
    transients of the pulses that ended at or before t."""
    hf_over_kb = PLANCK * config.qubit.f_ge / BOLTZMANN
    t_base = config.qubit.temperature
    if config.thermal is None or not len(config.pulse_start):
        boltz = math.exp(-hf_over_kb / t_base)
        return lambda t: boltz
    tau = config.thermal.tau_thermal
    # amp[k]: summed transient amplitude (K) just after ends[k], the k-th
    # pulse end; ends[0] = 0 with no amplitude covers the time before them
    ends = np.concatenate(([0.0], config.pulse_start + config.pulse_length))
    amp = np.zeros(len(ends))
    for k, length in enumerate(config.pulse_length.tolist(), start=1):
        amp[k] = (amp[k - 1] * math.exp(-(ends[k] - ends[k - 1]) / tau)
                  + thermal_transient(config.thermal, length))

    def boltz(t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(ends, t, side="right") - 1
        offset = amp[k] * np.exp(-(t - ends[k]) / tau)
        return np.exp(-hf_over_kb / (t_base + offset))

    return boltz


def _flip_times(t: np.ndarray, accept: np.ndarray, state: int) -> tuple[np.ndarray, int]:
    """The flip times among consecutive candidates at times t, and the
    state after the last, for a qubit in state before the first.

    s_i = accept_i and not s_(i-1): the states alternate inside each run of
    accepts, starting excited after a reject; an excited state carried in
    acts as an accept just before the first candidate."""
    idx = np.arange(len(t))
    last_reject = np.maximum.accumulate(np.where(accept, state - 1, idx))
    s = accept & ((idx - last_reject) & 1 == 1)
    # a flip wherever s changes, with the carried state standing before it
    return t[run_starts(s, state != 0)], int(s[-1])


class SegmentLayers(NamedTuple):
    """One segment of a trajectory as the sampler's two layers, the form
    in which every reader takes a trajectory: the QP knots (knot_t,
    knot_n), the qubit flips, before, the (count, state) in force before
    the segment's first knot, and end, where the next segment starts (the
    duration for the last).  Every QP knot after the trajectory's first
    changes N and every flip changes the state, so the layers' lengths
    count the events, and the state at t is the first segment's before
    state plus the parity of the flips at or before t.  _merge makes a
    segment's layers a TruthTrace, only for the truth file's rows and
    simulate_joint's whole trace."""

    knot_t: np.ndarray
    knot_n: np.ndarray
    flips: np.ndarray
    before: tuple[int, int]
    end: float

    def after(self) -> tuple[int, int]:
        """The (count, state) in force at the segment's end."""
        count = self.knot_n[-1] if len(self.knot_n) else self.before[0]
        return count, (self.before[1] + len(self.flips)) & 1


def _merge(knot_t: np.ndarray, knot_n: np.ndarray, flips: np.ndarray,
           before: tuple[int, int], end: float) -> TruthTrace:
    """The segment up to end of QP knots and qubit flips, merged in the
    order of one trace: a flip goes after the QP knots at or before it.
    before holds the count and the qubit state in force before the
    segment's first knot.

    No int64 scratch of the segment's length is made: each count is
    repeated over its QP knot and the flips after it, and the states are
    the parity of a uint8 running count of flips.  Each temporary is
    dropped before the next array of the segment's length is made."""
    count, state = before
    # flip k goes after the QP knots at or before it (pos[k] of them) and
    # the k flips before it
    pos = np.searchsorted(knot_t, flips, side="right")
    per_knot = np.bincount(pos, minlength=len(knot_t) + 1)
    per_knot[1:] += 1  # each QP knot's count holds at it and the flips after it
    counts = np.repeat(np.concatenate(([count], knot_n)), per_knot)
    del per_knot
    is_flip = np.zeros(len(counts), dtype=bool)
    pos += np.arange(len(flips))
    is_flip[pos] = True
    del pos
    times = np.empty(len(counts))
    times[is_flip] = flips
    times[~is_flip] = knot_t
    # the parity of the flips so far; a uint8 sum wraps, keeping it
    states = np.cumsum(is_flip, dtype=np.uint8)
    del is_flip
    states += state
    states &= 1
    return TruthTrace(duration=end, times=times, states=states, counts=counts)


def simulate_layers(config: ScenarioConfig, qp_rng: np.random.Generator,
                    candidate_rng: np.random.Generator,
                    uniform_rng: np.random.Generator):
    """Sample the coupled (qubit, QP number) chain in two layers, and yield
    its trajectory as consecutive segments, each as its SegmentLayers.

    The QP number drives the qubit and never the reverse, so the (modulator,
    N) chain is sampled alone from qp_rng, by exact jumps.  The qubit is then
    a two-state chain with the known piecewise-constant relaxation rate
    relax(N(t)) and excitation rate relax(N(t)) * boltz(t), where boltz
    follows the thermal transients of the pulses.  It is sampled by
    uniformization: candidates at the rate relax(N(t)), whose integral H(t)
    is piecewise linear, so candidate i is at H^-1(E_i), with E_i the
    running sum of unit exponentials from candidate_rng.  An excited qubit
    relaxes at every candidate; a ground one is excited where the uniform
    U_i < boltz(t_i).  The uniforms, and the initial state, come from
    uniform_rng.

    The layers run one QP chunk (_SEGMENT steps) at a time.  Each chunk's
    last knot is held back, because the rate before it needs the next
    knot's time: a segment ends there, and the flips that round to or past
    it go into the next segment.  Candidates are drawn _CANDIDATES at a
    time, and each time a block runs out a segment also ends, at the last
    flip before the held-back knot, so a segment holds at most one chunk's
    QP knots and about one block's flips, however rare the QP events.  The
    running sums E_i, the block of candidates in hand, H at the held-back
    knot and the qubit state are carried across segments, and np.cumsum
    adds in the order of one running sum, so the segments join into the
    same trace bit for bit whatever _SEGMENT and _CANDIDATES are.  A
    segment holds at least one knot.  The first segment's first knot is
    the QP knot at t = 0, and its before holds the initial state.
    """
    qubit = config.qubit
    state = STATE_EXCITED if uniform_rng.random() < temperature_to_polarization(
        qubit.temperature, qubit.f_ge) else STATE_GROUND
    boltz = _boltzmann_factor(config)
    # the QP knots not yet in a chunk's hazard, the held-back one first,
    # and H there
    knot_t, knot_n, h_start = np.empty(0), np.empty(0, dtype=np.int64), 0.0
    # the candidates in hand, E from candidates[used] on, their uniforms,
    # and E at the last candidate drawn
    candidates = uniforms = np.empty(0)
    used, e_carry = 0, 0.0
    flips = np.empty(0)  # the flips not yet in a segment
    # the count and the state before the next segment's first knot; the
    # first segment starts at the QP knot at t = 0, so its count is unused
    before = (0, state)
    chunks = _qp_layer(config, qp_rng)
    final = False
    while not final:
        chunk = next(chunks, None)
        final = chunk is None
        if not final:
            knot_t = np.concatenate((knot_t, chunk[0]))
            knot_n = np.concatenate((knot_n, chunk[1]))
            if len(knot_t) < 2:
                continue
        if final:  # the last chunk runs to the duration
            end, seg_t, seg_n = config.duration, knot_t, knot_n
        else:
            end, seg_t, seg_n = knot_t[-1], knot_t[:-1], knot_n[:-1]
        rate = relaxation_rate(seg_n, config.kinetics, qubit)
        hazard = np.empty(len(seg_t) + 1)
        hazard[0] = h_start
        np.multiply(rate, np.diff(seg_t, append=end), out=hazard[1:])
        np.cumsum(hazard, out=hazard)
        h_start = hazard[-1]
        qp = 0  # the chunk's QP knots from qp on are not yet in a segment
        while True:
            if used == len(candidates):
                # a segment up to the last flip before end, if there is one
                cut = int(np.searchsorted(flips, end)) - 1
                if cut >= 0:
                    hi = int(np.searchsorted(seg_t, flips[cut], side="right"))
                    if cut > 0 or hi > qp:
                        layers = SegmentLayers(seg_t[qp:hi], seg_n[qp:hi], flips[:cut],
                                               before, flips[cut])
                        before = layers.after()
                        yield layers
                        qp, flips = hi, flips[cut:]
                candidates = candidate_rng.standard_exponential(_CANDIDATES)
                candidates[0] += e_carry
                np.cumsum(candidates, out=candidates)
                e_carry = candidates[-1]
                uniforms = uniform_rng.random(_CANDIDATES)
                used = 0
            stop = used + int(np.searchsorted(candidates[used:], h_start))
            if stop > used:
                e = candidates[used:stop]
                # the knot whose interval holds each candidate; zero-rate
                # intervals have no width in H and are never chosen
                j = np.searchsorted(hazard, e, side="right") - 1
                t = seg_t[j] + (e - hazard[j]) / rate[j]
                t, state = _flip_times(t, uniforms[used:stop] < boltz(t), state)
                flips = np.concatenate((flips, t))
                used = stop
            if used < len(candidates):
                break
        cut = len(flips) if final else int(np.searchsorted(flips, end))
        layers = SegmentLayers(seg_t[qp:], seg_n[qp:], flips[:cut], before, end)
        before = layers.after()
        yield layers
        flips = flips[cut:]
        knot_t, knot_n = knot_t[-1:], knot_n[-1:]


def simulate_joint(config: ScenarioConfig, qp_rng: np.random.Generator,
                   candidate_rng: np.random.Generator,
                   uniform_rng: np.random.Generator) -> TruthTrace:
    """The whole trace of simulate_layers: each segment's layers merged by
    _merge, and the segments joined."""
    segments = [_merge(*layers)
                for layers in simulate_layers(config, qp_rng, candidate_rng, uniform_rng)]
    return TruthTrace(duration=config.duration,
                      times=np.concatenate([s.times for s in segments]),
                      states=np.concatenate([s.states for s in segments]),
                      counts=np.concatenate([s.counts for s in segments]))


# ---------------------------------------------------------------------------
# measurement record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IQRecord:
    """Quadrature samples in sigma units (unit-variance noise per sample).

    A synthesized or read record holds float32 samples, the dtype of the
    record file: 24 bits of mantissa are far finer than the unit noise.
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
    occupancy,
    meas: MeasurementParams,
    i: np.ndarray,
    q: np.ndarray | None = None,
) -> IQRecord:
    """Dispersive readout record for the next len(i) bins of an
    occupancy_blocks pass over a trajectory, from their noise.

    Each bin of length t_meas gets I = (f_g - f_e) * separation + noise and
    Q = noise, with f_g/f_e the fractions of the bin spent in each state
    (ground maps to +I), as occupancy_blocks gives them: a bin without a
    flip is in one state exactly.  occupancy is at the range's first bin
    and its bounds hold the range, so consecutive ranges share one pass.
    i holds the bins' I noise, and the float64 levels are added to it in
    place, block by block, each sum taken in float64 and rounded to i's
    dtype (float32 in a synthesized record): it becomes the record's I.
    q, Q's noise, is the record's Q as it is; None gives a record without
    Q.  Drawing the noise is left to the caller, so a range's draws can be
    made ahead of its occupancy; normal draws do not depend on how a
    stream is split, so consecutive ranges of one stream give the whole
    record bit for bit.
    """
    sep = snr_separation(meas)
    lo = 0
    while lo < len(i):
        f_e = next(occupancy)
        hi = lo + len(f_e)
        # noise + (1 - 2 f_e) * sep, in place
        f_e *= 2.0
        np.subtract(1.0, f_e, out=f_e)
        f_e *= sep
        i[lo:hi] += f_e
        lo = hi
    return IQRecord(t_meas=meas.t_meas, i=i, q=q)
