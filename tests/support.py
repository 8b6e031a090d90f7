"""Test-only helpers: synthetic spectral series, the noiseless readout
record, whole-array oracles for the blocked record pipeline, for the
presets that stream their record and for the recovery statistics that
read a trajectory's layers, the per-pulse arithmetic and check for the
config's pulse arrays, an RK4 integrator for the QP density rate
equation, a scalar loop over the sampler's qubit candidates, the qubit
intervals and event counts of a trace, a trace cut into the sampler's
layers, a child process under an address-space limit, and an exact
oracle for the joint (modulator, qubit, QP number) Markov chain sampled
by jumpsim.simulate_joint.

The oracle is built from the model's rate definitions (the scalar rate
functions below and the kinetics coefficients), not from the sampler's
loop, so the two agree only if the sampler realizes the model.
"""

from __future__ import annotations

import math
import os
import pickle
import resource
from types import SimpleNamespace

import numpy as np
from scipy import stats

from qpjumps import experiments, io
from qpjumps.analysis import (
    StateEstimate,
    extract_dwells,
    log_histogram,
    poisson_prediction,
    split_windows,
    two_point_filter,
    windowed_report,
)
from qpjumps.core import (
    BOLTZMANN,
    PLANCK,
    MeasurementParams,
    QubitParams,
    ScenarioConfig,
    temperature_to_polarization,
)
from qpjumps.kinetics import QpKineticsParams, steady_state
from qpjumps.jumpsim import (
    STATE_EXCITED,
    STATE_GROUND,
    IQRecord,
    SegmentLayers,
    TruthTrace,
    occupancy_blocks,
    qp_rate_coefficient,
    run_starts,
    sample_count,
    snr_separation,
    thermal_transient,
)

# ---------------------------------------------------------------------------
# synthetic series for spectral-fit validation
# ---------------------------------------------------------------------------


def power_law_series(
    n: int,
    dt: float,
    alpha: float,
    amplitude: float,
    corner: float = 0.0,
    floor: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gaussian series whose expected periodogram is
    amplitude / (corner + (2 pi f)^alpha) + floor."""
    if rng is None:
        rng = np.random.default_rng()
    freqs = np.fft.rfftfreq(n, dt)
    w = 2.0 * math.pi * freqs
    target = np.zeros_like(freqs)
    target[1:] = amplitude / (corner + w[1:] ** alpha) + floor
    spec = np.zeros(len(freqs), dtype=complex)
    inner = slice(1, -1) if n % 2 == 0 else slice(1, None)
    k = len(freqs[inner])
    scale = np.sqrt(target[inner] * n / (4.0 * dt))
    spec[inner] = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    if n % 2 == 0:
        spec[-1] = math.sqrt(target[-1] * n / dt) * rng.standard_normal()
    return np.fft.irfft(spec, n=n)


def telegraph_series(
    n: int,
    dt: float,
    mean_dwell: float,
    rng: np.random.Generator | None = None,
    values: tuple[float, float] = (-1.0, 1.0),
) -> np.ndarray:
    """Symmetric random telegraph signal sampled every dt seconds."""
    if rng is None:
        rng = np.random.default_rng()
    total = n * dt
    est = int(total / mean_dwell * 2 + 10 * math.sqrt(total / mean_dwell + 1)) + 4
    switch_times = np.cumsum(rng.exponential(mean_dwell, size=est))
    while switch_times[-1] < total:
        more = np.cumsum(rng.exponential(mean_dwell, size=est)) + switch_times[-1]
        switch_times = np.concatenate((switch_times, more))
    t = np.arange(n) * dt
    parity = np.searchsorted(switch_times, t, side="right") % 2
    start = int(rng.integers(0, 2))
    return np.asarray(values)[(parity + start) % 2]


def event_counts(truth: TruthTrace) -> dict[str, int]:
    """The events of a whole trace, counted on its knots: knots after the
    first, and of them the changes of N and of the qubit state, as
    jumpsim.tally_events counts them on the layers."""
    return {"events": len(truth),
            "qp_events": int(np.count_nonzero(np.diff(truth.counts))),
            "qubit_flips": int(np.count_nonzero(np.diff(truth.states)))}


def relaxation_jump_times(truth: TruthTrace) -> np.ndarray:
    """Times of excited-to-ground transitions in the trajectory."""
    flips = run_starts(truth.states)[1:]
    return truth.times[flips[truth.states[flips] == STATE_GROUND]]


def reference_pulses(schedule=(), train=None) -> list[tuple[float, float, int]]:
    """Every pulse of a pulse_schedule or a PeriodicPulses train as
    (start, length, inject), in start order, by per-pulse arithmetic: pulse
    i of a train starts at first + i * period, and a schedule's pulses are
    sorted by start."""
    if train is not None:
        return [(train.first + i * train.period, train.length, train.inject)
                for i in range(train.count)]
    return [(p.start, p.length, p.inject) for p in sorted(schedule, key=lambda p: p.start)]


def reference_pulse_fault(pulses, duration: float) -> str | None:
    """The per-pulse check of (start, length, inject) pulses in start
    order: the fault of the first pulse that starts before the one before
    it ends or ends past duration, or None when every pulse passes."""
    prev_end = -math.inf
    for start, length, _ in pulses:
        if start < prev_end:
            return "pulses must not overlap"
        if start + length > duration:
            return "pulses must end within duration"
        prev_end = start + length
    return None


def whole_trace_chunk_stats(truth: TruthTrace, config: ScenarioConfig,
                            rel_edges: np.ndarray):
    """experiments.recovery_chunk_stats over the whole trace at once, bin
    by bin.  Each flip (from ground before the trace) has its cycle and
    time after the pulse's end, (q, r) = divmod(t - first pulse end,
    period), and is in the bin of r if q is a pulse of the train.  X, the
    pulses excited at a bin's first edge, starts as the states of the last
    flips before each pulse's first edge, (q, r) < (pulse, e_0).  A bin's
    exposure is w * X plus its flips' shares, +-(e_(k+1) - r), summed from
    0 in time order, and its net flips move X on to the next bin."""
    flips = run_starts(truth.states, STATE_GROUND)
    x = truth.states[flips].astype(int)
    pulses = reference_pulses(train=config.pulse_periodic)
    n = len(pulses)
    cycle, rel = np.divmod(truth.times[flips] - (pulses[0][0] + pulses[0][1]),
                           config.pulse_periodic.period)
    idx = np.searchsorted(rel_edges, rel, side="right") - 1
    state = 0
    for pulse in range(n):
        before = np.count_nonzero((cycle < pulse) | ((cycle == pulse) & (rel < rel_edges[0])))
        state += x[before - 1] if before else 0
    nbins = len(rel_edges) - 1
    ok = (idx >= 0) & (idx < nbins) & (cycle >= 0) & (cycle < n)
    exposure = np.empty(nbins)
    for k in range(nbins):
        covered = (rel_edges[k + 1] - rel_edges[k]) * state
        shares = 0.0
        for j in np.flatnonzero(ok & (idx == k)):
            sign = 1 if x[j] else -1
            shares += sign * (rel_edges[k + 1] - rel[j])
            state += sign
        exposure[k] = covered + shares
    jumps = ok & (x == 0)
    counts = np.bincount(idx[jumps], minlength=nbins).astype(float)
    t_sum = np.bincount(idx[jumps], weights=rel[jumps], minlength=nbins)
    return exposure, counts, t_sum


def qubit_intervals(truth: TruthTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal constant-qubit-state intervals as (start, duration, state).

    Includes the boundary intervals at the start and end of the record;
    callers doing dwell statistics should drop the first and last.
    """
    first = run_starts(truth.states)
    starts = truth.times[first]
    return starts, np.append(starts[1:], truth.duration) - starts, truth.states[first]


def trace_layers(truth: TruthTrace, cuts=()) -> list[SegmentLayers]:
    """truth as the sampler's layers of consecutive segments, cut before
    each knot index in cuts (0 and repeats are dropped): each runs to the
    next one's first knot time, the last to the duration.  A knot whose
    state differs from the one before is a flip, and every other knot, the
    first included, is a QP knot.  Each before holds the count and state
    at the knot before the segment, the first knot's own for the first."""
    n = len(truth.times)
    first = sorted({0, *(k for k in cuts if 0 < k < n)})
    flip = np.zeros(n, dtype=bool)
    flip[run_starts(truth.states)[1:]] = True
    layers = []
    for lo, hi in zip(first, first[1:] + [n]):
        times, counts, at = truth.times[lo:hi], truth.counts[lo:hi], flip[lo:hi]
        before = truth.counts[max(lo - 1, 0)], truth.states[max(lo - 1, 0)]
        end = float(truth.times[hi]) if hi < n else truth.duration
        layers.append(SegmentLayers(times[~at], counts[~at], times[at], before, end))
    return layers


def noiseless_iq(truth: TruthTrace, meas: MeasurementParams) -> IQRecord:
    """The mean of jumpsim.synthesize_iq's record: I = (f_g - f_e) *
    separation per bin and Q = 0, with no noise drawn, in the record's
    float32."""
    n = sample_count(truth.duration, meas.t_meas)
    f_e = np.empty(n)
    lo = 0
    for block in occupancy_blocks(trace_layers(truth), meas.t_meas, [0, n]):
        f_e[lo:lo + len(block)] = block
        lo += len(block)
    i = ((1.0 - 2.0 * f_e) * snr_separation(meas)).astype(np.float32)
    return IQRecord(t_meas=meas.t_meas, i=i, q=np.zeros(len(f_e), dtype=np.float32))


def bin_occupancy(truth: TruthTrace, t_meas: float, n: int) -> np.ndarray:
    """The excited fraction of bins 0 to n - 1, bin b spanning the edges
    e_b = float(b) * t_meas and e_(b+1), as a loop over each bin's flips:
    x0, the state of the last knot at or before e_b, times the width w,
    plus (x_j - x_(j-1)) * (e_(b+1) - t_j) for each knot j after e_b and
    at or before e_(b+1) whose state differs from the knot before, added
    in knot order, over w.  The knots' bins come from a search in the edge
    array, and a bin without a flip is x0."""
    edges = np.arange(n + 1, dtype=float) * t_meas
    x = truth.states.astype(float)
    f_e = x[np.searchsorted(truth.times, edges[:-1], side="right") - 1]
    flips = run_starts(truth.states)[1:]
    bins = {}
    for j, b in zip(flips, np.searchsorted(edges, truth.times[flips]) - 1):
        if 0 <= b < n:
            bins.setdefault(b, []).append(j)
    for b, knots in bins.items():
        w = edges[b + 1] - edges[b]
        acc = f_e[b] * w
        for j in knots:
            acc += (x[j] - x[j - 1]) * (edges[b + 1] - truth.times[j])
        f_e[b] = acc / w
    return f_e


def whole_record_iq(truth: TruthTrace, meas: MeasurementParams,
                    i_rng: np.random.Generator, q_rng: np.random.Generator) -> IQRecord:
    """synthesize_iq's record computed over the whole array at once: the
    occupancy from bin_occupancy, and all noise in one float32 draw per
    quadrature; each I is its level plus its noise in float64, rounded to
    float32."""
    n = sample_count(truth.duration, meas.t_meas)
    f_e = bin_occupancy(truth, meas.t_meas, n)
    noise = i_rng.standard_normal(n, dtype=np.float32)
    i = ((1.0 - 2.0 * f_e) * snr_separation(meas) + noise).astype(np.float32)
    return IQRecord(t_meas=meas.t_meas, i=i, q=q_rng.standard_normal(n, dtype=np.float32))


def whole_record_filter(iq: IQRecord, separation: float) -> StateEstimate:
    """analysis.two_point_filter as one forward fill over the whole record,
    each sample compared exactly with the float64 thresholds: float32
    samples are cast to float64, which holds them exactly."""
    to_excited = -separation + 0.5
    to_ground = separation - 0.5
    i = np.asarray(iq.i, dtype=np.float64)

    decided_e = i < to_excited
    decided_g = i > to_ground
    decided = decided_e | decided_g
    idx = np.where(decided, np.arange(len(i)), -1)
    last = np.maximum.accumulate(idx)
    initial = STATE_GROUND if i[0] >= 0 else STATE_EXCITED
    states = np.where(
        last < 0,
        initial,
        np.where(decided_e[np.clip(last, 0, None)], STATE_EXCITED, STATE_GROUND),
    ).astype(np.uint8)
    return StateEstimate(t_meas=iq.t_meas, states=states)


def whole_record_experiment(name: str, config: ScenarioConfig, out_dir) -> None:
    """An alternation preset or psd as run on the whole record at once:
    run_simulation, then two_point_filter and windowed_report over all of
    it.  Writes report.csv, summary.csv and the example histograms of an
    alternation preset, or psd's series.csv, into out_dir.  The example
    histograms are built from the dwells of the whole estimate's windows,
    not from the report's dwells or the preset's histogram writer."""
    truth, iq = experiments.run_simulation(config)
    est = two_point_filter(iq, snr_separation(config.meas))
    if name == "psd":
        report = windowed_report(est, experiments.PSD_WINDOW)
        io.write_series_csv(os.path.join(out_dir, "series.csv"), report.t_start,
                            report.tau_ground, "tau_g_s")
        return
    report = windowed_report(est, experiments.DEFAULT_WINDOW)
    io.write_report_csv(os.path.join(out_dir, "report.csv"), report)
    io.write_fit_report_csv(os.path.join(out_dir, "summary.csv"),
                            experiments._alternation_summary(report))
    windows = split_windows(est, report.window)
    f = report.fidelity_ground
    for tag, w in (("quiet", np.nanargmax(f)), ("noisy", np.nanargmin(f))):
        dwells = extract_dwells(windows[w])
        for state, durations in (("g", dwells.ground), ("e", dwells.excited)):
            if len(durations):
                hist = log_histogram(durations, est.t_meas,
                                     experiments.DEFAULT_BINS_PER_DECADE)
                io.write_histogram_csv(os.path.join(out_dir, f"example_{tag}_{state}.csv"),
                                       hist, poisson_prediction(hist))


def scalar_qubit_layer(config: ScenarioConfig, truth: TruthTrace,
                       candidate_rng: np.random.Generator,
                       uniform_rng: np.random.Generator):
    """The qubit layer of jumpsim.simulate_joint, one candidate at a time.

    Runs on the QP path of truth (its first knot and every knot where the
    count changes) with the sampler's arithmetic for times and rates, so
    the flip times must agree bit for bit.  Returns (initial state, flip
    times, accepts), where accepts[i] is U_i < boltz(t_i) for candidate i.
    """
    qubit = config.qubit
    qp = np.concatenate(([0], np.flatnonzero(np.diff(truth.counts)) + 1))
    knot_t = truth.times[qp].tolist() + [config.duration]
    per_qp = qubit.gamma_scale * qp_rate_coefficient(qubit) / config.kinetics.n_pairs
    rate = [n * per_qp + qubit.gamma_scale * qubit.gamma_background
            for n in truth.counts[qp].tolist()]
    hazard = [0.0]
    for j, r in enumerate(rate):
        hazard.append(hazard[-1] + r * (knot_t[j + 1] - knot_t[j]))

    hf_over_kb = PLANCK * qubit.f_ge / BOLTZMANN
    # (end, length) of each pulse, in end order
    pulses = sorted((start + length, length) for start, length, _ in reference_pulses(
        config.pulse_schedule, config.pulse_periodic)) if config.thermal else []
    k, amp, amp_end = 0, 0.0, 0.0  # pulses ended so far, their summed transient

    state = (STATE_EXCITED if uniform_rng.random()
             < temperature_to_polarization(qubit.temperature, qubit.f_ge) else STATE_GROUND)
    initial = state
    flips, accepts = [], []
    h, j = 0.0, 0
    while True:
        h += candidate_rng.standard_exponential()
        if h >= hazard[-1]:
            break
        u = uniform_rng.random()
        while hazard[j + 1] <= h:
            j += 1
        t = knot_t[j] + (h - hazard[j]) / rate[j]
        while k < len(pulses) and pulses[k][0] <= t:
            end, length = pulses[k]
            amp = (amp * math.exp(-(end - amp_end) / config.thermal.tau_thermal)
                   + thermal_transient(config.thermal, length))
            amp_end = end
            k += 1
        offset = amp * math.exp(-(t - amp_end) / config.thermal.tau_thermal) if k else 0.0
        accept = u < math.exp(-hf_over_kb / (qubit.temperature + offset))
        accepts.append(accept)
        new = STATE_EXCITED if accept and state == STATE_GROUND else STATE_GROUND
        if new != state:
            flips.append(t)
            state = new
    return initial, np.array(flips), accepts


def _xdot(x: float, g: float, s: float, r: float) -> float:
    return g - s * x - r * x * x


def rk4_evolve_ode(x0: float, params: QpKineticsParams, t_grid) -> np.ndarray:
    """kinetics.evolve_ode by fixed-step RK4 integration of the rate equation.

    The step is capped at 1/100 of the fastest linearized time scale so
    results are bit-reproducible; returns x at each grid time (the first
    grid point gets x0 exactly when the grid starts at the initial time).
    """
    if x0 < 0.0:
        raise ValueError("initial density must be non-negative")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    g, s, r = params.generation, params.trapping, params.recombination
    # fastest local rate over the reachable range [0, max(x0, x_steady)]
    try:
        x_ref = max(x0, steady_state(params))
    except ValueError:
        x_ref = x0
    rate_ref = s + 2.0 * r * x_ref
    h_max = (1.0 / rate_ref) / 100.0 if rate_ref > 0.0 else math.inf

    out = np.empty_like(t_grid)
    x = float(x0)
    t = float(t_grid[0])
    out[0] = x
    for i in range(1, len(t_grid)):
        span = float(t_grid[i]) - t
        n_sub = max(1, math.ceil(span / h_max)) if math.isfinite(h_max) else 1
        h = span / n_sub
        for _ in range(n_sub):
            k1 = _xdot(x, g, s, r)
            k2 = _xdot(x + 0.5 * h * k1, g, s, r)
            k3 = _xdot(x + 0.5 * h * k2, g, s, r)
            k4 = _xdot(x + h * k3, g, s, r)
            x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if x < 0.0:
                x = 0.0
        t = float(t_grid[i])
        out[i] = x
    return out


def run_with_address_limit(fn, *args, limit: int = 1 << 30):
    """fn(*args) in one forked child whose address space may grow by at
    most limit bytes (RLIMIT_AS over its size at the fork), so a runaway
    allocation raises a fast MemoryError there instead of taking the
    machine's memory.  Returns ("returned", value), or (exception type
    name, message) for what fn raised."""
    size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        try:
            os.close(read)
            resource.setrlimit(resource.RLIMIT_AS, (size + limit, size + limit))
            try:
                result = ("returned", fn(*args))
            except BaseException as exc:
                result = (type(exc).__name__, str(exc))
            with os.fdopen(write, "wb") as fh:
                pickle.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return pickle.loads(data)


def iteration_capped(optimize_module, max_iter: int):
    """Stand-in for a fitter's `optimize` module (qpjumps.optimize) whose
    minimize() stops after max_iter evaluations."""

    def minimize(*args, **kwargs):
        kwargs["max_iter"] = max_iter
        return optimize_module.minimize(*args, **kwargs)

    return SimpleNamespace(minimize=minimize)


# ---------------------------------------------------------------------------
# joint-chain oracle
# ---------------------------------------------------------------------------
#
# State (m, q, N): modulator m (0 quiet, 1 noisy; always 1 without
# modulation), qubit q (0 ground, 1 excited), QP number N.  Pulses and the
# thermal transient are outside the stationary model, so configs passed
# here must have neither.


def qp_relaxation_rate(n_qp: float, kinetics: QpKineticsParams,
                       qubit: QubitParams) -> float:
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


def modulator_states(config: ScenarioConfig) -> tuple[int, ...]:
    return (0, 1) if config.modulation is not None else (1,)


def joint_rates(config: ScenarioConfig, m: int, q: int, n: int) -> list:
    """Outgoing transitions [((m', q', n'), rate), ...] of state (m, q, n)."""
    if len(config.pulse_start) or config.thermal is not None:
        raise ValueError("the stationary oracle covers pulse-free, unheated configs")
    kin, qubit, mod = config.kinetics, config.qubit, config.modulation
    if mod is not None and m == 0:
        generation = mod.quiet_generation
    else:
        generation = kin.generation
    out = [
        ((m, q, n + 2), 0.5 * generation * kin.n_pairs),
        ((m, q, n - 1), kin.trapping * n),
        ((m, q, n - 2), kin.recombination * n * (n - 1) / (2.0 * kin.n_pairs)),
    ]
    if mod is not None:
        out.append(((1 - m, q, n), 1.0 / (mod.mean_quiet if m == 0 else mod.mean_noisy)))
    if q == 1:
        out.append(((m, 0, n), qp_relaxation_rate(n, kin, qubit)))
    else:
        out.append(((m, 1, n), thermal_excitation_rate(n, kin, qubit, qubit.temperature)))
    return [(state, rate) for state, rate in out if rate > 0.0]


def stationary_qn(config: ScenarioConfig, n_max: int) -> np.ndarray:
    """Stationary law of the chain truncated to N <= n_max, summed over m.

    Solves pi Q = 0 for the truncated generator (births that would overflow
    n_max are dropped) and returns pi as a (2, n_max + 1) array over (q, N).
    """
    ms = modulator_states(config)
    states = [(m, q, n) for m in ms for q in (0, 1) for n in range(n_max + 1)]
    index = {state: i for i, state in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        for target, rate in joint_rates(config, *state):
            if target in index:
                gen[i, index[target]] += rate
        gen[i, i] = -gen[i].sum()
    # replace the last balance equation with the normalization
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi[pi < 0] = 0.0
    pi /= pi.sum()
    return pi.reshape(len(ms), 2, n_max + 1).sum(axis=0)


def occupancy_chi2(truth, pi_qn: np.ndarray, spacing: float = 2e-3):
    """Chi-square of (q, N) snapshots every `spacing` s against pi_qn.

    spacing must be long against every correlation time of the chain so the
    snapshots are close to independent draws.  Cells expecting fewer than 5
    counts are merged into one (N beyond the truncation counts there too).
    Returns (p_value, number_of_cells).
    """
    t, s, n = truth.times, truth.states, truth.counts
    snaps = np.arange(spacing, truth.duration, spacing)
    idx = np.searchsorted(t, snaps, side="right") - 1
    n_max = pi_qn.shape[1] - 1
    observed = np.zeros((2, n_max + 2))
    np.add.at(observed, (s[idx], np.minimum(n[idx], n_max + 1)), 1.0)
    expected = np.zeros_like(observed)
    expected[:, : n_max + 1] = pi_qn * len(snaps)
    observed, expected = observed.ravel(), expected.ravel()

    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5.0:  # merged tail still too thin: fold it into the thinnest cell
        k = int(np.argmin(exp[:-1]))
        obs[k] += obs[-1]
        exp[k] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    return float(stats.chisquare(obs, exp).pvalue), len(obs)


def transition_rate_chi2(truth, config: ScenarioConfig, n_max: int,
                         min_expected: float = 20.0):
    """Per-transition jump counts against generator rate x occupancy time.

    For each (q, N) -> (q', N') transition with a rate that is the same in
    every modulator state, count - rate * time_in_source is a martingale
    whose predictable variance is rate * time_in_source; distinct
    transitions never jump together, so sum z^2 over cells expecting at
    least min_expected jumps is chi-square with one degree of freedom per
    cell, although the trace is one correlated trajectory.  Rates that
    differ between modulator states are not observable from the trace and
    are skipped.  Returns (p_value, dof, forbidden) where forbidden counts
    jumps inside the truncation that the generator gives no rate in any
    modulator state.
    """
    t, s, n = truth.times, truth.states, truth.counts
    dwell = np.diff(np.append(t, truth.duration))
    inside = n <= n_max
    occupancy = np.zeros((2, n_max + 1))
    np.add.at(occupancy, (s[inside], n[inside]), dwell[inside])

    shape = (2, int(n.max()) + 1) * 2
    codes, counts = np.unique(
        np.ravel_multi_index((s[:-1], n[:-1], s[1:], n[1:]), shape), return_counts=True
    )
    steps = zip(*(axis.tolist() for axis in np.unravel_index(codes, shape)))
    jumps = dict(zip(steps, counts.tolist()))

    ms = modulator_states(config)
    chi2 = 0.0
    dof = 0
    seen = set()
    for q in (0, 1):
        for k in range(n_max + 1):
            per_m = [
                {(q2, n2): rate
                 for (m2, q2, n2), rate in joint_rates(config, m, q, k) if m2 == m}
                for m in ms
            ]
            for target in set().union(*per_m):
                seen.add((q, k) + target)
                rates = {d.get(target, 0.0) for d in per_m}
                if len(rates) != 1:
                    continue
                expected = rates.pop() * occupancy[q, k]
                if expected >= min_expected:
                    count = jumps.get((q, k) + target, 0)
                    chi2 += (count - expected) ** 2 / expected
                    dof += 1
    forbidden = sum(c for key, c in jumps.items() if key[1] <= n_max and key not in seen)
    return float(stats.chi2.sf(chi2, dof)), dof, forbidden
