"""Named experiment presets and their analysis drivers.

Each preset is a set of configuration overrides on top of the defaults plus
a driver that runs the simulate / filter / stats chain and writes the
figure-ready CSVs.  Presets reuse the exact same pipeline functions as the
individual CLI commands, so composing `simulate` and `stats` by hand on the
same seed reproduces an experiment's outputs byte for byte.  No record is
held whole: every record is read as consecutive ranges from sample 0,
through its blocks(bounds), and run_stats and filter_blocks read any
record that way.  Every trajectory is read as the sampler yields its
segments, each as its SegmentLayers, and both readers here need only the
qubit's flips.  A SynthesizedRecord synthesizes each range as it is read,
from the flips, while one worker thread draws the next range's noise.
Q, which no preset reads, is not drawn for a preset.  The recovery
preset bins the flips of simulate's trajectory, segment by segment.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import io
# extract_dwells is not called here: perfbench/spans.py, the benchmark's
# tracer, rebinds it in this module by name
from .analysis import (
    DwellSet,
    WindowedReport,
    cross_correlation,
    extract_dwells,  # noqa: F401
    log_histogram,
    poisson_prediction,
    two_point_filter,
    window_samples,
    windowed_report,
)
from .core import MeasurementParams, ScenarioConfig, validate_config
from .fitting import (
    PsdFit,
    RecoveryFit,
    fit_power_law,
    fit_recovery,
    invert_relaxation,
    median,
    periodogram,
)
from .jumpsim import (
    _BLOCK,
    IQRecord,
    STATE_EXCITED,
    STATE_GROUND,
    SegmentLayers,
    TruthTrace,
    occupancy_blocks,
    sample_count,
    simulate_joint,
    simulate_layers,
    snr_separation,
    synthesize_iq,
    tally_events,
)

DEFAULT_WINDOW = 1.0
DEFAULT_BINS_PER_DECADE = 10
RECOVERY_BINS_PER_DECADE = 8
# post-injection bins with fewer relaxation jumps are left out of the fit
MIN_JUMPS = 25
# samples per block of run_stats, rounded down to whole windows: one 1 s
# window, or 13 of psd's 0.1 s ones.  Larger than _BLOCK, the block of
# every other streamed path, because each block has a fixed cost (the
# filter's scratch, the window report, the handoff of the noise drawn
# ahead): at _BLOCK, psd's 0.1 s windows made 60,000-sample blocks and
# its wall time rose by about a third
STATS_BLOCK = 1 << 18

# preset scenario overrides; everything else takes the documented defaults.
#
# Ambient (un-pulsed) presets model the quiet/noisy alternation: the
# generation coefficient switches between its noisy value and a 20x smaller
# quiet value on a seconds timescale, on top of a constant non-QP background
# rate so quiet stretches still jump (at a constant, hence Poissonian,
# rate).  Ambient trapping is slower than in the pulse-recovery scenario so
# that the few-QP population state persists across several qubit dwells;
# that persistence is what makes the noisy stretches visibly non-Poissonian.
_QUIET_NOISY = {
    "duration": "160",
    "rng_seed": "101",
    "gamma_background": "2000",
    "qp_trapping": "1600",
    "qp_generation": "6.4e-5",
    "mod_quiet_generation": "3.2e-6",
    "mod_mean_quiet": "8",
    "mod_mean_noisy": "8",
}

PRESET_CONFIGS: dict[str, dict[str, str]] = {
    "quiet-noisy": dict(_QUIET_NOISY),
    # strong periodic generation pulses on top of the same alternation;
    # cycle = 100 us pulse + 5 us wait + 10 ms readout
    "qp-pulses": {
        **_QUIET_NOISY,
        "duration": "29.99164",
        "rng_seed": "102",
        "pulse_period": "10.105e-3",
        "pulse_length": "100e-6",
        "pulse_inject": "100",
        "pulse_count": "2968",
        "thermal_mass": "0.1",
    },
    # vortex traps from a field cool multiply the single-QP removal rate
    "field-cool": {
        **_QUIET_NOISY,
        "rng_seed": "103",
        "qp_trapping": "8000",
    },
    # lifetime recovery after injection, 1e4 pulse/readout cycles at the
    # pulse-calibrated kinetics (trap-limited, 125 us relaxation)
    "recovery": {
        "duration": "101.05",
        "rng_seed": "104",
        "gamma_background": "0",
        "pulse_period": "10.105e-3",
        "pulse_length": "100e-6",
        "pulse_inject": "10",
        "pulse_count": "10000",
    },
    # long alternation run for the lifetime-fluctuation spectrum; faster
    # switching and short averaging windows keep the spectral corner well
    # inside the accessible band at desk scale
    "psd": {
        **_QUIET_NOISY,
        "duration": "256",
        "rng_seed": "105",
        "mod_mean_quiet": "2",
        "mod_mean_noisy": "2",
    },
}

PSD_WINDOW = 0.1
PSD_SEGMENTS = 4


def preset_config(name: str, overrides: dict[str, str] | None = None,
                  seed: int | None = None) -> ScenarioConfig:
    """Scenario for a named experiment, with optional key overrides."""
    if name not in PRESET_CONFIGS:
        raise KeyError(name)
    keys = dict(PRESET_CONFIGS[name])
    if overrides:
        keys.update(overrides)
    if seed is not None:
        keys["rng_seed"] = str(seed)
    text = "\n".join(f"{k} = {v}" for k, v in keys.items())
    return validate_config(text)


def experiment_names() -> tuple[str, ...]:
    return tuple(PRESET_CONFIGS)


# ---------------------------------------------------------------------------
# pipeline stages shared by the CLI commands and the presets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SynthesizedRecord:
    """The record of a simulated trajectory, synthesized a range at a time.

    trajectory is an iterable of its consecutive SegmentLayers, which the
    record reads once, as its ranges reach them; duration is the
    trajectory's.
    blocks(bounds) yields samples bounds[k] to bounds[k + 1] - 1 as an
    IQRecord for each k: I, and Q when q_rng is given, float32 (4 B a
    sample, the record file's dtype).  Each quadrature's noise comes from
    one stream of float32 normals drawn in order, so bounds start at 0, and
    the ranges hold the whole record bit for bit.  The trajectory's
    segments and the streams are used up by one read, so the record is
    read once: a second blocks(...) loop raises ValueError before it
    draws anything.  One occupancy_blocks pass over the trajectory, cut
    at the bounds, serves the whole loop: each range takes its blocks from
    it, so the segments are read once, as the bins reach them.  events
    fills with the trajectory's event counts (tally_events) as its
    segments pass; after the last range the segments left, past the last
    whole bin, are read too, so it is whole once the loop has ended.  The
    caller draws the first range; while it works on a range, one worker
    thread fills the next range's noise, in arrays allocated on the
    caller's thread.  The worker lives as long as the generator: it is
    joined when the loop ends, raises or closes the generator, and a
    failed draw raises in the caller.  A one-range loop starts no thread.
    """

    trajectory: Iterable[SegmentLayers]
    duration: float
    meas: MeasurementParams
    i_rng: np.random.Generator
    q_rng: np.random.Generator | None = None
    events: Counter = field(default_factory=Counter, init=False)
    _read: bool = field(default=False, init=False, repr=False)

    @property
    def t_meas(self) -> float:
        return self.meas.t_meas

    def __len__(self) -> int:
        return sample_count(self.duration, self.meas.t_meas)

    def blocks(self, bounds):
        if bounds[0] != 0:
            raise ValueError(f"ranges from sample {bounds[0]}: a synthesized "
                             "record is read from sample 0")
        if self._read:
            raise ValueError("a synthesized record is read once: its trajectory "
                             "and noise streams were used up by the first read")
        self._read = True
        streams = [rng for rng in (self.i_rng, self.q_rng) if rng is not None]
        segments = tally_events(self.trajectory, self.events)
        occupancy = occupancy_blocks(segments, self.meas.t_meas, bounds)

        def fill(noise):
            for rng, out in zip(streams, noise):
                rng.standard_normal(out=out, dtype=np.float32)
            return noise

        def empty(k):  # on the caller's thread: the worker only fills them
            return [np.empty(bounds[k + 1] - bounds[k], dtype=np.float32)
                    for _ in streams]

        ahead = None
        with ThreadPoolExecutor(max_workers=1) as worker:
            for k in range(len(bounds) - 1):
                # range k's noise.  The arrays of range k - 1 go here,
                # before those of k + 1 are allocated: two ranges in flight
                i, *q = ahead.result() if ahead else fill(empty(k))
                if k + 2 < len(bounds):
                    ahead = worker.submit(fill, empty(k + 1))
                yield synthesize_iq(occupancy, self.meas, i, q[0] if q else None)
        # the segments past the last whole bin still count as events
        for _ in segments:
            pass


def _streams(config: ScenarioConfig) -> list[np.random.Generator]:
    """The streams spawned from the seed, one per stage: the QP layer, the
    qubit candidates, the acceptance uniforms, I noise and Q noise."""
    return np.random.default_rng(config.rng_seed).spawn(5)


def trajectory(config: ScenarioConfig):
    """The trajectory of one scenario as its consecutive SegmentLayers,
    sampled from the streams that simulate_record samples it from."""
    qp, candidates, uniforms, _, _ = _streams(config)
    return simulate_layers(config, qp, candidates, uniforms)


def simulate_record(config: ScenarioConfig, with_q: bool = True) -> SynthesizedRecord:
    """The record of one scenario, its trajectory sampled and its record
    synthesized as it is read; without Q when with_q is False.  No whole
    trajectory is held: the record's events hold its event counts."""
    noise_i, noise_q = _streams(config)[3:]
    return SynthesizedRecord(trajectory(config), config.duration, config.meas,
                             noise_i, noise_q if with_q else None)


def run_simulation(config: ScenarioConfig) -> tuple[TruthTrace, IQRecord]:
    """The whole trajectory and the whole synthesized measurement record,
    I and Q, for one scenario: the trace joined by simulate_joint, and
    simulate_record's record synthesized in one range, from the same
    streams sampled again."""
    qp, candidates, uniforms, _, _ = _streams(config)
    truth = simulate_joint(config, qp, candidates, uniforms)
    record = simulate_record(config)
    whole, = record.blocks([0, len(record)])
    return truth, whole


def filter_blocks(record, separation: float, size: int | None = None,
                  stop: int | None = None):
    """The hysteresis estimate of a record, one block at a time.

    record has t_meas, len() and blocks(bounds).  Blocks of size samples
    (_BLOCK by default) are read in order from 0; the block that
    reaches stop (by default the record's end) runs on to the end.  Each
    is filtered with the state carried in from the block before, so the
    yielded StateEstimates join into the whole record's estimate; only the
    block in hand is held.  Closing this generator closes the record's.
    """
    n = len(record)
    size = _BLOCK if size is None else size
    stop = n if stop is None else stop
    carry = None
    with contextlib.closing(record.blocks([*range(0, stop, size), n])) as blocks:
        for block in blocks:
            est = two_point_filter(block, separation, carry)
            del block  # freed before the range after the next is allocated
            carry = est.states[-1]
            yield est


def run_stats(
    record,
    separation: float,
    window: float = DEFAULT_WINDOW,
    bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
    dwells: str = "all",
) -> WindowedReport:
    """Windowed report of a record, with the dwells of the windows its
    caller writes histograms of.

    report.dwells maps a window's index to its dwells, for every window
    when dwells is "all" (stats), for the examples when it is "examples"
    (the alternation presets: the first window of the largest and the
    first of the smallest fidelity, np.nanargmax and np.nanargmin of
    fidelity_ground), and for none when it is "none" (psd).  Every other
    window's dwells are dropped as its block is reported on.

    record has t_meas, len() and blocks(bounds): an IQRecord, a
    SynthesizedRecord or an io.IQFile.  filter_blocks reads it in blocks
    of STATS_BLOCK samples rounded down to whole windows, at least one.
    The last block also holds the partial window at the end, which is
    dropped as split_windows drops it.  Each block's estimate is reported
    on window by window, so the report equals the whole record's byte for
    byte; no state outlives its block.  A window under 100 samples, a
    record shorter than one window, bins_per_decade under 1 or so large
    that a window's log grid, bins_per_decade * log10(samples) + 1 bins,
    has more bins than samples, or another dwells raises ValueError before
    any block is read.
    """
    if dwells not in ("all", "examples", "none"):
        raise ValueError(f"dwells must be all, examples or none, got {dwells!r}")
    n = len(record)
    per = window_samples(window, record.t_meas)
    n_windows = n // per
    if n_windows == 0:
        raise ValueError("record shorter than one window")
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be at least 1")
    # the log grid of a window's dwells, at most per samples long; a count
    # past per fails first, so no int too large for a float is multiplied
    if bins_per_decade > per or bins_per_decade * math.log10(per) + 1 > per:
        raise ValueError(f"bins_per_decade = {bins_per_decade} gives a window's dwell "
                         f"histogram more bins than its {per} samples")
    size = max(1, STATS_BLOCK // per) * per
    reports, kept = [], {}
    first = 0  # the block's first window
    # (F, window, dwells) of the example windows so far, by the side of F
    # they are on; a later window takes the place only with a better F
    examples = {}
    # closed as run_stats returns or raises, so the record's reads end here
    with contextlib.closing(filter_blocks(record, separation, size,
                                          n_windows * per)) as blocks:
        for est in blocks:
            report = windowed_report(est, window, bins_per_decade)
            f = report.fidelity_ground
            if dwells == "all":
                kept.update((first + w, d) for w, d in report.dwells.items())
            elif dwells == "examples" and np.isfinite(f).any():
                for side, w in ((np.greater, np.nanargmax(f)), (np.less, np.nanargmin(f))):
                    if side not in examples or side(f[w], examples[side][0]):
                        examples[side] = f[w], first + w, report.dwells[w]
            reports.append(replace(report, dwells={}))
            first += len(report)
    kept.update((w, d) for _, w, d in examples.values())

    def joined(column):
        return np.concatenate([getattr(r, column) for r in reports])

    width = reports[0].window
    return WindowedReport(
        window=width,
        t_start=np.arange(n_windows) * width,
        tau_ground=joined("tau_ground"),
        tau_excited=joined("tau_excited"),
        fidelity_ground=joined("fidelity_ground"),
        sigma_z=joined("sigma_z"),
        dwells=kept,
    )


def tau_fidelity_correlation(report: WindowedReport) -> float:
    """Correlation of the ground dwell mean with -log10(1 - F) over windows."""
    tau = report.tau_ground
    f = report.fidelity_ground
    good = np.isfinite(tau) & np.isfinite(f) & (f < 1.0)
    if good.sum() < 3:
        raise ValueError("not enough valid windows for a correlation")
    return cross_correlation(tau[good], -np.log10(1.0 - f[good]))


def write_dwell_histograms(out_dir, stem: str, dwells: DwellSet, t_meas: float,
                           bins_per_decade: int) -> list[str]:
    """{stem}_g.csv and {stem}_e.csv: the sample-weighted histogram of
    each state's dwells beside its constant-rate prediction, for each
    state that has dwells; returns the paths written."""
    written = []
    for state, durations in ((STATE_GROUND, dwells.ground), (STATE_EXCITED, dwells.excited)):
        if len(durations) == 0:
            continue
        hist = log_histogram(durations, t_meas, bins_per_decade)
        path = os.path.join(out_dir, f"{stem}_{io.STATE_CHARS[state]}.csv")
        io.write_histogram_csv(path, hist, poisson_prediction(hist))
        written.append(path)
    return written


def _alternation_summary(report: WindowedReport) -> dict[str, float]:
    """The key/value rows of an alternation preset's summary.csv."""
    summary = {}
    tau = report.tau_ground
    valid = np.isfinite(tau)
    if valid.any():
        summary["median_tau_g_s"] = median(tau[~np.isnan(tau)])
        summary["quiet_window_fraction"] = float(np.mean(tau[valid] > 4e-4))
    omf = report.one_minus_fidelity
    if np.isfinite(omf).any():
        summary["median_one_minus_f"] = median(omf[~np.isnan(omf)])
    try:
        summary["tau_fidelity_correlation"] = tau_fidelity_correlation(report)
    except ValueError:
        summary["tau_fidelity_correlation"] = math.nan
    return summary


def _write_alternation_outputs(out_dir, report: WindowedReport,
                               t_meas: float) -> list[str]:
    """report.csv, the most and least Poissonian windows' example
    histograms and summary.csv of an alternation preset; returns the paths."""
    report_path = os.path.join(out_dir, "report.csv")
    io.write_report_csv(report_path, report)
    outputs = [report_path]

    f = report.fidelity_ground
    if np.isfinite(f).any():
        for stem, w in (("example_quiet", np.nanargmax(f)), ("example_noisy", np.nanargmin(f))):
            outputs += write_dwell_histograms(out_dir, stem, report.dwells[w], t_meas,
                                              DEFAULT_BINS_PER_DECADE)

    summary_path = os.path.join(out_dir, "summary.csv")
    io.write_fit_report_csv(summary_path, _alternation_summary(report))
    outputs.append(summary_path)
    return outputs


def _alternation_driver(config, out_dir):
    record = simulate_record(config, with_q=False)
    report = run_stats(record, snr_separation(config.meas), dwells="examples")
    outputs = _write_alternation_outputs(out_dir, report, record.t_meas)
    counts = {**record.events, "samples": len(record), "windows": len(report)}
    return outputs, counts


# ---------------------------------------------------------------------------
# fit reports, shared by the presets and the fit commands
# ---------------------------------------------------------------------------

def write_psd_fit(fit_path, resid_path, fit: PsdFit, freqs, power) -> None:
    """Key/value report and residuals of a power-law spectrum fit."""
    io.write_fit_report_csv(fit_path, {
        "a": fit.a, "a_err": fit.a_err, "b": fit.b, "b_err": fit.b_err,
        "alpha": fit.alpha, "alpha_err": fit.alpha_err,
        "c": fit.c, "c_err": fit.c_err,
        "residual_norm": fit.residual_norm, "status": fit.status,
    })
    model = fit.model(freqs)
    io.write_residuals_csv(resid_path, power, model, power - model)


def write_recovery_fit(fit_path, resid_path, fit: RecoveryFit, times, tau_e,
                       qubit) -> None:
    """Key/value report and QP-density residuals of a recovery fit."""
    g_eff = fit.x_steady / fit.tau if fit.tau > 0 else math.nan  # False for NaN
    io.write_fit_report_csv(fit_path, {
        "tau_ss_s": fit.tau, "tau_ss_err_s": fit.tau_err,
        "x_steady": fit.x_steady, "x_steady_err": fit.x_steady_err,
        "x_initial": fit.x_initial, "x_initial_err": fit.x_initial_err,
        "g_eff_per_s": g_eff, "residual_norm": fit.residual_norm,
        "status": fit.status,
    })
    x = invert_relaxation(tau_e, qubit)
    model = fit.model(times)
    io.write_residuals_csv(resid_path, x, model, x - model)


# ---------------------------------------------------------------------------
# recovery experiment
# ---------------------------------------------------------------------------

def recovery_bin_edges(config: ScenarioConfig) -> np.ndarray:
    """Log-spaced bins after each injection; the last ends at the next pulse.

    A pulse_wait that reaches the next pulse leaves no bin, and a last
    readout window past the duration (with sample_count's relative slack)
    would bin time that is not simulated: ValueError for either.
    """
    lo = max(config.pulse_wait, 1e-7)
    hi = config.pulse_periodic.period - config.pulse_periodic.length
    if lo >= hi:
        raise ValueError(f"pulse_wait = {config.pulse_wait:g} s must be shorter than "
                         f"the {hi:g} s readout window from a pulse's end to the next")
    end = float(config.pulse_start[-1] + config.pulse_length[-1]) + hi
    if end > config.duration * (1.0 + 1e-12):
        raise ValueError(f"the train's last readout window ends at {end:.12g} s, past "
                         f"duration = {config.duration:.12g} s")
    n = int(math.ceil(math.log10(hi / lo) * RECOVERY_BINS_PER_DECADE))
    return np.minimum(lo * 10.0 ** (np.arange(n + 1) / RECOVERY_BINS_PER_DECADE), hi)


def recovery_chunk_stats(
    layers, config: ScenarioConfig, rel_edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(excited exposure, jump count, jump-time sum) per post-injection bin
    of the config's periodic train, from the qubit's flips alone.  The
    train is read from the config's pulse arrays: its first pulse's end,
    pulse_start[0] + pulse_length[0], its pulse count and its period.  It
    reads a whole trajectory; the name, which the benchmark's tracer
    hooks, is from when it read chunks, and ROADMAP item 2 may rename it.

    layers is an iterable of consecutive jumpsim.SegmentLayers, as
    simulate_layers yields them, read in one pass for their flips; the
    QP knots are not read.  A segment's flips alternate from its before
    state, and the first segment's excited start counts as a flip at
    t = 0.  Each segment is binned as it arrives, into sums that do not
    depend on where the segments are cut.  A flip at t is in cycle q and
    at r after its pulse's end, (q, r) = divmod(t - first pulse end,
    period), and in the bin [e_k, e_(k+1)) of rel_edges that holds r, if
    q is one of the train's pulses.  Bin k's exposure is w_k * X_k plus
    its flips' shares, +-(e_(k+1) - r), + for a flip to excited, as
    occupancy_blocks adds a readout bin's; the shares are summed from 0
    in time order (np.add.at).  X_k, the pulses excited at edge k, is X_0
    plus the net flips in the bins before k, whole numbers and so exact.
    X_0, the pulses excited just before their first edge, sums each flip's
    sign times the number of first edges after it; a flip on a first edge
    is in bin 0, not before the edge.  The jumps are the flips to ground,
    and their time is r, also summed in time order.
    """
    first = float(config.pulse_start[0] + config.pulse_length[0])
    period = config.pulse_periodic.period
    n = len(config.pulse_start)
    nbins = len(rel_edges) - 1
    x0 = 0.0
    net, shares, counts, t_sum = (np.zeros(nbins) for _ in range(4))
    for k, segment in enumerate(layers):
        flips, state = segment.flips, segment.before[1]
        if k == 0 and state == STATE_EXCITED:
            flips, state = np.concatenate(([0.0], flips)), STATE_GROUND
        cycle, rel = np.divmod(flips - first, period)
        sign = np.ones(len(rel))
        sign[int(state == STATE_GROUND)::2] = -1.0  # the flips to ground
        idx = np.searchsorted(rel_edges, rel, side="right") - 1
        x0 += np.sum(sign * (n - np.clip(cycle + (idx >= 0), 0, n)))

        ok = (idx >= 0) & (idx < nbins) & (cycle >= 0) & (cycle < n)
        idx, rel, sign = idx[ok], rel[ok], sign[ok]
        net += np.bincount(idx, weights=sign, minlength=nbins)
        np.add.at(shares, idx, sign * (rel_edges[idx + 1] - rel))
        jump = sign < 0
        counts += np.bincount(idx[jump], minlength=nbins)
        np.add.at(t_sum, idx[jump], rel[jump])
    exposure = np.diff(rel_edges) * (x0 + np.cumsum(net) - net) + shares
    return exposure, counts, t_sum


def run_recovery(config: ScenarioConfig):
    """Post-injection lifetime profile and its exponential-recovery fit.

    The config's one trajectory, trajectory(config), runs to the duration
    as simulate's does and is read once, as the sampler yields its
    segments: tally_events counts their lengths as events, and
    recovery_chunk_stats bins each one's flips as it arrives, so no trace
    is held whole.  The mean excited dwell per log-spaced time bin is
    estimated as exposure / jump count (bins with fewer than MIN_JUMPS
    jumps are dropped), and the density recovery is fitted through the
    relaxation-rate inversion.  A config without a periodic train, or
    one that recovery_bin_edges refuses, raises ValueError before anything
    is simulated.  Returns (times, tau_e, jump counts, fit, event counts).
    """
    if config.pulse_periodic is None:
        raise ValueError("recovery needs a periodic pulse train")
    edges = recovery_bin_edges(config)
    events = Counter()
    exposure, counts, t_sum = recovery_chunk_stats(
        tally_events(trajectory(config), events), config, edges)

    good = counts >= MIN_JUMPS
    times = t_sum[good] / counts[good]
    tau_e = exposure[good] / counts[good]
    fit = fit_recovery(times, tau_e, config.qubit)
    return times, tau_e, counts[good], fit, dict(events)


def _recovery_driver(config, out_dir):
    times, tau_e, n_jumps, fit, events = run_recovery(config)

    tau_path = os.path.join(out_dir, "tau_e.csv")
    io.write_csv(tau_path, "t_s,tau_e_s,n_jumps",
                 [(times, tau_e, n_jumps.astype(np.int64))])

    resid_path = os.path.join(out_dir, "residuals.csv")
    fit_path = os.path.join(out_dir, "recovery_fit.csv")
    write_recovery_fit(fit_path, resid_path, fit, times, tau_e, config.qubit)
    counts = {**events, "bins": len(times)}
    return [tau_path, resid_path, fit_path], counts


def _psd_driver(config, out_dir):
    record = simulate_record(config, with_q=False)
    # no histogram is written, so no dwells are kept
    report = run_stats(record, snr_separation(config.meas), window=PSD_WINDOW,
                       dwells="none")

    outputs = []
    series_path = os.path.join(out_dir, "series.csv")
    io.write_series_csv(series_path, report.t_start, report.tau_ground, "tau_g_s")
    outputs.append(series_path)

    freqs, power = periodogram(report.tau_ground, report.window,
                               n_segments=PSD_SEGMENTS)
    psd_path = os.path.join(out_dir, "psd.csv")
    io.write_series_csv(psd_path, freqs, power, "power")
    outputs.append(psd_path)

    fit = fit_power_law(freqs, power)
    fit_path = os.path.join(out_dir, "psd_fit.csv")
    resid_path = os.path.join(out_dir, "residuals.csv")
    write_psd_fit(fit_path, resid_path, fit, freqs, power)
    outputs += [fit_path, resid_path]

    counts = {**record.events, "samples": len(record), "windows": len(report),
              "frequencies": len(freqs)}
    return outputs, counts


_DRIVERS = {
    "quiet-noisy": _alternation_driver,
    "qp-pulses": _alternation_driver,
    "field-cool": _alternation_driver,
    "recovery": _recovery_driver,
    "psd": _psd_driver,
}


def run_experiment(name: str, config: ScenarioConfig, out_dir, workers: int = 1):
    """Run a named experiment into out_dir, serially; returns (output
    paths, record counts).  out_dir is made with the first file written,
    so an experiment that fails before it leaves no directory.  workers
    takes only 1 (ValueError otherwise)."""
    # kept for the benchmark's workloads, which pass workers=1; the
    # benchmark's next edit (ROADMAP item 1) drops them and this keyword
    if workers != 1:
        raise ValueError(f"experiments run serially: workers must be 1, got {workers}")
    return _DRIVERS[name](config, out_dir)
