"""Named experiment presets and their analysis drivers.

Each preset is a set of configuration overrides on top of the defaults plus
a driver that runs the simulate / filter / stats chain and writes the
figure-ready CSVs.  Presets reuse the exact same pipeline functions as the
individual CLI commands, so composing `simulate` and `stats` by hand on the
same seed reproduces an experiment's outputs byte for byte.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import io
from .analysis import (
    StateEstimate,
    WindowedReport,
    cross_correlation,
    extract_dwells,
    log_histogram,
    poisson_prediction,
    split_windows,
    two_point_filter,
    windowed_report,
)
from .core import ScenarioConfig, validate_config
from .fitting import (
    PsdFit,
    RecoveryFit,
    fit_power_law,
    fit_recovery,
    invert_relaxation,
    periodogram,
)
from .jumpsim import (
    IQRecord,
    STATE_EXCITED,
    STATE_GROUND,
    TruthTrace,
    excited_time_at,
    relaxation_jump_times,
    simulate_joint,
    snr_separation,
    synthesize_iq,
)

DEFAULT_WINDOW = 1.0
DEFAULT_BINS_PER_DECADE = 10
RECOVERY_CHUNK_CYCLES = 500
RECOVERY_BINS_PER_DECADE = 8
# post-injection bins with fewer relaxation jumps are left out of the fit
MIN_JUMPS = 25

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

def run_simulation(config: ScenarioConfig) -> tuple[TruthTrace, IQRecord]:
    """Trajectory plus synthesized measurement record for one scenario.

    Each stage draws from its own stream spawned from the seed: the QP
    layer, the qubit candidates, the acceptance uniforms, I noise, Q noise.
    """
    qp, candidates, uniforms, noise_i, noise_q = np.random.default_rng(
        config.rng_seed).spawn(5)
    truth = simulate_joint(config, qp, candidates, uniforms)
    iq = synthesize_iq(truth, config.meas, noise_i, noise_q)
    return truth, iq


def run_stats(
    iq: IQRecord,
    separation: float,
    window: float = DEFAULT_WINDOW,
    bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
) -> tuple[StateEstimate, WindowedReport]:
    est = two_point_filter(iq, separation)
    return est, windowed_report(est, window, bins_per_decade)


def tau_fidelity_correlation(report: WindowedReport) -> float:
    """Correlation of the ground dwell mean with -log10(1 - F) over windows."""
    tau = report.tau_ground
    f = report.fidelity_ground
    good = np.isfinite(tau) & np.isfinite(f) & (f < 1.0)
    if good.sum() < 3:
        raise ValueError("not enough valid windows for a correlation")
    return cross_correlation(tau[good], -np.log10(1.0 - f[good]))


def _write_window_histograms(out_dir, window: StateEstimate, tag):
    dwells = extract_dwells(window)
    written = []
    for state, durations in ((STATE_GROUND, dwells.ground), (STATE_EXCITED, dwells.excited)):
        if len(durations) == 0:
            continue
        hist = log_histogram(durations, window.t_meas, DEFAULT_BINS_PER_DECADE)
        path = os.path.join(out_dir, f"example_{tag}_{io.STATE_CHARS[state]}.csv")
        io.write_histogram_csv(path, hist, poisson_prediction(hist))
        written.append(path)
    return written


def _alternation_driver(config, out_dir, workers):
    truth, iq = run_simulation(config)
    est, report = run_stats(iq, snr_separation(config.meas))

    outputs = []
    report_path = os.path.join(out_dir, "report.csv")
    io.write_report_csv(report_path, report)
    outputs.append(report_path)

    summary = {}
    tau = report.tau_ground
    valid = np.isfinite(tau)
    if valid.any():
        summary["median_tau_g_s"] = float(np.nanmedian(tau))
        summary["quiet_window_fraction"] = float(np.mean(tau[valid] > 4e-4))
    omf = report.one_minus_fidelity
    if np.isfinite(omf).any():
        summary["median_one_minus_f"] = float(np.nanmedian(omf))
    try:
        summary["tau_fidelity_correlation"] = tau_fidelity_correlation(report)
    except ValueError:
        summary["tau_fidelity_correlation"] = math.nan

    # most/least Poissonian windows as example histogram pairs
    f = report.fidelity_ground
    if np.isfinite(f).any():
        windows = split_windows(est, report.window)
        outputs += _write_window_histograms(out_dir, windows[int(np.nanargmax(f))], "quiet")
        outputs += _write_window_histograms(out_dir, windows[int(np.nanargmin(f))], "noisy")

    summary_path = os.path.join(out_dir, "summary.csv")
    io.write_fit_report_csv(summary_path, summary)
    outputs.append(summary_path)
    counts = {**truth.event_counts(), "samples": len(iq), "windows": len(report)}
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
    """Log-spaced bins after each injection; the last ends at the next pulse."""
    lo = max(config.pulse_wait, 1e-7)
    hi = config.pulse_periodic.period - config.pulse_periodic.length
    n = int(math.ceil(math.log10(hi / lo) * RECOVERY_BINS_PER_DECADE))
    return np.minimum(lo * 10.0 ** (np.arange(n + 1) / RECOVERY_BINS_PER_DECADE), hi)


def recovery_chunk_stats(
    truth: TruthTrace, config: ScenarioConfig, rel_edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(excited exposure, jump count, jump-time sum) per post-injection bin
    of the config's periodic train; a jump's time counts from the end of
    the pulse before it."""
    pulse_ends = np.array([p.end for p in config.pulses])
    abs_edges = (pulse_ends[:, None] + rel_edges[None, :]).ravel()
    cum = excited_time_at(truth, abs_edges).reshape(len(pulse_ends), len(rel_edges))
    exposure = np.diff(cum, axis=1).sum(axis=0)

    jumps = relaxation_jump_times(truth)
    rel = (jumps - pulse_ends[0]) % config.pulse_periodic.period
    idx = np.searchsorted(rel_edges, rel, side="right") - 1
    ok = (idx >= 0) & (idx < len(rel_edges) - 1) & (jumps >= pulse_ends[0])
    idx = idx[ok]
    nbins = len(rel_edges) - 1
    counts = np.bincount(idx, minlength=nbins).astype(float)
    t_sum = np.bincount(idx, weights=rel[ok], minlength=nbins)
    return exposure, counts, t_sum


def _recovery_chunk(args):
    config, seed_seq = args
    truth = simulate_joint(config, *np.random.default_rng(seed_seq).spawn(3))
    stats = recovery_chunk_stats(truth, config, recovery_bin_edges(config))
    return stats + (truth.event_counts(),)


def run_recovery(config: ScenarioConfig, workers: int = 1):
    """Post-injection lifetime profile and its exponential-recovery fit.

    The pulse train is split into fixed-size chunks simulated with spawned
    seeds (results are identical for any worker count).  Each chunk keeps
    the train's first pulse start and ends with its last readout window.
    The mean excited dwell per log-spaced time bin is estimated as
    exposure / jump count (bins with fewer than MIN_JUMPS jumps are
    dropped), and the density recovery is fitted through the
    relaxation-rate inversion.  Returns
    (times, tau_e, jump counts, fit, event counts summed over the chunks).
    """
    train = config.pulse_periodic
    if train is None:
        raise ValueError("recovery needs a periodic pulse train")
    n_chunks = max(1, math.ceil(train.count / RECOVERY_CHUNK_CYCLES))
    jobs = []
    for k, seed in enumerate(np.random.SeedSequence(config.rng_seed).spawn(n_chunks)):
        cycles = min(RECOVERY_CHUNK_CYCLES, train.count - k * RECOVERY_CHUNK_CYCLES)
        chunk_config = replace(config, duration=train.first + cycles * train.period,
                               pulse_periodic=replace(train, count=cycles))
        jobs.append((chunk_config, seed))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_recovery_chunk, jobs))
    else:
        results = [_recovery_chunk(job) for job in jobs]

    exposure = np.sum([r[0] for r in results], axis=0)
    counts = np.sum([r[1] for r in results], axis=0)
    t_sum = np.sum([r[2] for r in results], axis=0)
    events = {key: sum(r[3][key] for r in results) for key in results[0][3]}

    good = counts >= MIN_JUMPS
    times = t_sum[good] / counts[good]
    tau_e = exposure[good] / counts[good]
    fit = fit_recovery(times, tau_e, config.qubit)
    return times, tau_e, counts[good], fit, events


def _recovery_driver(config, out_dir, workers):
    times, tau_e, n_jumps, fit, events = run_recovery(config, workers=workers)

    tau_path = os.path.join(out_dir, "tau_e.csv")
    lines = ["t_s,tau_e_s,n_jumps"]
    lines += [
        f"{t:.9g},{tau:.9g},{int(n)}" for t, tau, n in zip(times, tau_e, n_jumps)
    ]
    io.atomic_write_text(tau_path, "\n".join(lines) + "\n")

    resid_path = os.path.join(out_dir, "residuals.csv")
    fit_path = os.path.join(out_dir, "recovery_fit.csv")
    write_recovery_fit(fit_path, resid_path, fit, times, tau_e, config.qubit)
    counts = {**events, "bins": len(times)}
    return [tau_path, resid_path, fit_path], counts


def _psd_driver(config, out_dir, workers):
    truth, iq = run_simulation(config)
    est, report = run_stats(iq, snr_separation(config.meas), window=PSD_WINDOW)

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

    counts = {**truth.event_counts(), "samples": len(iq), "windows": len(report),
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
    """Run a named experiment; returns (output paths, record counts)."""
    os.makedirs(out_dir, exist_ok=True)
    return _DRIVERS[name](config, out_dir, workers)
