"""Trajectory recovery and jump statistics.

The filter turns noisy quadrature samples into a binary state estimate with
hysteresis thresholds placed half a standard deviation from each jump
destination.  Dwell statistics use sample-weighted logarithmic histograms:
every sample inside a dwell adds one count to the bin of that dwell's
duration, so the histogram estimates tau*p(tau) and a constant-rate process
is predicted analytically from the measured mean dwell alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jumpsim import _BLOCK, IQRecord, STATE_EXCITED, STATE_GROUND, run_starts

LN10 = math.log(10.0)
# ground dwells a window needs for its fidelity: the overlap of a
# near-empty histogram is noise
MIN_DWELLS = 20


@dataclass(frozen=True)
class StateEstimate:
    """Binary state trajectory estimated from a measurement record, one
    state per sample of length t_meas."""

    t_meas: float
    states: np.ndarray  # uint8, STATE_GROUND / STATE_EXCITED

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class DwellSet:
    """Interior dwell durations per state, in seconds."""

    ground: np.ndarray
    excited: np.ndarray


@dataclass(frozen=True)
class DwellHistogram:
    """Sample-weighted dwell histogram on a uniform log-time grid.

    counts[i] is the number of samples whose dwell duration falls in
    [edges[i], edges[i+1]); log_width is the constant bin width in log10
    units; tau_mean is the plain per-dwell mean duration.
    """

    edges: np.ndarray
    log_width: float
    counts: np.ndarray
    total: float
    tau_mean: float

    def centers(self) -> np.ndarray:
        return np.sqrt(self.edges[:-1] * self.edges[1:])


def _threshold(value: float, dtype: np.dtype, up: bool):
    """value rounded outward to dtype: up for a `<` test, down for a `>`
    test.  For every sample x of dtype, x < t (x > t) then decides as the
    exact comparison of x with the float64 value does, whatever numpy's
    casting rules.  A value past dtype's range is clamped to it before the
    cast, so nothing overflows; one step outward from there is infinite."""
    big = float(np.finfo(dtype).max)
    t = dtype.type(min(max(value, -big), big))
    if float(t) != value and (float(t) < value) == up:
        with np.errstate(over="ignore"):
            t = np.nextafter(t, dtype.type(math.inf if up else -math.inf))
    return t


def two_point_filter(iq: IQRecord, separation: float,
                     initial: int | None = None) -> StateEstimate:
    """Hysteresis state estimate from the I quadrature.

    A jump to the excited state is declared when I drops below
    -separation + 1/2, a jump back when I rises above separation - 1/2
    (thresholds half a sigma from the jump destination); otherwise the
    previous state is kept.  initial is the state standing before the
    first sample: the last state of the block before, when a record is
    filtered in blocks, so that the blocks' estimates join into the
    whole record's.  By default it is the sign of the first sample.
    The samples are compared in their own float dtype (float32 in a
    synthesized or read record), against thresholds rounded outward to
    it, so no block is cast.
    """
    if not 1.0 < separation < math.inf:  # NaN fails it too
        raise ValueError(f"separation must be finite and exceed 1 for distinct "
                         f"thresholds, got {separation}")
    i = np.asarray(iq.i)
    if len(i) == 0:
        raise ValueError("empty record")
    to_excited = _threshold(-separation + 0.5, i.dtype, up=True)
    to_ground = _threshold(separation - 0.5, i.dtype, up=False)

    # forward fill of the last decided sample, one block at a time, as a
    # running maximum of int32 keys: a decided sample's key is 2 * position
    # + its state, and the state carried in from the previous block stands
    # at position 0, as the key of sample 0 at least; the maximum's parity
    # is the state (STATE_GROUND / STATE_EXCITED are 0 / 1)
    states = np.empty(len(i), dtype=np.uint8)
    carry = initial
    if carry is None:
        carry = STATE_GROUND if i[0] >= 0 else STATE_EXCITED
    position = np.arange(2, 2 * _BLOCK + 1, 2, dtype=np.int32)
    excited = np.empty(_BLOCK, dtype=bool)
    decided = np.empty(_BLOCK, dtype=bool)
    key = np.empty(_BLOCK, dtype=np.int32)
    for lo in range(0, len(i), _BLOCK):
        x = i[lo:lo + _BLOCK]
        m = len(x)
        e, d, k = excited[:m], decided[:m], key[:m]
        np.less(x, to_excited, out=e)
        np.greater(x, to_ground, out=d)
        d |= e
        np.multiply(d, position[:m], out=k)
        k += e
        k[0] = max(k[0], carry)
        np.maximum.accumulate(k, out=k)
        np.bitwise_and(k, 1, out=states[lo:lo + m], casting="unsafe")
        carry = int(states[lo + m - 1])
    return StateEstimate(t_meas=iq.t_meas, states=states)


def extract_dwells(est: StateEstimate) -> DwellSet:
    """Interior dwell durations: maximal runs bounded by a jump on each side.

    The first and last runs touch the record edges and are discarded to
    avoid censoring bias; fewer than three runs therefore give no dwells.
    """
    starts = run_starts(est.states)
    run_states = est.states[starts[1:-1]]
    durations = np.diff(starts[1:]).astype(float) * est.t_meas
    return DwellSet(
        ground=durations[run_states == STATE_GROUND],
        excited=durations[run_states == STATE_EXCITED],
    )


def log_histogram(
    dwells,
    t_meas: float,
    bins_per_decade: int = 10,
) -> DwellHistogram:
    """Sample-weighted histogram of dwell durations on a log grid.

    A dwell of k samples (k = duration / t_meas, rounded) contributes k
    counts to the bin containing k * t_meas.  Bins start at t_meas, the
    shortest resolvable dwell.
    """
    dwells = np.asarray(dwells, dtype=float)
    if len(dwells) == 0:
        raise ValueError("no dwells to histogram")
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be at least 1")
    k = np.rint(dwells / t_meas).astype(np.int64)
    k = k[k >= 1]
    if len(k) == 0:
        raise ValueError("all dwells shorter than half a sample")
    tau = k.astype(float) * t_meas

    log_width = 1.0 / bins_per_decade
    # uniform grid in log10(tau / t_meas); epsilon guards exact-edge values
    pos = np.log10(tau / t_meas) * bins_per_decade + 1e-9
    idx = np.floor(pos).astype(np.int64)
    n_bins = int(idx.max()) + 1
    counts = np.bincount(idx, weights=k.astype(float), minlength=n_bins)
    edges = t_meas * 10.0 ** (log_width * np.arange(n_bins + 1))
    return DwellHistogram(
        edges=edges,
        log_width=log_width,
        counts=counts,
        total=float(counts.sum()),
        tau_mean=float(tau.mean()),
    )


def poisson_prediction(hist: DwellHistogram) -> np.ndarray:
    """Expected sample-weighted counts per bin for a constant-rate process.

    Evaluated at the geometric bin centers; normalized so the predicted
    total matches the measured total up to log-grid discretization.
    """
    if hist.total <= 0 or hist.tau_mean <= 0:
        raise ValueError("histogram must contain counts and a positive mean dwell")
    tau = hist.centers()
    tbar = hist.tau_mean
    return (
        hist.total * hist.log_width / tbar * LN10 * tau * (tau / tbar) * np.exp(-tau / tbar)
    )


def fidelity(measured, predicted) -> float:
    """Bhattacharyya overlap sum(sqrt(M*P)) / sum(M) of two histograms."""
    m = np.asarray(measured, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if m.shape != p.shape:
        raise ValueError("histograms must have matching shapes")
    if np.any(p < 0) or np.any(m < 0):
        raise ValueError("histogram values must be non-negative")
    total = m.sum()
    if total <= 0:
        raise ValueError("fidelity undefined for an all-zero measured histogram")
    return float(np.sqrt(m * p).sum() / total)


def polarization(est: StateEstimate) -> tuple[float, float]:
    """(excited-state fraction, mean polarization p_g - p_e)."""
    states = np.asarray(est.states)
    if len(states) == 0:
        raise ValueError("empty estimate")
    p_e = float(np.mean(states == STATE_EXCITED))
    return p_e, 1.0 - 2.0 * p_e


def cross_correlation(a, b) -> float:
    """Normalized cross-correlation of two equal-length series, in [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be 1-d with equal lengths")
    if len(a) < 2:
        raise ValueError("need at least two points")
    sa = a.std()
    sb = b.std()
    if sa == 0 or sb == 0:
        raise ValueError("cross-correlation undefined for a constant series")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


@dataclass(frozen=True)
class WindowedReport:
    """Per-window dwell statistics over non-overlapping windows.

    Entries are NaN where a window had no interior dwells of the needed
    state, or too few ground dwells for a meaningful fidelity.  dwells[w]
    holds window w's dwells, which the histogram writers read, for the
    windows whose dwells were kept (every window's from windowed_report).
    """

    window: float
    t_start: np.ndarray
    tau_ground: np.ndarray
    tau_excited: np.ndarray
    fidelity_ground: np.ndarray
    sigma_z: np.ndarray
    dwells: dict[int, DwellSet]

    @property
    def one_minus_fidelity(self) -> np.ndarray:
        return 1.0 - self.fidelity_ground

    def __len__(self) -> int:
        return len(self.t_start)


def window_samples(window: float, t_meas: float) -> int:
    """Samples in a window of `window` seconds, round(window / t_meas);
    windows that are not finite, are shorter than 100 samples or hold a
    count of samples that is not finite are refused."""
    if not math.isfinite(window):
        raise ValueError(f"window must be a finite number of seconds, got {window}")
    if window < 100 * t_meas:
        raise ValueError("window must cover at least 100 samples")
    samples = window / t_meas
    if not math.isfinite(samples):
        raise ValueError(f"window = {window:g} s at t_meas = {t_meas:g} s holds "
                         f"{samples} samples, not a finite count")
    return int(round(samples))


def split_windows(est: StateEstimate, window: float) -> list[StateEstimate]:
    """Consecutive windows of round(window / t_meas) samples each, as views
    of est; a partial window at the end is dropped."""
    samples = int(round(window / est.t_meas))
    states = np.asarray(est.states)
    return [
        StateEstimate(t_meas=est.t_meas, states=states[lo:lo + samples])
        for lo in range(0, len(states) - samples + 1, samples)
    ]


def windowed_report(
    est: StateEstimate,
    window: float,
    bins_per_decade: int = 10,
) -> WindowedReport:
    """Dwells, their means, ground-state Poisson fidelity and polarization per window.

    Windows shorter than 100 samples are refused; windows with fewer than
    MIN_DWELLS interior ground dwells get a NaN fidelity.
    """
    window_samples(window, est.t_meas)
    windows = split_windows(est, window)
    n_windows = len(windows)
    if n_windows == 0:
        raise ValueError("record shorter than one window")

    width = len(windows[0]) * est.t_meas
    t0 = np.arange(n_windows) * width
    tau_g = np.full(n_windows, np.nan)
    tau_e = np.full(n_windows, np.nan)
    fid = np.full(n_windows, np.nan)
    sig = np.empty(n_windows)
    found = [extract_dwells(sub) for sub in windows]
    for w, (sub, dwells) in enumerate(zip(windows, found)):
        p_e, sig[w] = polarization(sub)
        if len(dwells.ground) > 0:
            tau_g[w] = dwells.ground.mean()
        if len(dwells.excited) > 0:
            tau_e[w] = dwells.excited.mean()
        if len(dwells.ground) >= MIN_DWELLS:
            hist = log_histogram(dwells.ground, est.t_meas, bins_per_decade)
            fid[w] = fidelity(hist.counts, poisson_prediction(hist))
    return WindowedReport(
        window=width,
        t_start=t0,
        tau_ground=tau_g,
        tau_excited=tau_e,
        fidelity_ground=fid,
        sigma_z=sig,
        dwells=dict(enumerate(found)),
    )
