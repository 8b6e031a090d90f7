"""Spectral estimation and nonlinear least-squares fits.

Three models are fitted here: a power-law-plus-floor spectrum
A / (B + (2 pi f)^alpha) + C for the slow lifetime fluctuations, an
exponential recovery of the QP density after an injection pulse, and an
exponential temperature decay.  The spectrum is fitted in log-power space
(it spans several decades) by a Nelder-Mead simplex seeded from a coarse
grid over alpha; the exponential models use bounded least squares with a
small grid of time-constant seeds.  Standard errors come from a seeded
residual bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .core import QubitParams
from .jumpsim import qp_rate_coefficient

ALPHA_MIN, ALPHA_MAX = 0.5, 3.0
N_BOOTSTRAP = 200


class FitInputError(ValueError):
    """The data handed to a fitter cannot support the requested model."""


class FitConvergenceError(RuntimeError):
    """Optimizer hit its iteration cap; .best holds the best fit so far."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# periodogram
# ---------------------------------------------------------------------------

def periodogram(series, dt: float, n_segments: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density of a uniformly sampled series.

    Density normalization: sum(power) * df equals the variance of the
    mean-removed series (Parseval).  NaN entries (missing windows) are
    imputed with the series mean.  The DC bin is never returned.  With
    n_segments > 1 the series is split into equal segments and their
    periodograms averaged (Welch-style, rectangular window).
    """
    x = np.asarray(series, dtype=float).copy()
    if x.ndim != 1 or len(x) < 16:
        raise ValueError("need a 1-d series of at least 16 samples")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_segments < 1:
        raise ValueError("n_segments must be at least 1")
    bad = ~np.isfinite(x)
    if bad.all():
        raise ValueError("series has no finite values")
    if bad.any():
        x[bad] = x[~bad].mean()

    seg_len = len(x) // n_segments
    if seg_len < 16:
        raise ValueError("segments shorter than 16 samples")
    spectra = []
    for s in range(n_segments):
        seg = x[s * seg_len:(s + 1) * seg_len]
        seg = seg - seg.mean()
        fx = np.fft.rfft(seg)
        power = (2.0 * dt / seg_len) * np.abs(fx) ** 2
        if seg_len % 2 == 0:
            power[-1] /= 2.0  # Nyquist bin is not doubled
        spectra.append(power[1:])
    freqs = np.fft.rfftfreq(seg_len, dt)[1:]
    return freqs, np.mean(spectra, axis=0)


# ---------------------------------------------------------------------------
# power-law spectrum fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdFit:
    """Parameters of A / (B + (2 pi f)^alpha) + C with bootstrap errors."""

    a: float
    b: float
    alpha: float
    c: float
    a_err: float
    b_err: float
    alpha_err: float
    c_err: float
    residual_norm: float
    status: str = "converged"

    def model(self, freqs) -> np.ndarray:
        w = 2.0 * math.pi * np.asarray(freqs, dtype=float)
        return self.a / (self.b + w ** self.alpha) + self.c


def _psd_log_model(theta: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    ln_a, ln_b, alpha, ln_c = theta
    return np.log(np.exp(ln_a) / (np.exp(ln_b) + np.exp(alpha * log_w)) + np.exp(ln_c))


def _psd_cost(theta, log_w, log_p):
    if not ALPHA_MIN <= theta[2] <= ALPHA_MAX:
        return np.inf
    if abs(theta[0]) > 700 or abs(theta[1]) > 700 or abs(theta[3]) > 700:
        return np.inf
    r = _psd_log_model(theta, log_w) - log_p
    return float(r @ r)

def _nelder_mead(cost, theta0, args, maxfev=6000):
    return optimize.minimize(
        cost, theta0, args=args, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": maxfev, "maxiter": maxfev},
    )


def _psd_solve(log_w, log_p, theta0=None):
    """Best (a, b, alpha, c, scale-corrected) parameters for one data vector.

    Shape is fitted by least squares in log power (grid-seeded simplex, or a
    local refinement when theta0 is given).  A log fit of exponentially
    scattered periodogram bins underestimates the absolute scale by a
    constant factor, so a and c are rescaled afterwards by the mean
    data/model ratio, which is exactly 1 for noiseless model input and
    unbiased for periodogram scatter.  Spectra that a bare floor explains
    within 1% keep only the floor term (a = 0).
    """
    ln_c_floor = float(np.mean(log_p))
    sse_floor = float(np.sum((log_p - ln_c_floor) ** 2))

    if theta0 is not None:
        starts = [theta0]
    else:
        power = np.exp(log_p)
        order = np.argsort(log_w)
        low = float(np.median(power[order[:5]]))
        high = float(np.median(power[order[-5:]]))
        mid = float(np.median(power))
        w_min = float(np.exp(log_w.min()))
        w_mid = float(np.exp(np.median(log_w)))
        starts = []
        for alpha0 in np.arange(ALPHA_MIN, ALPHA_MAX + 1e-9, 0.25):
            c0 = max(min(high, low) * 0.5, 1e-300)
            for b0 in (w_min ** alpha0, (0.03 * w_min) ** alpha0):
                a0 = max(low - c0, low * 0.1) * (b0 + w_min ** alpha0)
                starts.append([math.log(a0), math.log(b0), alpha0, math.log(c0)])
            a_mid = max(mid - c0, mid * 0.1) * w_mid ** alpha0
            starts.append([math.log(a_mid), math.log((0.03 * w_min) ** alpha0),
                           alpha0, math.log(c0)])

    best = None
    any_converged = False
    for start in starts:
        res = _nelder_mead(_psd_cost, np.asarray(start, dtype=float), (log_w, log_p))
        any_converged = any_converged or res.success
        if best is None or res.fun < best.fun:
            best = res
    res = _nelder_mead(_psd_cost, best.x, (log_w, log_p))
    if res.fun <= best.fun:
        best = res
        any_converged = any_converged or res.success

    theta = best.x
    if sse_floor - best.fun < 0.01 * sse_floor:
        # the colored term buys essentially nothing: report a pure floor
        a, b, alpha = 0.0, math.exp(theta[1]), float(theta[2])
        model_log = np.full_like(log_p, ln_c_floor)
        c = math.exp(ln_c_floor)
    else:
        a, b, alpha, c = (math.exp(theta[0]), math.exp(theta[1]),
                          float(theta[2]), math.exp(theta[3]))
        model_log = _psd_log_model(theta, log_w)
    resid = log_p - model_log
    scale = float(np.mean(np.exp(resid)))
    return (a * scale, b, alpha, c * scale), theta, resid, any_converged


def fit_power_law(freqs, power, n_boot: int = N_BOOTSTRAP, seed: int = 0) -> PsdFit:
    """Fit the power-law-plus-floor spectrum in log-power space.

    Requires at least 8 positive-power points spanning 1.5 decades of
    frequency.  A coarse grid over alpha (0.5 to 3.0 in steps of 0.25)
    seeds a Nelder-Mead refinement; the global best over all seeds is kept
    and polished.  Raises FitConvergenceError (best attached) if no start
    converges within the evaluation cap.
    """
    freqs = np.asarray(freqs, dtype=float)
    power = np.asarray(power, dtype=float)
    keep = (freqs > 0) & (power > 0) & np.isfinite(power)
    freqs, power = freqs[keep], power[keep]
    if len(freqs) < 8:
        raise FitInputError("need at least 8 positive frequency points")
    if math.log10(freqs.max() / freqs.min()) < 1.5:
        raise FitInputError("frequency axis must span at least 1.5 decades")

    log_w = np.log(2.0 * math.pi * freqs)
    log_p = np.log(power)
    params, theta, resid, any_converged = _psd_solve(log_w, log_p)
    rnorm = float(np.sqrt(resid @ resid))

    rng = np.random.default_rng(seed)
    model_log = log_p - resid
    boot = np.empty((max(n_boot, 2), 4))
    for i in range(len(boot)):
        sample = model_log + rng.choice(resid, size=len(resid), replace=True)
        boot[i] = _psd_solve(log_w, sample, theta0=theta)[0]
    errs = boot.std(axis=0)

    fit = PsdFit(
        a=params[0], b=params[1], alpha=params[2], c=params[3],
        a_err=float(errs[0]), b_err=float(errs[1]), alpha_err=float(errs[2]),
        c_err=float(errs[3]), residual_norm=rnorm,
        status="converged" if any_converged else "failed",
    )
    if not any_converged:
        raise FitConvergenceError("power-law fit hit the evaluation cap", best=fit)
    return fit


# ---------------------------------------------------------------------------
# exponential recovery of the QP density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryFit:
    """Exponential return of the QP density to its steady value."""

    tau: float
    x_steady: float
    x_initial: float
    tau_err: float
    x_steady_err: float
    x_initial_err: float
    residual_norm: float
    status: str = "converged"

    def model(self, t) -> np.ndarray:
        return self.x_steady + (self.x_initial - self.x_steady) * np.exp(
            -np.asarray(t, dtype=float) / self.tau
        )


def invert_relaxation(tau_excited, qubit: QubitParams) -> np.ndarray:
    """QP density from measured mean excited-state dwell times.

    Inverts rate = x * coefficient + gamma_background; dwells faster than
    the background rate allow no consistent density.
    """
    tau_excited = np.asarray(tau_excited, dtype=float)
    if np.any(tau_excited <= 0):
        raise FitInputError("dwell times must be positive")
    rate = 1.0 / tau_excited - qubit.gamma_background
    if np.any(rate < 0):
        raise FitInputError(
            "inconsistent background: a dwell is slower than 1/gamma_background"
        )
    return rate / qp_rate_coefficient(qubit)


def _exp_fit(t, y, n_boot, seed):
    """Shared bounded least-squares for y = base + amp*exp(-t/tau)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    span = t.max() - t.min()

    spread = y.max() - y.min()
    if spread <= 1e-12 * max(abs(y.mean()), 1e-300):
        return (y.mean(), 0.0, math.nan), (0.0, 0.0, math.nan), 0.0, "warned"

    def resid(theta, target):
        base, amp, log_tau = theta
        return base + amp * np.exp(-t / math.exp(log_tau)) - target

    n_tail = max(2, len(y) // 5)
    base0 = float(np.mean(y[np.argsort(t)[-n_tail:]]))
    amp0 = float(y[np.argmin(t)] - base0)
    best = None
    for tau0 in np.geomspace(span / 50.0, 2.0 * span, 6):
        res = optimize.least_squares(
            resid, np.array([base0, amp0, math.log(tau0)]), args=(y,),
            method="lm", max_nfev=2000,
        )
        if best is None or res.cost < best.cost:
            best = res

    theta = best.x
    model = theta[0] + theta[1] * np.exp(-t / math.exp(theta[2]))
    r = y - model
    rnorm = float(np.sqrt(r @ r))
    ss_tot = float(((y - y.mean()) ** 2).sum())
    status = "converged"
    if ss_tot > 0 and (r @ r) > 0.5 * ss_tot:
        status = "warned"
    if theta[1] < 0:  # decay models expect a non-negative amplitude
        status = "warned"

    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, 3))
    for i in range(n_boot):
        sample = model + rng.choice(r, size=len(r), replace=True)
        rb = optimize.least_squares(resid, theta, args=(sample,), method="lm",
                                    max_nfev=500)
        boot[i] = rb.x
    errs = boot.std(axis=0)
    tau = math.exp(theta[2])
    tau_err = tau * errs[2]
    return (float(theta[0]), float(theta[1]), tau), (float(errs[0]), float(errs[1]), tau_err), rnorm, status


def fit_recovery(
    times,
    tau_excited,
    qubit: QubitParams,
    n_boot: int = N_BOOTSTRAP,
    seed: int = 0,
) -> RecoveryFit:
    """Fit the exponential QP-density recovery behind a dwell-time series.

    times are seconds after the injection pulse; tau_excited is the mean
    excited-state dwell in each bin.  Dwells are inverted to densities
    through the relaxation-rate relation, then
    x_steady + (x0 - x_steady)*exp(-t/tau) is fitted.  A constant series is
    returned with tau = NaN and a warned status (nothing to recover).
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 5:
        raise FitInputError("need at least 5 time bins")
    x = invert_relaxation(tau_excited, qubit)
    (base, amp, tau), (base_err, amp_err, tau_err), rnorm, status = _exp_fit(
        times, x, n_boot, seed
    )
    x0 = base + amp if not math.isnan(tau) else base
    x0_err = math.hypot(base_err, amp_err)
    if not math.isnan(tau) and (base < 0 or amp < 0):
        status = "warned"
    return RecoveryFit(
        tau=tau, x_steady=base, x_initial=x0,
        tau_err=tau_err, x_steady_err=base_err, x_initial_err=x0_err,
        residual_norm=rnorm, status=status,
    )


# ---------------------------------------------------------------------------
# thermal decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermalFit:
    """Exponential temperature decay T_base + dT * exp(-t/tau)."""

    t_base: float
    delta_t: float
    tau: float
    t_base_err: float
    delta_t_err: float
    tau_err: float
    residual_norm: float
    status: str = "converged"

    def model(self, t) -> np.ndarray:
        if math.isnan(self.tau):
            return np.full_like(np.asarray(t, dtype=float), self.t_base)
        return self.t_base + self.delta_t * np.exp(-np.asarray(t, dtype=float) / self.tau)


def fit_thermal(times, temperatures, n_boot: int = N_BOOTSTRAP, seed: int = 0) -> ThermalFit:
    """Fit an exponential temperature decay to at least 4 points.

    Data without a dominant decay (less than half the variance explained)
    is returned with a warned status rather than rejected.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 4:
        raise FitInputError("need at least 4 points")
    (base, amp, tau), (base_err, amp_err, tau_err), rnorm, status = _exp_fit(
        times, np.asarray(temperatures, dtype=float), n_boot, seed
    )
    return ThermalFit(
        t_base=base, delta_t=amp, tau=tau,
        t_base_err=base_err, delta_t_err=amp_err, tau_err=tau_err,
        residual_norm=rnorm, status=status,
    )
