"""Spectral estimation and nonlinear least-squares fits.

Three models are fitted here: a power-law-plus-floor spectrum
A / (B + (2 pi f)^alpha) + C for the slow lifetime fluctuations, an
exponential recovery of the QP density after an injection pulse, and an
exponential temperature decay.  The spectrum is fitted by Whittle
likelihood, the periodogram's own noise model, with errors from the
observed information; the exponential models use least squares from a
small grid of time-constant seeds, with seeded residual-bootstrap errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .core import QubitParams
from .jumpsim import qp_rate_coefficient
from .kinetics import exponential_relaxation

ALPHA_MIN, ALPHA_MAX = 0.5, 3.0
N_BOOTSTRAP = 200
CHI2_3_Q99 = 11.3449  # 0.99 quantile of chi-square with 3 degrees of freedom


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
    """Parameters of A / (B + (2 pi f)^alpha) + C with standard errors."""

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


def _whittle_terms(theta, log_w, power):
    """log S, the rows of d(log S)/d(theta) and the ratio P/S at theta."""
    a, b, alpha, c = math.exp(theta[0]), math.exp(theta[1]), theta[2], math.exp(theta[3])
    w_alpha = np.exp(alpha * log_w)
    d = b + w_alpha
    s = a / d + c
    colored = a / (d * s)  # share of S in the colored term
    jac = np.array((colored, -colored * b / d, -colored * w_alpha / d * log_w, c / s))
    return np.log(s), jac, power / s


def _whittle_cost(theta, log_w, power):
    log_s, jac, ratio = _whittle_terms(theta, log_w, power)
    return float(np.sum(log_s + ratio)), jac @ (1.0 - ratio)


def _whittle_fit(theta0, log_w, power, bounds):
    return optimize.minimize(_whittle_cost, theta0, args=(log_w, power), jac=True,
                             method="L-BFGS-B", bounds=bounds,
                             options={"ftol": 1e-15, "gtol": 1e-10})


def fit_power_law(freqs, power) -> PsdFit:
    """Fit the power-law-plus-floor spectrum by Whittle likelihood.

    Minimises sum(log S + P/S) over (ln a, ln b, alpha, ln c), power
    divided by its median, by bounded L-BFGS-B from a grid of starts over
    alpha (0.5 to 3.0 in steps of 0.25).  Errors come from the observed
    information, phi * (J^T J)^-1 with J = d(log S)/d(theta) and dispersion
    phi = mean((P/S - 1)^2), about 1/K for K averaged segments.  If a
    dispersion-scaled likelihood ratio against a bare floor (c = mean
    power) is below the 1% point of chi-square(3), the floor alone is
    reported (a = 0; a, b, alpha errors NaN).

    Requires at least 8 positive-power points spanning 1.5 decades of
    frequency.  Raises FitConvergenceError (best attached) if every start
    stops at L-BFGS-B's iteration cap.
    """
    freqs = np.asarray(freqs, dtype=float)
    power = np.asarray(power, dtype=float)
    keep = (freqs > 0) & (power > 0) & np.isfinite(power)
    freqs, power = freqs[keep], power[keep]
    if len(freqs) < 8:
        raise FitInputError("need at least 8 positive frequency points")
    if math.log10(freqs.max() / freqs.min()) < 1.5:
        raise FitInputError("frequency axis must span at least 1.5 decades")

    scale = float(np.median(power))
    p = power / scale
    n = len(p)
    log_w = np.log(2.0 * math.pi * freqs)
    order = np.argsort(log_w)
    low = float(np.median(p[order[:5]]))
    high = float(np.median(p[order[-5:]]))
    mid = float(np.median(p))
    w_min = float(np.exp(log_w.min()))
    w_mid = float(np.exp(np.median(log_w)))
    c0 = min(high, low) * 0.5
    starts = []
    for alpha0 in np.arange(ALPHA_MIN, ALPHA_MAX + 1e-9, 0.25):
        for b0 in (w_min ** alpha0, (0.03 * w_min) ** alpha0):
            a0 = max(low - c0, low * 0.1) * (b0 + w_min ** alpha0)
            starts.append([math.log(a0), math.log(b0), alpha0, math.log(c0)])
        a_mid = max(mid - c0, mid * 0.1) * w_mid ** alpha0
        starts.append([math.log(a_mid), alpha0 * math.log(0.03 * w_min),
                       alpha0, math.log(c0)])

    # box bounds 20 e-folds past where a term stops mattering in band
    lo = min(ALPHA_MIN * log_w.min(), ALPHA_MAX * log_w.min()) - 20.0
    hi = max(ALPHA_MIN * log_w.max(), ALPHA_MAX * log_w.max()) + 20.0
    lp_lo, lp_hi = math.log(p.min()), math.log(p.max())
    bounds = [(lo + lp_lo, hi + lp_hi + 20.0), (lo, hi), (ALPHA_MIN, ALPHA_MAX),
              (lp_lo - 20.0, lp_hi + 20.0)]

    fits = [_whittle_fit(start, log_w, p, bounds) for start in starts]
    best = min(fits, key=lambda res: res.fun)
    theta = best.x
    log_s, jac, ratio = _whittle_terms(theta, log_w, p)
    phi = float(np.mean((ratio - 1.0) ** 2))
    floor = float(np.mean(p))
    if 2.0 * (n * (math.log(floor) + 1.0) - best.fun) / phi < CHI2_3_Q99:
        a, b, alpha, c = 0.0, math.exp(theta[1]), float(theta[2]), floor * scale
        resid = np.log(p / floor)
        errs = [math.nan] * 3 + [c * math.sqrt(np.mean((p / floor - 1.0) ** 2) / n)]
    else:
        a, b, alpha, c = (math.exp(theta[0]) * scale, math.exp(theta[1]),
                          float(theta[2]), math.exp(theta[3]) * scale)
        resid = np.log(p) - log_s
        # correlation form: the columns of J differ by many orders of
        # magnitude, and scaling them to unit norm makes the matrix well
        # conditioned before it is inverted
        info = jac @ jac.T
        d = np.sqrt(np.diag(info))
        cov = np.linalg.inv(info / np.outer(d, d)) / np.outer(d, d)
        errs = np.sqrt(phi * np.diag(cov)) * [a, b, 1.0, c]

    # L-BFGS-B status 1 is the iteration cap; a line search that cannot
    # improve further (status 2) ends at an optimum as far as it can tell
    converged = any(res.status != 1 for res in fits)
    fit = PsdFit(
        a=a, b=b, alpha=alpha, c=c,
        a_err=float(errs[0]), b_err=float(errs[1]), alpha_err=float(errs[2]),
        c_err=float(errs[3]), residual_norm=float(np.sqrt(resid @ resid)),
        status="converged" if converged else "failed",
    )
    if not converged:
        raise FitConvergenceError(
            f"power-law fit: every start stopped at the iteration cap ({best.message})",
            best=fit)
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
        if math.isnan(self.tau):
            return np.full_like(np.asarray(t, dtype=float), self.x_steady)
        return exponential_relaxation(self.x_initial, self.x_steady, self.tau, t)


def invert_relaxation(tau_excited, qubit: QubitParams) -> np.ndarray:
    """QP density from measured mean excited-state dwell times.

    Inverts jumpsim.relaxation_rate, the law the sampler runs: 1/tau =
    gamma_scale * (x * coefficient + gamma_background); dwells slower than
    the scaled background rate allow no consistent density.
    """
    tau_excited = np.asarray(tau_excited, dtype=float)
    if np.any(tau_excited <= 0):
        raise FitInputError("dwell times must be positive")
    rate = 1.0 / tau_excited / qubit.gamma_scale - qubit.gamma_background
    if np.any(rate < 0):
        raise FitInputError(
            "inconsistent background: a dwell is slower than 1/gamma_background"
        )
    return rate / qp_rate_coefficient(qubit)


def _decay_time(log_tau: float) -> float:
    """exp(log_tau), clipped to e^+-500 s, far outside any real fit: Levenberg-
    Marquardt is unbounded, and near-flat data drive tau up until exp overflows."""
    return math.exp(min(max(log_tau, -500.0), 500.0))


def _check_series(times, values) -> None:
    """FitInputError for a time or value that is not finite, or for times
    that span no time."""
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise FitInputError("times and values must be finite")
    if times.max() == times.min():
        raise FitInputError("the times span no time")


def _exp_fit(t, y, n_boot, seed):
    """Shared bounded least-squares for y = base + amp*exp(-t/tau).

    The errors are the spread of n_boot residual-bootstrap refits, so
    n_boot under 2 raises ValueError."""
    if n_boot < 2:
        raise ValueError(f"the bootstrap needs at least 2 refits, got {n_boot}")
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    span = t.max() - t.min()

    spread = y.max() - y.min()
    if spread <= 1e-12 * max(abs(y.mean()), 1e-300):
        return (y.mean(), 0.0, math.nan), (0.0, 0.0, math.nan), 0.0, "warned"

    def resid(theta, target):
        base, amp, log_tau = theta
        return base + amp * np.exp(-t / _decay_time(log_tau)) - target

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
    model = resid(theta, 0.0)
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
    tau = _decay_time(theta[2])
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
    Fewer than 5 bins, a time or dwell that is not finite, or times that
    span no time raise FitInputError.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 5:
        raise FitInputError("need at least 5 time bins")
    _check_series(times, np.asarray(tau_excited, dtype=float))
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
    """Fit an exponential temperature decay to at least 4 finite points
    over a nonzero time span (FitInputError otherwise).

    Data without a dominant decay (less than half the variance explained)
    is returned with a warned status rather than rejected.
    """
    times = np.asarray(times, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    if len(times) < 4:
        raise FitInputError("need at least 4 points")
    _check_series(times, temperatures)
    (base, amp, tau), (base_err, amp_err, tau_err), rnorm, status = _exp_fit(
        times, temperatures, n_boot, seed
    )
    return ThermalFit(
        t_base=base, delta_t=amp, tau=tau,
        t_base_err=base_err, delta_t_err=amp_err, tau_err=tau_err,
        residual_norm=rnorm, status=status,
    )
