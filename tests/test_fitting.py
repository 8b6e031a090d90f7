import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qpjumps import fitting, optimize
from qpjumps.core import QubitParams
from qpjumps.fitting import (
    CHI2_3_Q99,
    FitConvergenceError,
    FitInputError,
    fit_power_law,
    fit_recovery,
    fit_thermal,
    invert_relaxation,
    periodogram,
)
from qpjumps.jumpsim import qp_rate_coefficient, relaxation_rate
from qpjumps.kinetics import QpKineticsParams

from support import iteration_capped, power_law_series, telegraph_series


class TestPeriodogram:
    @pytest.mark.parametrize("seed,n", [(0, 256), (1, 255), (2, 1024), (3, 4096)])
    def test_parseval(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 3.0 + 5.0
        freqs, power = periodogram(x, dt=0.5)
        df = freqs[0]
        variance = np.var(x)
        assert power.sum() * df == pytest.approx(variance, rel=1e-9)

    def test_missing_entries_imputed(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(512)
        x[30:40] = np.nan
        freqs, power = periodogram(x, dt=1.0)
        assert np.all(np.isfinite(power))
        good = x[np.isfinite(x)]
        filled = x.copy()
        filled[~np.isfinite(x)] = good.mean()
        assert power.sum() * freqs[0] == pytest.approx(np.var(filled), rel=1e-9)

    def test_tone_at_bin_frequency(self):
        n, dt = 1024, 1.0
        k = 37
        t = np.arange(n) * dt
        f0 = k / (n * dt)
        x = 2.0 * np.sin(2 * math.pi * f0 * t)
        freqs, power = periodogram(x, dt)
        df = freqs[0]
        spike = power.max() * df
        assert freqs[np.argmax(power)] == pytest.approx(f0)
        assert spike == pytest.approx(np.var(x), rel=1e-9)
        others = power.sum() * df - spike
        assert others < 1e-9 * spike

    def test_white_noise_level(self):
        # mean density = variance / f_Nyquist; finite-length effects (mean
        # removal, half-weight Nyquist bin) shift it by under 1%
        dt = 0.5
        f_nyq = 0.5 / dt
        levels = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(512) * 2.0
            _, power = periodogram(x, dt)
            levels.append(power.mean())
        assert np.mean(levels) == pytest.approx(4.0 / f_nyq, rel=0.03)

    def test_welch_averaging_reduces_variance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4096)
        _, p1 = periodogram(x, 1.0)
        _, p8 = periodogram(x, 1.0, n_segments=8)
        assert p8.std() / p8.mean() < p1.std() / p1.mean()

    def test_too_short(self):
        with pytest.raises(ValueError):
            periodogram(np.ones(8), 1.0)


class TestFitPowerLaw:
    def _clean_spectrum(self, alpha=1.4, a=2e-4, corner_f=3e-3, c=1e-2):
        f = np.geomspace(1e-3, 0.5, 300)
        b = (2 * math.pi * corner_f) ** alpha
        w = 2 * math.pi * f
        return f, a / (b + w**alpha) + c, (a, b, alpha, c)

    def test_clean_round_trip(self):
        f, spec, (a, b, alpha, c) = self._clean_spectrum()
        fit = fit_power_law(f, spec)
        assert fit.alpha == pytest.approx(alpha, abs=1e-3)
        assert fit.a == pytest.approx(a, rel=1e-3)
        assert fit.c == pytest.approx(c, rel=1e-3)

    def test_projection(self):
        f, spec, _ = self._clean_spectrum(alpha=1.7)
        first = fit_power_law(f, spec)
        second = fit_power_law(f, first.model(f))
        assert second.alpha == pytest.approx(first.alpha, rel=1e-6)
        assert second.a == pytest.approx(first.a, rel=1e-6)
        assert second.b == pytest.approx(first.b, rel=1e-6)
        assert second.c == pytest.approx(first.c, rel=1e-6)

    def test_scale_invariance_of_alpha(self):
        f, spec, _ = self._clean_spectrum()
        base = fit_power_law(f, spec)
        for scale in (1e-3, 7.3, 1e4):
            scaled = fit_power_law(f, scale * spec)
            assert scaled.alpha == pytest.approx(base.alpha, abs=1e-4)
            assert scaled.a == pytest.approx(scale * base.a, rel=1e-3)
            assert scaled.c == pytest.approx(scale * base.c, rel=1e-3)

    def test_synthetic_alpha_14_series(self):
        rng = np.random.default_rng(2024)
        x = power_law_series(4096, 1.0, 1.4, amplitude=1.0, floor=2e-2, rng=rng)
        freqs, power = periodogram(x, 1.0)
        fit = fit_power_law(freqs, power)
        assert fit.alpha == pytest.approx(1.4, abs=0.15)

    def test_pure_white_noise_is_floor_only(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(2048) * 1.5
        freqs, power = periodogram(x, 1.0)
        fit = fit_power_law(freqs, power)
        level = power.mean()
        assert fit.c == pytest.approx(level, rel=0.1)
        # power-law part negligible against the floor everywhere in band
        colored = fit.a / (fit.b + (2 * math.pi * freqs) ** fit.alpha)
        assert np.max(colored) < 0.2 * fit.c

    def test_telegraph_is_lorentzian(self):
        rng = np.random.default_rng(302)
        y = telegraph_series(4096, 1.0, mean_dwell=64.0, rng=rng)
        freqs, power = periodogram(y, 1.0)
        fit = fit_power_law(freqs, power)
        assert fit.alpha == pytest.approx(2.0, abs=0.15)

    def test_needs_enough_span(self):
        f = np.geomspace(0.1, 0.5, 40)
        with pytest.raises(FitInputError):
            fit_power_law(f, np.ones_like(f))

    def test_needs_enough_points(self):
        with pytest.raises(FitInputError):
            fit_power_law([1e-3, 1e-1], [1.0, 1.0])

    def test_floor_only_quantile(self):
        assert CHI2_3_Q99 == pytest.approx(stats.chi2.ppf(0.99, 3), abs=5e-5)

    def test_no_numpy_warnings(self):
        series = [
            power_law_series(4096, 1.0, 1.4, amplitude=1.0, floor=2e-2,
                             rng=np.random.default_rng(2024)),
            telegraph_series(4096, 1.0, mean_dwell=64.0, rng=np.random.default_rng(302)),
            np.random.default_rng(31).standard_normal(2048) * 1.5,
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in series:
                fit_power_law(*periodogram(x, 1.0))

    def test_iteration_cap_raises_with_best(self, monkeypatch):
        f, spec, _ = self._clean_spectrum()
        monkeypatch.setattr(fitting, "optimize", iteration_capped(optimize, 1))
        with pytest.raises(FitConvergenceError) as caught:
            fit_power_law(f, spec)
        assert caught.value.best.status == "failed"
        assert math.isfinite(caught.value.best.alpha)

    def test_line_search_stop_is_not_a_failure(self, monkeypatch):
        def minimize(*args, **kwargs):
            res = optimize.minimize(*args, **kwargs)
            res.status, res.success = 2, False  # a stop that is not the cap
            return res

        f, spec, _ = self._clean_spectrum()
        monkeypatch.setattr(fitting, "optimize", SimpleNamespace(minimize=minimize))
        assert fit_power_law(f, spec).status == "converged"


@pytest.fixture(scope="module")
def alpha_sweep():
    """Fits of 40 alpha = 1.4 series without a corner, 4 averaged segments,
    with each spectrum's median power."""
    fits = []
    for seed in range(5000, 5040):
        x = power_law_series(4096, 1.0, 1.4, amplitude=1.0, floor=2e-2,
                             rng=np.random.default_rng(seed))
        freqs, power = periodogram(x, 1.0, n_segments=4)
        fits.append((fit_power_law(freqs, power), float(np.median(power))))
    return fits


class TestPowerLawErrors:
    def test_bounded_parameters_give_finite_errors(self, alpha_sweep):
        # these seeds drive the floor to its lower bound in some fits
        assert any(fit.c < 1e-6 * median for fit, median in alpha_sweep)
        for fit, _ in alpha_sweep:
            errs = (fit.a_err, fit.b_err, fit.alpha_err, fit.c_err)
            assert all(math.isfinite(e) and e >= 0 for e in errs)
            assert fit.alpha_err > 0

    def test_alpha_err_calibrated(self, alpha_sweep):
        # Over 25 disjoint sets of 40 seeds (6000-6999) the sd of these
        # pulls was 0.96 +/- 0.13 (range 0.65-1.19), so the band fails by
        # chance about 0.5% of the time.  Here it is 0.93, so alpha errors
        # scaled by more than 1.55 either way leave the band.
        alpha = np.array([fit.alpha for fit, _ in alpha_sweep])
        err = np.array([fit.alpha_err for fit, _ in alpha_sweep])
        pulls = (alpha - alpha.mean()) / err
        assert 0.6 < pulls.std(ddof=1) < 1.4


QUBIT = QubitParams()
COEFF = qp_rate_coefficient(QUBIT)


class TestFitRecovery:
    def _series(self, x0=3e-7, x_bar=4e-8, tau=125e-6, qubit=QUBIT):
        t = np.geomspace(5e-6, 9e-3, 25)
        x = x_bar + (x0 - x_bar) * np.exp(-t / tau)
        rate = x * COEFF + qubit.gamma_background
        return t, 1.0 / rate

    def test_round_trip(self):
        t, tau_e = self._series()
        fit = fit_recovery(t, tau_e, QUBIT, n_boot=10)
        assert fit.status == "converged"
        assert fit.tau == pytest.approx(125e-6, rel=1e-6)
        assert fit.x_steady == pytest.approx(4e-8, rel=1e-6)
        assert fit.x_initial == pytest.approx(3e-7, rel=1e-6)

    def test_projection(self):
        t, tau_e = self._series()
        first = fit_recovery(t, tau_e, QUBIT, n_boot=2)
        refit = fit_recovery(t, 1.0 / (first.model(t) * COEFF), QUBIT, n_boot=2)
        assert refit.tau == pytest.approx(first.tau, rel=1e-6)
        assert refit.x_steady == pytest.approx(first.x_steady, rel=1e-6)

    def test_background_subtraction(self):
        qubit = QubitParams(gamma_background=1500.0)
        t = np.geomspace(5e-6, 9e-3, 25)
        x = 4e-8 + (3e-7 - 4e-8) * np.exp(-t / 125e-6)
        tau_e = 1.0 / (x * COEFF + qubit.gamma_background)
        fit = fit_recovery(t, tau_e, qubit, n_boot=5)
        assert fit.tau == pytest.approx(125e-6, rel=1e-6)
        assert fit.x_steady == pytest.approx(4e-8, rel=1e-6)

    def test_time_constant_independent_of_coefficient_scale(self):
        # rescaling the inductive energy rescales every density but not tau
        t, tau_e = self._series()
        small = QubitParams(f_inductive=QUBIT.f_inductive / 7)
        fit_a = fit_recovery(t, tau_e, QUBIT, n_boot=2)
        fit_b = fit_recovery(t, tau_e, small, n_boot=2)
        assert fit_b.tau == pytest.approx(fit_a.tau, rel=1e-6)
        assert fit_b.x_steady == pytest.approx(7 * fit_a.x_steady, rel=1e-6)

    def test_constant_series_flagged(self):
        t = np.geomspace(5e-6, 9e-3, 10)
        fit = fit_recovery(t, np.full_like(t, 1e-4), QUBIT, n_boot=2)
        assert fit.status == "warned"
        assert math.isnan(fit.tau)
        assert fit.x_initial == fit.x_steady

    def test_inconsistent_background(self):
        qubit = QubitParams(gamma_background=20_000.0)
        t = np.geomspace(5e-6, 9e-3, 10)
        with pytest.raises(FitInputError, match="background"):
            fit_recovery(t, np.full_like(t, 1e-4), qubit, n_boot=2)

    def test_needs_five_bins(self):
        with pytest.raises(FitInputError):
            fit_recovery([1e-3, 2e-3, 3e-3, 4e-3], [1e-4] * 4, QUBIT, n_boot=2)


class TestExpJacobian:
    """_exp_jacobian is the derivative of _exp_residual as the code computes
    it, clip included."""

    T = np.geomspace(5e-6, 9e-3, 27)

    def _central(self, theta, j, h):
        up, down = np.array(theta, dtype=float), np.array(theta, dtype=float)
        up[j] += h
        down[j] -= h
        return (fitting._exp_residual(up, self.T, 0.0)
                - fitting._exp_residual(down, self.T, 0.0)) / (up[j] - down[j])

    def test_matches_central_differences(self):
        # base and amp over nine decades of scale, tau from well inside to
        # well past the time span; steps of 1e-6 of a parameter's size
        # leave a rounding and truncation error far under 1e-6 of a column
        rng = np.random.default_rng(28)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-9.0, 0.0)
            theta = [scale * rng.uniform(-1.0, 1.0), scale * rng.uniform(-1.0, 1.0),
                     math.log(rng.uniform(1e-6, 1e-1))]
            jac = fitting._exp_jacobian(theta, self.T, 0.0)
            assert jac.shape == (len(self.T), 3)
            for j in range(3):
                h = 1e-6 * max(abs(theta[j]), scale if j < 2 else 1.0)
                want = self._central(theta, j, h)
                np.testing.assert_allclose(jac[:, j], want, rtol=1e-6,
                                           atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("log_tau", [-600.0, 501.0, 800.0])
    def test_log_tau_column_is_zero_where_the_clip_binds(self, log_tau):
        theta = [0.05, 0.01, log_tau]
        jac = fitting._exp_jacobian(theta, self.T, 0.0)
        assert np.all(jac[:, 2] == 0.0)
        assert np.all(self._central(theta, 2, 1e-3) == 0.0)
        np.testing.assert_allclose(jac[:, 1], self._central(theta, 1, 1e-6), rtol=1e-6)
        assert np.all(jac[:, 0] == 1.0)


class TestFitThermal:
    def test_round_trip(self):
        t = np.linspace(0, 10e-3, 30)
        temps = 0.045 + 0.010 * np.exp(-t / 2e-3)
        fit = fit_thermal(t, temps, n_boot=10)
        assert fit.status == "converged"
        assert fit.t_base == pytest.approx(0.045, rel=1e-9)
        assert fit.delta_t == pytest.approx(0.010, rel=1e-9)
        assert fit.tau == pytest.approx(2e-3, rel=1e-9)

    def test_constant_series(self):
        t = np.linspace(0, 1e-2, 8)
        fit = fit_thermal(t, np.full_like(t, 0.045), n_boot=2)
        assert fit.delta_t == 0.0
        assert math.isnan(fit.tau)

    def test_non_decaying_data_warns(self):
        t = np.linspace(0, 1e-2, 20)
        rng = np.random.default_rng(6)
        fit = fit_thermal(t, 0.045 + 0.002 * rng.standard_normal(20), n_boot=2)
        assert fit.status == "warned"

    def test_needs_four_points(self):
        with pytest.raises(FitInputError):
            fit_thermal([0, 1e-3, 2e-3], [0.05, 0.049, 0.048], n_boot=2)


def test_invert_relaxation_checks_background():
    qubit = QubitParams(gamma_background=5000.0)
    with pytest.raises(FitInputError):
        invert_relaxation([1e-3], qubit)  # 1/tau = 1000 < background
    x = invert_relaxation([1e-4], QubitParams())
    assert x[0] == pytest.approx(1e4 / COEFF, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_invert_relaxation_undoes_the_scaled_rate(n):
    # the sampler's rate carries gamma_scale on both terms; the inversion
    # must take it off again to give back the density
    kin = QpKineticsParams()
    qubit = QubitParams(gamma_background=300.0, gamma_scale=0.5)
    tau = 1.0 / relaxation_rate(n, kin, qubit)
    x = invert_relaxation([tau], qubit)
    assert x[0] == pytest.approx(n / kin.n_pairs, rel=1e-12, abs=1e-20)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_parseval_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 600))
    x = rng.standard_normal(n) * rng.uniform(0.1, 10)
    freqs, power = periodogram(x, dt=float(rng.uniform(0.01, 10)))
    assert power.sum() * freqs[0] == pytest.approx(np.var(x), rel=1e-9)


@given(values=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1,
                       max_size=40))
def test_median_equals_numpy_bit_for_bit(values):
    assert (np.float64(fitting.median(values)).tobytes()
            == np.float64(np.median(np.array(values))).tobytes())
