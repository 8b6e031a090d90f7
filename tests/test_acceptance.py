"""Acceptance suite: one test per quantitative claim the package must
reproduce, each printing a PASS/FAIL line with the measured value.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import numpy as np
import pytest

from qpjumps import io
from qpjumps.analysis import extract_dwells, two_point_filter
from qpjumps.cli import main
from qpjumps.core import (
    ScenarioConfig,
    ThermalParams,
    junction_power,
    polarization_to_temperature,
    validate_config,
)
from qpjumps.experiments import (
    preset_config,
    run_recovery,
    run_simulation,
    run_stats,
    tau_fidelity_correlation,
)
from qpjumps.fitting import fit_power_law, periodogram
from qpjumps.jumpsim import (
    MeasurementParams,
    qp_generation_rate,
    simulate_joint,
    snr_separation,
    thermal_decay_constant,
    thermal_transient,
)
from qpjumps.kinetics import (
    QpKineticsParams,
    evolve_ode,
    exponential_relaxation,
    relaxation_time,
    steady_state,
)

from support import (
    noiseless_iq,
    occupancy_chi2,
    power_law_series,
    stationary_qn,
    telegraph_series,
)


def check(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_readout_separation(capsys):
    assert main(["snr"]) == 0
    out = capsys.readouterr().out
    with capsys.disabled():
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        sep2 = float(values["peak_separation_2i"])
        check(1, abs(sep2 - 5.2) <= 0.05,
              f"peak separation 2I/sigma = {sep2:.4f} (target 5.2 +/- 0.05)")


def test_02_polarization_temperature():
    t_eff = polarization_to_temperature(0.33, 665e6)
    check(2, abs(t_eff - 45e-3) <= 0.5e-3,
          f"T(p_e=0.33, 665 MHz) = {t_eff * 1e3:.3f} mK (target 45 +/- 0.5)")


def test_03_thermal_energetics():
    power = junction_power(280e-9, 0.4e-3)
    rate = qp_generation_rate(1e-10, 0.4e-3) * 1e-6  # per microsecond
    delta_t = thermal_transient(
        ThermalParams(power=1e-10, specific_heat=1e-11, mass=0.1), 100e-6
    )
    tau_th = thermal_decay_constant(
        specific_heat=1e-11, length=3e-3, mass=0.1, conductivity=6e-5, area=2.5e-6
    )
    ok = (
        abs(power - 1.12e-10) <= 0.01e-10
        and abs(rate - 1.6e6) <= 0.1e6
        and abs(delta_t - 10e-3) <= 0.5e-3
        and abs(tau_th - 20e-6) <= 2e-6
    )
    check(3, ok,
          f"P = {power:.3e} W, generation = {rate:.3e}/us, "
          f"dT = {delta_t * 1e3:.2f} mK, tau_th = {tau_th * 1e6:.1f} us")


def test_04_kinetics_triple():
    kin = QpKineticsParams()  # trap-limited defaults
    x_bar = steady_state(kin)
    tau_ss = relaxation_time(kin, x_bar)
    g_eff = x_bar / tau_ss
    ok = (
        abs(x_bar - 4e-8) <= 0.25 * 4e-8
        and abs(tau_ss - 125e-6) <= 0.25 * 125e-6
        and abs(g_eff - 3.2e-4) <= 0.25 * 3.2e-4
    )
    check(4, ok,
          f"x_bar = {x_bar:.3e}, tau_ss = {tau_ss * 1e6:.1f} us, "
          f"g_eff = {g_eff:.3e}/s")


def test_05_recovery_round_trip():
    config = preset_config("recovery")
    kin = config.kinetics
    tau_true = relaxation_time(kin, steady_state(kin))
    x_true = steady_state(kin)
    times, tau_e, n_jumps, fit, events = run_recovery(config)
    tau_dev = abs(fit.tau - tau_true) / tau_true
    x_dev = abs(fit.x_steady - x_true) / x_true
    ok = fit.status == "converged" and tau_dev <= 0.10 and x_dev <= 0.25
    check(5, ok,
          f"1e4 cycles ({events['events']} events): tau_ss = {fit.tau * 1e6:.1f} us "
          f"({tau_dev * 100:.1f}% off), x_bar = {fit.x_steady:.3e} "
          f"({x_dev * 100:.1f}% off)")


def _modulated_run(seed=606, duration=48.0):
    text = f"""
rng_seed = {seed}
duration = {duration}
gamma_background = 2000
mod_quiet_generation = 1.6e-5
mod_mean_quiet = 0.15
mod_mean_noisy = 0.15
"""
    config = validate_config(text)
    truth, iq = run_simulation(config)
    return run_stats(iq, snr_separation(config.meas))


def test_06_poissonianity_contrast():
    report_b = _modulated_run()
    median_tau = float(np.nanmedian(report_b.tau_ground))
    omf_b = float(np.nanmedian(report_b.one_minus_fidelity))

    # constant-rate twin at the same overall mean ground dwell
    gamma_bg = 1.0 / (0.4920 * median_tau)
    text = f"""
rng_seed = 607
duration = 48
gamma_background = {gamma_bg}
qp_generation = 0
qp_trapping = 1
n_initial = 0
"""
    config = validate_config(text)
    truth, iq = run_simulation(config)
    report_a = run_stats(iq, snr_separation(config.meas))
    f_a = float(np.nanmedian(report_a.fidelity_ground))
    omf_a = float(np.nanmedian(report_a.one_minus_fidelity))
    ratio = omf_b / omf_a
    ok = f_a > 0.95 and ratio >= 10.0
    check(6, ok,
          f"constant-rate median F = {f_a:.4f} (> 0.95), modulated/constant "
          f"median (1-F) ratio = {ratio:.1f} (>= 10)")


def test_07_tau_fidelity_correlation():
    config = preset_config("quiet-noisy")  # 160 s spanning both regimes
    truth, iq = run_simulation(config)
    report = run_stats(iq, snr_separation(config.meas))
    corr = tau_fidelity_correlation(report)
    check(7, corr > 0.5,
          f"corr(tau_g, -log10(1-F)) = {corr:.3f} over {len(report)} windows "
          f"(> 0.5)")


def test_08_psd_alpha_recovery():
    rng = np.random.default_rng(2024)
    series = power_law_series(4096, 1.0, 1.4, amplitude=1.0, floor=2e-2, rng=rng)
    freqs, power = periodogram(series, 1.0)
    fit_colored = fit_power_law(freqs, power)

    rng = np.random.default_rng(302)
    telegraph = telegraph_series(4096, 1.0, mean_dwell=64.0, rng=rng)
    freqs, power = periodogram(telegraph, 1.0)
    fit_lorentz = fit_power_law(freqs, power)

    ok = (abs(fit_colored.alpha - 1.4) <= 0.15
          and abs(fit_lorentz.alpha - 2.0) <= 0.15)
    check(8, ok,
          f"alpha(1.4 process) = {fit_colored.alpha:.3f} (+/- 0.15), "
          f"alpha(telegraph) = {fit_lorentz.alpha:.3f} (target 2 +/- 0.15)")


def test_09_oracle_suites():
    # ODE integrator against the closed-form linear solution
    kin = QpKineticsParams()
    x_bar = steady_state(kin)
    tau = relaxation_time(kin, x_bar)
    grid = np.linspace(0.0, 8 * tau, 60)
    numeric = evolve_ode(10 * x_bar, kin, grid)
    analytic = exponential_relaxation(10 * x_bar, x_bar, tau, grid)
    ode_dev = float(np.max(np.abs(numeric - analytic) / analytic))

    # joint (qubit, N) occupancy of the production sampler against the
    # truncated joint-generator stationary law: 10^4 snapshots 2 ms apart;
    # p > 0.01 fails by chance for about 1% of seeds
    config = ScenarioConfig(duration=20.0, rng_seed=1)
    truth = simulate_joint(config, *np.random.default_rng(config.rng_seed).spawn(3))
    p_value, _ = occupancy_chi2(truth, stationary_qn(config, n_max=40))

    # noise-free synthesis + filter reproduces bin-aligned truth exactly
    meas = MeasurementParams()
    rng = np.random.default_rng(23)
    runs = rng.integers(2, 40, size=301)
    from qpjumps.jumpsim import TruthTrace

    times = np.cumsum(runs).astype(float) * meas.t_meas
    states = np.array([(k + 1) % 2 for k in range(len(runs))], dtype=np.uint8)
    truth = TruthTrace(
        duration=float(times[-1]),
        times=np.concatenate(([0.0], times[:-1])),
        states=np.concatenate(([0], states[:-1])).astype(np.uint8),
        counts=np.zeros(len(runs), dtype=np.int64),
    )
    iq = noiseless_iq(truth, meas)
    est = two_point_filter(iq, snr_separation(meas))
    dwells = extract_dwells(est)
    got = np.sort(np.concatenate((dwells.ground, dwells.excited)))
    want = np.sort(runs[1:-1].astype(float) * meas.t_meas)
    filter_exact = len(got) == len(want) and np.allclose(got, want, rtol=0, atol=1e-15)

    # periodogram energy conservation
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3000) * 2.5
    freqs, power = periodogram(x, dt=0.7)
    parseval_dev = abs(power.sum() * freqs[0] - np.var(x)) / np.var(x)

    ok = (ode_dev <= 1e-6 and p_value > 0.01 and filter_exact
          and parseval_dev <= 1e-9)
    check(9, ok,
          f"ODE vs analytic {ode_dev:.2e} (<= 1e-6), chi-square p = {p_value:.3f} "
          f"(> 0.01), noise-free filter exact = {filter_exact}, "
          f"Parseval dev = {parseval_dev:.2e} (<= 1e-9)")


def test_10_determinism(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("rng_seed = 31\nduration = 0.05\n")
    pairs = []
    for tag in ("a", "b"):
        sim_out = tmp_path / f"sim_{tag}"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_out),
                     "--emit-truth"]) == 0
        assert main(["stats", "--record", str(sim_out / "record.iq"),
                     "--config", str(cfg), "--out", str(sim_out),
                     "--window", "0.01"]) == 0
        pairs.append(sim_out)
    a, b = pairs
    identical = (
        (a / "record.iq").read_bytes() == (b / "record.iq").read_bytes()
        and (a / "record.truth").read_bytes() == (b / "record.truth").read_bytes()
        and (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    )
    check(10, identical, "repeated simulate+stats runs are byte-identical")
