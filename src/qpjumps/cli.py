"""Command-line surface.

Exit codes: 0 success, 1 fit finished with warnings (or other runtime
failure), 2 configuration error, 3 data-format error, 4 fit
non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import experiments, io
# extract_dwells, log_histogram, poisson_prediction and two_point_filter are
# not called here: perfbench/spans.py, the benchmark's tracer, rebinds them in
# this module by name
from .analysis import (  # noqa: F401
    extract_dwells,
    log_histogram,
    poisson_prediction,
    two_point_filter,
)
from .core import ConfigError, MeasurementParams, QubitParams, ScenarioConfig, load_config
from .fitting import (
    N_BOOTSTRAP,
    N_BOOTSTRAP_MAX,
    FitConvergenceError,
    FitInputError,
    fit_power_law,
    fit_recovery,
    fit_thermal,
    median,
    periodogram,
)
from .jumpsim import snr_separation


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario configuration file")


def _add_seed_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="override the configured rng_seed")
    p.add_argument("--out", default=".", help="output directory")


def _scenario(args, require_file: bool = True) -> ScenarioConfig | None:
    """The --config scenario with --seed applied; None without --config,
    where the command reads the default parameters.  A --seed outside
    the unsigned 64-bit range of rng_seed is a ConfigError, with or
    without --config."""
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    if not args.config:
        if require_file:
            raise ConfigError("this command needs --config")
        return None
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    return config


def _finish_manifest(args, config, outputs, counts, t0, inputs=()):
    """Write manifest.json.  config is None for a command that ran on the
    defaults without --config: no configuration is hashed, and the seed is
    the --seed given, if any."""
    manifest = io.RunManifest(
        config_hash=io.config_hash(config) if config is not None else None,
        rng_seed=config.rng_seed if config is not None else args.seed,
        inputs=[str(p) for p in inputs],
        outputs=[os.path.basename(p) for p in outputs],
        wall_clock_s=time.monotonic() - t0,
        record_counts=counts,
    )
    io.write_manifest(os.path.join(args.out, "manifest.json"), manifest)


def cmd_snr(args) -> int:
    sep = snr_separation(load_config(args.config).meas if args.config
                         else MeasurementParams())
    print(f"i_over_sigma = {io._fmt(sep)}")
    print(f"peak_separation_2i = {io._fmt(2 * sep)}")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    config = _scenario(args)
    record = experiments.simulate_record(config)
    if len(record) == 0:
        raise ConfigError(f"duration = {config.duration:g} s is shorter than one t_meas = "
                          f"{config.meas.t_meas:g} s bin: the record would hold no samples")
    record_path = os.path.join(args.out, "record.iq")
    io.write_iq(record_path, record)
    outputs = [record_path]
    if args.emit_truth:
        # the record read its trajectory once; the sampler runs again from
        # the same streams rather than hold it
        truth_path = os.path.join(args.out, "record.truth")
        io.write_truth_csv(truth_path, experiments.trajectory(config))
        outputs.append(truth_path)
    _finish_manifest(args, config, outputs,
                     {**record.events, "samples": len(record)}, t0)
    return 0


def _read_record(path):
    """The record file at path, checked but not read: the commands read it
    a block at a time."""
    record = io.read_iq(path)
    if len(record) == 0:
        raise io.DataFormatError(f"{path}: record holds no samples")
    return record


def cmd_filter(args) -> int:
    t0 = time.monotonic()
    config = _scenario(args, require_file=False)
    record = _read_record(args.record)
    sep = args.separation if args.separation is not None else snr_separation(
        config.meas if config else MeasurementParams())
    states_path = os.path.join(args.out, "states.csv")
    io.write_states_csv(states_path, experiments.filter_blocks(record, sep))
    _finish_manifest(args, config, [states_path],
                     {"samples": len(record)}, t0, inputs=[args.record])
    return 0


def cmd_stats(args) -> int:
    t0 = time.monotonic()
    config = _scenario(args, require_file=False)
    record = _read_record(args.record)
    sep = args.separation if args.separation is not None else snr_separation(
        config.meas if config else MeasurementParams())
    report = experiments.run_stats(record, sep, args.window, args.bins_per_decade)

    report_path = os.path.join(args.out, "report.csv")
    io.write_report_csv(report_path, report)
    histograms = []
    for w, dwells in report.dwells.items():
        histograms += experiments.write_dwell_histograms(
            args.out, f"hist_{w:04d}", dwells, record.t_meas, args.bins_per_decade)

    _finish_manifest(args, config, [report_path, *histograms],
                     {"samples": len(record), "windows": len(report),
                      "histograms": len(histograms)}, t0, inputs=[args.record])
    return 0


def _fit_exit(status: str) -> int:
    return 0 if status == "converged" else 1


def cmd_fit_psd(args) -> int:
    t0 = time.monotonic()
    config = _scenario(args, require_file=False)
    times, values = io.read_series_csv(args.input)
    if len(times) < 2:  # checked before np.diff(times) is empty
        raise ValueError(f"{args.input}: one row has no sample spacing")
    if not np.isfinite(times).all():  # NaN values mark missing windows; times have none
        raise FitInputError(f"{args.input}: times must be finite")
    dt = median(np.diff(times))
    freqs, power = periodogram(values, dt, n_segments=args.segments)
    fit = fit_power_law(freqs, power)
    psd_path = os.path.join(args.out, "psd.csv")
    io.write_series_csv(psd_path, freqs, power, "power")
    fit_path = os.path.join(args.out, "fit.csv")
    resid_path = os.path.join(args.out, "residuals.csv")
    experiments.write_psd_fit(fit_path, resid_path, fit, freqs, power)
    _finish_manifest(args, config, [psd_path, fit_path, resid_path],
                     {"frequencies": len(freqs)}, t0, inputs=[args.input])
    return _fit_exit(fit.status)


def cmd_fit_recovery(args) -> int:
    t0 = time.monotonic()
    config = _scenario(args, require_file=False)
    qubit = config.qubit if config else QubitParams()
    times, tau_e = io.read_series_csv(args.input)
    fit = fit_recovery(times, tau_e, qubit, n_boot=args.bootstrap, seed=args.seed or 0)
    fit_path = os.path.join(args.out, "fit.csv")
    resid_path = os.path.join(args.out, "residuals.csv")
    experiments.write_recovery_fit(fit_path, resid_path, fit, times, tau_e, qubit)
    _finish_manifest(args, config, [fit_path, resid_path],
                     {"bins": len(times)}, t0, inputs=[args.input])
    return _fit_exit(fit.status)


def cmd_fit_thermal(args) -> int:
    t0 = time.monotonic()
    config = _scenario(args, require_file=False)
    times, temps = io.read_series_csv(args.input)
    fit = fit_thermal(times, temps, n_boot=args.bootstrap, seed=args.seed or 0)
    fit_path = os.path.join(args.out, "fit.csv")
    io.write_fit_report_csv(fit_path, {
        "t_base_k": fit.t_base, "t_base_err_k": fit.t_base_err,
        "delta_t_k": fit.delta_t, "delta_t_err_k": fit.delta_t_err,
        "tau_th_s": fit.tau, "tau_th_err_s": fit.tau_err,
        "residual_norm": fit.residual_norm, "status": fit.status,
    })
    model = fit.model(times)
    resid_path = os.path.join(args.out, "residuals.csv")
    io.write_residuals_csv(resid_path, temps, model, np.asarray(temps) - model)
    _finish_manifest(args, config, [fit_path, resid_path],
                     {"points": len(times)}, t0, inputs=[args.input])
    return _fit_exit(fit.status)


def cmd_experiment(args) -> int:
    t0 = time.monotonic()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    try:
        config = experiments.preset_config(args.name, overrides, seed=args.seed)
    except KeyError:
        names = ", ".join(experiments.experiment_names())
        raise ConfigError(
            f"unknown experiment {args.name!r}; available: {names}"
        ) from None
    outputs, counts = experiments.run_experiment(args.name, config, args.out)
    _finish_manifest(args, config, outputs, counts, t0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpjumps",
        description="Simulate and analyze quasiparticle-driven qubit quantum jumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snr", help="readout separation for the configured parameters")
    _add_config(p)
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("simulate", help="run one scenario and write the record")
    _add_config(p)
    _add_seed_and_out(p)
    p.add_argument("--emit-truth", action="store_true",
                   help="write the ground-truth trajectory sidecar")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="state estimate from a record")
    _add_config(p)
    _add_seed_and_out(p)
    p.add_argument("--record", required=True, help="binary .iq record file")
    p.add_argument("--separation", type=float, help="override the configured I/sigma")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("stats", help="windowed dwell statistics from a record")
    _add_config(p)
    _add_seed_and_out(p)
    p.add_argument("--record", required=True, help="binary .iq record file")
    p.add_argument("--separation", type=float, help="override the configured I/sigma")
    p.add_argument("--window", type=float, default=experiments.DEFAULT_WINDOW,
                   help="window length in seconds")
    p.add_argument("--bins-per-decade", type=int,
                   default=experiments.DEFAULT_BINS_PER_DECADE)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fit-psd", help="power-law fit of a series' spectrum")
    _add_config(p)
    _add_seed_and_out(p)
    p.add_argument("--input", required=True, help="two-column CSV series (t_s,value)")
    p.add_argument("--segments", type=int, default=1,
                   help="averaged spectrum segments (1 = plain periodogram)")
    p.set_defaults(func=cmd_fit_psd)

    p = sub.add_parser("fit-recovery", help="exponential recovery fit of dwell times")
    _add_config(p)
    _add_seed_and_out(p)
    p.add_argument("--input", required=True, help="CSV of t_s,tau_e_s")
    p.add_argument("--bootstrap", type=int, default=N_BOOTSTRAP,
                   help="residual-bootstrap resamples for standard errors "
                        f"(2 to {N_BOOTSTRAP_MAX})")
    p.set_defaults(func=cmd_fit_recovery)

    p = sub.add_parser("fit-thermal", help="exponential temperature decay fit")
    _add_config(p)
    _add_seed_and_out(p)
    p.add_argument("--input", required=True, help="CSV of t_s,temperature_K")
    p.add_argument("--bootstrap", type=int, default=N_BOOTSTRAP,
                   help="residual-bootstrap resamples for standard errors "
                        f"(2 to {N_BOOTSTRAP_MAX})")
    p.set_defaults(func=cmd_fit_thermal)

    p = sub.add_parser("experiment", help="run a named experiment preset")
    _add_seed_and_out(p)
    p.add_argument("name", help="one of: " + ", ".join(experiments.experiment_names()))
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key (repeatable)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except io.DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except (FitConvergenceError, FitInputError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
