"""The benchmark's workloads: how each one sets up, runs and is checked.

Every workload is a preset of the package run through its public entry
points with ``workers=1``.  ``prepare`` is the set-up (config validation),
``execute`` is the timed part, and ``check`` reads the outputs afterwards
and compares them with the acceptance-suite bands.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Workload:
    preset: str
    seed: int  # the preset's own rng_seed, used when no seed is given
    overrides: dict = field(default_factory=dict)
    small: dict = field(default_factory=dict)  # reduced size for smoke tests
    operations: int = 1  # calls into qpjumps per iteration
    seeded: bool = True  # False: the record is always simulated at `seed`


WORKLOADS = {
    "alternation": Workload("quiet-noisy", 101, small={"duration": "8"}),
    # The power-law fit's cost is a property of the spectrum it fits: at
    # duration 64 it took 25 to 37.5 s across 11 seeds (interquartile range
    # 28% of the median), and a run has time for one fit.  A seed-varied
    # psd would measure the data, not the code, so its record stays at the
    # preset seed and parent and change always fit the same spectrum.
    "psd": Workload("psd", 105, {"duration": "64"}, small={"duration": "32"},
                    seeded=False),
    "recovery": Workload("recovery", 104,
                         small={"duration": "5.0525", "pulse_count": "500"}),
    "cli-roundtrip": Workload("quiet-noisy", 101, {"duration": "20"},
                              small={"duration": "2"}, operations=3),
}


@dataclass
class Job:
    name: str
    config: object
    out: str
    operations: int = 0
    failed_operations: int = 0
    counts: dict = field(default_factory=dict)
    exit_codes: dict = field(default_factory=dict)


def effective_seed(name: str, seed: int | None) -> int:
    """The rng_seed a workload runs at when asked for `seed`."""
    spec = WORKLOADS[name]
    return seed if seed is not None and spec.seeded else spec.seed


def prepare(name: str, seed: int, out: str, small: bool = False) -> Job:
    """Import the package and validate the workload's configuration."""
    from qpjumps import core, experiments

    spec = WORKLOADS[name]
    keys = dict(spec.overrides)
    if small:
        keys.update(spec.small)
    config = experiments.preset_config(spec.preset, keys, seed=seed)
    os.makedirs(out, exist_ok=True)
    if name == "cli-roundtrip":
        with open(os.path.join(out, "scenario.cfg"), "w", encoding="utf-8") as fh:
            fh.write(core.serialize_config(config))
    return Job(name, config, out)


def execute(job: Job, tracer=None) -> None:
    """The timed calls into qpjumps.  An exception escaping from here counts
    every operation not yet finished as failed."""
    from qpjumps import cli, experiments

    if job.name != "cli-roundtrip":
        run = experiments.run_experiment
        if tracer is not None:
            run = tracer.wrap("experiments.driver", run)
        job.operations = 1
        job.failed_operations = 1
        _, job.counts = run(WORKLOADS[job.name].preset, job.config, job.out, workers=1)
        job.failed_operations = 0
        return

    cfg = os.path.join(job.out, "scenario.cfg")
    sim = os.path.join(job.out, "sim")
    record = os.path.join(sim, "record.iq")
    commands = {
        "simulate": ["simulate", "--config", cfg, "--out", sim, "--emit-truth"],
        "stats": ["stats", "--record", record, "--config", cfg,
                  "--out", os.path.join(job.out, "stats")],
        "filter": ["filter", "--record", record, "--config", cfg,
                   "--out", os.path.join(job.out, "filter")],
    }
    job.operations = len(commands)
    job.failed_operations = len(commands)
    for command, argv in commands.items():
        job.exit_codes[command] = cli.main(argv)
        if job.exit_codes[command] == 0:
            job.failed_operations -= 1


def data_files(out: str) -> dict[str, str]:
    """sha256 of every data file under out, manifests excluded."""
    digests = {}
    for folder, _, files in os.walk(out):
        for fname in files:
            if fname == MANIFEST:
                continue
            path = os.path.join(folder, fname)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(path, out)] = h.hexdigest()
    return digests


def data_bytes(out: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, f))
        for folder, _, files in os.walk(out) for f in files if f != MANIFEST
    )


def _key_values(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",", 1) for line in fh][1:]
    return dict(rows)


def _within(value: float, target: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= rel * abs(target)


def check(job: Job) -> list[dict]:
    """Output checks, each reusing an acceptance-suite band."""
    results = []

    def record(name, ok, detail):
        results.append({"name": name, "ok": bool(ok), "detail": detail})

    if job.name == "alternation":
        summary = _key_values(os.path.join(job.out, "summary.csv"))
        corr = float(summary["tau_fidelity_correlation"])
        record("tau_fidelity_correlation", corr > 0.5, f"{corr:.4f} > 0.5")
    elif job.name == "psd":
        fit = _key_values(os.path.join(job.out, "psd_fit.csv"))
        alpha, err = float(fit["alpha"]), float(fit["alpha_err"])
        record("psd_fit_converged", fit["status"] == "converged", fit["status"])
        record("psd_alpha", 0.5 <= alpha <= 3.0 and math.isfinite(err),
               f"alpha = {alpha:.4f} +/- {err:.4f}, in [0.5, 3]")
    elif job.name == "recovery":
        from qpjumps.kinetics import relaxation_time, steady_state

        kin = job.config.kinetics
        x_true = steady_state(kin)
        tau_true = relaxation_time(kin, x_true)
        fit = _key_values(os.path.join(job.out, "recovery_fit.csv"))
        tau, x = float(fit["tau_ss_s"]), float(fit["x_steady"])
        record("recovery_fit_converged", fit["status"] == "converged", fit["status"])
        record("recovery_tau", _within(tau, tau_true, 0.10),
               f"tau = {tau:.6g} s vs {tau_true:.6g} s (10%)")
        record("recovery_x_steady", _within(x, x_true, 0.25),
               f"x_steady = {x:.6g} vs {x_true:.6g} (25%)")
    else:
        import json

        from qpjumps import io

        record("cli_exit_codes", all(c == 0 for c in job.exit_codes.values()),
               str(job.exit_codes))
        sim = os.path.join(job.out, "sim")
        with open(os.path.join(sim, MANIFEST), encoding="utf-8") as fh:
            sim_counts = json.load(fh)["record_counts"]
        with open(os.path.join(job.out, "stats", MANIFEST), encoding="utf-8") as fh:
            stats_counts = json.load(fh)["record_counts"]
        samples = len(io.read_iq(os.path.join(sim, "record.iq")))
        record("cli_record_samples", samples == sim_counts["samples"],
               f"read_iq {samples} vs manifest {sim_counts['samples']}")
        job.counts = {**sim_counts, "windows": stats_counts["windows"],
                      "histograms": stats_counts["histograms"]}
    return results
