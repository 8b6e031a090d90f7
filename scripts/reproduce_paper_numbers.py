#!/usr/bin/env python3
"""Print the desk-scale headline numbers and dump small kinetics CSVs.

Everything here is instant; the heavier simulation checks live in
tests/test_acceptance.py and the experiment presets.
"""

import argparse
import pathlib

import numpy as np

from qpjumps import experiments, io
from qpjumps.core import (
    MeasurementParams,
    ScenarioConfig,
    ThermalParams,
    junction_power,
    polarization_to_temperature,
)
from qpjumps.jumpsim import (
    qp_generation_rate,
    snr_separation,
    thermal_decay_constant,
    thermal_transient,
)
from qpjumps.kinetics import (
    QpKineticsParams,
    evolve_ode,
    relaxation_time,
    steady_state,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="optional directory for kinetics CSV dumps")
    args = parser.parse_args()

    sep = snr_separation(MeasurementParams())
    print(f"readout separation        2I/sigma = {2 * sep:.3f}")
    print(f"effective temperature     T(p_e=0.33) = {polarization_to_temperature(0.33, 665e6) * 1e3:.2f} mK")

    power = junction_power(280e-9, 0.4e-3)
    print(f"pulse power               I_c * V_gap = {power:.3e} W")
    print(f"QP generation rate        P/(2 Delta) = {qp_generation_rate(1e-10, 0.4e-3) * 1e-6:.3e} /us")
    delta_t = thermal_transient(ThermalParams(power=1e-10), 100e-6)
    print(f"temperature step          dT(100 us pulse) = {delta_t * 1e3:.2f} mK")
    tau_th = thermal_decay_constant(1e-11, 3e-3, 0.1, 6e-5, 2.5e-6)
    print(f"substrate decay constant  tau_th = {tau_th * 1e6:.1f} us")

    kin = QpKineticsParams()
    x_bar = steady_state(kin)
    tau_ss = relaxation_time(kin, x_bar)
    print(f"QP steady state           x_bar = {x_bar:.2e}, tau_ss = {tau_ss * 1e6:.0f} us, "
          f"g_eff = {x_bar / tau_ss:.2e} /s")
    print(f"mean array population     N = {x_bar * kin.n_pairs:.2f} QPs")

    if args.out:
        out = pathlib.Path(args.out)
        grid = np.linspace(0.0, 10 * tau_ss, 200)
        io.write_ode_csv(out / "recovery_ode.csv", grid,
                         evolve_ode(10 * x_bar, kin, grid))
        config = ScenarioConfig(duration=5e-3, rng_seed=7, kinetics=kin, n_initial=15)
        io.write_qp_trace_csv(out / "qp_events.csv", experiments.trajectory(config))
        print(f"wrote {out / 'recovery_ode.csv'} and {out / 'qp_events.csv'}")


if __name__ == "__main__":
    main()
