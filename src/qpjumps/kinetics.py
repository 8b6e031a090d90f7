"""Quasiparticle population dynamics.

The relative quasiparticle density x (number of QPs over number of Cooper
pairs) follows

    dx/dt = generation - trapping * x - recombination * x**2

with all three coefficients in 1/s and x dimensionless.  The discrete
counterpart, a birth-death chain on the QP number N in which QPs are created
and recombine in pairs (broken/reformed Cooper pairs) while trapping removes
them one at a time, is sampled jointly with the qubit by
jumpsim.simulate_joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QpKineticsParams:
    """Coefficients of the QP density rate equation.

    generation, trapping, recombination are in 1/s and act on the
    dimensionless density x; n_pairs is the Cooper-pair count used to map
    between x and the integer QP number N = x * n_pairs.
    """

    generation: float = 3.2e-4
    trapping: float = 8000.0
    recombination: float = 0.0
    n_pairs: float = 3.75e7

    def __post_init__(self):
        if self.generation < 0 or self.trapping < 0 or self.recombination < 0:
            raise ValueError("kinetics coefficients must be non-negative")
        if self.generation > 0 and self.trapping == 0 and self.recombination == 0:
            raise ValueError(
                "generation without trapping or recombination has no steady state"
            )
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be at least 1")


def steady_state(params: QpKineticsParams) -> float:
    """Non-negative root of generation - trapping*x - recombination*x**2."""
    g, s, r = params.generation, params.trapping, params.recombination
    if s == 0.0 and r == 0.0:
        if g > 0.0:
            raise ValueError("no steady state: generation with no removal")
        return 0.0
    # stable form of the quadratic root; no cancellation for small r
    return 2.0 * g / (s + math.sqrt(s * s + 4.0 * r * g))


def relaxation_time(params: QpKineticsParams, x_steady: float) -> float:
    """Exponential time constant 1/(trapping + 2*recombination*x_steady).

    x_steady should be the output of steady_state(params); the linearized
    return-to-steady-state rate does not distinguish the two removal
    channels beyond this combination.
    """
    rate = params.trapping + 2.0 * params.recombination * x_steady
    if rate == 0.0:
        raise ValueError("relaxation rate is zero: density never relaxes")
    return 1.0 / rate


def exponential_relaxation(x0: float, x_steady: float, tau: float, t) -> float | np.ndarray:
    """Closed-form linearized recovery x_steady + (x0 - x_steady)*exp(-t/tau)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    return x_steady + (x0 - x_steady) * np.exp(-np.asarray(t, dtype=float) / tau)


def _xdot(x: float, g: float, s: float, r: float) -> float:
    return g - s * x - r * x * x


def evolve_ode(x0: float, params: QpKineticsParams, t_grid) -> np.ndarray:
    """Integrate the density rate equation on t_grid with fixed-step RK4.

    The step is capped at 1/100 of the fastest linearized time scale so
    results are bit-reproducible; returns x at each grid time (the first
    grid point gets x0 exactly when the grid starts at the initial time).
    """
    if x0 < 0.0:
        raise ValueError("initial density must be non-negative")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    g, s, r = params.generation, params.trapping, params.recombination
    # fastest local rate over the reachable range [0, max(x0, x_steady)]
    try:
        x_ref = max(x0, steady_state(params))
    except ValueError:
        x_ref = x0
    rate_ref = s + 2.0 * r * x_ref
    h_max = (1.0 / rate_ref) / 100.0 if rate_ref > 0.0 else math.inf

    out = np.empty_like(t_grid)
    x = float(x0)
    t = float(t_grid[0])
    out[0] = x
    for i in range(1, len(t_grid)):
        span = float(t_grid[i]) - t
        n_sub = max(1, math.ceil(span / h_max)) if math.isfinite(h_max) else 1
        h = span / n_sub
        for _ in range(n_sub):
            k1 = _xdot(x, g, s, r)
            k2 = _xdot(x + 0.5 * h * k1, g, s, r)
            k3 = _xdot(x + 0.5 * h * k2, g, s, r)
            k4 = _xdot(x + h * k3, g, s, r)
            x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if x < 0.0:
                x = 0.0
        t = float(t_grid[i])
        out[i] = x
    return out
