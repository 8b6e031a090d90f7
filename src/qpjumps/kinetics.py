"""Quasiparticle population dynamics.

The relative quasiparticle density x (number of QPs over number of Cooper
pairs) follows

    dx/dt = generation - trapping * x - recombination * x**2

with all three coefficients in 1/s and x dimensionless.  The discrete
counterpart, a birth-death chain on the QP number N in which QPs are created
and recombine in pairs (broken/reformed Cooper pairs) while trapping removes
them one at a time, is the first layer of jumpsim.simulate_layers, which
samples it alone and then the qubit it drives.
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
    if g == 0.0:
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


def evolve_ode(x0: float, params: QpKineticsParams, t_grid) -> np.ndarray:
    """Solve the density rate equation in closed form at each time of t_grid.

    With y = x - x_steady and lam = trapping + 2*recombination*x_steady the
    equation is dy/dt = -lam*y - recombination*y**2, whose solution from y0
    at the first grid time is y0*e / (1 + recombination*y0*(1 - e)/lam),
    e = exp(-lam*t); (1 - e)/lam tends to t as lam -> 0.
    """
    if x0 < 0.0:
        raise ValueError("initial density must be non-negative")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")

    r = params.recombination
    x_ss = steady_state(params)
    lam = params.trapping + 2.0 * r * x_ss
    t = t_grid - t_grid[0]
    decay = np.exp(-lam * t)
    span = -np.expm1(-lam * t) / lam if lam > 0.0 else t
    y0 = x0 - x_ss
    return x_ss + y0 * decay / (1.0 + r * y0 * span)
