"""Test-only helpers: synthetic spectral series and an exact oracle for the
joint (modulator, qubit, QP number) Markov chain sampled by
jumpsim.simulate_joint.

The oracle is built from the model's rate definitions (the public rate
functions and the kinetics coefficients), not from the sampler's loop, so
the two agree only if the sampler realizes the model.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from qpjumps.core import ScenarioConfig
from qpjumps.jumpsim import qp_relaxation_rate, thermal_excitation_rate

# ---------------------------------------------------------------------------
# synthetic series for spectral-fit validation
# ---------------------------------------------------------------------------


def power_law_series(
    n: int,
    dt: float,
    alpha: float,
    amplitude: float,
    corner: float = 0.0,
    floor: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gaussian series whose expected periodogram is
    amplitude / (corner + (2 pi f)^alpha) + floor."""
    if rng is None:
        rng = np.random.default_rng()
    freqs = np.fft.rfftfreq(n, dt)
    w = 2.0 * math.pi * freqs
    target = np.zeros_like(freqs)
    target[1:] = amplitude / (corner + w[1:] ** alpha) + floor
    spec = np.zeros(len(freqs), dtype=complex)
    inner = slice(1, -1) if n % 2 == 0 else slice(1, None)
    k = len(freqs[inner])
    scale = np.sqrt(target[inner] * n / (4.0 * dt))
    spec[inner] = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    if n % 2 == 0:
        spec[-1] = math.sqrt(target[-1] * n / dt) * rng.standard_normal()
    return np.fft.irfft(spec, n=n)


def telegraph_series(
    n: int,
    dt: float,
    mean_dwell: float,
    rng: np.random.Generator | None = None,
    values: tuple[float, float] = (-1.0, 1.0),
) -> np.ndarray:
    """Symmetric random telegraph signal sampled every dt seconds."""
    if rng is None:
        rng = np.random.default_rng()
    total = n * dt
    est = int(total / mean_dwell * 2 + 10 * math.sqrt(total / mean_dwell + 1)) + 4
    switch_times = np.cumsum(rng.exponential(mean_dwell, size=est))
    while switch_times[-1] < total:
        more = np.cumsum(rng.exponential(mean_dwell, size=est)) + switch_times[-1]
        switch_times = np.concatenate((switch_times, more))
    t = np.arange(n) * dt
    parity = np.searchsorted(switch_times, t, side="right") % 2
    start = int(rng.integers(0, 2))
    return np.asarray(values)[(parity + start) % 2]


# ---------------------------------------------------------------------------
# joint-chain oracle
# ---------------------------------------------------------------------------
#
# State (m, q, N): modulator m (0 quiet, 1 noisy; always 1 without
# modulation), qubit q (0 ground, 1 excited), QP number N.  Pulses and the
# thermal transient are outside the stationary model, so configs passed
# here must have neither.


def modulator_states(config: ScenarioConfig) -> tuple[int, ...]:
    return (0, 1) if config.modulation is not None else (1,)


def joint_rates(config: ScenarioConfig, m: int, q: int, n: int) -> list:
    """Outgoing transitions [((m', q', n'), rate), ...] of state (m, q, n)."""
    if config.pulses or config.thermal is not None:
        raise ValueError("the stationary oracle covers pulse-free, unheated configs")
    kin, qubit, mod = config.kinetics, config.qubit, config.modulation
    if mod is not None and m == 0:
        generation = mod.quiet_generation
    else:
        generation = kin.generation
    out = [
        ((m, q, n + 2), 0.5 * generation * kin.n_pairs),
        ((m, q, n - 1), kin.trapping * n),
        ((m, q, n - 2), kin.recombination * n * (n - 1) / (2.0 * kin.n_pairs)),
    ]
    if mod is not None:
        out.append(((1 - m, q, n), 1.0 / (mod.mean_quiet if m == 0 else mod.mean_noisy)))
    if q == 1:
        relax = qp_relaxation_rate(n, kin, qubit)
        out.append(((m, 0, n), config.gamma_scale * relax))
    else:
        excite = thermal_excitation_rate(n, kin, qubit, qubit.temperature)
        out.append(((m, 1, n), config.gamma_scale * excite))
    return [(state, rate) for state, rate in out if rate > 0.0]


def stationary_qn(config: ScenarioConfig, n_max: int) -> np.ndarray:
    """Stationary law of the chain truncated to N <= n_max, summed over m.

    Solves pi Q = 0 for the truncated generator (births that would overflow
    n_max are dropped) and returns pi as a (2, n_max + 1) array over (q, N).
    """
    ms = modulator_states(config)
    states = [(m, q, n) for m in ms for q in (0, 1) for n in range(n_max + 1)]
    index = {state: i for i, state in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        for target, rate in joint_rates(config, *state):
            if target in index:
                gen[i, index[target]] += rate
        gen[i, i] = -gen[i].sum()
    # replace the last balance equation with the normalization
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi[pi < 0] = 0.0
    pi /= pi.sum()
    return pi.reshape(len(ms), 2, n_max + 1).sum(axis=0)


def occupancy_chi2(truth, pi_qn: np.ndarray, spacing: float = 2e-3):
    """Chi-square of (q, N) snapshots every `spacing` s against pi_qn.

    spacing must be long against every correlation time of the chain so the
    snapshots are close to independent draws.  Cells expecting fewer than 5
    counts are merged into one (N beyond the truncation counts there too).
    Returns (p_value, number_of_cells).
    """
    t, s, n = truth.knots()
    snaps = np.arange(spacing, truth.duration, spacing)
    idx = np.searchsorted(t, snaps, side="right") - 1
    n_max = pi_qn.shape[1] - 1
    observed = np.zeros((2, n_max + 2))
    np.add.at(observed, (s[idx], np.minimum(n[idx], n_max + 1)), 1.0)
    expected = np.zeros_like(observed)
    expected[:, : n_max + 1] = pi_qn * len(snaps)
    observed, expected = observed.ravel(), expected.ravel()

    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5.0:  # merged tail still too thin: fold it into the thinnest cell
        k = int(np.argmin(exp[:-1]))
        obs[k] += obs[-1]
        exp[k] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    return float(stats.chisquare(obs, exp).pvalue), len(obs)


def transition_rate_chi2(truth, config: ScenarioConfig, n_max: int,
                         min_expected: float = 20.0):
    """Per-transition jump counts against generator rate x occupancy time.

    For each (q, N) -> (q', N') transition with a rate that is the same in
    every modulator state, count - rate * time_in_source is a martingale
    whose predictable variance is rate * time_in_source; distinct
    transitions never jump together, so sum z^2 over cells expecting at
    least min_expected jumps is chi-square with one degree of freedom per
    cell, although the trace is one correlated trajectory.  Rates that
    differ between modulator states are not observable from the trace and
    are skipped.  Returns (p_value, dof, forbidden) where forbidden counts
    jumps inside the truncation that the generator gives no rate in any
    modulator state.
    """
    t, s, n = truth.knots()
    dwell = np.diff(np.append(t, truth.duration))
    inside = n <= n_max
    occupancy = np.zeros((2, n_max + 1))
    np.add.at(occupancy, (s[inside], n[inside]), dwell[inside])

    shape = (2, int(n.max()) + 1) * 2
    codes, counts = np.unique(
        np.ravel_multi_index((s[:-1], n[:-1], s[1:], n[1:]), shape), return_counts=True
    )
    steps = zip(*(axis.tolist() for axis in np.unravel_index(codes, shape)))
    jumps = dict(zip(steps, counts.tolist()))

    ms = modulator_states(config)
    chi2 = 0.0
    dof = 0
    seen = set()
    for q in (0, 1):
        for k in range(n_max + 1):
            per_m = [
                {(q2, n2): rate
                 for (m2, q2, n2), rate in joint_rates(config, m, q, k) if m2 == m}
                for m in ms
            ]
            for target in set().union(*per_m):
                seen.add((q, k) + target)
                rates = {d.get(target, 0.0) for d in per_m}
                if len(rates) != 1:
                    continue
                expected = rates.pop() * occupancy[q, k]
                if expected >= min_expected:
                    count = jumps.get((q, k) + target, 0)
                    chi2 += (count - expected) ** 2 / expected
                    dof += 1
    forbidden = sum(c for key, c in jumps.items() if key[1] <= n_max and key not in seen)
    return float(stats.chi2.sf(chi2, dof)), dof, forbidden
