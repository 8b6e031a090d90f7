import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpjumps.kinetics import (
    QpKineticsParams,
    evolve_ode,
    exponential_relaxation,
    relaxation_time,
    steady_state,
)

TRAP_LIMITED = QpKineticsParams()  # defaults: trap-limited, x_bar=4e-8


class TestSteadyState:
    def test_trap_dominated_value(self):
        assert steady_state(TRAP_LIMITED) == pytest.approx(4e-8, rel=1e-12)

    def test_no_generation(self):
        assert steady_state(QpKineticsParams(generation=0.0, trapping=100.0)) == 0.0

    def test_recombination_only(self):
        p = QpKineticsParams(generation=1.0, trapping=0.0, recombination=4.0)
        assert steady_state(p) == pytest.approx(0.5, rel=1e-12)

    def test_no_removal_rejected_at_construction(self):
        with pytest.raises(ValueError):
            QpKineticsParams(generation=1.0, trapping=0.0, recombination=0.0)

    @given(
        g=st.floats(min_value=1e-8, max_value=1e3),
        s=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6)),
        r=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e12)),
    )
    def test_root_residual(self, g, s, r):
        if s == 0.0 and r == 0.0:
            return
        p = QpKineticsParams(generation=g, trapping=s, recombination=r)
        x = steady_state(p)
        assert x >= 0
        assert abs(g - s * x - r * x * x) < 1e-15 * g


class TestRelaxationTime:
    def test_trap_limited_regime_125_us(self):
        assert relaxation_time(TRAP_LIMITED, 4e-8) == pytest.approx(125e-6, rel=1e-12)

    def test_recombination_only(self):
        p = QpKineticsParams(generation=1.0, trapping=0.0, recombination=4.0)
        assert relaxation_time(p, 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_mixed_channels(self):
        p = QpKineticsParams(generation=1.0, trapping=1000.0, recombination=1e10)
        assert relaxation_time(p, 1e-7) == pytest.approx(1.0 / 3000.0, rel=1e-12)

    def test_frozen_dynamics_error(self):
        p = QpKineticsParams(generation=0.0, trapping=0.0, recombination=0.0)
        with pytest.raises(ValueError):
            relaxation_time(p, 0.0)


class TestExponentialRelaxation:
    def test_initial_condition(self):
        assert exponential_relaxation(3e-8, 4e-8, 125e-6, 0.0) == pytest.approx(3e-8)

    def test_asymptote(self):
        assert exponential_relaxation(3e-7, 4e-8, 125e-6, 1.0) == pytest.approx(4e-8)

    def test_one_time_constant(self):
        x = exponential_relaxation(8e-8, 4e-8, 125e-6, 125e-6)
        assert x == pytest.approx(4e-8 * (1.0 + 1.0 / math.e), rel=1e-12)

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            exponential_relaxation(1.0, 0.5, 0.0, 1.0)


class TestEvolveOde:
    def test_fixed_point(self):
        x_bar = steady_state(TRAP_LIMITED)
        t = np.linspace(0, 1e-3, 11)
        x = evolve_ode(x_bar, TRAP_LIMITED, t)
        assert np.all(np.abs(x - x_bar) <= 1e-10 * x_bar)

    def test_frozen_dynamics(self):
        p = QpKineticsParams(generation=0.0, trapping=0.0, recombination=0.0)
        x = evolve_ode(3.7e-8, p, np.linspace(0, 1.0, 5))
        assert np.all(x == 3.7e-8)

    def test_matches_linear_solution_for_pure_trapping(self):
        # with no recombination the dynamics is exactly linear at any amplitude
        x_bar = steady_state(TRAP_LIMITED)
        tau = relaxation_time(TRAP_LIMITED, x_bar)
        t = np.linspace(0, 10 * tau, 40)
        for x0 in (x_bar * 1.01, x_bar * 10, 0.0):
            numeric = evolve_ode(x0, TRAP_LIMITED, t)
            analytic = exponential_relaxation(x0, x_bar, tau, t)
            assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-20)

    def test_converges_from_anywhere(self):
        # after 10 time constants the remaining transient is below 1e-4 of
        # the initial displacement (e^-10 ~ 4.5e-5, nonlinear decay faster)
        for p in (
            TRAP_LIMITED,
            QpKineticsParams(generation=1e-3, trapping=5000.0, recombination=2e9),
        ):
            x_bar = steady_state(p)
            tau = relaxation_time(p, x_bar)
            for x0 in (0.0, 0.3 * x_bar, 3 * x_bar, 10 * x_bar):
                x = evolve_ode(x0, p, np.array([0.0, 10 * tau]))
                assert abs(x[-1] - x_bar) <= 1e-4 * max(abs(x0 - x_bar), 1e-30)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            evolve_ode(-1e-9, TRAP_LIMITED, np.array([0.0, 1.0]))
