"""qpjumps.optimize against scipy.optimize on the fits' own inputs, and no
command importing scipy.

scipy is the tests' oracle and no dependency of the package.  Each fit
runs twice: once on qpjumps.optimize and once with fitting.optimize
replaced by a stand-in that hands the same cost, starts and box to scipy,
L-BFGS-B for the Whittle fit and MINPACK's Levenberg-Marquardt
(least_squares(method="lm")) for the exponential fits.  Both are run to
their precision floor (tolerances 0 and machine epsilon): at MINPACK's
default 1e-8 the bootstrap refits stop short, and its errors move by up to
3e-6.  The lowest cost over the starts agrees to 1e-12 relative, and each
parameter to 1e-6 of the larger of its size and its standard error.  The
scale matters where the data do not pin a parameter: the floor of alpha
sweep seed 5002 has c_err = 6.5 c, and the two solvers put c 6e-7 of c
apart on a cost that is flat to its last bit there; the sweep's corner b
sits at or near its lower bound with b_err about 1e12 b.
"""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from qpjumps import fitting, optimize
from qpjumps.experiments import preset_config, run_recovery

from support import power_law_series

EPS = float(np.finfo(float).eps)


class Recorded:
    """fitting.optimize's interface over `solver`, keeping every result."""

    def __init__(self, solver):
        self.solver = solver
        self.results = []

    def minimize(self, *args, **kwargs):
        self.results.append(self.solver.minimize(*args, **kwargs))
        return self.results[-1]

    def least_squares(self, *args, **kwargs):
        self.results.append(self.solver.least_squares(*args, **kwargs))
        return self.results[-1]


class Scipy:
    """qpjumps.optimize's two entry points on scipy, run to precision."""

    @staticmethod
    def minimize(fun, x0, args=(), bounds=None, max_iter=1000):
        return scipy_optimize.minimize(
            lambda x, *a: fun(x, *a)[:2], x0, args=args, jac=True, method="L-BFGS-B",
            bounds=bounds, options={"ftol": 0.0, "gtol": 0.0, "maxiter": 15_000})

    @staticmethod
    def least_squares(fun, x0, jac, args=(), max_nfev=1000):
        return scipy_optimize.least_squares(fun, x0, jac=jac, args=args, method="lm",
                                            ftol=EPS, xtol=EPS, gtol=EPS, max_nfev=max_nfev)


def _both(monkeypatch, fit):
    """fit() on qpjumps.optimize and on scipy: (result, recorder) each,
    with any RuntimeWarning raised."""
    runs = []
    for solver in (optimize, Scipy):
        recorder = Recorded(solver)
        monkeypatch.setattr(fitting, "optimize", recorder)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runs.append((fit(), recorder))
    return runs


def _assert_close(ours, theirs, names, errors=True):
    for name in names:
        err = getattr(theirs, name + "_err")
        scale = max(abs(getattr(theirs, name)), err)
        assert abs(getattr(ours, name) - getattr(theirs, name)) <= 1e-6 * scale, name
        if errors:
            assert getattr(ours, name + "_err") == pytest.approx(err, rel=1e-6), name


def _clean_spectrum():
    # TestFitPowerLaw's noiseless spectrum: phi is at rounding level, so
    # the errors are rounding noise and are not compared
    f = np.geomspace(1e-3, 0.5, 300)
    alpha, corner_f = 1.4, 3e-3
    return f, 2e-4 / ((2 * math.pi * corner_f) ** alpha + (2 * math.pi * f) ** alpha) + 1e-2


def _sweep_spectrum(seed):
    # a series of the alpha_sweep fixture of test_fitting.py
    x = power_law_series(4096, 1.0, 1.4, amplitude=1.0, floor=2e-2,
                         rng=np.random.default_rng(seed))
    return fitting.periodogram(x, 1.0, n_segments=4)


@pytest.mark.parametrize("spectrum", ["clean", 5000, 5001, 5002])
def test_whittle_fit_matches_lbfgsb(monkeypatch, spectrum):
    freqs, power = _clean_spectrum() if spectrum == "clean" else _sweep_spectrum(spectrum)
    (ours, mine), (theirs, scipy_run) = _both(monkeypatch, lambda: fitting.fit_power_law(freqs, power))
    assert ours.status == theirs.status == "converged"
    best = min(res.fun for res in scipy_run.results)
    assert min(res.fun for res in mine.results) == pytest.approx(best, rel=1e-12)
    _assert_close(ours, theirs, ("a", "b", "alpha", "c"), errors=spectrum != "clean")


@pytest.fixture(scope="module")
def recovery_104():
    """times and tau_e of the full recovery preset at its seed, 104."""
    times, tau_e, _, _, _ = run_recovery(preset_config("recovery"))
    return times, tau_e, preset_config("recovery").qubit


def test_recovery_fit_matches_minpack(monkeypatch, recovery_104):
    (ours, mine), (theirs, scipy_run) = _both(
        monkeypatch, lambda: fitting.fit_recovery(*recovery_104))
    assert ours.status == theirs.status == "converged"
    # the 6 starts come first, then the bootstrap refits
    best = min(res.cost for res in scipy_run.results[:6])
    assert min(res.cost for res in mine.results[:6]) == pytest.approx(best, rel=1e-12)
    _assert_close(ours, theirs, ("tau", "x_steady", "x_initial"))


def test_flat_thermal_matches_minpack(monkeypatch):
    # the series of test_cli.py's test_fit_thermal_flat_data_warns_not_overflows:
    # tau runs far past the span, so only base + amp is identified, and
    # it is all that is compared
    temps = np.array([0.05100396157584217, 0.0493820929552924, 0.05182201136332833,
                      0.048679569029986706, 0.049338471978184785, 0.050935049988114024,
                      0.05004905461382531, 0.05200239258364526])
    times = np.arange(8) / 7
    (ours, mine), (theirs, scipy_run) = _both(monkeypatch, lambda: fitting.fit_thermal(times, temps))
    assert ours.status == theirs.status == "warned"
    best = min(res.cost for res in scipy_run.results[:6])
    assert min(res.cost for res in mine.results[:6]) == pytest.approx(best, rel=1e-12)
    assert min(ours.tau, theirs.tau) > 1e6
    assert ours.t_base + ours.delta_t == pytest.approx(theirs.t_base + theirs.delta_t, rel=1e-6)
    assert ours.residual_norm == pytest.approx(theirs.residual_norm, rel=1e-6)


def test_box_holds_a_variable_its_gradient_pushes_out():
    # 1/2 |x - c|^2 with c outside the box: the minimum is c clipped to it
    c = np.array([3.0, -2.0, 0.5])

    def cost(x):
        return 0.5 * float((x - c) @ (x - c)), x - c, np.eye(3)

    res = optimize.minimize(cost, np.zeros(3), bounds=[(-1.0, 1.0)] * 3)
    assert res.status == 0
    assert res.x[:2].tolist() == [1.0, -1.0]
    # the free one to sqrt(2 * eps * cost), where the cost stops resolving it
    assert res.x[2] == pytest.approx(0.5, abs=1e-7)


_NO_SCIPY = r"""
import json, os, sys, tempfile
import numpy as np
import qpjumps.cli
from qpjumps import io
after_import = "scipy" in sys.modules
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    def run(name, argv):
        codes[name] = qpjumps.cli.main(argv + ["--out", os.path.join(tmp, name)])
    run("psd", ["experiment", "psd", "--set", "duration=32"])
    run("recovery", ["experiment", "recovery", "--set", "duration=2.021",
                     "--set", "pulse_count=200"])
    run("quiet-noisy", ["experiment", "quiet-noisy", "--set", "duration=2"])
    unused = [name for name in ("importlib.metadata", "numpy.ma") if name in sys.modules]
    run("fit-psd", ["fit-psd", "--input", os.path.join(tmp, "psd", "series.csv")])
    run("fit-recovery", ["fit-recovery", "--input",
                         os.path.join(tmp, "recovery", "tau_e.csv"), "--bootstrap", "20"])
    t = np.linspace(0.0, 1e-2, 20)
    temps = os.path.join(tmp, "temps.csv")
    io.write_series_csv(temps, t, 0.045 + 0.01 * np.exp(-t / 2e-3), "temperature_K")
    run("fit-thermal", ["fit-thermal", "--input", temps, "--bootstrap", "20"])
print(json.dumps({"after_import": after_import, "at_end": "scipy" in sys.modules,
                  "unused": unused, "codes": codes}))
"""


def test_no_command_imports_scipy():
    # a fresh interpreter, as this one has imported scipy for the oracles;
    # the experiments also import neither importlib.metadata (the tool
    # version is the package's own string) nor numpy.ma (np.median and
    # np.nanmedian load it)
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True,
                          text=True, check=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"after_import": False, "at_end": False, "unused": [],
                      "codes": dict.fromkeys(["psd", "recovery", "quiet-noisy", "fit-psd",
                                              "fit-recovery", "fit-thermal"], 0)}
