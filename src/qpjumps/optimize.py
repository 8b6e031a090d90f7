"""One damped Gauss-Newton solver for the package's fits.

The core minimises a smooth cost from its value, its gradient and a
positive semi-definite curvature matrix: Levenberg-damped Gauss-Newton on
the Marquardt-scaled system, with each step projected onto a box.
Variables held at a bound by their gradient are frozen for the step, so
the stop is a box-constrained stationary point.  Two entry points feed
it: least_squares forms 1/2 |r|^2, J^T r and J^T J from a residual and its
Jacobian; minimize takes a cost that supplies its own curvature, such as
a likelihood and its Fisher information (Fisher scoring).

Every product with the n-row Jacobian is a row-wise sum (einsum), not a
BLAS call, so a fit runs on the caller's thread alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the descent stops when the quadratic model predicts a decrease below FTOL
# of the cost, one rounding of it, so that no further decrease can be
# resolved; or when an accepted step gains less than STALL of the cost, as
# Gauss-Newton does creeping along a curved valley
FTOL = float(np.finfo(float).eps)
STALL = 1e-14
# the damping after a rejected step is multiplied by a factor that doubles
# from 2 on every rejection in a row; an accepted step divides it by 3,
# down to LAMBDA_MIN
LAMBDA_START, LAMBDA_MIN = 1e-3, 1e-12


@dataclass
class OptimizeResult:
    """Where the descent stopped.  status 0: no further decrease can be
    resolved (FTOL) or a step gained next to nothing (STALL); status 1:
    the evaluation cap was reached."""

    x: np.ndarray
    fun: float
    nfev: int
    status: int
    message: str

    @property
    def cost(self) -> float:
        """fun under least_squares' name: 1/2 |r|^2 at x."""
        return self.fun


def _descend(cost, x0, max_iter: int, bounds=None) -> OptimizeResult:
    """Minimise cost(x) -> (f, gradient, curvature), inside bounds (a
    (low, high) pair per variable) if given, taking at most max_iter
    evaluations after the one at x0."""
    x = np.asarray(x0, dtype=float)
    if bounds is not None:
        lower, upper = np.asarray(bounds, dtype=float).T
        x = np.clip(x, lower, upper)
    f, g, h = cost(x)
    nfev, lam, grow = 1, LAMBDA_START, 2.0
    scale = np.zeros(len(x))
    for _ in range(max_iter):
        # Marquardt scaling by the largest curvature seen so far; a variable
        # held at a bound by its gradient gets a zero row, column and step
        scale = np.maximum(scale, h.diagonal())
        m = 1.0 / np.sqrt(np.where(scale > 0.0, scale, 1.0))
        if bounds is not None:
            m *= ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
        gs = g * m
        a = h * np.outer(m, m)
        a.flat[::len(x) + 1] += lam  # the damping, on the diagonal
        y = np.linalg.solve(a, -gs)
        # the decrease that the quadratic model predicts for this step
        if 0.5 * (lam * (y @ y) - gs @ y) <= FTOL * abs(f):
            return OptimizeResult(x, f, nfev, 0, "predicted decrease below FTOL of the cost")
        trial = x + y * m
        if bounds is not None:
            trial = np.clip(trial, lower, upper)
        f_new, g_new, h_new = cost(trial)
        nfev += 1
        if f_new < f:
            stalled = f - f_new <= STALL * abs(f)
            x, f, g, h = trial, f_new, g_new, h_new
            if stalled:
                return OptimizeResult(x, f, nfev, 0, "decrease below STALL of the cost")
            lam, grow = max(lam / 3.0, LAMBDA_MIN), 2.0
        else:
            lam, grow = lam * grow, grow * 2.0
    return OptimizeResult(x, f, nfev, 1, f"stopped at the cap of {max_iter} evaluations")


def least_squares(fun, x0, jac, args=(), max_nfev: int = 1000) -> OptimizeResult:
    """Minimise 1/2 |fun(x, *args)|^2 with the Jacobian jac(x, *args) of
    the residual (n rows, one column per parameter), unbounded."""

    def cost(x):
        r = fun(x, *args)
        j = jac(x, *args)
        return 0.5 * float(r @ r), np.einsum("ij,i->j", j, r), np.einsum("ij,ik->jk", j, j)

    return _descend(cost, x0, max_nfev)


def minimize(fun, x0, args=(), bounds=None, max_iter: int = 1000) -> OptimizeResult:
    """Minimise fun(x, *args) -> (cost, gradient, curvature) inside bounds,
    a (low, high) pair per parameter, or unbounded when bounds is None."""
    return _descend(lambda x: fun(x, *args), x0, max_iter, bounds)
