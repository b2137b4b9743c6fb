"""Least-squares fitting of the regression parameter on a time grid.

The estimator minimizes the squared-residual integral over the closed
parameter box.  The search is global-then-local: a full lattice scan over the
box picks starting points, and projected Gauss-Newton steps with backtracking
refine them.  The lattice stage is what makes the procedure match the
definition of the estimator (a global minimizer over the closure), not just a
local stationary point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, DomainError, NonConvergenceError
from .model import RegressionModel
from .numerics import TimeGrid, memo, trapezoid_weights


@dataclass(frozen=True)
class Observation:
    """Sampled observations X(t_j) on a grid."""

    grid: TimeGrid
    x_values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=float)
        if x.shape != (self.grid.n_nodes,):
            raise ContractError(
                f"observation has {x.shape} values for {self.grid.n_nodes} grid nodes"
            )
        if not np.all(np.isfinite(x)):
            raise DataError("observation contains non-finite values")
        object.__setattr__(self, "x_values", x)


class FitOptions:
    """The fit's one configuration, read as class attributes; nothing passes an instance."""

    coarse_grid_per_dim = 9
    n_refine_starts = 3
    local_tol_factor = 1e-8   # times the box diameter
    max_iter = 200
    tie_tol = 1e-10
    max_halvings = 40


@dataclass(frozen=True)
class LseResult:
    theta_hat: tuple[float, ...]
    q_value: float
    boundary: bool
    lattice_tie_count: int = 1


def _q(r: np.ndarray, w: np.ndarray, h: float, tau) -> float:
    """Trapezoid integral of the squared residual ``r``; the one Q expression."""
    val = float(h * np.dot(w, r * r))
    if not np.isfinite(val):
        raise DataError(f"objective is non-finite at tau {tau}")
    return val


def objective(obs: Observation, model: RegressionModel, tau) -> float:
    """Q(tau) = integral of (X(t) - a(t, tau))^2 dt; requires tau in the box."""
    tau = np.asarray(tau, dtype=float)
    if not model.box.contains(tau):
        raise DomainError(f"tau {tau} outside the parameter box")
    r = obs.x_values - model.eval(obs.grid.nodes, tau)
    return _q(r, trapezoid_weights(obs.grid), obs.grid.h, tau)


def _lattice_points(box, per_dim: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(box.lower, box.upper)]
    return np.array(list(itertools.product(*axes)))


def _solve(gram, ridge, rhs, eye) -> np.ndarray:
    """``np.linalg.solve(gram + ridge * eye, rhs)``; one parameter is one division.

    LAPACK's 1 x 1 solve is that division bit for bit, and it calls an exactly
    zero pivot singular, so this raises the same ``LinAlgError`` there.
    """
    if rhs.shape == (1,):
        pivot = gram[0, 0] + ridge
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return rhs / pivot
    return np.linalg.solve(gram + ridge * eye, rhs)


def _gauss_newton(obs, model, start, r, g, q_start, w, eye) -> tuple[np.ndarray, float, bool]:
    """Projected Gauss-Newton with step halving; monotone in Q by construction.

    ``r`` and ``g`` are the residual and model gradient at ``start``.  Candidates
    come from ``box.clip``, so Q needs no box check, and an accepted candidate
    carries its residual forward; its gradient is taken right after its ``eval``.
    """
    grid = obs.grid
    h = grid.h
    box = model.box
    tol = FitOptions.local_tol_factor * box.diameter
    tau = np.asarray(start, dtype=float)
    q_cur = q_start
    ridge = 0.0
    for _ in range(FitOptions.max_iter):
        if g is None:
            g = np.atleast_2d(model.grad(grid.nodes, tau))
        gw = g * w
        gram = h * (gw @ g.T)
        rhs = h * (gw @ r)
        try:
            step = _solve(gram, ridge, rhs, eye)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-10 * (np.trace(gram) + 1.0))
            continue
        if not np.all(np.isfinite(step)):
            raise DataError(f"non-finite search direction at tau {tau}")
        alpha = 1.0
        accepted = None
        for _ in range(FitOptions.max_halvings):
            cand = box.clip(tau + alpha * step)
            r_new = obs.x_values - model.eval(grid.nodes, cand)
            q_new = _q(r_new, w, h, cand)
            if q_new < q_cur:
                accepted = (cand, q_new, r_new)
                break
            if np.linalg.norm(cand - tau) < tol:
                break
            alpha *= 0.5
        if accepted is None:
            # no descent left at this point: treat as converged to a minimizer
            return tau, q_cur, True
        moved = float(np.linalg.norm(accepted[0] - tau))
        tau, q_cur, r = accepted
        g = None
        if moved < tol:
            return tau, q_cur, True
    return tau, q_cur, False


def lse_fit(obs: Observation, model: RegressionModel) -> LseResult:
    """Global lattice scan over the box followed by local Gauss-Newton refinement.

    Ties on the lattice are broken by the lexicographically smallest point and
    their multiplicity is recorded.  The returned objective value never exceeds
    the best lattice value.  Raises NonConvergenceError (carrying the best
    lattice point) if every refinement start hits the iteration cap.  The model
    values and gradients on the lattice are memoized per (model, grid), so
    ``model.eval`` and ``model.grad`` must be pure.
    """
    grid, per_dim = obs.grid, FitOptions.coarse_grid_per_dim
    points = memo(("lattice", model.box, per_dim), lambda: _lattice_points(model.box, per_dim))
    a_lattice = memo(("lattice values", model, grid, per_dim),
                     lambda: np.array([model.eval(grid.nodes, p) for p in points], dtype=float))
    g_lattice = memo(("lattice gradients", model, grid, per_dim),
                     lambda: np.array([np.atleast_2d(model.grad(grid.nodes, p)) for p in points],
                                      dtype=float))
    w = trapezoid_weights(grid)
    h = grid.h
    residuals = [obs.x_values - a for a in a_lattice]
    values = np.array([_q(r, w, h, p) for r, p in zip(residuals, points)])

    q_min = float(values.min())
    tie_mask = values <= q_min + FitOptions.tie_tol * max(1.0, abs(q_min))
    tie_count = int(tie_mask.sum())

    order = sorted(range(len(points)), key=lambda i: (values[i], tuple(points[i])))
    starts = order[: FitOptions.n_refine_starts]

    best_tau = points[order[0]]
    best_q = float(values[order[0]])
    eye = np.eye(model.q)
    any_converged = False
    for idx in starts:
        tau, q_val, ok = _gauss_newton(obs, model, points[idx], residuals[idx], g_lattice[idx],
                                       float(values[idx]), w, eye)
        any_converged = any_converged or ok
        if q_val < best_q or (q_val == best_q and tuple(tau) < tuple(best_tau)):
            best_tau, best_q = tau, q_val
    if not any_converged:
        raise NonConvergenceError(
            f"no refinement start converged within {FitOptions.max_iter} iterations",
            best_point=tuple(float(x) for x in best_tau),
            best_value=best_q,
        )

    lo, hi = model.box.lower_arr, model.box.upper_arr
    margin = 1e-8 * (hi - lo)
    boundary = bool(np.any(best_tau <= lo + margin) or np.any(best_tau >= hi - margin))
    return LseResult(
        theta_hat=tuple(float(x) for x in best_tau),
        q_value=best_q,
        boundary=boundary,
        lattice_tie_count=tie_count,
    )


def normalized_deviation(theta_hat, theta_true, norming) -> float:
    """Euclidean norm of N * (theta_hat - theta_true) for a diagonal norming N."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    norming = np.asarray(norming, dtype=float)
    if theta_hat.shape != theta_true.shape or theta_hat.shape != norming.shape:
        raise ContractError(
            f"dimension mismatch: theta_hat {theta_hat.shape}, theta_true {theta_true.shape}, "
            f"norming {norming.shape}"
        )
    return float(np.linalg.norm(norming * (theta_hat - theta_true)))
