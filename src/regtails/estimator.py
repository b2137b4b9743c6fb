"""Least-squares fitting of the regression parameter on a time grid.

The estimator minimizes the squared-residual integral over the closed
parameter box.  The search is global-then-local: a full lattice scan over the
box picks starting points, and projected Gauss-Newton steps with backtracking
refine them.  The lattice stage is what makes the procedure match the
definition of the estimator (a global minimizer over the closure), not just a
local stationary point.

A lattice point starts a refinement only if no axis neighbour strictly
undercuts it, the rule of multi-level single linkage (Rinnooy Kan & Timmer,
"Stochastic global optimization methods, Part II: Multi level methods",
Math. Programming 39, 1987): one start per basin the lattice resolves.  So a
unimodal lattice is refined once, and on a plateau, where every point counts,
several starts remain.  A basin with no lattice point of its own is found only
if some Gauss-Newton step happens to land in it.

A model whose mean is f(tau) phi(t) with f strictly increasing (its
:class:`~regtails.model.ScalarForm`) needs no search: Q has one basin, and
``harness.ScalarDesign`` takes its minimizer over the box in closed form.  The
search, :func:`lse_fit`, serves the models without one: q >= 2, tabulated
regressors and custom models.
"""

from __future__ import annotations

import math
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
    n_refine_starts = 3       # at most; only lattice local minima start (see lse_fit)
    local_tol_factor = 1e-8   # times the box diameter
    max_iter = 200
    tie_tol = 1e-10
    max_halvings = 40


@dataclass(frozen=True)
class LseResult:
    theta_hat: tuple[float, ...]
    q_value: float
    boundary: bool
    lattice_tie_count: int
    n_starts: int


def _q(r: np.ndarray, w: np.ndarray, h: float, tau) -> float:
    """Trapezoid integral of the squared residual ``r``; the one Q expression."""
    val = float(h * np.dot(w, r * r))
    if not math.isfinite(val):
        raise DataError(f"objective is non-finite at tau {tau}")
    return val


def objective(obs: Observation, model: RegressionModel, tau) -> float:
    """Q(tau) = integral of (X(t) - a(t, tau))^2 dt; requires tau in the box."""
    tau = np.asarray(tau, dtype=float)
    if not model.box.contains(tau):
        raise DomainError(f"tau {tau} outside the parameter box")
    r = obs.x_values - model.eval(obs.grid.nodes, tau)
    return _q(r, trapezoid_weights(obs.grid), obs.grid.h, tau)


def _rank_lattice(v: list[float], per_dim: int, q: int) -> tuple[list[int], int]:
    """The refinement starts and the number of lattice points tied at the minimum.

    A start is a point that no axis neighbour strictly undercuts; the starts
    are taken in the order of (value, point), at most
    ``FitOptions.n_refine_starts`` of them, so the lowest point is the first.
    The values ``v`` are in :meth:`~regtails.model.ParameterBox.lattice` order,
    the last axis varying fastest: the neighbours of point i along an axis of
    stride s are i - s and i + s, and the order of increasing axes is
    lexicographic, so a stable sort by value breaks ties by point.
    """
    q_min = min(v)
    tie = q_min + FitOptions.tie_tol * max(1.0, abs(q_min))
    tie_count = sum(x <= tie for x in v)
    strides = [per_dim ** k for k in range(q)]
    last = per_dim - 1
    starts = []
    for i in sorted(range(len(v)), key=v.__getitem__):
        x = v[i]
        for s in strides:
            k = i // s % per_dim
            if (k > 0 and v[i - s] < x) or (k < last and v[i + s] < x):
                break
        else:
            starts.append(i)
            if len(starts) == FitOptions.n_refine_starts:
                break
    return starts, tie_count


def _clip(theta: np.ndarray, box) -> np.ndarray:
    """``theta``, a point or rows of points, clipped to the box; a tie takes the bound, signed zero
    included, which ``np.clip`` does not do against bounds broadcast over rows."""
    lo, hi = box.lower_arr, box.upper_arr
    return np.where(theta <= lo, lo, np.where(theta >= hi, hi, theta))


def _at_bound(theta: np.ndarray, box) -> np.ndarray:
    """Per point of ``theta`` (a point or rows of points): a coordinate within 1e-8 of its width from a bound."""
    lo, hi = box.lower_arr, box.upper_arr
    return ((theta <= lo + 1e-8 * (hi - lo)) | (theta >= hi - 1e-8 * (hi - lo))).any(axis=-1)


def _gauss_newton(obs, model, start, r, q_start, w) -> tuple[np.ndarray, float, bool]:
    """Projected Gauss-Newton with step halving; monotone in Q by construction.

    ``start`` is a parameter array and ``r`` the residual there.  Each candidate
    is clipped to the box by :func:`_clip`, so a tie with a bound takes the
    bound, signed zero included, and Q needs no box check.  An accepted
    candidate carries its residual forward.
    """
    grid = obs.grid
    nodes, h = grid.nodes, grid.h
    box = model.box
    tol = FitOptions.local_tol_factor * box.diameter
    tau, q_cur = start, q_start
    g = None
    ridge = 0.0
    for _ in range(FitOptions.max_iter):
        if g is None:
            g = np.atleast_2d(model.grad(nodes, tau))
        gw = g * w
        gram = h * (gw @ g.T)
        rhs = h * (gw @ r)
        try:
            step = np.linalg.solve(gram + ridge * np.eye(model.q), rhs)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-10 * (float(np.trace(gram)) + 1.0))
            continue
        if not np.all(np.isfinite(step)):
            raise DataError(f"non-finite search direction at tau {tau}")
        alpha = 1.0
        accepted = None
        for _ in range(FitOptions.max_halvings):
            cand = _clip(tau + alpha * step, box)
            r_new = obs.x_values - model.eval(nodes, cand)
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
        moved = np.linalg.norm(accepted[0] - tau)
        tau, q_cur, r = accepted
        g = None
        if moved < tol:
            return tau, q_cur, True
    return tau, q_cur, False


def _lattice_tables(model: RegressionModel, grid: TimeGrid, per_dim: int) -> tuple[np.ndarray, ...]:
    """What the lattice scan needs apart from the data, built once per (model, grid).

    The points p, the model values a_p there (points x N floats, the bulk of
    the store), the trapezoid weights w, and e_p = h sum w a_p^2, the data-free
    term of Q(p) = h x'(w x) - 2h a_p'(w x) + e_p.
    """
    points = model.box.lattice(per_dim)
    a = np.array([model.eval(grid.nodes, p) for p in points], dtype=float)
    w = trapezoid_weights(grid)
    return points, a, w, grid.h * ((a * a) @ w)


def lse_fit(obs: Observation, model: RegressionModel) -> LseResult:
    """Global lattice scan over the box followed by local Gauss-Newton refinement.

    Refinement starts from at most ``FitOptions.n_refine_starts`` lattice local
    minima (points no axis neighbour strictly undercuts), taken in the order of
    (value, point); their number is ``n_starts``.  The lowest lattice point is
    always one, so a unimodal lattice is refined once, and every point of a
    plateau counts.  A basin with no lattice point of its own is found only when
    a Gauss-Newton step happens to jump into it.  Ties on the lattice are broken
    by the lexicographically smallest point and their multiplicity is recorded.
    The returned objective value never exceeds the best lattice value.  Raises
    NonConvergenceError (carrying the best lattice point) if every refinement
    start hits the iteration cap.  The model values on the lattice, points x N
    floats, are memoized per (model, grid), so ``model.eval`` must be pure;
    each start takes its gradient from ``model.grad``.

    A model with a :class:`~regtails.model.ScalarForm` is fitted in closed form
    by ``harness.ScalarDesign`` instead; this fit serves the rest: q >= 2,
    tabulated regressors and custom models.

    The lattice values come from the expanded square, one matrix-vector product
    per fit.  They only rank the points (order, ties, basins): identical model
    rows tie exactly, and each start's residual and Q are taken directly, so a
    refinement starts from the same numbers as :func:`objective`'s.
    """
    grid, per_dim = obs.grid, FitOptions.coarse_grid_per_dim
    points, a_lattice, w, e = memo(
        ("lattice", model, grid, per_dim), lambda: _lattice_tables(model, grid, per_dim))
    h, x = grid.h, obs.x_values
    wx = w * x
    values = h * (x @ wx) + (e - 2.0 * h * (a_lattice @ wx))
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DataError(f"objective is non-finite at tau {points[bad]}")

    starts, tie_count = _rank_lattice(values.tolist(), per_dim, model.q)

    # the first start's result always replaces this, since its Q is finite
    best_tau, best_q = (), math.inf
    any_converged = False
    for idx in starts:
        r = x - a_lattice[idx]
        tau, q_val, ok = _gauss_newton(obs, model, points[idx], r, _q(r, w, h, points[idx]), w)
        tau = tuple(tau.tolist())
        any_converged = any_converged or ok
        if q_val < best_q or (q_val == best_q and tau < best_tau):
            best_tau, best_q = tau, q_val
    if not any_converged:
        raise NonConvergenceError(
            f"no refinement start converged within {FitOptions.max_iter} iterations",
            best_point=best_tau,
        )

    return LseResult(
        theta_hat=best_tau,
        q_value=best_q,
        boundary=bool(_at_bound(np.array(best_tau), model.box)),
        lattice_tie_count=tie_count,
        n_starts=len(starts),
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
