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
"""

from __future__ import annotations

import itertools
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
    lattice_tie_count: int = 1
    n_starts: int = 1


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


def _lattice_points(box, per_dim: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(box.lower, box.upper)]
    return np.array(list(itertools.product(*axes)))


def _rank_lattice(v: list[float], per_dim: int, q: int) -> tuple[list[int], int]:
    """The refinement starts and the number of lattice points tied at the minimum.

    A start is a point that no axis neighbour strictly undercuts; the starts
    are taken in the order of (value, point), at most
    ``FitOptions.n_refine_starts`` of them, so the lowest point is the first.
    The values ``v`` are in ``itertools.product`` order, the last axis varying fastest:
    the neighbours of point i along an axis of stride s are i - s and i + s, and
    the order of increasing axes is lexicographic, so a stable sort by value
    breaks ties by point.
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


def _solve(gram, ridge, rhs) -> list[float]:
    """``np.linalg.solve(gram + ridge * I, rhs)`` as floats; one parameter is one division,
    for which ``gram`` may also be a nested list.

    LAPACK's 1 x 1 solve is that division bit for bit, and it calls an exactly
    zero pivot singular, so this raises the same ``LinAlgError`` there.
    """
    if len(rhs) == 1:
        pivot = float(gram[0][0]) + ridge
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return [float(rhs[0]) / pivot]
    return np.linalg.solve(gram + ridge * np.eye(len(rhs)), rhs).tolist()


def _distance(a: list[float], b: list[float]) -> float:
    """Euclidean distance as the root of the summed squares.

    For one parameter this is ``np.linalg.norm``'s rounding, bit for bit; for
    more, ``np.linalg.norm`` may round its dot product differently (fused
    multiply-add), so the two can differ in the last bit.
    """
    return math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))


def _gauss_newton(box, start, q_start, state, system, value) -> tuple[list[float], float, bool]:
    """Projected Gauss-Newton with step halving; monotone in Q by construction.

    The parameter is a list of floats, ``start`` with Q value ``q_start``.
    ``system(tau, state)`` is the Gauss-Newton system (gram, rhs) at ``tau``,
    and ``value(cand)`` is Q at a candidate together with the state ``system``
    reads there, so an accepted candidate carries it forward.  Each candidate is
    clipped by ``ParameterBox.clip``, so a tie with a bound takes the bound,
    signed zero included, and Q needs no box check.
    """
    tol = FitOptions.local_tol_factor * box.diameter
    tau, q_cur = start, q_start
    ridge = 0.0
    normal = None
    for _ in range(FitOptions.max_iter):
        if normal is None:
            normal = system(tau, state)
        gram, rhs = normal
        try:
            step = _solve(gram, ridge, rhs)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-10 * (float(np.trace(gram)) + 1.0))
            continue
        if not all(map(math.isfinite, step)):
            raise DataError(f"non-finite search direction at tau {np.array(tau)}")
        alpha = 1.0
        accepted = None
        for _ in range(FitOptions.max_halvings):
            cand = box.clip([t + alpha * s for t, s in zip(tau, step)])
            q_new, cand_state = value(cand)
            if q_new < q_cur:
                accepted = (cand, q_new, cand_state)
                break
            if _distance(cand, tau) < tol:
                break
            alpha *= 0.5
        if accepted is None:
            # no descent left at this point: treat as converged to a minimizer
            return tau, q_cur, True
        moved = _distance(accepted[0], tau)
        tau, q_cur, state = accepted
        normal = None
        if moved < tol:
            return tau, q_cur, True
    return tau, q_cur, False


def _search(box, values: list[float], start_at, system, value) -> LseResult:
    """Rank the lattice ``values``, refine from the starts and keep the best: every fit's body.

    ``start_at(i)`` is lattice point i as a list of floats, Q there and the
    state of :func:`_gauss_newton`, which ``system`` and ``value`` define.
    """
    starts, tie_count = _rank_lattice(values, FitOptions.coarse_grid_per_dim, box.q)
    # the first start's result always replaces this, since its Q is finite
    best_tau, best_q = [], math.inf
    any_converged = False
    for idx in starts:
        tau, q_val, ok = _gauss_newton(box, *start_at(idx), system, value)
        any_converged = any_converged or ok
        if q_val < best_q or (q_val == best_q and tau < best_tau):
            best_tau, best_q = tau, q_val
    if not any_converged:
        raise NonConvergenceError(
            f"no refinement start converged within {FitOptions.max_iter} iterations",
            best_point=tuple(best_tau),
        )

    boundary = any(t <= lo + 1e-8 * (hi - lo) or t >= hi - 1e-8 * (hi - lo)
                   for t, lo, hi in zip(best_tau, box.lower, box.upper))
    return LseResult(
        theta_hat=tuple(best_tau),
        q_value=best_q,
        boundary=boundary,
        lattice_tie_count=tie_count,
        n_starts=len(starts),
    )


def _lattice_tables(model: RegressionModel, grid: TimeGrid, per_dim: int) -> tuple[np.ndarray, ...]:
    """What the lattice scan needs apart from the data, built once per (model, grid).

    The points p, the model values a_p and gradients there, the trapezoid
    weights w, and e_p = h sum w a_p^2, the data-free term of
    Q(p) = h x'(w x) - 2h a_p'(w x) + e_p.
    """
    points = _lattice_points(model.box, per_dim)
    a = np.array([model.eval(grid.nodes, p) for p in points], dtype=float)
    g = np.array([np.atleast_2d(model.grad(grid.nodes, p)) for p in points], dtype=float)
    w = trapezoid_weights(grid)
    return points, a, g, w, grid.h * ((a * a) @ w)


def lse_fit(obs: Observation, model: RegressionModel) -> LseResult:
    """Global lattice scan over the box followed by local Gauss-Newton refinement.

    Refinement starts from at most ``FitOptions.n_refine_starts`` lattice local
    minima (points no axis neighbour strictly undercuts), taken in the order of
    (value, point); their number is ``n_starts``.  The lowest lattice point is
    always one, so a unimodal lattice is refined once, and every point of a
    plateau counts.  A basin with no lattice point of its own is found only when
    a Gauss-Newton step happens to jump into it.  Ties on the lattice are broken
    by the lexicographically smallest point and their multiplicity is recorded.
    The returned objective value never exceeds the best lattice value.  Raises NonConvergenceError (carrying the best
    lattice point) if every refinement start hits the iteration cap.  The model
    values and gradients on the lattice are memoized per (model, grid), so
    ``model.eval`` and ``model.grad`` must be pure.

    The lattice values come from the expanded square, one matrix-vector product
    per fit.  They only rank the points (order, ties, basins): identical model
    rows tie exactly, and each start's residual and Q are taken directly, so a
    refinement starts from the same numbers as :func:`objective`'s.
    """
    grid, per_dim = obs.grid, FitOptions.coarse_grid_per_dim
    points, a_lattice, g_lattice, w, e = memo(
        ("lattice", model, grid, per_dim), lambda: _lattice_tables(model, grid, per_dim))
    h, x = grid.h, obs.x_values
    wx = w * x
    values = h * (x @ wx) + (e - 2.0 * h * (a_lattice @ wx))
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DataError(f"objective is non-finite at tau {points[bad]}")

    def start_at(i):
        r = x - a_lattice[i]
        return points[i].tolist(), _q(r, w, h, points[i]), (r, g_lattice[i])

    return _search(model.box, values.tolist(), start_at, *_path_steps(obs, model, w))


def _path_steps(obs: Observation, model: RegressionModel, w: np.ndarray):
    """:func:`_gauss_newton`'s ``system`` and ``value`` on a path, with trapezoid weights ``w``.

    The state at a point is its residual r and model gradient g, or None for a
    gradient not taken yet: an accepted candidate's is taken right after its
    ``eval``, on the same parameter bits, so exp_inner reuses that value.
    """
    nodes, h, x = obs.grid.nodes, obs.grid.h, obs.x_values

    def system(tau, state):
        r, g = state
        if g is None:
            g = np.atleast_2d(model.grad(nodes, np.array(tau)))
        gw = g * w
        return h * (gw @ g.T), h * (gw @ r)

    def value(cand):
        cand_arr = np.array(cand)
        r = x - model.eval(nodes, cand_arr)
        return _q(r, w, h, cand_arr), (r, None)

    return system, value


def _scalar_lattice(model: RegressionModel, per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice points of a one-parameter box and f there."""
    points = _lattice_points(model.box, per_dim)
    return points, np.array([model.scalar.f(p) for p in points[:, 0].tolist()])


def lse_fit_scalar(s: float, gram: float, model: RegressionModel) -> LseResult:
    """:func:`lse_fit` of a model with a :class:`~regtails.model.ScalarForm`, from one number.

    For a mean f(tau) phi(t), Q(tau) = h x'wx - 2 f(tau) s + f(tau)^2 G with
    s = h w.(phi x) and ``gram`` G = h w.phi^2, so a path enters only through s.
    The data-only term h x'wx is the same at every tau and is left out: here Q is
    f^2 G - 2 f s, which is also the returned ``q_value``, and the lattice tie
    tolerance is relative to its minimum.  The lattice, its ranking and the
    Gauss-Newton loop are :func:`lse_fit`'s, on this Q: the gram is f'^2 G and
    the right-hand side f' (s - f G).  f on the lattice is memoized per model.
    """
    f, f_prime = model.scalar.f, model.scalar.f_prime
    per_dim = FitOptions.coarse_grid_per_dim
    points, f_lattice = memo(("scalar lattice", model, per_dim),
                             lambda: _scalar_lattice(model, per_dim))
    points, f_lattice = points.tolist(), f_lattice.tolist()

    def q_at(fv, tau):
        val = fv * fv * gram - 2.0 * fv * s
        if not math.isfinite(val):
            raise DataError(f"objective is non-finite at tau {np.array(tau)}")
        return val

    values = [q_at(fv, p) for fv, p in zip(f_lattice, points)]

    def start_at(i):
        return points[i], values[i], f_lattice[i]

    def system(tau, fv):
        fp = f_prime(tau[0])
        return [[fp * fp * gram]], [fp * (s - fv * gram)]

    def value(cand):
        fv = f(cand[0])
        return q_at(fv, cand), fv

    return _search(model.box, values, start_at, system, value)


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
