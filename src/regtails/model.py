"""Regression functions, norming matrices, and identifiability constants.

A :class:`RegressionModel` bundles the response surface a(t, tau), its
parameter gradient, and the admissible box for tau.  The norming machinery
measures parameter deviations on the natural scale: either the diagonal of
gradient L2 norms, or the parameter-free sqrt(T) diagonal that is equivalent
to it up to uniform constants for well-behaved models.

The quadratic-equivalence constants (c0, c1) bounding

    c0 * ||u - v||^2  <=  Phi(u, v)  <=  c1 * ||u - v||^2

are estimated by sampling pairs in the normed box image; for the
exponential-of-inner-product model they also have computable theoretical
values via the regressor Gram matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, DegenerateModelError, DomainError
from .numerics import TimeGrid, integrate


@dataclass(frozen=True)
class ParameterBox:
    """Closure of an open bounded box in R^q, given by per-coordinate bounds.

    Equality and hash cover the bound tuples; the array forms are built once,
    read-only, and left out of both.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lower_arr: np.ndarray = field(init=False, repr=False, compare=False)
    upper_arr: np.ndarray = field(init=False, repr=False, compare=False)
    diameter: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
            raise ContractError("box bounds must be 1-d sequences of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ContractError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ContractError(f"box must satisfy lower < upper per coordinate, got {lo} / {hi}")
        object.__setattr__(self, "lower", tuple(float(x) for x in lo))
        object.__setattr__(self, "upper", tuple(float(x) for x in hi))
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower_arr", lo)
        object.__setattr__(self, "upper_arr", hi)
        object.__setattr__(self, "diameter", float(np.linalg.norm(hi - lo)))

    @property
    def q(self) -> int:
        return len(self.lower)

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta >= self.lower_arr - 1e-12) and np.all(theta <= self.upper_arr + 1e-12))

    def clip(self, theta) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.lower_arr, self.upper_arr)

    def corners(self) -> np.ndarray:
        cols = [(lo, hi) for lo, hi in zip(self.lower, self.upper)]
        return np.array(list(itertools.product(*cols)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower_arr, self.upper_arr, size=(n, self.q))


@dataclass(frozen=True)
class RegressionModel:
    """Response surface with gradient: eval(t, tau) -> values, grad(t, tau) -> (q, len(t)).

    ``eval`` and ``grad`` must be pure functions of ``(t, tau)``: ``lse_fit``
    memoizes both at the lattice points per model and grid.
    """

    box: ParameterBox
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"

    @property
    def q(self) -> int:
        return self.box.q


# -- built-in models ------------------------------------------------------


def linear_model(box: ParameterBox) -> RegressionModel:
    """a(t, tau) = tau * t, scalar parameter."""
    if box.q != 1:
        raise ConfigError("linear model is scalar; box must be one-dimensional")
    return RegressionModel(
        box=box,
        eval=lambda t, tau: tau[0] * t,
        grad=lambda t, tau: np.asarray(t, dtype=float)[None, :].copy(),
        name="linear",
    )


def constant_model(box: ParameterBox) -> RegressionModel:
    """a(t, tau) = tau, scalar parameter."""
    if box.q != 1:
        raise ConfigError("constant model is scalar; box must be one-dimensional")
    return RegressionModel(
        box=box,
        eval=lambda t, tau: np.full(np.shape(t), tau[0], dtype=float),
        grad=lambda t, tau: np.ones((1, np.size(t))),
        name="constant",
    )


def exp_inner_model(regressors: Callable[[np.ndarray], np.ndarray],
                    box: ParameterBox) -> RegressionModel:
    """a(t, tau) = exp(<tau, y(t)>) with bounded regressors y: R+ -> R^q.

    The rows y(t) of a read-only node array (a grid's ``nodes``) are built once
    and reused while calls pass that same array; a writable ``t`` is rebuilt on
    every call.  On those nodes ``grad`` reuses the value of the last ``eval``
    when ``tau`` is bit-equal, as after each accepted Gauss-Newton step, so the
    gradient y * a costs no second ``exp``.
    """
    nodes = rows = tau_key = value = None

    def _rows(t):
        nonlocal nodes, rows, tau_key, value
        if t is nodes:
            return rows, True
        y = np.atleast_2d(regressors(np.asarray(t, dtype=float)))
        if isinstance(t, np.ndarray) and not t.flags.writeable:
            # holding the array keeps its id from being reused while it is cached
            nodes, rows, tau_key, value = t, y, None, None
            return y, True
        return y, False

    def _eval(t, tau):
        nonlocal tau_key, value
        y, cached = _rows(t)
        tau = np.asarray(tau, dtype=float)
        a = np.exp(tau @ y)
        if cached:
            tau_key, value = (tau.shape, tau.tobytes()), a.copy()
        return a

    def _grad(t, tau):
        y, cached = _rows(t)
        tau = np.asarray(tau, dtype=float)
        if cached and tau_key == (tau.shape, tau.tobytes()):
            return y * value[None, :]
        return y * np.exp(tau @ y)[None, :]

    return RegressionModel(box=box, eval=_eval, grad=_grad, name="exp_inner")


def constant_regressors(q: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda t: np.ones((q, np.size(t)))


def cosine_regressors(q: int) -> Callable[[np.ndarray], np.ndarray]:
    """Rows 1, cos t, cos 2t, ... (first q of them)."""

    def y(t):
        t = np.asarray(t, dtype=float)
        rows = [np.ones_like(t)] + [np.cos(k * t) for k in range(1, q)]
        return np.vstack(rows)

    return y


def tabulated_regressors(path) -> Callable[[np.ndarray], np.ndarray]:
    """Columns after the first of a text file are regressor components of t."""
    data = np.atleast_2d(np.loadtxt(path, dtype=float))
    if data.shape[1] < 2:
        raise ConfigError(f"regressor file {path} needs a time column plus at least one value column")
    t_tab = data[:, 0]
    if not np.all(np.diff(t_tab) > 0):
        raise ConfigError(f"regressor file {path} must have strictly increasing times")
    comps = data[:, 1:].T

    def y(t):
        t = np.asarray(t, dtype=float)
        return np.vstack([np.interp(t, t_tab, c) for c in comps])

    return y


REGRESSOR_REGISTRY = {
    "constant": constant_regressors,
    "cosine": cosine_regressors,
}


def make_regressors(name: str, q: int) -> Callable[[np.ndarray], np.ndarray]:
    try:
        return REGRESSOR_REGISTRY[name](q)
    except KeyError:
        raise ConfigError(
            f"unknown regressor family {name!r}; expected one of {sorted(REGRESSOR_REGISTRY)}"
        ) from None


# -- norming ---------------------------------------------------------------


def norming_matrix(model: RegressionModel, theta, grid: TimeGrid) -> np.ndarray:
    """Diagonal entries d_i = sqrt(integral of (d a / d theta_i)^2), all > 0."""
    theta = np.asarray(theta, dtype=float)
    if not model.box.contains(theta):
        raise DomainError(f"theta {theta} outside the parameter box")
    g = np.atleast_2d(model.grad(grid.nodes, theta))
    d = np.empty(model.q)
    for i in range(model.q):
        d[i] = math.sqrt(max(integrate(g[i] ** 2, grid), 0.0))
        if not d[i] > 0.0:
            raise DegenerateModelError(
                f"norming entry {i} vanishes at theta {theta}; deviation scale undefined"
            )
    return d


NORMING_MODES = ("d_T", "s_T")


def norming_vector(mode: str, model: RegressionModel, theta, grid: TimeGrid) -> np.ndarray:
    """Norming diagonal: gradient L2 norms ("d_T") or sqrt(T) * identity ("s_T")."""
    if mode == "d_T":
        return norming_matrix(model, theta, grid)
    if mode == "s_T":
        return np.full(model.q, math.sqrt(grid.T))
    raise ConfigError(f"unknown norming mode {mode!r}; expected one of {NORMING_MODES}")


def _shifted_parameter(model, theta, norming, u, label):
    shifted = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float) / np.asarray(norming)
    lo, hi = model.box.lower_arr, model.box.upper_arr
    bad = np.where((shifted < lo - 1e-12) | (shifted > hi + 1e-12))[0]
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"normalized shift {label} leaves the box at coordinate {i}: "
            f"value {shifted[i]:.6g} outside [{lo[i]:.6g}, {hi[i]:.6g}]"
        )
    return shifted


def phi(model: RegressionModel, theta, grid: TimeGrid, norming, u, v) -> float:
    """Squared L2 distance of normalized increments:

    Phi(u, v) = integral of (a(t, theta + N^{-1} u) - a(t, theta + N^{-1} v))^2 dt.

    Nonnegative, symmetric, and zero at u = v.
    """
    tau_u = _shifted_parameter(model, theta, norming, u, "u")
    tau_v = _shifted_parameter(model, theta, norming, v, "v")
    diff = model.eval(grid.nodes, tau_u) - model.eval(grid.nodes, tau_v)
    return integrate(diff * diff, grid)


def estimate_equivalence_constants(model: RegressionModel, theta, grid: TimeGrid, norming,
                                   n_pairs: int, seed) -> tuple[float, float]:
    """Empirical two-sided quadratic-equivalence constants (c0_hat, c1_hat).

    Samples pairs u, v uniformly over the normed box image N * (box - theta) and
    returns the min and max of Phi(u, v) / ||u - v||^2 over non-degenerate pairs.
    """
    if n_pairs < 100:
        raise ContractError(f"n_pairs must be >= 100, got {n_pairs}")
    theta = np.asarray(theta, dtype=float)
    norming = np.asarray(norming, dtype=float)
    rng = np.random.default_rng(seed)
    w = model.box.sample(rng, 2 * n_pairs)
    u_all = (w - theta) * norming
    lo = math.inf
    hi = -math.inf
    kept = 0
    for k in range(n_pairs):
        u, v = u_all[2 * k], u_all[2 * k + 1]
        gap = float(np.dot(u - v, u - v))
        if gap <= 1e-18:
            continue
        ratio = phi(model, theta, grid, norming, u, v) / gap
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        kept += 1
    if kept == 0:
        raise ContractError("all sampled pairs were degenerate (coincident points)")
    return lo, hi


# -- exponential-model theory ---------------------------------------------


@dataclass(frozen=True)
class ExpModelConstants:
    """Gram matrix of the regressors with derived identifiability constants."""

    J_T: np.ndarray = field(repr=False)
    H: float
    L: float
    lambda_min: float
    c0_theory: float
    c1_theory: float


def exp_model_constants(regressors: Callable[[np.ndarray], np.ndarray], box: ParameterBox,
                        grid: TimeGrid) -> ExpModelConstants:
    """Compute J_T = (T^{-1} integral y_i y_j), H, L, and the (c0, c1) bracket.

    ``regressors`` maps times to the bounded regressor rows y(t) in R^q.

    H and L are the extreme values of exp(<y, tau>) over grid times and box
    corners; the inner product is linear in tau, so corner evaluation is exact
    for each fixed t.
    """
    y = np.atleast_2d(regressors(grid.nodes))
    q = y.shape[0]
    if q != box.q:
        raise ConfigError(f"regressors have {q} components but the box has {box.q}")
    J = np.empty((q, q))
    for i in range(q):
        for j in range(i, q):
            J[i, j] = J[j, i] = integrate(y[i] * y[j], grid) / grid.T
    eigvals = np.linalg.eigvalsh(J)
    lam_min = float(eigvals[0])
    if lam_min <= 1e-10:
        raise DegenerateModelError(
            f"regressor Gram matrix is near-singular (min eigenvalue {lam_min:.3e})"
        )
    inner = box.corners() @ y
    H = float(np.exp(inner.max()))
    L = float(np.exp(inner.min()))
    return ExpModelConstants(
        J_T=J,
        H=H,
        L=L,
        lambda_min=lam_min,
        c0_theory=L ** 2 * lam_min,
        c1_theory=H ** 2 * float(np.trace(J)),
    )
