"""Regression functions, norming matrices, and identifiability constants.

A :class:`RegressionModel` bundles the response surface a(t, tau), its
parameter gradient, and the admissible box for tau.  The norming machinery
measures parameter deviations on the natural scale: either the diagonal of
gradient L2 norms, or the parameter-free sqrt(T) diagonal that is equivalent
to it up to uniform constants for well-behaved models.

The quadratic-equivalence constants (c0, c1) bounding

    c0 * ||u - v||^2  <=  Phi(u, v)  <=  c1 * ||u - v||^2

are estimated by sampling pairs in the normed box image, one array pass for
every model.  A model whose mean is f(tau) * phi(t) with f strictly
increasing (its :class:`ScalarForm`) is fitted in closed form from one
number per path, and has Phi(u, v) = (f(tau_u) - f(tau_v))^2 * integral of
phi^2, one pass over f at the sampled points; any other model evaluates two
model paths on the grid per pair.  For the exponential-of-inner-product
model the constants also have computable theoretical values via the
regressor Gram matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, DegenerateModelError, DomainError
from .numerics import TimeGrid, integrate, load_table


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

    def lattice(self, per_dim: int) -> np.ndarray:
        """The per_dim^q points of the ``np.linspace`` axes, in ``itertools.product``
        order (the last axis fastest); ``lattice(2)`` is the corners, since
        ``np.linspace(lo, hi, 2)`` is ``[lo, hi]`` exactly."""
        axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(self.lower, self.upper)]
        return np.array(list(itertools.product(*axes)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower_arr, self.upper_arr, size=(n, self.q))


class ScalarForm(NamedTuple):
    """A one-parameter mean a(t, tau) = f(tau) * phi(t) with f strictly increasing.

    Least squares reads a path x of such a model only through the one number
    s = integral of phi x, and its estimate is f^-1(s / integral of phi^2)
    clipped to the box (``harness.ScalarDesign``); the pair sampler reads a pair
    only through f(tau_u) - f(tau_v).  ``f`` maps an array of tau, rounded as
    the model's ``eval`` rounds it.  ``f_inv`` takes a Python float and returns
    -inf below the range of f.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_inv: Callable[[float], float]
    phi: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RegressionModel:
    """Response surface with gradient: eval(t, tau) -> values, grad(t, tau) -> (q, len(t)).

    ``eval`` and ``grad`` must be pure functions of ``(t, tau)``: ``lse_fit``
    memoizes the values of ``eval`` at the lattice points per model and grid,
    and takes ``grad`` afresh at each refinement step.  What a model caches
    must depend on ``t`` alone, as :func:`exp_inner_model` keeps the regressor
    rows of a read-only node array.  ``scalar`` is the
    :class:`ScalarForm` of a built-in model whose mean is f(tau) * phi(t), and
    None for every other model.
    """

    box: ParameterBox
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"
    scalar: ScalarForm | None = None

    @property
    def q(self) -> int:
        return self.box.q


# -- built-in models ------------------------------------------------------


def _ones(t) -> np.ndarray:
    return np.ones(np.shape(t))


def _identity(tau):
    return tau


def _log(y: float) -> float:
    """ln y, and -inf for y <= 0: the inverse of e^tau, below its range too."""
    return math.log(y) if y > 0.0 else -math.inf


def _unit_row(t) -> np.ndarray:
    """The one row y(t) = 1 of ``constant_regressors(1)`` and ``cosine_regressors(1)``."""
    return np.ones((1, np.size(t)))


def _proportional_model(name: str, shape: Callable, box: ParameterBox) -> RegressionModel:
    """a(t, tau) = tau * shape(t): ``eval``, ``grad`` and the ScalarForm read one ``shape``."""
    if box.q != 1:
        raise ConfigError(f"{name} model is scalar; box must be one-dimensional")
    return RegressionModel(
        box=box,
        eval=lambda t, tau: tau[0] * shape(t),
        grad=lambda t, tau: np.array(shape(t), ndmin=2),
        name=name,
        scalar=ScalarForm(f=_identity, f_inv=_identity, phi=shape),
    )


def linear_model(box: ParameterBox) -> RegressionModel:
    """a(t, tau) = tau * t, scalar parameter."""
    return _proportional_model("linear", _identity, box)


def constant_model(box: ParameterBox) -> RegressionModel:
    """a(t, tau) = tau, scalar parameter."""
    return _proportional_model("constant", _ones, box)


def exp_inner_model(regressors: Callable[[np.ndarray], np.ndarray],
                    box: ParameterBox) -> RegressionModel:
    """a(t, tau) = exp(<tau, y(t)>) with bounded regressors y: R+ -> R^q.

    The one cache is the rows y(t) of a read-only node array (a grid's
    ``nodes``): built once and reused while calls pass that same array; a
    writable ``t`` is rebuilt on every call.  With ``constant_regressors(1)``
    or ``cosine_regressors(1)`` the mean is e^tau * 1, which is its scalar form.
    """
    nodes = rows = None

    def _rows(t):
        nonlocal nodes, rows
        if t is nodes:
            return rows
        y = np.atleast_2d(regressors(np.asarray(t, dtype=float)))
        if isinstance(t, np.ndarray) and not t.flags.writeable:
            # holding the array keeps its id from being reused while it is cached
            nodes, rows = t, y
        return y

    def _eval(t, tau):
        return np.exp(np.asarray(tau, dtype=float) @ _rows(t))

    def _grad(t, tau):
        y = _rows(t)
        return y * np.exp(np.asarray(tau, dtype=float) @ y)[None, :]

    scalar = None
    if regressors is _unit_row and box.q == 1:
        scalar = ScalarForm(f=np.exp, f_inv=_log, phi=_ones)
    return RegressionModel(box=box, eval=_eval, grad=_grad, name="exp_inner", scalar=scalar)


def constant_regressors(q: int) -> Callable[[np.ndarray], np.ndarray]:
    return _unit_row if q == 1 else lambda t: np.ones((q, np.size(t)))


def cosine_regressors(q: int) -> Callable[[np.ndarray], np.ndarray]:
    """Rows 1, cos t, cos 2t, ... (first q of them); at q = 1 the constant row."""
    if q == 1:
        return _unit_row

    def y(t):
        t = np.asarray(t, dtype=float)
        rows = [np.ones_like(t)] + [np.cos(k * t) for k in range(1, q)]
        return np.vstack(rows)

    return y


def tabulated_regressors(path, q: int) -> Callable[[np.ndarray], np.ndarray]:
    """Columns after the first of a text file are the q regressor components of t."""
    data = load_table(path, "regressor file")
    if data.shape[1] < 2:
        raise ConfigError(f"regressor file {path} needs a time column plus at least one value column")
    if data.shape[1] - 1 != q:
        raise ConfigError(f"regressor file {path} has {data.shape[1] - 1} value columns, "
                          f"but the box has {q} coordinates")
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


def _pair_parameters(model: RegressionModel, theta, norming, pairs) -> np.ndarray:
    """tau = theta + N^{-1} u at each point u of ``pairs`` (k, 2, q), pair k being (u, v);
    the first point in pair order more than 1e-12 outside the box is a DomainError."""
    tau = np.asarray(theta, dtype=float) + pairs / np.asarray(norming, dtype=float)
    box = model.box
    bad = np.argwhere((tau < box.lower_arr - 1e-12) | (tau > box.upper_arr + 1e-12))
    if bad.size:
        k, side, i = (int(j) for j in bad[0])
        raise DomainError(
            f"normalized shift {'uv'[side]} leaves the box at coordinate {i}: "
            f"value {tau[k, side, i]:.6g} outside [{box.lower[i]:.6g}, {box.upper[i]:.6g}]"
        )
    return tau


def _path_phi(model: RegressionModel, grid: TimeGrid, tau_u, tau_v) -> float:
    diff = model.eval(grid.nodes, tau_u) - model.eval(grid.nodes, tau_v)
    return integrate(diff * diff, grid)


def phi(model: RegressionModel, theta, grid: TimeGrid, norming, u, v) -> float:
    """Squared L2 distance of normalized increments:

    Phi(u, v) = integral of (a(t, theta + N^{-1} u) - a(t, theta + N^{-1} v))^2 dt.

    Nonnegative, symmetric, and zero at u = v.
    """
    tau_u, tau_v = _pair_parameters(model, theta, norming, np.asarray([[u, v]], dtype=float))[0]
    return _path_phi(model, grid, tau_u, tau_v)


#: parameter pairs behind each sampled (c0_hat, c1_hat)
EQUIVALENCE_PAIRS = 2000


def estimate_equivalence_constants(model: RegressionModel, theta, grid: TimeGrid, norming,
                                   seed) -> tuple[float, float]:
    """Empirical two-sided quadratic-equivalence constants (c0_hat, c1_hat).

    Samples :data:`EQUIVALENCE_PAIRS` (2,000) pairs u, v uniformly over the
    normed box image N * (box - theta), the pairs behind every ``c0: "estimate"``,
    and returns the min and max of Phi(u, v) / ||u - v||^2 over non-degenerate pairs.
    One array pass drops the degenerate pairs and forms and box-checks the rest
    as :func:`phi` does.  A :class:`ScalarForm` f(tau) phi(t) then gives
    Phi(u, v) = (f(tau_u) - f(tau_v))^2 G, G = integral of phi^2 taken once, and
    every other model evaluates two model paths per pair.
    """
    n_pairs = EQUIVALENCE_PAIRS
    theta = np.asarray(theta, dtype=float)
    norming = np.asarray(norming, dtype=float)
    rng = np.random.default_rng(seed)
    pairs = ((model.box.sample(rng, 2 * n_pairs) - theta) * norming).reshape(n_pairs, 2, -1)
    d = pairs[:, 0] - pairs[:, 1]
    gap = np.vecdot(d, d)  # row by row the dot product np.dot(d_k, d_k) takes, bit for bit
    keep = ~(gap <= 1e-18)
    if not keep.any():
        raise ContractError("all sampled pairs were degenerate (coincident points)")
    tau = _pair_parameters(model, theta, norming, pairs[keep])
    if model.scalar is None:
        phis = np.array([_path_phi(model, grid, tau_u, tau_v) for tau_u, tau_v in tau])
    else:
        f = model.scalar.f(tau[:, :, 0])
        phis = (f[:, 0] - f[:, 1]) ** 2
        if not np.all(np.isfinite(phis)):
            raise ContractError("integrand contains non-finite entries")
        phis = phis * integrate(model.scalar.phi(grid.nodes) ** 2, grid)
    ratios = phis / gap[keep]
    return float(ratios.min()), float(ratios.max())


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
    """Compute J_T = (T^{-1} integral y_i y_j), H, L, and the (c0, c1) bracket under s_T.

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
    inner = box.lattice(2) @ y
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
