"""Uniform time grids and trapezoid quadrature.

Every integral over the time grid [0, T] goes through this module, so one
quadrature rule (composite trapezoid on a uniform grid) covers them all.  The
kernel integrals of :mod:`regtails.noise` are the exception: they use the
kernel's cell averages at its own fine step truncation_horizon / 2^16,
which is independent of the time grid: the covariance is their lag products,
and the spectral density the power of their transform.
It also holds ``memo``, the one bounded store for arrays that depend only on
the grid, kernel or model, so that per-trial work does not rebuild them; an
entry is one array or a tuple of them, and it keeps the 16 entries used last;
and ``load_table``, the reader of the text tables a config names (kernel and
regressor files).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError

#: default ceiling on the grid step when the caller does not fix n_steps
DEFAULT_MAX_STEP = 0.01


def default_n_steps(T: float) -> int:
    """Smallest step count giving a step size of at most ``DEFAULT_MAX_STEP``."""
    if T <= 0:
        raise ContractError(f"horizon must be positive, got {T}")
    return max(1, int(np.ceil(T / DEFAULT_MAX_STEP - 1e-12)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with nodes t_j = j*h, j = 0..n_steps."""

    T: float
    n_steps: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ContractError(f"TimeGrid horizon must be positive and finite, got {self.T}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ContractError(f"TimeGrid n_steps must be a positive integer, got {self.n_steps}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "h", self.T / self.n_steps)
        nodes = np.linspace(0.0, self.T, self.n_steps + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1


_memo: dict[tuple, np.ndarray | tuple[np.ndarray, ...]] = {}


def memo(key: tuple, build):
    """Data-independent array, or tuple of arrays, under ``key``, built read-only on a miss;
    keeps the 16 used last."""
    value = _memo.pop(key, None)  # re-inserted below: dict order is least recently used first
    if value is None:
        value = build()
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
        if len(_memo) >= 16:
            del _memo[next(iter(_memo))]
    _memo[key] = value
    return value


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    """Node weights w with integral = h * sum(w * values); w = 1 except 1/2 at the ends."""
    w = np.ones(grid.n_nodes)
    w[0] = 0.5
    w[-1] = 0.5
    return w


def _check_values(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ContractError(
            f"expected {grid.n_nodes} node values for n_steps={grid.n_steps}, got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ContractError("integrand contains non-finite entries")
    return values


def integrate(values, grid: TimeGrid) -> float:
    """Composite-trapezoid approximation of the integral of ``values`` over [0, T]."""
    values = _check_values(values, grid)
    return float(grid.h * (values.sum() - 0.5 * (values[0] + values[-1])))


def inner_product(f, g, grid: TimeGrid) -> float:
    """L2[0, T] pairing of two node sequences, integrate(f * g)."""
    f = _check_values(f, grid)
    g = _check_values(g, grid)
    return integrate(f * g, grid)


def load_table(path, what: str) -> np.ndarray:
    """A text table as a 2-d array, also of one row or one column; a config error names
    an unreadable, empty, non-numeric or non-finite file as ``what`` (say, "kernel file")."""
    try:
        lines = Path(path).read_text().splitlines()
        has_data = any(line.split("#", 1)[0].strip() for line in lines)
        table = np.loadtxt(lines, dtype=float, ndmin=2) if has_data else None
    except (OSError, ValueError) as err:
        raise ConfigError(f"{what} {path}: {err}") from None
    if table is None:
        raise ConfigError(f"{what} {path} is empty: it has no data row")
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"{what} {path} has a value that is not finite (nan or inf)")
    return table
