"""Closed-form tail envelopes for the normalized estimator deviation.

The guaranteed exponential rate is

    b = c0 / (8 * d0 * (1 + q)) - beta,

with the stationary specialization d0 = 2*pi*f0, so b = c0 / (16*pi*f0*(1+q)) - beta.
The envelope is exp(-b R^2), with prefactor 1; :func:`calibrate_prefactor` gives
the smallest prefactor a tail demands at rate b, which no verdict reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

#: Emitted with every tails report.  The consistency envelope at level
#: rho * T^{-nu} is obtained by substituting R = rho * T^{1/2 - nu} into the
#: R-level envelope, which makes the exponent quadratic in rho:
#: exp(-b * rho^2 * T^{1 - 2*nu}).  A linear-in-rho exponent is NOT used.
CONSISTENCY_EXPONENT_NOTE = (
    "consistency envelope uses exp(-b*rho^2*T^(1-2*nu)); the exponent is "
    "quadratic in rho because the level R = rho*T^(1/2-nu) enters the R^2 envelope"
)


def _check_positive(**kwargs):
    for name, val in kwargs.items():
        if not np.isfinite(val) or val <= 0:
            raise ContractError(f"{name} must be positive and finite, got {val}")


def exponent_rate(q: int, c0: float, d0: float, beta: float) -> float:
    """Guaranteed rate b = c0 / (8 * d0 * (1 + q)) - beta; errors if b <= 0."""
    _check_positive(c0=c0, d0=d0)
    if q < 1:
        raise ContractError(f"dimension q must be >= 1, got {q}")
    if beta < 0:
        raise ContractError(f"slack beta must be >= 0, got {beta}")
    raw = c0 / (8.0 * d0 * (1.0 + q))
    b = raw - beta
    if b <= 0:
        raise ContractError(
            f"slack too large: beta={beta} wipes out the rate; "
            f"maximal admissible beta is {raw:.6g}"
        )
    return b


def stationary_rate(q: int, c0: float, f0: float, beta: float) -> float:
    """Stationary form of the rate, b = c0 / (16 * pi * f0 * (1 + q)) - beta.

    It is :func:`exponent_rate` at d0 = 2*pi*f0, bit for bit, since
    fl(16*pi) = 8 * fl(2*pi) exactly.
    """
    _check_positive(f0=f0)
    return exponent_rate(q, c0, 2.0 * math.pi * f0, beta)


def default_beta(q: int, c0: float, d0: float) -> float:
    """Proportional slack: a thousandth of the rate before slack."""
    _check_positive(c0=c0, d0=d0)
    return 1e-3 * c0 / (8.0 * d0 * (1.0 + q))


@dataclass(frozen=True)
class BoundConstants:
    """Everything needed to evaluate the tail envelopes, built from the spectral level f0.

    The constructor derives d0 = 2*pi*f0, the slack beta when none is given
    (:func:`default_beta`) and the rate b.  A run always takes that default
    slack; only tests pass another ``beta``.
    """

    q: int
    c0: float
    f0: float
    beta: float | None = None
    d0: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        d0 = 2.0 * math.pi * self.f0
        object.__setattr__(self, "d0", d0)
        if self.beta is None:
            object.__setattr__(self, "beta", default_beta(self.q, self.c0, d0))
        object.__setattr__(self, "b", exponent_rate(self.q, self.c0, d0, self.beta))


def noise_integral_tail(d0: float, delta_norm_sq: float, x: float) -> float:
    """Gaussian-type tail factor exp(-x^2 / (2 * d0 * ||delta||^2)) in (0, 1].

    One-sided exceedance of the weighted noise integral is bounded by this
    value; the two-sided bound is twice it.
    """
    _check_positive(d0=d0, delta_norm_sq=delta_norm_sq)
    if x < 0:
        raise ContractError(f"level x must be >= 0, got {x}")
    return math.exp(-(x * x) / (2.0 * d0 * delta_norm_sq))


def tail_envelope(consts: BoundConstants, R: float) -> float:
    """Envelope exp(-b * R^2), a probability at every level R >= 0."""
    if R < 0:
        raise ContractError(f"level R must be >= 0, got {R}")
    return math.exp(-consts.b * R * R)


def consistency_envelope(consts: BoundConstants, rho: float, nu: float, T: float) -> float:
    """Envelope for the T^{-1/2}-scaled deviation at level rho * T^{-nu}.

    Equals the R-level envelope at R = rho * T^(1/2 - nu), hence
    exp(-b * rho^2 * T^(1 - 2*nu)); see CONSISTENCY_EXPONENT_NOTE.
    """
    _check_positive(rho=rho, T=T)
    if not 0.0 <= nu < 0.5:
        raise ContractError(f"nu must lie in [0, 1/2), got {nu}")
    return tail_envelope(consts, rho * T ** (0.5 - nu))


def moderate_deviation_envelope(consts: BoundConstants, h: float, T: float) -> float:
    """Polynomial envelope T^(-b h^2) at levels h * sqrt(ln T); needs T > 1.

    Computed as the R-level envelope at R = h * sqrt(ln T), making the identity
    with tail_envelope exact.
    """
    _check_positive(h=h)
    if T <= 1.0:
        raise ContractError(f"T must exceed 1 (log-level scale), got {T}")
    return tail_envelope(consts, h * math.sqrt(math.log(T)))


def calibrate_prefactor(p_hat, r_grid, b: float) -> float:
    """Smallest prefactor B with B * exp(-b R^2) >= p_hat(R) at every level."""
    p_hat = np.asarray(p_hat, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    if p_hat.shape != r_grid.shape or p_hat.size == 0:
        raise ContractError("p_hat and r_grid must be matching non-empty arrays")
    return float(np.max(p_hat * np.exp(b * r_grid ** 2)))
