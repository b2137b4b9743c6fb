"""Monte-Carlo experiment engine and noise-property checkers.

Trials are seeded counter-style, trial_seed = mix(master_seed, trial_index),
and trial i draws the stream ``default_rng(trial_seed)`` would give, so
results are reproducible bit for bit regardless of execution order or the
number of worker processes, and any trial replays from its index alone.  A
chunk of trials takes its seeds and PCG64 states in one array pass
(:func:`index_streams`) and draws every trial from one bit generator reset to
that trial's state, building no generator per trial.  Aggregation (tail
counts, interval fitting) is a pure function of the trials' rows and therefore
order-independent.

The sub-Gaussianity checker tests one-sided domination of the moment
generating function of the weighted noise integral I = integral of
delta(t) * eps(t) dt by the Gaussian envelope exp(lambda^2 * d0 * ||delta||^2 / 2).
I is a weighted sum of i.i.d. driver draws, so its log-MGF is the sum of the
driver's closed-form log-MGF over the weights and the verdict is exact.  Beside
it the checker reports a Monte-Carlo estimate from replications drawn from one
seeded PCG64, replication r being the r-th run of consecutive driver draws, so
they too are reproducible bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import config as _config
from .bounds import BoundConstants, tail_envelope
from .errors import ContractError, NonConvergenceError
from .estimator import Observation, _at_bound, _clip, lse_fit, normalized_deviation
from .model import RegressionModel
from .noise import (
    FilterKernel,
    covariance_row,
    driver_log_mgf,
    driver_weights,
    noise_path,
    pcg64_states,
    quadratic_form,
    sample_driver,
    toeplitz_product,
)
from .numerics import TimeGrid, integrate, trapezoid_weights

_MASK64 = (1 << 64) - 1

# stream tags keep independent uses of the master seed from colliding
STREAM_TRIALS = 1
STREAM_MGF = 2
STREAM_PAIRS = 4
STREAM_PATHS = 6

#: fewest trials an exceedance table is estimated from
MIN_TAIL_TRIALS = 100

#: indices whose seeds and PCG64 states are taken in one array pass; a state is
#: about 0.5 kB of Python objects, so a block bounds the memory they hold (5,000
#: at once raised the peak RSS of a 5,000-trial ``tails`` by 1.6 MB)
SEED_BLOCK = 512


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, stream: int, index):
    """Pure 64-bit mix of (master_seed, stream, index); the trial-seed function.

    ``index`` is an int or a ``uint64`` array of indices; an array gives the
    array of seeds, each equal to the int form's, its products wrapping
    modulo 2^64 as array arithmetic does.
    """
    z = _splitmix64((master_seed & _MASK64) ^ _splitmix64(stream & _MASK64))
    return _splitmix64(z ^ _splitmix64(index & _MASK64))


def index_streams(master_seed: int, stream: int, start: int, stop: int):
    """Yield for each index in [start, stop) one PCG64 in the fresh state of
    ``default_rng(derive_seed(master_seed, stream, index))`` (:func:`pcg64_states`), valid until
    the next index.  The seeds and states are taken SEED_BLOCK indices at a time, in one array pass."""
    bits = np.random.PCG64(0)
    for low in range(start, stop, SEED_BLOCK):
        indices = np.arange(low, min(low + SEED_BLOCK, stop), dtype=np.uint64)
        for state in pcg64_states(derive_seed(master_seed, stream, indices)):
            bits.state = state
            yield bits


def _trial_dtype(q: int) -> np.dtype:
    """One trial's row; ``n_starts`` and ``lattice_tie_count`` are 0 for a fit that did not converge."""
    return np.dtype([("deviation", float), ("theta_hat", float, (q,)), ("boundary", bool),
                     ("n_starts", np.int8), ("lattice_tie_count", np.int32)])


class ScalarDesign(NamedTuple):
    """A run of a model with a :class:`~regtails.model.ScalarForm` f(tau) phi(t), as one value.

    Least squares reads a path only through s = h w.(phi x) = c + u @ z, z the
    trial's driver draws and u their weights (:func:`driver_weights`).  Q is
    G (f(tau) - s/G)^2 plus a constant and f is strictly increasing, so the
    estimate is f^-1(s/G) clipped to the box (``f_inv`` is -inf below the range
    of f), and the law of every trial is the law of the one weighted sum u @ z.
    """

    u: np.ndarray   # the driver draws' weights in s
    gram: float     # G = h w.phi^2
    c: float        # h w.(phi a_true), s without noise
    scale: float    # the norming entry
    theta0: float   # theta_true
    driver: str
    model: RegressionModel

    @classmethod
    def build(cls, cfg: "_config.ExperimentConfig", grid: TimeGrid, model: RegressionModel,
              kernel: FilterKernel | None) -> ScalarDesign:
        """The design of ``cfg``, whose ``model`` has a scalar form, on ``grid`` with ``kernel``."""
        phi = model.scalar.phi(grid.nodes)
        hw_phi = grid.h * trapezoid_weights(grid) * phi
        a_true = model.eval(grid.nodes, np.asarray(cfg.model.theta_true))
        scale = float(_config.build_norming(cfg, model, grid)[0])
        return cls(driver_weights(hw_phi, grid, kernel), float(hw_phi @ phi), float(hw_phi @ a_true),
                   scale, float(cfg.model.theta_true[0]), cfg.noise.driver, model)

    def fill(self, trials: np.ndarray, streams) -> None:
        """Fill ``trials``, row k from the draws on the k-th PCG64 of ``streams``, by ``lse_fit``'s
        clip and boundary rule, with one start and no lattice tie, as a unimodal fit reports.
        f^-1 takes one Python float at a time: ``np.log`` of the column may differ in the last bit."""
        f_inv, box = self.model.scalar.f_inv, self.model.box
        y = np.fromiter((f_inv((self.c + float(self.u @ sample_driver(self.driver, self.u.size, bits)))
                               / self.gram) for bits in streams), float, count=trials.size)
        trials["theta_hat"] = theta = _clip(y[:, None], box)
        # np.linalg.norm of one entry, bit for bit
        trials["deviation"] = np.abs(self.scale * (theta[:, 0] - self.theta0))
        trials["boundary"] = _at_bound(theta, box)
        trials["n_starts"] = trials["lattice_tie_count"] = 1


def _run_chunk(cfg: "_config.ExperimentConfig", start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of :func:`run_trials`; the frozen config pickles, so workers take it as is.

    Trial i draws the stream of ``default_rng(derive_seed(master, STREAM_TRIALS, i))``
    from the chunk's one bit generator (:func:`index_streams`), on either route.
    A model with a scalar form builds no path: its :class:`ScalarDesign` fills
    the rows from the draws.  Any other model fits the path :func:`noise_path`
    makes from the same draws with :func:`lse_fit`, one row per fit.
    """
    grid = _config.build_grid(cfg)
    model = _config.build_model(cfg)
    kernel = _config.build_kernel(cfg)
    trials = np.zeros(stop - start, _trial_dtype(model.q))
    streams = index_streams(cfg.montecarlo.master_seed, STREAM_TRIALS, start, stop)
    if model.scalar is not None:
        ScalarDesign.build(cfg, grid, model, kernel).fill(trials, streams)
        return trials
    theta_true = np.asarray(cfg.model.theta_true)
    a_true = model.eval(grid.nodes, theta_true)
    norming = _config.build_norming(cfg, model, grid)
    for k, bits in enumerate(streams):
        x = a_true + noise_path(cfg.noise.driver, grid, bits, kernel)
        try:
            res = lse_fit(Observation(grid=grid, x_values=x), model)
            theta, fit = res.theta_hat, (res.boundary, res.n_starts, res.lattice_tie_count)
        except NonConvergenceError as err:
            theta, fit = err.best_point, (False, 0, 0)
        trials[k] = (normalized_deviation(theta, theta_true, norming), theta, *fit)
    return trials


def run_trials(cfg: "_config.ExperimentConfig", workers: int = 1) -> np.ndarray:
    """Simulate and fit every trial: one structured-array row per trial, in trial order.

    The fields are ``deviation``, ``theta_hat`` (q entries), ``boundary``, ``n_starts`` (0 for a
    fit that did not converge) and ``lattice_tie_count``.  Row i is trial i at any ``workers``,
    and ``_run_chunk(cfg, i, i + 1)`` replays it.  Raises NonConvergenceError if more than 1% of
    trials fail to converge, naming the first five with their seeds.
    """
    n = cfg.montecarlo.n_trials
    if workers <= 1:
        trials = _run_chunk(cfg, 0, n)
    else:
        chunk = max(1, math.ceil(n / (4 * workers)))
        starts = range(0, n, chunk)
        # the chunks follow ``workers``, so the bytes do not depend on the CPU count;
        # imported here, so that no serial run loads the pool (nor ``logging``)
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, os.cpu_count() or 1)) as pool:
            # map yields the chunks in submission order, so the rows stay in trial order
            trials = np.concatenate(list(pool.map(_run_chunk, [cfg] * len(starts), starts,
                                                  [min(s + chunk, n) for s in starts])))
    failed = np.flatnonzero(trials["n_starts"] == 0)
    if failed.size > 0.01 * n:
        first = ", ".join(f"{i} (seed {derive_seed(cfg.montecarlo.master_seed, STREAM_TRIALS, i)})"
                          for i in failed[:5].tolist())
        raise NonConvergenceError(f"{failed.size} of {n} trials failed to converge (> 1%); check the "
                                  f"model/box setup; first failed trials: {first}")
    return trials


# -- tail estimation -------------------------------------------------------


#: ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15; past 15 the Stirling series is exact to rounding
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)

#: standard normal 0.975 quantile, the 95% band's half-width in standard deviations
_Z975 = 1.959963984540054


def _stirlerr(n: int) -> float:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n): the table, then the Stirling series."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n


def _bd0(x: float, m: float) -> float:
    """x ln(x / m) + m - x, by its series in (x - m)/(x + m) where the two cancel."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    total, term, v2, j = (x - m) * v, 2.0 * x * v, v * v, 3
    while True:
        term *= v2
        grown = total + term / j
        if grown == total:
            return total
        total, j = grown, j + 2


def _binomial_pmf(k: int, n: int, x: float) -> float:
    """P(Bin(n, x) = k) for 0 < k < n and 0 < x < 1.

    Loader's saddle-point form (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000): Stirling remainders and ``_bd0`` deviances,
    so no large log-factorials cancel.
    """
    log_ratio = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
                 - _bd0(k, n * x) - _bd0(n - k, n * (1.0 - x)))
    return math.exp(log_ratio) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def _binomial_tail(k: int, n: int, x: float) -> tuple[float, float]:
    """P(Bin(n, x) >= k) = I_x(k, n - k + 1) for 1 <= k <= n and 0 < x < 1, and its x-derivative.

    The derivative is n pmf(k - 1; n - 1, x) = k pmf(k; n, x) / x.  One route:
    the side of k away from the mode is summed from ``_binomial_pmf``, each
    term the one before times the pmf ratio, until a term no longer changes
    the sum; those terms only shrink, so nothing cancels.  For k > x (n + 1)
    that side is the tail pmf(k) + ... + pmf(n); otherwise it is the lower
    tail pmf(k - 1) + ... + pmf(0), and the tail is one minus it.
    """
    if k == n:
        return x ** n, n * x ** (n - 1)
    pmf = _binomial_pmf(k, n, x)
    slope = k * pmf / x
    y = 1.0 - x
    upper = k > x * (n + 1)
    term, total = pmf, (pmf if upper else 0.0)
    for j in (range(k, n) if upper else range(k, 0, -1)):
        term *= (n - j) * x / ((j + 1) * y) if upper else j * y / ((n - j + 1) * x)
        if total + term == total:
            break
        total += term
    return (total if upper else 1.0 - total), slope


def _binomial_tail_root(k: int, n: int, level: float) -> float:
    """The x with P(Bin(n, x) >= k) = ``level``, 1 <= k <= n, for ``level`` 0.025 or 0.975.

    Newton's method from the normal start of algorithm AS 109 (Cran, Martin
    and Thomas, Applied Statistics 26, 1977), kept inside a bracket that
    every evaluation shrinks; a step that would leave it bisects instead.
    Newton converges quadratically, so a step below 1e-9 of x leaves an
    error far below the rounding of x: it is taken, and the search stops.
    """
    z = math.copysign(_Z975, 0.5 - level)
    r = (z * z - 3.0) / 6.0
    s, t = 1.0 / (2 * k - 1), 1.0 / (2 * (n - k) + 1)
    h = 2.0 / (s + t)
    w = z * math.sqrt(h + r) / h - (t - s) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = k / (k + (n - k + 1) * math.exp(2.0 * w))
    lo, hi = 0.0, 1.0
    for _ in range(200):
        tail, slope = _binomial_tail(k, n, x)
        if tail < level:
            lo = x
        else:
            hi = x
        step = (level - tail) / slope if slope > 0.0 else math.inf
        if abs(step) <= 1e-9 * x:
            return x + step
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise NonConvergenceError(f"no binomial limit for k={k}, n={n} in 200 steps", best_point=(x,))


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact two-sided 95% binomial confidence interval for k successes in n trials.

    The limits are Beta quantiles (Clopper & Pearson, Biometrika 26, 1934):
    the lower solves P(Bin(n, x) >= k) = 0.025, 0 for k = 0, and the upper
    solves P(Bin(n, x) >= k + 1) = 0.975, 1 for k = n.  Each is a root of
    ``_binomial_tail``, the binomial sum of the smaller side of k.
    """
    if not 0 <= k <= n or n < 1:
        raise ContractError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    low = _binomial_tail_root(k, n, 0.025) if k > 0 else 0.0
    high = _binomial_tail_root(k + 1, n, 0.975) if k < n else 1.0
    return low, high


@dataclass(frozen=True)
class TailEstimate:
    """Exceedance table over an increasing level grid with exact binomial bands."""

    r_grid: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    n_trials: int
    p_hat: np.ndarray = field(repr=False)
    ci_low: np.ndarray = field(repr=False)
    ci_high: np.ndarray = field(repr=False)
    fitted_rate: float


def fit_exceedance_rate(r_grid, counts, n_trials: int) -> float:
    """Slope of -ln(p_hat) against R^2 over levels with at least 10 hits.

    Below 10 exceedances the log is dominated by binomial noise, so
    those levels are excluded.  Returns nan with fewer than two usable levels.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    counts = np.asarray(counts)
    keep = counts >= 10
    if keep.sum() < 2:
        return math.nan
    x = r_grid[keep] ** 2
    y = -np.log(counts[keep] / n_trials)
    if np.ptp(x) <= 0:
        return math.nan
    return float(np.polyfit(x, y, 1)[0])


def estimate_tail(devs, r_grid) -> TailEstimate:
    """Empirical exceedance probabilities of the deviations with exact binomial intervals."""
    devs = np.asarray(devs, dtype=float)
    n = devs.size
    if n < MIN_TAIL_TRIALS:
        raise ContractError(f"need at least {MIN_TAIL_TRIALS} trials for tail estimation, got {n}")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0:
        raise ContractError("R grid must be non-empty")
    if np.any(np.diff(r_grid) <= 0):
        raise ContractError("R grid must be strictly increasing")
    if np.any(r_grid < 0):
        raise ContractError("R levels must be >= 0")
    sorted_devs = np.sort(devs)
    counts = n - np.searchsorted(sorted_devs, r_grid, side="left")
    p_hat = counts / n
    ci = np.array([clopper_pearson(int(k), n) for k in counts])
    return TailEstimate(
        r_grid=r_grid,
        counts=counts.astype(int),
        n_trials=n,
        p_hat=p_hat,
        ci_low=ci[:, 0],
        ci_high=ci[:, 1],
        fitted_rate=fit_exceedance_rate(r_grid, counts, n),
    )


@dataclass(frozen=True)
class EnvelopeComparison:
    envelope: np.ndarray = field(repr=False)
    level_ok: np.ndarray = field(repr=False)
    rate_ok: bool
    overall_pass: bool
    b_cert: float | None


def compare_with_envelope(tail: TailEstimate, consts: BoundConstants) -> EnvelopeComparison:
    """Per-level and rate verdicts for envelope domination.

    The envelope is evaluated at each level and clipped to 1.  A level passes
    when its lower confidence limit does not exceed the envelope (the bound is
    not violated beyond binomial noise); the rate verdict asks the fitted
    exceedance rate to be at least the guaranteed b.

    ``b_cert`` is the largest rate the lower limits certify,
    min ln(B_cal / ci_low(R)) / R^2 over the levels with R > 0 and ci_low > 0
    (None when there is no such level): b_cert >= b exactly when each of those
    levels lies under the unclipped envelope B_cal * exp(-b R^2).  A calibrated
    B_cal of 0 certifies no rate: b_cert is then -inf.
    """
    envelope = np.array([tail_envelope(consts, float(r), clip=True) for r in tail.r_grid])
    level_ok = tail.ci_low <= envelope + 1e-15
    rate_ok = bool(np.isfinite(tail.fitted_rate) and tail.fitted_rate >= consts.b)
    certified = (tail.r_grid > 0) & (tail.ci_low > 0)
    b_cert = None
    if certified.any():
        with np.errstate(divide="ignore"):  # log(0) = -inf when B_cal = 0
            b_cert = float(np.min(np.log(consts.b_cal / tail.ci_low[certified])
                                  / tail.r_grid[certified] ** 2))
    return EnvelopeComparison(
        envelope=envelope,
        level_ok=level_ok,
        rate_ok=rate_ok,
        overall_pass=bool(level_ok.all() and rate_ok),
        b_cert=b_cert,
    )


# -- moment-generating-function checker -------------------------------------

#: replications drawn and summed per matrix product; the draws are one stream,
#: so the block size bounds memory (MGF_BLOCK x driver count) and changes no draw.
#: It is even, as a Rademacher draw takes whole 64-bit words, and a multiple of 4
#: dividing MGF_DEFAULT_REPS, which keeps BLAS's row blocking and the sums' last
#: bits; 8 rows (0.2 MB of draws at N = 2501) stay under glibc's heap-trim
#: threshold, where 64 rows were trimmed and faulted in again per block.
MGF_BLOCK = 8
#: replications behind every sampled MGF estimate: 1,250 whole blocks
MGF_DEFAULT_REPS = 10_000


@dataclass(frozen=True)
class MgfReport:
    lambda_grid: np.ndarray = field(repr=False)
    empirical_mean: np.ndarray = field(repr=False)
    exact_mean: np.ndarray = field(repr=False)
    envelope: np.ndarray = field(repr=False)
    per_lambda_pass: np.ndarray = field(repr=False)
    overall_pass: bool
    n_rep: int  # MGF_DEFAULT_REPS, for the benchmark's tracer


def mgf_check(driver: str, delta, grid: TimeGrid, d0: float, lambda_grid,
              seed: int, kernel: FilterKernel | None = None) -> MgfReport:
    """MGF of I = integral(delta * eps) against the Gaussian envelope, exact and sampled.

    ``delta`` holds the node values of the weight function; one with no nonzero
    value is a ContractError.  I = u @ z with u from :func:`driver_weights` and
    z i.i.d. driver draws; only the nonzero entries of u are kept, which leaves
    the law of I unchanged.  So log E exp(lambda * I) = sum_k log M(lambda * u_k)
    exactly (:func:`driver_log_mgf`), and lambda passes when that sum is at most
    lambda^2 * d0 * ||delta||^2 / 2 up to a relative 1e-12 for rounding (a
    Gaussian spike weight meets the bound with equality).  ``exact_mean`` and
    ``envelope`` are exp of the two sides.  ``empirical_mean`` is the sampler's
    estimate, +inf at a lambda where a replication overflows: MGF_DEFAULT_REPS
    replications from one PCG64 seeded by (seed, STREAM_MGF, 0), replication r
    the r-th run of u.size draws, MGF_BLOCK of them summed by one matrix
    product.
    """
    delta_vals = np.asarray(delta, dtype=float)
    norm_sq = integrate(delta_vals * delta_vals, grid)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    exponents = 0.5 * lambda_grid ** 2 * d0 * norm_sq

    u = driver_weights(trapezoid_weights(grid) * grid.h * delta_vals, grid, kernel)
    u = u[u != 0.0]
    if u.size == 0:
        raise ContractError("weight delta has no nonzero node value: its integral I is 0")
    log_mgf = np.array([driver_log_mgf(driver, lam * u).sum() for lam in lambda_grid])
    passed = log_mgf <= exponents * (1.0 + 1e-12)

    bits = np.random.PCG64(derive_seed(seed, STREAM_MGF, 0))
    samples = np.empty(MGF_DEFAULT_REPS)
    for start in range(0, MGF_DEFAULT_REPS, MGF_BLOCK):
        samples[start:start + MGF_BLOCK] = (
            sample_driver(driver, MGF_BLOCK * u.size, bits).reshape(MGF_BLOCK, u.size) @ u)
    means = np.empty(lambda_grid.size)
    with np.errstate(over="ignore"):  # an overflow is reported as +inf
        for j, lam in enumerate(lambda_grid):
            vals = np.exp(lam * samples)
            means[j] = vals.mean() if np.all(np.isfinite(vals)) else math.inf
        exact_mean, envelope = np.exp(log_mgf), np.exp(exponents)
    return MgfReport(
        lambda_grid=lambda_grid,
        empirical_mean=means,
        exact_mean=exact_mean,
        envelope=envelope,
        per_lambda_pass=passed,
        overall_pass=bool(passed.all()),
        n_rep=MGF_DEFAULT_REPS,
    )


# -- covariance quadratic-form checker ---------------------------------------


@dataclass(frozen=True)
class QuadraticFormReport:
    b1: float | None
    b2: float | None
    passed: bool


def quadratic_form_check(kernel: FilterKernel | None, grid: TimeGrid, f0: float,
                         sim: float) -> QuadraticFormReport:
    """Verify <B delta, delta> <= d0 * ||delta||^2 for every weight delta at once, d0 being
    the quadratic-form constant of the spectral level ``f0`` (:class:`BoundConstants`).

    B is the covariance of the simulated nodes (:func:`covariance_row`), a
    moving average of the driver draws with the kernel's taps, so
    <B delta, delta> = h^3 sum_m (sum_j w_j delta_j taps_{j-m})^2 <= d0_sim * ||delta||^2,
    with trapezoid weights w_j <= 1 and d0_sim the constant of ``sim``, the
    simulated process's spectral supremum (:func:`f0_sim` at the grid's step,
    which the caller has already computed); weights near its peak frequency
    approach that bound (Grenander & Szegő, *Toeplitz Forms and Their
    Applications*, 1958).  The constant grows with the spectral level, so the
    check passes when sim <= f0 * (1 + 1e-3).  White noise (``kernel=None``)
    has the one tap 1/h, so its ``sim`` is exactly 1/(2*pi)
    (``WHITE_NOISE_F0``), and the same rule tests the run's f0.

    With a kernel it also reports the two classical integrability constants
    of the covariance, b1 = sqrt(double integral of B^2) and
    b2 = sup_t integral of |B(t-s)| ds, both on the truncated domain [0, T]^2
    (None for white noise).  B^2 and |B| are symmetric Toeplitz like B, so
    each product is one :func:`toeplitz_product` of its first row.
    """
    b1, b2 = None, None
    if kernel is not None:
        cov = covariance_row(kernel, grid)
        b1 = math.sqrt(quadratic_form(cov * cov, np.ones(grid.n_nodes), grid))
        b2 = float((grid.h * toeplitz_product(np.abs(cov), trapezoid_weights(grid))).max())
    return QuadraticFormReport(b1=b1, b2=b2, passed=sim <= f0 * (1.0 + 1e-3))
