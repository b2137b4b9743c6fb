"""Noise generation: sub-Gaussian drivers, causal filters, spectral constants.

Drivers are unit-variance, mean-zero laws used both for the increments of the
integrated-white-noise process xi and for the coefficients of the series
construction in :func:`ito_nisio_path`.  The ``centered_exponential`` driver is
deliberately *not* sub-Gaussian; it exists as a negative control for the
moment-generating-function checker in :mod:`regtails.harness`.

Rademacher values are read from the bit generator's raw output.  PCG64 emits
64-bit words; split each into two 32-bit half-words, low half first, and
value k is +1 if bit 31 of the k-th half-word is set, else -1.  These are the
values of ``Generator.integers(0, 2, n) * 2.0 - 1.0`` bit for bit: NumPy's
``integers`` takes a range of 2 by Lemire's bounded method on 32-bit draws
(D. Lemire, "Fast random integer generation in an interval", ACM TOMACS
29(1), 2019), which returns the draw's top bit and never rejects at that
range.  Under NumPy's reproducibility policy (NEP 19) a bit generator's
stream is stable across releases while ``Generator`` methods may change
theirs, so the Rademacher outputs rest only on the stable part.

Every draw reads one stream form, a bare PCG64, and advances it.  Many
seeded streams share one: :func:`pcg64_states` gives the PCG64 state that
``default_rng(seed)`` starts from for a whole array of seeds at once, and a
PCG64 set to one of them draws what that fresh generator would.  NEP 19
keeps bit-generator seeding stable too, so each stream is a pure function of
its seed.

A stationary noise path is produced by pushing the increments of xi through a
causal kernel psi,

    eps(t) = sum_{k >= 0} taps_k * dxi(t - k*h),   taps_k = (1/h) integral_{kh}^{(k+1)h} psi,

the cell-average discretization of the moving-average integral: for Gaussian
xi it is the conditional mean of the exact integral given the increments.
The cell averages are the one discretization of psi.  At the grid step h
they give the nodes' covariance h * sum_k taps_k taps_{k+m} at lag m*h
(:func:`covariance_row`) and spectral supremum (:func:`f0_sim`); at the
kernel's fine step H / 2^16 the same expressions give the continuous
kernel's B(t), spectral density and f0 = sup f(lambda) (:func:`f0_sup`).
A nonnegative kernel's supremum is (integral psi)^2 / 2*pi at every step,
so f0_sim is f0 up to rounding, where left-point samples psi(k*h) of the
exponential kernel overshoot it by 2% at h = 0.02.  The increments start
one step per tap before t = 0, as far back as the taps reach: the
prehistory is derived from the kernel.  With a fixed seed the pipeline is
reproducible bit for bit.

White-increment mode (``kernel=None``) represents the generalized derivative
of xi: node values are increments divided by the step, so that quadrature
against a weight converges to the stochastic integral of the weight.  Its
idealized spectral density is flat at 1/(2*pi) and the covariance quadratic
form constant is 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ConfigError, ContractError
from .numerics import TimeGrid, load_table, memo, trapezoid_weights

DRIVER_KINDS = ("gaussian", "rademacher", "uniform_sqrt3", "centered_exponential")

_SQRT3 = math.sqrt(3.0)

#: flat spectral level of the idealized white-increment noise
WHITE_NOISE_F0 = 1.0 / (2.0 * math.pi)

# cells per truncation horizon H of the fine taps that stand for the continuous kernel
_FINE_CELLS = 1 << 16


@functools.lru_cache(maxsize=64)  # apply_filter asks once per trial for the same length
def next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: the real FFT lengths pocketfft transforms fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:        # the least 2^a * p35 >= n, p35 = 3^b * 5^c
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _hash_keys(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """SeedSequence's (xor, multiplier) pairs of its first n hash calls.

    Call k xors with constant k and multiplies by constant k + 1, constant k
    being init * mult^k mod 2^32.
    """
    consts = [init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(n + 1)]
    return tuple(zip(consts, consts[1:]))


_SEED_HASH_POOL = _hash_keys(0x43B0D7E5, 0x931E8875, 16)  # 4 pool words, then 12 cross-mixes
_SEED_HASH_OUT = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)    # 8 output half-words
_PCG64_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    value = (value ^ key[0]) * key[1]
    return value ^ (value >> 16)


def pcg64_states(seeds) -> list[dict]:
    """``default_rng(seed).bit_generator.state`` for each 64-bit seed, building no generator.

    ``default_rng(seed)`` seeds PCG64 from ``SeedSequence(seed).generate_state(4, uint64)``.
    The sequence hashes the seed's 32-bit words, low word first, into a pool
    of 4; a seed below 2^32 has one word, and the pool pads it with the zero
    that a high word of 0 gives.  The hash's constants run the same for every
    seed, so it is taken for all seeds at once in ``uint32`` arrays, whose
    products wrap.  PCG64 then takes the four words as a 128-bit initial state
    and stream, and seeds as O'Neill's ``pcg_setseq_128_srandom_r`` does
    (O'Neill, "PCG: A family of simple fast space-efficient statistically good
    algorithms for random number generation", HMC-CS-2014-0905): increment
    2 initseq + 1, state 0, one step, add the initial state, one step more.
    Setting a PCG64's ``state`` to the result gives the stream
    ``default_rng(seed)`` gives; NEP 19 keeps that seeding stable.
    """
    seeds = np.array(seeds, dtype=np.uint64, ndmin=1)  # array products wrap without a warning
    pool_keys = iter(_SEED_HASH_POOL)
    zero = np.zeros_like(seeds)
    pool = [_hashmix(word.astype(np.uint32), next(pool_keys))
            for word in (seeds & 0xFFFFFFFF, seeds >> 32, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                         - np.uint32(0x4973F715) * _hashmix(pool[src], next(pool_keys)))
                pool[dst] = mixed ^ (mixed >> 16)
    out = [_hashmix(pool[k % 4], key).astype(np.uint64) for k, key in enumerate(_SEED_HASH_OUT)]
    words = [(out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for s0, s1, s2, s3 in zip(*words):
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _rademacher(count: int, bits: np.random.PCG64) -> np.ndarray:
    """``count`` Rademacher values from PCG64's raw words (see :func:`sample_driver`).

    A draw takes ceil(count/2) whole words, and an odd count drops the last
    word's upper half.  So back-to-back draws continue one stream, as one
    ``integers`` call would, when every count except the last is even.

    The signs are formed in the bool mask's own bytes, as int8 ±1, and
    widened to float64 once: a float multiply of the mask casts it inside
    the ufunc's buffer and takes about 1.7 times as long per value.
    """
    halves = bits.random_raw((count + 1) // 2).astype("<u8", copy=False).view("<i4")[:count]
    z = (halves < 0).view(np.int8)  # bit 31 of each half-word, low half first
    z *= 2
    z -= 1
    return z.astype(float)


@functools.lru_cache(maxsize=1)  # a Generator holds no state: one serves every reset of its bits
def _generator(bits: np.random.PCG64) -> np.random.Generator:
    return np.random.Generator(bits)


def sample_driver(kind: str, count: int, bits: np.random.PCG64) -> np.ndarray:
    """Draw ``count`` i.i.d. unit-variance, mean-zero values of the named law from ``bits``.

    ``bits`` is a bare PCG64, the bit generator ``default_rng`` builds, and the
    draw advances it; anything else, an int seed or a Generator included, is a
    ContractError.  A PCG64 set to a seed's :func:`pcg64_states` entry, or
    built as ``PCG64(seed)``, draws what ``default_rng(seed)`` would, with no
    generator built per seed.  Gaussian, uniform and exponential values come
    from the ``Generator`` methods over ``bits``.  Rademacher values are bit 31
    of PCG64's raw 32-bit half-words, low half first (:func:`_rademacher`): the
    values that ``integers(0, 2, count) * 2.0 - 1.0`` gives on a fresh stream,
    since Lemire's bounded method returns a 32-bit draw's top bit and never
    rejects at range 2 (Lemire 2019).  A draw takes whole 64-bit words, so
    draws continue one stream when every count except the last is even.  NEP 19
    keeps bit-generator streams stable while ``Generator`` methods may change
    theirs, so these values rest on the stable part.
    """
    if count < 1:
        raise ContractError(f"count must be >= 1, got {count}")
    if type(bits) is not np.random.PCG64:
        raise ContractError(f"driver draws read a bare PCG64, got {type(bits).__name__}")
    if kind == "rademacher":
        return _rademacher(count, bits)
    rng = _generator(bits)
    if kind == "gaussian":
        return rng.standard_normal(count)
    if kind == "uniform_sqrt3":
        return rng.uniform(-_SQRT3, _SQRT3, count)
    if kind == "centered_exponential":
        return rng.exponential(1.0, count) - 1.0
    raise ConfigError(f"unknown driver kind {kind!r}; expected one of {DRIVER_KINDS}")


def driver_log_mgf(kind: str, x) -> np.ndarray:
    """log E exp(x * Z), Z of the named :func:`sample_driver` law, elementwise in x.

    gaussian x^2/2; rademacher log cosh x; uniform_sqrt3 log(sinh(s)/s), s = sqrt(3)|x|;
    centered_exponential -x - log(1 - x) below x = 1, else +inf.  Small |x| take
    a Taylor polynomial or log1p, large |x| write cosh and sinh through exp(-2|x|):
    the relative error stays below 1e-12, and no intermediate value overflows.
    """
    x = np.asarray(x, dtype=float)
    if kind == "gaussian":
        return 0.5 * x * x
    a = np.abs(x)
    out = np.full(x.shape, math.nan)
    if kind == "rademacher":
        small = a < 1.0
        out[small] = np.log1p(2.0 * np.sinh(0.5 * a[small]) ** 2)
        big = a[~small]
        out[~small] = big - math.log(2.0) + np.log1p(np.exp(-2.0 * big))
    elif kind == "uniform_sqrt3":
        s = _SQRT3 * a
        small = s < 0.1
        s2 = s[small] ** 2
        out[small] = s2 * (1 / 6 - s2 * (1 / 180 - s2 * (1 / 2835 - s2 / 37800)))
        big = s[~small]
        out[~small] = big - np.log(2.0 * big) + np.log1p(-np.exp(-2.0 * big))
    elif kind == "centered_exponential":
        small = a < 1e-3
        t = x[small]
        out[small] = t * t * (1 / 2 + t * (1 / 3 + t * (1 / 4 + t * (1 / 5 + t / 6))))
        mid = ~small & (x < 1.0)
        out[mid] = -x[mid] - np.log1p(-x[mid])
        out[x >= 1.0] = math.inf
    else:
        raise ConfigError(f"unknown driver kind {kind!r}; expected one of {DRIVER_KINDS}")
    return out


def simulate_increments(kind: str, grid: TimeGrid, n_pre: int, bits: np.random.PCG64) -> np.ndarray:
    """Increments dxi_j = sqrt(h) * Z_j of an integrated white noise, from n_pre steps before t=0.

    Entry i is the increment over (s_i, s_{i+1}] with s_i = -n_pre*h + i*h, so
    the last n_steps entries cover (0, T] and the first n_pre entries, the
    prehistory, feed a causal filter before time zero.
    """
    if n_pre < 0:
        raise ContractError(f"prehistory must be >= 0 steps, got {n_pre}")
    return np.sqrt(grid.h) * sample_driver(kind, n_pre + grid.n_steps, bits)


@dataclass(frozen=True)
class FilterKernel:
    """Causal square-integrable kernel psi, zero for t < 0 and beyond the horizon.

    ``form`` is "exponential" (psi(t) = exp(-rate*t)) or "tabulated" (linear
    interpolation of samples).  The truncation horizon H is derived, not set:
    20/rate for the exponential kernel, which leaves an L2 tail of e^-40 of
    the mass, and the last tabulated time for a table.
    """

    form: str
    rate: float | None = None
    times: tuple[float, ...] | None = field(default=None, repr=False)
    samples: tuple[float, ...] | None = field(default=None, repr=False)
    truncation_horizon: float = field(init=False, compare=False)

    def __post_init__(self):
        if self.form == "exponential":
            if self.rate is None or self.rate <= 0:
                raise ContractError(f"exponential kernel needs a positive rate, got {self.rate}")
            horizon = 20.0 / self.rate
        elif self.form == "tabulated":
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.samples, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 1:
                raise ContractError("tabulated kernel needs matching 1-d time and value arrays")
            if t[0] != 0.0 or (t.size > 1 and not np.all(np.diff(t) > 0)):
                raise ContractError("tabulated kernel times must be strictly increasing from 0")
            if not np.all(np.isfinite(v)):
                raise ContractError("tabulated kernel values must be finite")
            object.__setattr__(self, "times", tuple(t.tolist()))
            object.__setattr__(self, "samples", tuple(v.tolist()))
            horizon = self.times[-1]
        else:
            raise ConfigError(f"unknown kernel form {self.form!r}")
        if not 0 < horizon < math.inf:
            raise ContractError(f"kernel truncation horizon must be positive and finite, got {horizon}")
        object.__setattr__(self, "truncation_horizon", horizon)

    # -- constructors ----------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "FilterKernel":
        return cls(form="exponential", rate=rate)

    @classmethod
    def tabulated(cls, times, samples) -> "FilterKernel":
        return cls(form="tabulated", times=times, samples=samples)

    @classmethod
    def from_file(cls, path) -> "FilterKernel":
        """Load a tabulated kernel from a two-column text file (time, value)."""
        data = load_table(path, "kernel file")
        if data.shape[1] != 2:
            raise ConfigError(f"kernel file {path} must have exactly two columns")
        return cls.tabulated(data[:, 0], data[:, 1])

    # -- evaluation ------------------------------------------------------

    def psi(self, t) -> np.ndarray:
        """Kernel values; zero off [0, truncation_horizon]."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.truncation_horizon)
        if self.form == "exponential":
            out = np.where(inside, np.exp(-self.rate * np.clip(t, 0.0, None)), 0.0)
        else:
            out = np.where(inside, np.interp(t, self.times, self.samples, left=0.0, right=0.0), 0.0)
        return out

    def n_taps(self, h: float) -> int:
        """Number of filter taps: one per cell [k*h, (k+1)*h) with k*h <= truncation_horizon."""
        return int(np.floor(self.truncation_horizon / h + 1e-12)) + 1

    def taps(self, h: float) -> np.ndarray:
        """Cell averages (1/h) * integral of psi over [k*h, (k+1)*h], the upper edge clipped at H.

        Exact for both forms: closed form for the exponential kernel, and for a
        table the trapezoid areas of its linear interpolant between the table
        times and the cell edges, summed per cell (a running sum differenced
        would lose accuracy at a fine step).  The array is read-only and built
        once per (kernel, h).
        """
        def build():
            edges = np.arange(self.n_taps(h) + 1, dtype=float)
            np.minimum(np.multiply(edges, h, out=edges), self.truncation_horizon, out=edges)
            if self.form == "exponential":
                # e^(-a x_k) (1 - e^(-a (x_(k+1) - x_k))) / (a h), in place beside the edges
                a = self.rate
                taps = np.diff(edges)
                np.expm1(np.multiply(taps, -a, out=taps), out=taps)
                taps *= np.exp(np.multiply(edges, -a, out=edges), out=edges)[:-1]
                return np.divide(taps, -(a * h), out=taps)
            knots = np.union1d(self.times, edges)
            values = np.interp(knots, self.times, self.samples)
            areas = 0.5 * (values[1:] + values[:-1]) * np.diff(knots)
            # a cell of zero width at H starts past the last area and sums the appended 0
            return np.add.reduceat(np.append(areas, 0.0), np.searchsorted(knots, edges[:-1])) / h

        return memo(("cell taps", self, h), build)


def apply_filter(kernel: FilterKernel, increments: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Convolve filter taps with increments: eps(t_j) = sum_k taps_k dxi(t_j - k*h).

    ``increments`` is a :func:`simulate_increments` sequence; the entries before
    its last n_steps are prehistory.  The increment ending at time t_j - k*h is
    used for tap k, so the sequence must extend at least taps*h before t=0.
    """
    n_taps = kernel.n_taps(grid.h)
    n_pre = increments.size - grid.n_steps
    if n_pre < n_taps:
        raise ContractError(
            f"insufficient prehistory: filter needs {n_taps} steps "
            f"({n_taps * grid.h:.6g} time units), increments provide {n_pre}"
        )
    n_fft = next_fast_len(increments.size + n_taps - 1)
    spectrum = memo(("taps", kernel, grid.h, n_fft), lambda: rfft(kernel.taps(grid.h), n_fft))
    conv = irfft(rfft(increments, n_fft) * spectrum, n_fft)
    return conv[n_pre - 1: n_pre + grid.n_steps]


def filtered_noise_path(kind: str, kernel: FilterKernel, grid: TimeGrid,
                        bits: np.random.PCG64) -> np.ndarray:
    """Generate a stationary filtered path: one increment per tap before t = 0, then the filter."""
    increments = simulate_increments(kind, grid, kernel.n_taps(grid.h), bits)
    return apply_filter(kernel, increments, grid)


def white_noise_path(kind: str, grid: TimeGrid, bits: np.random.PCG64) -> np.ndarray:
    """White-increment noise: node values are increment densities dxi/h.

    Each value is an independent draw scaled by 1/sqrt(h), so quadrature of
    delta(t)*eps(t) reproduces the stochastic integral of delta against xi.
    """
    return sample_driver(kind, grid.n_nodes, bits) / np.sqrt(grid.h)


def noise_path(driver: str, grid: TimeGrid, bits: np.random.PCG64,
               kernel: FilterKernel | None = None) -> np.ndarray:
    """Node values of one noise path: white increments without a kernel, else filtered."""
    if kernel is None:
        return white_noise_path(driver, grid, bits)
    return filtered_noise_path(driver, kernel, grid, bits)


def driver_weights(w: np.ndarray, grid: TimeGrid, kernel: FilterKernel | None = None) -> np.ndarray:
    """Coefficients u of a path's weighted sum in its driver draws: w @ path == u @ draws.

    A path is linear in the ``sample_driver(driver, u.size, bits)`` draws z that
    :func:`noise_path` makes from the same stream, so ``w @ noise_path(...)``
    equals ``u @ z``.  White noise: u = w / sqrt(h).  Filtered noise, with one
    increment per tap before t = 0, n_pre = taps.size:
    u[m] = sqrt(h) * sum_j w_j taps[n_pre - 1 + j - m], one rFFT correlation.
    """
    if kernel is None:
        return w / np.sqrt(grid.h)
    taps = kernel.taps(grid.h)
    size = taps.size + grid.n_steps
    n_fft = next_fast_len(max(size, taps.size + w.size - 1))
    full = irfft(rfft(taps, n_fft) * rfft(w[::-1], n_fft), n_fft)
    return np.sqrt(grid.h) * full[size - 1::-1]


# -- second-order theory of the filtered process -------------------------


def _fine_taps(kernel: FilterKernel) -> tuple[np.ndarray, float]:
    """The kernel's cell-average taps at its fine step H / 2^16, and that step."""
    step = kernel.truncation_horizon / _FINE_CELLS
    return kernel.taps(step), step


def _lag_products(taps: np.ndarray, step: float, count: int) -> np.ndarray:
    """step * sum_k taps_k taps_{k+m} for lags m < count: one rFFT of the taps, |X|^2, irfft."""
    n_fft = next_fast_len(2 * taps.size)
    spectrum = rfft(taps, n_fft)
    return step * irfft(spectrum.real ** 2 + spectrum.imag ** 2, n_fft)[:count]


def covariance_row(kernel: FilterKernel, grid: TimeGrid) -> np.ndarray:
    """Covariance of the simulated nodes at the grid lags 0, h, ..., T.

    The filtered path (:func:`filtered_noise_path`) has covariance
    h * sum_k taps_k taps_{k+m} at lag m*h for any unit-variance driver
    (:func:`_lag_products`).  Lags at or past the tap count are 0.
    """
    taps = kernel.taps(grid.h)
    count = min(taps.size, grid.n_nodes)
    row = np.zeros(grid.n_nodes)
    row[:count] = _lag_products(taps, grid.h, count)
    return row


def covariance_of_filter(kernel: FilterKernel, lags: np.ndarray) -> np.ndarray:
    """Stationary covariance B(t) = integral of psi(t+u) psi(u) du at each lag t >= 0 of an array.

    psi is the step function of its taps at the fine step delta = H / 2^16,
    whose B is exact: delta * sum_k taps_k taps_{k+m} at t = m*delta
    (:func:`_lag_products`), linear in between, 0 past H.  For the exponential
    kernel it is 1e-8 relative off the closed form up to H/2, 3e-7 at H - H/1000.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1:
        raise ContractError(f"covariance lags must be a 1-d array, got shape {lags.shape}")
    if np.any(lags < 0):
        raise ContractError("covariance lag must be >= 0 (B is even)")
    taps, step = _fine_taps(kernel)
    return np.interp(lags / step, np.arange(taps.size), _lag_products(taps, step, taps.size),
                     right=0.0)


def _power(samples: np.ndarray, step: float, lam) -> np.ndarray:
    """step^2 |sum_k samples_k e^{-i k lambda step}|^2 / 2*pi, elementwise in lambda."""
    phases = np.exp(-1j * step * np.multiply.outer(lam, np.arange(samples.size)))
    transform = (phases * samples).sum(axis=-1)  # pairwise
    return step * step * np.abs(transform) ** 2 / (2.0 * math.pi)


def spectral_density(kernel: FilterKernel, lam) -> float | np.ndarray:
    """f(lambda) = |(2*pi)^{-1/2} * integral psi(t) exp(-i*lambda*t) dt|^2: :func:`_power` of the
    fine taps, exact at lambda = 0, where it is (integral psi)^2 / 2*pi."""
    return _power(*_fine_taps(kernel), lam)


def _sup_power(samples: np.ndarray, step: float) -> float:
    """Supremum over lambda of :func:`_power`, the power of ``samples`` spaced ``step`` apart.

    Nonnegative samples peak at lambda = 0, since |sum_k s_k e^{-i k lambda step}|
    <= sum_k s_k (Grenander & Szegő, *Toeplitz Forms and Their Applications*,
    1958), so their supremum is (step * sum_k s_k)^2 / 2*pi, a pairwise sum
    with no scan.  For signed samples one rFFT, zero-padded 8x, gives |transform| at
    lambda_k = 2*pi*k / (n_fft * step) for every frequency the spacing
    resolves, 8 bins per 2*pi over the samples' span.  Golden section then
    refines the power on the two bins around the best one; 40 steps, one new
    value each, shrink that bracket to about 4e-9 of its width.  The result is
    the larger of the power at the best bin and at the bracket's midpoint.
    """
    if samples.min() >= 0.0:
        return float((step * samples.sum()) ** 2 / (2.0 * math.pi))
    n_fft = next_fast_len(8 * samples.size)
    k = int(np.abs(rfft(samples, n_fft)).argmax())
    bin_width = 2.0 * math.pi / (n_fft * step)
    lo, hi = max(k - 1, 0) * bin_width, (k + 1) * bin_width
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f_left, f_right = _power(samples, step, np.array([left, right]))
    for _ in range(40):
        if f_left >= f_right:
            hi, right, f_right = right, left, f_left
            left = hi - shrink * (hi - lo)
            f_left = _power(samples, step, left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + shrink * (hi - lo)
            f_right = _power(samples, step, right)
    return float(_power(samples, step, np.array([k * bin_width, 0.5 * (lo + hi)])).max())


def f0_sim(kernel: FilterKernel, h: float) -> float:
    """Spectral supremum of the simulated process: :func:`_sup_power` of the taps.

    Their power is h^2 |sum_k taps_k e^{-i k lambda h}|^2 / 2*pi (:func:`_power`).
    """
    return _sup_power(kernel.taps(h), h)


def f0_sup(kernel: FilterKernel) -> float:
    """Supremum of :func:`spectral_density`, :func:`f0_sim` at the kernel's fine step; for a
    nonnegative kernel (integral psi)^2 / 2*pi, exact up to rounding."""
    return f0_sim(kernel, kernel.truncation_horizon / _FINE_CELLS)


# -- series construction of an orthogonal-increment process ---------------


def _haar_running_integrals(n_terms: int, horizon: float, times: np.ndarray) -> np.ndarray:
    """Rows k of integral_0^t phi_k(u) du for the first n_terms Haar functions.

    The running integrals are triangle (Schauder) functions with closed form,
    so partial sums carry no inner quadrature error.
    """
    S = horizon
    out = np.empty((n_terms, times.size))
    out[0] = times / math.sqrt(S)
    k = 1
    level = 0
    while k < n_terms:
        n_shift = 1 << level
        width = S / n_shift
        height = (2.0 ** (level / 2.0)) / math.sqrt(S)
        shifts = np.arange(min(n_shift, n_terms - k))
        start = shifts[:, None] * width
        mid = start + width / 2.0
        end = start + width
        t = times[None, :]
        rising = np.clip(t, start, mid) - start
        falling = np.clip(t, mid, end) - mid
        out[k:k + shifts.size] = height * (rising - falling)
        k += shifts.size
        level += 1
    return out


def ito_nisio_path(kind: str, basis, grid: TimeGrid, bits: np.random.PCG64) -> np.ndarray:
    """Partial sum xi(t_j) = sum_k z_k * integral_0^{t_j} phi_k, z_k i.i.d. driver draws.

    ``basis`` is the config's ``noise.basis`` (``regtails.config.BasisConfig``):
    phi_k are the first ``n_terms`` Haar functions on [0, ``horizon``).  With a
    gaussian driver this is a truncated expansion of a standard Wiener
    process; with any unit-variance sub-Gaussian driver the limit has the same
    covariance min(s, t) but is non-Gaussian.
    """
    if grid.T > basis.horizon + 1e-12:
        raise ConfigError(
            f"grid horizon {grid.T} exceeds basis support horizon {basis.horizon}"
        )
    coeffs = sample_driver(kind, basis.n_terms, bits)
    return coeffs @ memo(("haar", basis, grid),
                         lambda: _haar_running_integrals(basis.n_terms, basis.horizon, grid.nodes))


def toeplitz_product(row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first row ``row`` times ``x``, without forming the matrix.

    One rFFT convolution in the circulant embedding of size 2n - 1.
    """
    p = 2 * row.size - 1
    return irfft(rfft(np.concatenate((row, row[-1:0:-1]))) * rfft(x, p), p)[:row.size]


def quadratic_form(cov_row: np.ndarray, delta: np.ndarray, grid: TimeGrid) -> float:
    """Double integral of B(t-s) delta(t) delta(s) over [0,T]^2 by nested trapezoid.

    ``cov_row`` is B at the grid lags (:func:`covariance_row`).  The matrix
    B(t_i - t_j) is symmetric Toeplitz with that first row, so its product
    with the weighted probe is :func:`toeplitz_product`, without forming it.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (grid.n_nodes,):
        raise ContractError("delta must be sampled on the grid nodes")
    wd = trapezoid_weights(grid) * delta
    return float(grid.h ** 2 * (wd @ toeplitz_product(cov_row, wd)))
