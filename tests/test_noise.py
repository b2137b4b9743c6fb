import math
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import matmul_toeplitz, toeplitz
from scipy.signal import fftconvolve

from regtails import noise, numerics
from regtails.errors import ConfigError, ContractError
from regtails.harness import STREAM_TRIALS, derive_seed
from regtails.noise import (
    BasisSpec,
    FilterKernel,
    apply_filter,
    covariance_of_filter,
    covariance_row,
    DRIVER_KINDS,
    driver_log_mgf,
    driver_weights,
    f0_sim,
    f0_sup,
    filtered_noise_path,
    ito_nisio_path,
    next_fast_len,
    noise_path,
    pcg64_states,
    quadratic_form,
    sample_driver,
    simulate_increments,
    spectral_density,
    toeplitz_product,
    white_noise_path,
    _fine_table,
    _weighted_table,
)
from regtails.numerics import TimeGrid, inner_product, integrate, trapezoid_weights


# -- drivers ----------------------------------------------------------------


def test_rademacher_support():
    draws = sample_driver("rademacher", 5000, np.random.PCG64(1))
    assert set(np.unique(draws)) <= {-1.0, 1.0}


def _rademacher_by_integers(rng, count):
    # the route the raw-word signs replace, kept here as their reference
    return rng.integers(0, 2, count) * 2.0 - 1.0


# each law by its Generator method: the reference for sample_driver's draws
REFERENCE_DRAWS = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "rademacher": _rademacher_by_integers,
    "uniform_sqrt3": lambda rng, n: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), n),
    "centered_exponential": lambda rng, n: rng.exponential(1.0, n) - 1.0,
}


_RADEMACHER_COUNTS = (1, 2, 3, 101, 7_001, 20_008, 28_008)
_RANDOM_COUNTS = tuple(np.random.default_rng(8).integers(1, 30_000, 6).tolist())


@pytest.mark.parametrize("count", _RADEMACHER_COUNTS + _RANDOM_COUNTS)
@pytest.mark.parametrize("seed", [0, 1, 271_828, 2 ** 63 + 12_345])
def test_rademacher_from_a_fresh_pcg64_matches_integers(count, seed):
    got = sample_driver("rademacher", count, np.random.PCG64(seed))
    assert np.array_equal(got, _rademacher_by_integers(np.random.default_rng(seed), count))


@pytest.mark.parametrize("kind", DRIVER_KINDS)
def test_every_driver_reads_only_a_bare_pcg64(kind):
    # MT19937's native 32-bit output would give other bits than integers; an int
    # seed or a Generator is a second stream form with rules of its own
    for stream, name in ((7, "int"), (np.random.default_rng(7), "Generator"),
                         (np.random.MT19937(7), "MT19937")):
        with pytest.raises(ContractError, match=f"got {name}$"):
            sample_driver(kind, 5, stream)


# -- seeding many streams at once -------------------------------------------------


def test_pcg64_states_are_default_rng_states():
    # fails if NumPy ever changes SeedSequence's hash or PCG64's seeding
    seeds = [derive_seed(2024, STREAM_TRIALS, i) for i in range(20_000)]
    seeds += [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 12345]
    assert pcg64_states(seeds) == [np.random.default_rng(s).bit_generator.state for s in seeds]
    assert pcg64_states([]) == []


@pytest.mark.parametrize("kind", DRIVER_KINDS)
def test_a_reset_bit_generator_draws_what_default_rng_draws(kind):
    # one PCG64 reset to each seed's state in turn, against the law's Generator
    # method on default_rng(seed); an odd count ends mid-word, and the upper
    # half of the last word must not reach the next seed
    seeds = np.random.default_rng(11).integers(0, 2**64 - 1, 80, dtype=np.uint64).tolist()
    seeds += [0, 2**64 - 1]
    bits = np.random.PCG64(0)
    for j, (seed, state) in enumerate(zip(seeds, pcg64_states(seeds))):
        count = (1, 2, 2501, 7001)[j % 4]
        bits.state = state
        want = REFERENCE_DRAWS[kind](np.random.default_rng(seed), count)
        assert np.array_equal(sample_driver(kind, count, bits), want)


def test_uniform_variance_matches_analytic():
    # Var U[-a, a] = a^2 / 3 = 1 for a = sqrt(3)
    draws = sample_driver("uniform_sqrt3", 10 ** 6, np.random.PCG64(2))
    assert 0.99 <= draws.var() <= 1.01
    assert abs(draws).max() <= math.sqrt(3.0)


def test_gaussian_fourth_moment():
    draws = sample_driver("gaussian", 10 ** 6, np.random.PCG64(3))
    assert 2.94 <= np.mean(draws ** 4) <= 3.06


def test_centered_exponential_moments():
    draws = sample_driver("centered_exponential", 10 ** 6, np.random.PCG64(4))
    assert abs(draws.mean()) < 0.01
    assert 0.99 <= draws.var() <= 1.01
    assert draws.min() >= -1.0


def test_unknown_driver_rejected():
    with pytest.raises(ConfigError):
        sample_driver("cauchy", 10, np.random.PCG64(0))


_DIRECT_LOG_MGF = {
    "gaussian": lambda x: x * x / 2,
    "rademacher": lambda x: np.log(np.cosh(x)),
    "uniform_sqrt3": lambda x: np.log(np.sinh(math.sqrt(3) * x) / (math.sqrt(3) * x)),
    "centered_exponential": lambda x: -x - np.log(1 - x),
}


@pytest.mark.parametrize("kind", DRIVER_KINDS)
def test_driver_log_mgf_matches_direct_formula(kind):
    x = np.concatenate([np.linspace(-3.0, -0.1, 60), np.linspace(0.1, 0.9, 60)])
    np.testing.assert_allclose(driver_log_mgf(kind, x), _DIRECT_LOG_MGF[kind](x),
                               rtol=1e-12, atol=0.0)
    assert driver_log_mgf(kind, 0.0) == 0.0


@pytest.mark.parametrize("kind", DRIVER_KINDS)
def test_driver_log_mgf_is_stable_at_tiny_and_large_arguments(kind):
    x = np.array([-1e3, -1e-12, 1e-12, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = driver_log_mgf(kind, x)
    # every law has unit variance, so log M(x) = x^2 / 2 + O(x^3) at tiny |x|
    np.testing.assert_allclose(got[1:3], 5e-25, rtol=1e-9)
    finite = x if kind != "centered_exponential" else x[:3]
    assert np.all(np.isfinite(driver_log_mgf(kind, finite)))
    assert np.all(got[[0, -1]] > 0)


def test_centered_exponential_log_mgf_is_infinite_from_one():
    assert np.all(driver_log_mgf("centered_exponential", np.array([1.0, 1.5, 1e3])) == math.inf)
    assert np.isfinite(driver_log_mgf("centered_exponential", np.nextafter(1.0, 0.0)))


def test_unknown_driver_log_mgf_rejected():
    with pytest.raises(ConfigError):
        driver_log_mgf("cauchy", np.ones(3))


def test_driver_determinism():
    a = sample_driver("gaussian", 100, np.random.PCG64(42))
    b = sample_driver("gaussian", 100, np.random.PCG64(42))
    np.testing.assert_array_equal(a, b)


# -- increments ---------------------------------------------------------------


def test_increment_variance_scaling():
    g = TimeGrid(10.0, 1000)
    inc = simulate_increments("gaussian", g, n_pre=0, bits=np.random.PCG64(5))
    # 10^5 increments via repeated segments
    vals = np.concatenate([
        simulate_increments("gaussian", g, 0, np.random.PCG64(100 + i)) for i in range(100)
    ])
    assert vals.size == 10 ** 5
    assert g.h * 0.98 <= vals.var() <= g.h * 1.02
    assert inc.shape == (g.n_steps,)


def test_disjoint_increments_uncorrelated():
    g = TimeGrid(1.0, 2000)
    vals = simulate_increments("uniform_sqrt3", g, 0, np.random.PCG64(9))
    a, b = vals[::2], vals[1::2]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(a.size)


def test_zero_prehistory_gives_only_main_segment():
    g = TimeGrid(1.0, 4)
    inc = simulate_increments("gaussian", g, 0, np.random.PCG64(0))
    assert inc.shape == (4,)
    inc2 = simulate_increments("gaussian", g, 2, np.random.PCG64(0))
    assert inc2.shape == (6,)


# -- kernels and filtering ------------------------------------------------------


def test_delta_like_kernel_gives_unit_white_noise():
    g = TimeGrid(1.0, 100)
    h = g.h
    kernel = FilterKernel.tabulated([0.0, h], [1.0 / math.sqrt(h), 1.0 / math.sqrt(h)])
    inc = simulate_increments("gaussian", g, n_pre=2, bits=np.random.PCG64(11))
    path = apply_filter(kernel, inc, g)
    # eps(t_j) = dxi(ending at t_j) / sqrt(h), with two prehistory increments
    expected = inc[1: 2 + g.n_steps] / math.sqrt(h)
    np.testing.assert_allclose(path, expected, atol=1e-12)
    assert 0.8 <= path.var() <= 1.2


def test_apply_filter_matches_direct_convolution():
    g = TimeGrid(3.0, 300)
    kernel = FilterKernel.exponential(2.0)
    inc = simulate_increments("rademacher", g, kernel.n_taps(g.h), np.random.PCG64(4))
    n_pre = inc.size - g.n_steps
    direct = np.convolve(inc, kernel.taps(g.h))[n_pre - 1: n_pre + g.n_steps]
    np.testing.assert_allclose(apply_filter(kernel, inc, g), direct, rtol=1e-12, atol=1e-12)


def test_tabulated_kernels_differing_in_one_sample_filter_apart():
    times = np.linspace(0.0, 0.5, 6)
    first = FilterKernel.tabulated(times, [1.0, 0.8, 0.6, 0.4, 0.2, 0.0])
    second = FilterKernel.tabulated(times, [1.0, 0.8, 0.6, 0.5, 0.2, 0.0])
    assert first != second
    assert first == FilterKernel.tabulated(list(times), list(first.samples))
    assert hash(first) == hash(FilterKernel.tabulated(list(times), list(first.samples)))
    g = TimeGrid(2.0, 200)
    inc = simulate_increments("gaussian", g, first.n_taps(g.h), np.random.PCG64(8))
    n_pre = inc.size - g.n_steps
    for kernel in (first, second):
        direct = np.convolve(inc, kernel.taps(g.h))[n_pre - 1: n_pre + g.n_steps]
        np.testing.assert_allclose(apply_filter(kernel, inc, g), direct, rtol=1e-12, atol=1e-12)


def test_insufficient_prehistory_names_requirement():
    g = TimeGrid(1.0, 100)
    kernel = FilterKernel.exponential(1.0)
    inc = simulate_increments("gaussian", g, n_pre=100, bits=np.random.PCG64(0))
    with pytest.raises(ContractError, match="prehistory"):
        apply_filter(kernel, inc, g)


@pytest.mark.parametrize("kernel,grid,n_taps", [
    (FilterKernel.exponential(3.0), TimeGrid(1.0, 100), 667),
    (FilterKernel.exponential(0.7), TimeGrid(1.0, 100), 2858),
    (FilterKernel.tabulated([0.0, 0.228, 1.023, 1.339], [-1.935, -1.097, 1.187, -1.597]),
     TimeGrid(30.0, 100), 5),
], ids=["rate3", "rate0.7", "signed_table"])
def test_filtered_path_draws_one_increment_per_tap_before_zero(kernel, grid, n_taps, monkeypatch):
    # H/h is not a whole number here; a prehistory of H + h would draw one more
    # increment than the taps reach
    assert kernel.n_taps(grid.h) == n_taps
    counts = []

    def counting(kind, count, bits):
        counts.append(count)
        return sample_driver(kind, count, bits)

    monkeypatch.setattr(noise, "sample_driver", counting)
    path = filtered_noise_path("gaussian", kernel, grid, np.random.PCG64(3))
    assert counts == [n_taps + grid.n_steps]
    np.testing.assert_array_equal(
        path,
        apply_filter(kernel, simulate_increments("gaussian", grid, n_taps, np.random.PCG64(3)), grid))
    assert driver_weights(np.ones(grid.n_nodes), grid, kernel).size == n_taps + grid.n_steps


def test_filtered_variance_matches_kernel_l2():
    # B(0) = integral of exp(-2u) = 1/2 for rate 1
    g = TimeGrid(800.0, 40_000)
    path = filtered_noise_path("gaussian", FilterKernel.exponential(1.0), g, np.random.PCG64(21))
    assert 0.5 * 0.93 <= path.var() <= 0.5 * 1.07


def test_filtered_lag_covariance():
    # lag-1 covariance exp(-1)/2 for rate 1
    g = TimeGrid(800.0, 40_000)
    path = filtered_noise_path("gaussian", FilterKernel.exponential(1.0), g, np.random.PCG64(22))
    lag = int(round(1.0 / g.h))
    emp = np.mean(path[:-lag] * path[lag:])
    assert emp == pytest.approx(math.exp(-1) / 2, abs=0.02)


def test_path_determinism():
    g = TimeGrid(2.0, 200)
    k = FilterKernel.exponential(1.0)
    a = filtered_noise_path("rademacher", k, g, np.random.PCG64(7))
    b = filtered_noise_path("rademacher", k, g, np.random.PCG64(7))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(noise_path("rademacher", g, np.random.PCG64(7), k), a)
    w1 = white_noise_path("gaussian", g, np.random.PCG64(8))
    w2 = white_noise_path("gaussian", g, np.random.PCG64(8))
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(noise_path("gaussian", g, np.random.PCG64(8)), w1)


def test_ensemble_covariance_matches_theory():
    # ensemble covariance at lags 0, 1, ..., 5 over many independent paths
    rate = 1.0
    g = TimeGrid(5.0, 500)
    kernel = FilterKernel.exponential(rate)
    n_paths = 20_000
    lags_steps = [0, int(1 / g.h), int(2 / g.h), int(5 / g.h)]
    taps = kernel.taps(g.h)
    n_pre = taps.size
    # batched generation (same law as filtered_noise_path) for speed
    prods = np.empty((n_paths, len(lags_steps)))
    rng_master = 909
    batch = 1000
    for start in range(0, n_paths, batch):
        dxi = np.vstack([
            simulate_increments("gaussian", g, n_pre, np.random.PCG64(rng_master + start + i))
            for i in range(batch)
        ])
        conv = fftconvolve(dxi, taps[None, :], mode="full", axes=1)
        eps = conv[:, n_pre - 1: n_pre + g.n_steps]
        for j, k in enumerate(lags_steps):
            prods[start:start + batch, j] = eps[:, 0] * eps[:, k]
    for j, k in enumerate(lags_steps):
        theory = covariance_of_filter(kernel, k * g.h)
        emp = prods[:, j].mean()
        se = prods[:, j].std(ddof=1) / math.sqrt(n_paths)
        assert abs(emp - theory) <= 4.0 * se, f"lag {k * g.h}: {emp} vs {theory} (se {se})"


# -- covariance / spectrum -------------------------------------------------------


def test_covariance_closed_forms():
    k = FilterKernel.exponential(1.0)
    assert covariance_of_filter(k, 0.0) == pytest.approx(0.5, abs=1e-6)
    assert covariance_of_filter(k, 1.0) == pytest.approx(math.exp(-1) / 2, abs=1e-6)
    assert covariance_of_filter(k, 2 * k.truncation_horizon + 1.0) == 0.0


@pytest.mark.parametrize("kernel", [
    FilterKernel.exponential(1.0),
    FilterKernel.tabulated([0.0, 0.4, 1.1, 2.5], [1.0, -0.7, 0.3, 0.2]),
], ids=["exponential", "tabulated"])
def test_covariance_zero_past_horizon(kernel):
    # psi(t + u) = 0 for every u >= 0 once t > H, so B is exactly zero there
    H = kernel.truncation_horizon
    h = H / 1000
    lags = np.array([H - h, H, H + h, 1.5 * H, 2 * H])
    u, psi_u, step = _fine_table(kernel)
    assert np.array_equal(psi_u, kernel.psi(u))
    direct = [np.trapezoid(kernel.psi(lag + u) * kernel.psi(u), dx=step) for lag in lags]
    out = covariance_of_filter(kernel, lags)
    assert list(out) == direct
    assert [covariance_of_filter(kernel, float(lag)) for lag in lags] == direct
    assert out[1] > 0.0
    assert np.all(out[2:] == 0.0)


def test_kernel_truncation_invariant():
    # H is derived: 20/rate leaves an L2 tail of e^-40 of the mass, and a
    # table's last time is where its support ends
    assert FilterKernel.exponential(2.0).truncation_horizon == 10.0
    assert covariance_of_filter(FilterKernel.exponential(1.0), 0.0) == pytest.approx(0.5, rel=1e-6)
    assert FilterKernel.tabulated([0.0, 0.4, 1.1], [1.0, 0.5, 0.0]).truncation_horizon == 1.1
    with pytest.raises(TypeError):
        FilterKernel("exponential", rate=1.0, truncation_horizon=2.0)
    with pytest.raises(ContractError, match="horizon"):
        FilterKernel.tabulated([0.0], [1.0])


def test_spectral_density_closed_form():
    k = FilterKernel.exponential(1.0)
    assert spectral_density(k, 0.0) == pytest.approx(1 / (2 * math.pi), rel=1e-6)
    # f(lambda) = 1 / (2 pi (1 + lambda^2))
    assert spectral_density(k, 2.0) == pytest.approx(1 / (2 * math.pi * 5.0), rel=1e-5)
    assert f0_sup(k) == pytest.approx(1 / (2 * math.pi), rel=1e-6)


def test_spectral_density_sums_its_table_pairwise():
    # the constant kernel -0.1 on [0, 2] has f(0) = 0.2^2 / 2 pi; a sequential sum
    # of its 65,537-term table drifts by 1.2e-13 relative, a pairwise one by ulps
    kernel = FilterKernel.tabulated([0.0, 2.0], [-0.1, -0.1])
    want = 0.04 / (2 * math.pi)
    assert abs(spectral_density(kernel, 0.0) - want) <= 4 * math.ulp(want)


def test_spectrum_even():
    k = FilterKernel.exponential(0.7)
    rng = np.random.default_rng(3)
    for lam in rng.uniform(0.1, 20.0, 5):
        assert spectral_density(k, lam) == pytest.approx(spectral_density(k, -lam), rel=1e-9)


@st.composite
def _kernels(draw):
    """Exponential kernels, or signed tabulated ones with 3-12 samples on [0, <= 5]."""
    if draw(st.booleans()):
        return FilterKernel.exponential(draw(st.floats(0.2, 5.0)))
    n = draw(st.integers(3, 12))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)))
    times = np.concatenate(([0.0], np.cumsum(gaps * min(1.0, 5.0 / gaps.sum()))))
    sizes = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return FilterKernel.tabulated(times, sizes * signs)


# a signed kernel whose highest lobe, near lambda = 5.3, is narrow enough to fall
# between the points of a coarse log-spaced frequency scan, and between the
# 8x-padded rFFT bins of its taps at h = 0.01
_NARROW_LOBE = FilterKernel.tabulated(
    [0.0, 0.297, 0.647, 1.540, 2.065, 3.027, 3.209, 4.003, 4.502],
    [1.000, -1.774, -0.348, -1.077, 0.574, -0.751, 1.653, -0.857, 1.590])


@settings(max_examples=16, deadline=None, derandomize=True)
@given(kernel=_kernels(), lams=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
       h=st.floats(0.005, 0.5))
@example(kernel=_NARROW_LOBE, lams=[5.3], h=0.01)
def test_f0_sup_is_supremum(kernel, lams, h):
    f0 = f0_sup(kernel)
    assert np.all(spectral_density(kernel, np.array(lams)) <= f0 * (1 + 1e-9))
    # the simulated process's supremum bounds its taps' power at every frequency
    taps = kernel.taps(h)
    transform = np.exp(-1j * h * np.outer(lams, np.arange(taps.size))) @ taps
    assert np.all(h * h * np.abs(transform) ** 2 / (2 * math.pi) <= f0_sim(kernel, h) * (1 + 1e-9))
    # the density is the trapezoid quadrature of psi's Fourier transform on the fine grid,
    # up to the rounding of two 65,537-term pairwise sums that differ in where the end
    # nodes are halved (at most 7.8e-14 relative over 300 kernels, near the density's zeros)
    u, psi_u, step = _fine_table(kernel)
    phase = np.exp(-1j * np.outer(lams, u))
    direct = np.abs(np.trapezoid(phase * psi_u, dx=step, axis=1)) ** 2 / (2 * math.pi)
    np.testing.assert_allclose(spectral_density(kernel, np.array(lams)), direct, rtol=1e-12, atol=0)
    # |Fourier transform| <= integral of |psi|, on the same fine grid
    l1 = np.trapezoid(np.abs(psi_u), dx=step)
    assert f0 <= l1 ** 2 / (2 * math.pi) * (1 + 1e-12)
    if np.all(psi_u >= 0):
        # a nonnegative kernel peaks at lambda = 0, where f = (integral psi)^2 / 2pi
        assert f0 == pytest.approx(spectral_density(kernel, 0.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kernel", [
    FilterKernel.exponential(0.3),
    FilterKernel.exponential(1.0),
    FilterKernel.exponential(4.0),
    FilterKernel.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]),
    FilterKernel.tabulated([0.0, 0.5, 1.0, 2.5], [0.0, 0.0, 2.0, 0.7]),
], ids=["exp0.3", "exp1", "exp4", "ramp", "delayed"])
@pytest.mark.parametrize("h", [0.01, 0.02, 0.3])
def test_nonnegative_suprema_need_no_scan(kernel, h, monkeypatch):
    # |sum_k s_k e^{-i k lambda step}| <= sum_k s_k when every s_k >= 0, so both
    # suprema are the power at lambda = 0, the table's pairwise sum, with no rFFT
    def no_scan(*args, **kwargs):
        raise AssertionError("a nonnegative table needs no frequency scan")

    monkeypatch.setattr(noise, "rfft", no_scan)
    table, step = _weighted_table(kernel)
    assert f0_sup(kernel) == (step * table.sum()) ** 2 / (2 * math.pi)
    assert f0_sim(kernel, h) == (h * kernel.taps(h).sum()) ** 2 / (2 * math.pi)


def test_signed_suprema_still_scan(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return np.fft.rfft(*args, **kwargs)

    monkeypatch.setattr(noise, "rfft", counted)
    assert f0_sup(_NARROW_LOBE) > spectral_density(_NARROW_LOBE, 0.0)
    assert f0_sim(_NARROW_LOBE, 0.01) > 0.01 ** 2 * _NARROW_LOBE.taps(0.01).sum() ** 2 / (2 * math.pi)
    assert len(calls) == 2  # one 8x-padded scan per supremum


# -- cell-average taps and the simulated covariance ------------------------------


@pytest.mark.parametrize("rate,h", [(1.0, 0.01), (1.0, 0.02), (2.0, 0.05), (0.5, 0.03)])
def test_exponential_taps_are_cell_averages(rate, h):
    kernel = FilterKernel.exponential(rate)
    H = kernel.truncation_horizon
    taps = kernel.taps(h)
    assert taps.size == kernel.n_taps(h)
    lo = np.arange(taps.size) * h
    closed = (np.exp(-rate * lo) - np.exp(-rate * np.minimum(lo + h, H))) / (rate * h)
    np.testing.assert_allclose(taps, closed, rtol=1e-12, atol=0.0)
    # one read-only table per (kernel, h), shared by every equal kernel
    assert FilterKernel.exponential(rate).taps(h) is taps
    assert not taps.flags.writeable


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel=_kernels(), h=st.floats(0.004, 0.7))
def test_taps_sum_to_kernel_integral(kernel, h):
    # h * sum of the taps is the integral of psi over [0, H]
    if kernel.form == "exponential":
        exact = -math.expm1(-kernel.rate * kernel.truncation_horizon) / kernel.rate
    else:
        # the integral of the linear interpolant is the trapezoid over the table
        exact = np.trapezoid(kernel.samples, kernel.times)
    scale = h * np.abs(kernel.taps(h)).sum()
    assert abs(h * kernel.taps(h).sum() - exact) <= 1e-12 * scale


def test_tabulated_taps_average_the_interpolant_per_cell():
    kernel = FilterKernel.tabulated([0.0, 0.4, 1.1, 2.5], [1.0, -0.7, 0.3, 0.2])
    h = 0.3
    taps = kernel.taps(h)
    for k, tap in enumerate(taps):
        cell = np.linspace(k * h, min((k + 1) * h, 2.5), 300_001)
        assert tap == pytest.approx(np.trapezoid(kernel.psi(cell), cell) / h, abs=1e-9)


@pytest.mark.parametrize("kernel,grid", [
    (FilterKernel.exponential(1.0), TimeGrid(50.0, 2500)),   # taps shorter than the grid
    (FilterKernel.exponential(0.5), TimeGrid(10.0, 500)),    # taps longer than the grid
    (FilterKernel.tabulated([0.0, 0.4, 1.1, 2.5], [1.0, -0.7, 0.3, 0.2]), TimeGrid(6.0, 700)),
], ids=["exponential", "exponential-long", "tabulated"])
def test_covariance_row_is_the_tap_autocorrelation(kernel, grid):
    taps = kernel.taps(grid.h)
    lags = grid.h * np.correlate(taps, taps, "full")[taps.size - 1:]
    want = np.zeros(grid.n_nodes)
    n = min(lags.size, grid.n_nodes)
    want[:n] = lags[:n]
    row = covariance_row(kernel, grid)
    assert row.shape == (grid.n_nodes,)
    # FFT round-off is absolute, a few ulps of B(0); the tail lags are far smaller
    np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-14 * abs(want[0]))
    assert np.all(row[taps.size:] == 0.0)


@pytest.mark.parametrize("rate,h", [(1.0, 0.01), (1.0, 0.02), (2.0, 0.05)])
def test_simulated_spectrum_matches_the_kernel(rate, h):
    # left-point taps psi(k*h) overshoot f0 by 1-10% at these steps
    kernel = FilterKernel.exponential(rate)
    f0 = f0_sup(kernel)
    assert f0 * (1 - 1e-6) <= f0_sim(kernel, h) <= f0 * (1 + 1e-9)
    row = covariance_row(kernel, TimeGrid(40.0, int(round(40.0 / h))))
    assert row[0] == pytest.approx(covariance_of_filter(kernel, 0.0), rel=1e-3)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(kernel=_kernels(), T=st.floats(1.0, 20.0), n_steps=st.integers(50, 800),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
def test_simulated_quadratic_form_bounded_by_d0(kernel, T, n_steps, coeffs):
    # smooth weights: a few low cosine modes on [0, T]
    grid = TimeGrid(T, n_steps)
    delta = sum(c * np.cos(i * math.pi * grid.nodes / T) for i, c in enumerate(coeffs))
    form = quadratic_form(covariance_row(kernel, grid), delta, grid)
    d0 = 2 * math.pi * f0_sup(kernel)
    norm_sq = integrate(delta * delta, grid)
    assert 0.0 <= form <= d0 * norm_sq * (1 + 1e-9)
    # the bound quadratic_form_check's verdict rests on, for every weight
    assert form <= 2 * math.pi * f0_sim(kernel, grid.h) * norm_sq * (1 + 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 2501, 5001])
def test_toeplitz_product_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    row, x = rng.standard_normal(n), rng.standard_normal(n)
    product = toeplitz_product(row, x)
    assert np.array_equal(product, matmul_toeplitz(row, x))
    if n <= 17:
        np.testing.assert_allclose(product, toeplitz(row) @ x, rtol=1e-12, atol=1e-12)


def test_next_fast_len_matches_scipy():
    assert [next_fast_len(n) for n in range(1, 70_001)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 70_001)]


@pytest.mark.parametrize("kernel,grid", [
    (FilterKernel.exponential(1.0), TimeGrid(50.0, 5000)),   # exp_filtered
    (FilterKernel.exponential(1.0), TimeGrid(50.0, 2500)),   # its half grid
    (FilterKernel.exponential(2.0), TimeGrid(3.0, 301)),
    (FilterKernel.tabulated([0.0, 0.4, 1.1, 2.5], [1.0, -0.7, 0.3, 0.2]), TimeGrid(7.0, 1016)),
    (FilterKernel.exponential(3.0), TimeGrid(1.0, 7)),
], ids=["exp_filtered", "half_grid", "odd", "tabulated", "tiny"])
def test_numpy_fft_matches_scipy_fft_bit_for_bit(kernel, grid, monkeypatch):
    rng = np.random.default_rng(grid.n_steps)
    increments = simulate_increments("gaussian", grid, kernel.n_taps(grid.h), np.random.PCG64(5))
    w, x = rng.standard_normal(grid.n_nodes), rng.standard_normal(grid.n_nodes)

    def outputs():
        monkeypatch.setattr(numerics, "_memo", {})  # no spectrum carries over between the runs
        row = covariance_row(kernel, grid)
        return [apply_filter(kernel, increments, grid), driver_weights(w, grid, kernel), row,
                toeplitz_product(row, x)]

    ours = outputs()
    monkeypatch.setattr(noise, "rfft", scipy.fft.rfft)
    monkeypatch.setattr(noise, "irfft", scipy.fft.irfft)
    monkeypatch.setattr(noise, "next_fast_len", lambda n: scipy.fft.next_fast_len(n, real=True))
    for mine, reference in zip(ours, outputs(), strict=True):
        assert np.array_equal(mine, reference)


@pytest.mark.parametrize("kernel", [
    None,
    FilterKernel.exponential(2.0),
    FilterKernel.tabulated([0.0, 0.4, 1.1, 2.5], [1.0, -0.7, 0.3, 0.2]),
], ids=["white", "exponential", "tabulated"])
def test_driver_weights_reproduce_the_path_sum(kernel):
    grid = TimeGrid(3.0, 300)
    w = trapezoid_weights(grid) * grid.h * np.cos(grid.nodes)
    u = driver_weights(w, grid, kernel)
    for seed in (1, 2, 3):
        draws = sample_driver("rademacher", u.size, np.random.PCG64(seed))
        path_sum = w @ noise_path("rademacher", grid, np.random.PCG64(seed), kernel)
        assert u @ draws == pytest.approx(path_sum, rel=1e-12, abs=1e-12 * (np.abs(u) @ np.abs(draws)))


def test_tabulated_kernel_from_file(tmp_path):
    path = tmp_path / "kernel.txt"
    t = np.linspace(0.0, 20.0, 4001)
    np.savetxt(path, np.column_stack([t, np.exp(-t)]))
    k = FilterKernel.from_file(path)
    assert k.form == "tabulated"
    assert covariance_of_filter(k, 0.0) == pytest.approx(0.5, rel=1e-4)
    bad = tmp_path / "bad.txt"
    np.savetxt(bad, np.column_stack([t[::-1], np.exp(-t)]))
    with pytest.raises(ContractError):
        FilterKernel.from_file(bad)


# -- series construction -----------------------------------------------------


def test_series_path_starts_at_zero():
    basis = BasisSpec(n_terms=64, horizon=2.0)
    g = TimeGrid(1.0, 8)
    for seed in range(5):
        xi = ito_nisio_path("gaussian", basis, g, np.random.PCG64(seed))
        assert xi[0] == 0.0


def test_haar_basis_orthonormal():
    from regtails.noise import _haar_running_integrals

    # differentiate the running integrals numerically and check Gram = identity
    S = 2.0
    fine = TimeGrid(S, 4096)
    E = _haar_running_integrals(16, S, fine.nodes)
    phi = np.diff(E, axis=1) / fine.h
    gram = phi @ phi.T * fine.h
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-9)


def test_series_variance_matches_time():
    basis = BasisSpec(n_terms=1024, horizon=2.0)
    g = TimeGrid(1.0, 8)
    n_seeds = 10_000
    xs = np.array([ito_nisio_path("gaussian", basis, g, np.random.PCG64(5000 + i))
                   for i in range(n_seeds)])
    for t, j in ((0.25, 2), (0.5, 4), (1.0, 8)):
        var = xs[:, j].var()
        assert t * 0.95 <= var <= t * 1.05, f"Var xi({t}) = {var}"


def test_series_covariance_is_min():
    basis = BasisSpec(n_terms=256, horizon=2.0)
    g = TimeGrid(1.0, 4)
    xs = np.array([ito_nisio_path("rademacher", basis, g, np.random.PCG64(100 + i))
                   for i in range(4000)])
    cov = np.mean(xs[:, 1] * xs[:, 4])  # s=0.25, t=1.0
    se = np.std(xs[:, 1] * xs[:, 4], ddof=1) / math.sqrt(xs.shape[0])
    assert abs(cov - 0.25) <= 4 * se


def test_series_horizon_guard():
    basis = BasisSpec(n_terms=16, horizon=0.5)
    with pytest.raises(ConfigError):
        ito_nisio_path("gaussian", basis, TimeGrid(1.0, 4), np.random.PCG64(0))


def test_white_path_scaling():
    # node values are increment densities: quadrature against a weight has
    # variance ~ integral of the squared weight
    g = TimeGrid(4.0, 400)
    delta = np.sin(g.nodes)
    samples = []
    for seed in range(4000):
        path = white_noise_path("gaussian", g, np.random.PCG64(seed))
        samples.append(inner_product(delta, path, g))
    target = inner_product(delta, delta, g)
    var = np.var(samples)
    assert abs(var - target) <= 4 * target * math.sqrt(2.0 / len(samples))


@pytest.mark.parametrize("text,message", [
    ("0\n1\n", "exactly two columns"),       # two rows of one column, not one row of two
    ("0 1\n1 x\n", "could not convert"),
    ("", "is empty"),
    ("# time value\n\n", "is empty"),
])
def test_kernel_file_with_bad_table_is_a_config_error(tmp_path, text, message):
    path = tmp_path / "kernel.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as err:
        FilterKernel.from_file(path)
    assert f"kernel file {path}" in str(err.value)
