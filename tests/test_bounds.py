import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtails.bounds import (
    BoundConstants,
    calibrate_prefactor,
    consistency_envelope,
    default_beta,
    exponent_rate,
    moderate_deviation_envelope,
    noise_integral_tail,
    stationary_rate,
    tail_envelope,
)
from regtails.errors import ContractError


def test_noise_integral_tail_examples():
    assert noise_integral_tail(1.0, 1.0, 0.0) == 1.0
    assert noise_integral_tail(1.0, 1.0, math.sqrt(2.0)) == pytest.approx(math.exp(-1), rel=1e-14)
    # looser bound for larger d0
    assert noise_integral_tail(2.0, 1.0, 1.3) > noise_integral_tail(1.0, 1.0, 1.3)
    with pytest.raises(ContractError):
        noise_integral_tail(0.0, 1.0, 1.0)
    with pytest.raises(ContractError):
        noise_integral_tail(1.0, 1.0, -0.5)


def test_rate_formulas():
    assert exponent_rate(1, 1.0, 1.0, 0.0) == pytest.approx(1.0 / 16.0, abs=1e-18)
    assert stationary_rate(1, 1.0, 1.0 / (2 * math.pi), 0.0) == pytest.approx(1.0 / 16.0, rel=1e-14)


def test_rate_example_model_constants():
    # rate for the exponential model: L^2 lambda_min / (16 pi f0 (1+q)) - beta
    L, lam_min, f0, q, beta = math.exp(-0.5), 1.0, 1.0 / (2 * math.pi), 1, 1e-4
    b = stationary_rate(q, L ** 2 * lam_min, f0, beta)
    assert b == pytest.approx(L ** 2 * lam_min / (16 * math.pi * f0 * (1 + q)) - beta, rel=1e-14)


def test_rate_slack_too_large():
    with pytest.raises(ContractError, match="maximal admissible beta"):
        exponent_rate(1, 1.0, 1.0, 1.0)
    with pytest.raises(ContractError, match="0.0625"):
        exponent_rate(1, 1.0, 1.0, 0.1)


def test_rates_consistent_under_spectral_substitution():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = int(rng.integers(1, 6))
        c0 = float(rng.uniform(0.01, 10.0))
        f0 = float(rng.uniform(0.01, 10.0))
        beta = 0.0
        a = stationary_rate(q, c0, f0, beta)
        b = exponent_rate(q, c0, 2 * math.pi * f0, beta)
        assert abs(a - b) <= 1e-14 * abs(b)


def test_bound_constants_derivation():
    consts = BoundConstants.from_spectral(q=1, c0=1.0, f0=1.0 / (2 * math.pi), beta=0.0)
    assert consts.d0 == pytest.approx(1.0, rel=1e-15)
    assert consts.b == pytest.approx(1.0 / 16.0, rel=1e-14)
    with pytest.raises(ContractError, match="inconsistent"):
        BoundConstants(q=1, c0=1.0, d0=2.0, beta=0.0, f0=1.0)
    for f0 in (0.0, -1.0, math.inf):
        with pytest.raises(ContractError, match="must be positive and finite"):
            BoundConstants.from_spectral(q=1, c0=1.0, f0=f0)
    auto = BoundConstants.from_spectral(q=1, c0=1.0, f0=1.0 / (2 * math.pi))
    assert auto.beta == pytest.approx(default_beta(1, 1.0, 1.0))
    assert auto.b > 0


def test_tail_envelope_examples():
    consts = BoundConstants(q=1, c0=1.0, d0=1.0, beta=0.0)  # b = 1/16
    assert tail_envelope(consts, 0.0) == 1.0
    assert tail_envelope(consts, 4.0) == pytest.approx(math.exp(-1), rel=1e-14)
    big = consts.with_prefactor(3.0)
    assert tail_envelope(big, 0.0) == 3.0
    assert tail_envelope(big, 0.0, clip=True) == 1.0
    r = np.linspace(0, 5, 50)
    vals = [tail_envelope(consts, x) for x in r]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_consistency_envelope():
    consts = BoundConstants(q=1, c0=1.0, d0=1.0, beta=0.0)
    # R = rho * T^{1/2 - nu} = 4 reproduces the R-level value
    assert consistency_envelope(consts, 1.0, 0.0, 16.0) == pytest.approx(math.exp(-1), rel=1e-14)
    vals = [consistency_envelope(consts, 0.7, 0.2, T) for T in (2.0, 8.0, 32.0, 128.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ContractError):
        consistency_envelope(consts, 0.0, 0.0, 10.0)
    with pytest.raises(ContractError):
        consistency_envelope(consts, 1.0, 0.5, 10.0)


def test_moderate_deviation_envelope():
    consts = BoundConstants(q=1, c0=1.0, d0=1.0, beta=0.0)
    assert moderate_deviation_envelope(consts, 4.0, math.e) == pytest.approx(math.exp(-1), rel=1e-14)
    rng = np.random.default_rng(1)
    for _ in range(200):
        h = float(rng.uniform(0.1, 4.0))
        T = float(rng.uniform(1.5, 100.0))
        lhs = moderate_deviation_envelope(consts, h, T)
        rhs = tail_envelope(consts, h * math.sqrt(math.log(T)))
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs)
    assert moderate_deviation_envelope(consts, 50.0, 10.0) < 1e-100
    with pytest.raises(ContractError):
        moderate_deviation_envelope(consts, 1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_rate_monotonicities(q, c0, d0):
    b = exponent_rate(q, c0, d0, 0.0)
    assert exponent_rate(q + 1, c0, d0, 0.0) < b
    assert exponent_rate(q, c0 * 1.5, d0, 0.0) > b
    assert exponent_rate(q, c0, d0 * 1.5, 0.0) < b
    assert exponent_rate(q, c0, d0, b * 0.5) < b


def test_rejection_exponent_identity():
    # the tail factor at level delta * Phi with scale Phi equals
    # exp(-delta^2 Phi / (2 d0)): pure algebra, checked to 1e-14
    rng = np.random.default_rng(2)
    for _ in range(100):
        d0 = float(rng.uniform(0.1, 5.0))
        phi_val = float(rng.uniform(0.01, 50.0))
        delta = float(rng.uniform(0.01, 0.49))
        lhs = noise_integral_tail(d0, phi_val, delta * phi_val)
        rhs = math.exp(-(delta ** 2) * phi_val / (2 * d0))
        assert abs(lhs - rhs) <= 1e-14 * rhs


def test_calibrate_prefactor():
    r = np.array([0.0, 1.0, 2.0])
    p = np.array([1.0, 0.3, 0.05])
    b = 0.1
    B = calibrate_prefactor(p, r, b)
    assert B >= 1.0
    np.testing.assert_array_equal(p * np.exp(b * r ** 2) <= B + 1e-15, [True] * 3)
    # smallest such constant: attained at some level
    assert np.isclose(np.max(p * np.exp(b * r ** 2)), B)
    with pytest.raises(ContractError):
        calibrate_prefactor(np.array([]), np.array([]), 0.1)
