import math

import numpy as np
import pytest

from regtails.errors import ContractError, DomainError
from regtails.estimator import (
    FitOptions,
    Observation,
    lse_fit,
    normalized_deviation,
    objective,
)
from regtails.model import (
    ParameterBox,
    RegressionModel,
    constant_model,
    constant_regressors,
    exp_inner_model,
    linear_model,
    norming_matrix,
)
from regtails.noise import white_noise_path
from regtails.numerics import TimeGrid, trapezoid_weights


LIN_BOX = ParameterBox((0.0,), (5.0,))


def _lin():
    return linear_model(LIN_BOX)


def _noisy_linear_obs(theta, grid, seed):
    m = _lin()
    eps = white_noise_path("gaussian", grid, seed)
    return Observation(grid=grid, x_values=m.eval(grid.nodes, np.array([theta])) + eps)


def _closed_form_linear(obs):
    """Independent normal-equation oracle using numpy quadrature directly."""
    t = obs.grid.nodes
    num = np.trapezoid(t * obs.x_values, dx=obs.grid.h)
    den = np.trapezoid(t * t, dx=obs.grid.h)
    return float(np.clip(num / den, LIN_BOX.lower[0], LIN_BOX.upper[0]))


def test_objective_zero_noise_at_truth():
    m = _lin()
    g = TimeGrid(2.0, 200)
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.array([1.5])))
    assert objective(obs, m, (1.5,)) == pytest.approx(0.0, abs=1e-20)


def test_objective_constant_residual():
    con = constant_model(ParameterBox((-3.0,), (3.0,)))
    g = TimeGrid(1.0, 100)
    obs = Observation(grid=g, x_values=np.zeros(g.n_nodes))
    for c in (0.5, -1.25, 2.0):
        assert objective(obs, con, (c,)) == pytest.approx(c * c, rel=1e-12)


def test_objective_matches_independent_oracle():
    g = TimeGrid(3.0, 500)
    obs = _noisy_linear_obs(2.0, g, seed=5)
    m = _lin()
    for tau in (0.7, 2.0, 4.2):
        r = obs.x_values - tau * g.nodes
        oracle = np.trapezoid(r * r, dx=g.h)
        assert objective(obs, m, (tau,)) == pytest.approx(oracle, rel=1e-12)


def test_objective_outside_box():
    g = TimeGrid(1.0, 10)
    obs = Observation(grid=g, x_values=np.zeros(g.n_nodes))
    with pytest.raises(DomainError):
        objective(obs, _lin(), (6.0,))


def test_zero_noise_linear_recovery():
    g = TimeGrid(3.0, 300)
    m = _lin()
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.array([2.0])))
    res = lse_fit(obs, m)
    assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-6)
    assert not res.boundary
    assert res.q_value <= 1e-12


def test_zero_noise_exponential_recovery():
    box = ParameterBox((-0.5,), (0.5,))
    m = exp_inner_model(constant_regressors(1), box)
    g = TimeGrid(1.0, 100)
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.array([0.3])))
    res = lse_fit(obs, m)
    assert res.theta_hat[0] == pytest.approx(0.3, abs=1e-6)


def test_noisy_linear_matches_closed_form():
    g = TimeGrid(5.0, 500)
    m = _lin()
    for seed in range(20):
        obs = _noisy_linear_obs(2.0, g, seed)
        res = lse_fit(obs, m)
        assert res.theta_hat[0] == pytest.approx(_closed_form_linear(obs), abs=1e-8)


def test_fit_result_beats_lattice():
    g = TimeGrid(2.0, 200)
    m = _lin()
    opts = FitOptions(coarse_grid_per_dim=7)
    for seed in range(10):
        obs = _noisy_linear_obs(3.0, g, seed)
        res = lse_fit(obs, m, opts)
        lattice = np.linspace(0.0, 5.0, 7)
        lattice_best = min(objective(obs, m, (p,)) for p in lattice)
        assert res.q_value <= lattice_best + 1e-12


def test_interior_gradient_small():
    box = ParameterBox((-0.5,), (0.5,))
    m = exp_inner_model(constant_regressors(1), box)
    g = TimeGrid(2.0, 200)
    eps = white_noise_path("gaussian", g, 77) * 0.05
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.array([0.1])) + eps)
    res = lse_fit(obs, m)
    assert not res.boundary
    tau = np.array(res.theta_hat)
    r = obs.x_values - m.eval(g.nodes, tau)
    grad_q = -2.0 * g.h * (m.grad(g.nodes, tau) * trapezoid_weights(g)) @ r
    assert np.linalg.norm(grad_q) <= 1e-5 * (1.0 + res.q_value)


def test_boundary_flagged():
    # truth outside the box: minimizer sits on the closure boundary
    g = TimeGrid(2.0, 100)
    m = _lin()
    obs = Observation(grid=g, x_values=6.0 * g.nodes)
    res = lse_fit(obs, m)
    assert res.boundary
    assert res.theta_hat[0] == pytest.approx(5.0, abs=1e-8)


def test_lattice_tie_break_lexicographic():
    # a(t, tau) = tau^2 * t gives two exact global minimizers +-1; pick the smaller
    box = ParameterBox((-2.0,), (2.0,))
    m = RegressionModel(
        box=box,
        eval=lambda t, tau: tau[0] ** 2 * np.asarray(t, dtype=float),
        grad=lambda t, tau: (2 * tau[0] * np.asarray(t, dtype=float))[None, :],
        name="square",
    )
    g = TimeGrid(1.0, 50)
    obs = Observation(grid=g, x_values=g.nodes.copy())
    res = lse_fit(obs, m, FitOptions(coarse_grid_per_dim=9))
    assert res.lattice_tie_count >= 2
    assert res.theta_hat[0] == pytest.approx(-1.0, abs=1e-6)


def test_coarse_grid_contract():
    g = TimeGrid(1.0, 10)
    obs = Observation(grid=g, x_values=np.zeros(g.n_nodes))
    with pytest.raises(ContractError):
        lse_fit(obs, _lin(), FitOptions(coarse_grid_per_dim=2))


def test_observation_rejects_nonfinite():
    g = TimeGrid(1.0, 10)
    bad = np.zeros(g.n_nodes)
    bad[0] = np.inf
    from regtails.errors import DataError

    with pytest.raises(DataError):
        Observation(grid=g, x_values=bad)


def test_normalized_deviation_arithmetic():
    assert normalized_deviation((2.0,), (2.0,), (3.0,)) == 0.0
    assert normalized_deviation((2.5,), (2.0,), (2.0,)) == pytest.approx(1.0)
    dev = normalized_deviation((1.0, 1.0), (0.0, 0.0), (2.0, 3.0))
    assert dev == pytest.approx(math.sqrt(13.0))
    with pytest.raises(ContractError):
        normalized_deviation((1.0,), (0.0, 0.0), (1.0, 1.0))


def test_noise_free_consistency_all_models():
    rng = np.random.default_rng(42)
    cases = [
        (_lin(), TimeGrid(3.0, 300)),
        (constant_model(ParameterBox((-1.0,), (1.0,))), TimeGrid(2.0, 100)),
        (exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,))), TimeGrid(1.0, 100)),
    ]
    for m, g in cases:
        lo, hi = m.box.lower_arr, m.box.upper_arr
        for _ in range(5):
            theta = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            obs = Observation(grid=g, x_values=m.eval(g.nodes, theta))
            res = lse_fit(obs, m)
            assert abs(res.theta_hat[0] - theta[0]) <= 1e-6
