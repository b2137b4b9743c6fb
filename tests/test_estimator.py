import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtails.errors import ContractError, DataError, DomainError, NonConvergenceError
from regtails.estimator import (
    FitOptions,
    LseResult,
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
    cosine_regressors,
    exp_inner_model,
    linear_model,
    norming_matrix,
)
from regtails.noise import FilterKernel, noise_path, white_noise_path
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
    for seed in range(10):
        obs = _noisy_linear_obs(3.0, g, seed)
        res = lse_fit(obs, m)
        lattice = np.linspace(0.0, 5.0, FitOptions.coarse_grid_per_dim)
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


def _square_model():
    # a(t, tau) = tau^2 * t gives two exact global minimizers +-1 for X(t) = t
    return RegressionModel(
        box=ParameterBox((-2.0,), (2.0,)),
        eval=lambda t, tau: tau[0] ** 2 * np.asarray(t, dtype=float),
        grad=lambda t, tau: (2 * tau[0] * np.asarray(t, dtype=float))[None, :],
        name="square",
    )


def test_lattice_tie_break_lexicographic():
    m = _square_model()
    g = TimeGrid(1.0, 50)
    obs = Observation(grid=g, x_values=g.nodes.copy())
    res = lse_fit(obs, m)
    assert res.lattice_tie_count >= 2
    assert res.theta_hat[0] == pytest.approx(-1.0, abs=1e-6)


def test_observation_rejects_nonfinite():
    g = TimeGrid(1.0, 10)
    bad = np.zeros(g.n_nodes)
    bad[0] = np.inf
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


# -- the fit against a plain reference that calls objective at every step ----------


def _reference_gauss_newton(obs, model, start, q_start, opts):
    grid = obs.grid
    w = trapezoid_weights(grid)
    h = grid.h
    box = model.box
    tol = opts.local_tol_factor * box.diameter
    tau = np.asarray(start, dtype=float)
    q_cur = q_start
    ridge = 0.0
    for _ in range(opts.max_iter):
        g = np.atleast_2d(model.grad(grid.nodes, tau))
        r = obs.x_values - model.eval(grid.nodes, tau)
        gw = g * w
        gram = h * (gw @ g.T)
        rhs = h * (gw @ r)
        try:
            step = np.linalg.solve(gram + ridge * np.eye(model.q), rhs)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-10 * (np.trace(gram) + 1.0))
            continue
        if not np.all(np.isfinite(step)):
            raise DataError(f"non-finite search direction at tau {tau}")
        alpha = 1.0
        accepted = None
        for _ in range(opts.max_halvings):
            cand = box.clip(tau + alpha * step)
            q_new = objective(obs, model, cand)
            if q_new < q_cur:
                accepted = (cand, q_new)
                break
            if np.linalg.norm(cand - tau) < tol:
                break
            alpha *= 0.5
        if accepted is None:
            return tau, q_cur, True
        moved = float(np.linalg.norm(accepted[0] - tau))
        tau, q_cur = accepted
        if moved < tol:
            return tau, q_cur, True
    return tau, q_cur, False


_FIT_DEFAULTS = {k: v for k, v in vars(FitOptions).items() if not k.startswith("_")}


def _reference_lse_fit(obs, model, opts=SimpleNamespace(**_FIT_DEFAULTS)):
    box = model.box
    axes = [np.linspace(lo, hi, opts.coarse_grid_per_dim) for lo, hi in zip(box.lower, box.upper)]
    points = np.array(list(itertools.product(*axes)))
    values = np.array([objective(obs, model, p) for p in points])
    q_min = float(values.min())
    tie_count = int((values <= q_min + opts.tie_tol * max(1.0, abs(q_min))).sum())
    order = sorted(range(len(points)), key=lambda i: (values[i], tuple(points[i])))
    best_tau = points[order[0]]
    best_q = float(values[order[0]])
    any_converged = False
    for idx in order[: opts.n_refine_starts]:
        tau, q_val, ok = _reference_gauss_newton(obs, model, points[idx], float(values[idx]), opts)
        any_converged = any_converged or ok
        if q_val < best_q or (q_val == best_q and tuple(tau) < tuple(best_tau)):
            best_tau, best_q = tau, q_val
    if not any_converged:
        raise NonConvergenceError("reference did not converge",
                                  best_point=tuple(float(x) for x in best_tau), best_value=best_q)
    lo, hi = box.lower_arr, box.upper_arr
    margin = 1e-8 * (hi - lo)
    boundary = bool(np.any(best_tau <= lo + margin) or np.any(best_tau >= hi - margin))
    return LseResult(tuple(float(x) for x in best_tau), best_q, boundary, tie_count)


def _flat_model():
    # a(t, tau) does not depend on tau: every Gram matrix is exactly singular, so
    # the fit must take the ridge path, also where it solves by division
    return RegressionModel(
        box=ParameterBox((-1.0,), (1.0,)),
        eval=lambda t, tau: np.sin(np.asarray(t, dtype=float)),
        grad=lambda t, tau: np.zeros((1, np.size(t))),
        name="flat",
    )


def _wrapped(m):
    """``m`` with its callables swapped for call-through wrappers, as bench/tracer.py does."""
    return dataclasses.replace(m, eval=lambda t, tau: m.eval(t, tau),
                               grad=lambda t, tau: m.grad(t, tau))


def _uncached(m):
    """``m`` called on a writable copy of the nodes, which no model cache holds."""
    return dataclasses.replace(m, eval=lambda t, tau: m.eval(np.array(t), tau),
                               grad=lambda t, tau: m.grad(np.array(t), tau))


def _bit_identity_cases():
    exp_kernel = FilterKernel.exponential(4.0)
    cos_box = ParameterBox((-0.5, -0.5), (0.5, 0.5))
    return [
        ("linear", _lin(), (2.0,), TimeGrid(5.0, 500), None, 1.0),
        ("constant", constant_model(ParameterBox((-1.0,), (1.0,))), (0.3,), TimeGrid(2.0, 200), None, 0.1),
        ("flat", _flat_model(), (0.0,), TimeGrid(2.0, 200), None, 0.1),
        ("exp_const_white", exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,))),
         (0.1,), TimeGrid(2.0, 200), None, 0.05),
        ("exp_const_filtered", exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,))),
         (0.1,), TimeGrid(2.0, 200), exp_kernel, 0.3),
        ("exp_const_filtered_wrapped",
         _wrapped(exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,)))),
         (0.1,), TimeGrid(2.0, 200), exp_kernel, 0.3),
        ("exp_cos_white", exp_inner_model(cosine_regressors(2), cos_box), (0.2, -0.1),
         TimeGrid(6.0, 300), None, 0.05),
        ("exp_cos_filtered", exp_inner_model(cosine_regressors(2), cos_box), (0.2, -0.1),
         TimeGrid(6.0, 300), exp_kernel, 0.3),
    ]


@pytest.mark.parametrize("case", _bit_identity_cases(), ids=lambda c: c[0])
def test_fit_bit_identical_to_reference(case, monkeypatch):
    _, m, theta, g, kernel, scale = case
    # the reference sees the uncached formulas, so a stale model cache cannot hide
    ref = _uncached(m)
    a_true = m.eval(g.nodes, np.asarray(theta))
    for seed in range(6):
        eps = noise_path("gaussian", g, seed, kernel)
        obs = Observation(grid=g, x_values=a_true + scale * eps)
        got, want = lse_fit(obs, m), _reference_lse_fit(obs, ref)
        assert got == want
        assert (got.boundary, got.lattice_tie_count) == (want.boundary, want.lattice_tie_count)

        with monkeypatch.context() as patch:
            patch.setattr(FitOptions, "max_iter", 1)
            with pytest.raises(NonConvergenceError) as got_err:
                lse_fit(obs, m)
        with pytest.raises(NonConvergenceError) as want_err:
            _reference_lse_fit(obs, ref, SimpleNamespace(**{**_FIT_DEFAULTS, "max_iter": 1}))
        assert got_err.value.best_point == want_err.value.best_point


def test_square_tie_model_bit_identical_to_reference():
    m = _square_model()
    g = TimeGrid(1.0, 50)
    for shift in (0.0, 0.01, -0.2):
        obs = Observation(grid=g, x_values=g.nodes + shift)
        got, want = lse_fit(obs, m), _reference_lse_fit(obs, m)
        assert got == want
        assert got.lattice_tie_count == want.lattice_tie_count


_BUILT_IN = {
    "linear": (_lin(), TimeGrid(3.0, 300)),
    "constant": (constant_model(ParameterBox((-1.0,), (1.0,))), TimeGrid(2.0, 200)),
    "exp_inner": (exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,))),
                  TimeGrid(1.0, 500)),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_BUILT_IN)), seed=st.integers(0, 2**32 - 1),
       where=st.floats(0.05, 0.95), scale=st.floats(0.01, 1.0))
def test_fit_beats_lattice_and_truth(name, seed, where, scale):
    m, g = _BUILT_IN[name]
    lo, hi = m.box.lower[0], m.box.upper[0]
    theta = (lo + where * (hi - lo),)
    eps = white_noise_path("gaussian", g, seed)
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.asarray(theta)) + scale * eps)
    res = lse_fit(obs, m)
    q_hat = objective(obs, m, res.theta_hat)
    lattice = np.linspace(lo, hi, FitOptions.coarse_grid_per_dim)
    assert q_hat <= min(objective(obs, m, (p,)) for p in lattice)
    assert q_hat <= objective(obs, m, theta)


def test_lattice_evaluated_once_across_fits():
    lattice = set(np.linspace(0.0, 5.0, FitOptions.coarse_grid_per_dim).tolist())
    base = _lin()
    calls = []

    def counted_eval(t, tau):
        calls.append(("eval", float(tau[0])))
        return base.eval(t, tau)

    def counted_grad(t, tau):
        calls.append(("grad", float(tau[0])))
        return base.grad(t, tau)

    m = dataclasses.replace(base, eval=counted_eval, grad=counted_grad)
    g = TimeGrid(4.0, 400)
    at_lattice = []
    for seed in (3, 4):
        calls.clear()
        eps = white_noise_path("gaussian", g, seed) * 0.2
        obs = Observation(grid=g, x_values=base.eval(g.nodes, np.array([2.1])) + eps)
        lse_fit(obs, m)
        at_lattice += [call for call in calls if call[1] in lattice]
        lattice_q = min(objective(obs, base, (p,)) for p in lattice)
        refine = [call for call in calls if call[1] not in lattice]
        grads = [k for k, call in enumerate(calls) if call[0] == "grad" and call[1] not in lattice]
        assert grads and len(refine) > len(grads)
        for k in grads:
            # the gradient comes right after the eval of the candidate it was taken
            # at, and that candidate was accepted: it beats every lattice point
            assert calls[k - 1] == ("eval", calls[k][1])
            assert objective(obs, base, (calls[k][1],)) < lattice_q
    # values and gradients on the lattice are built once, by the first fit
    assert sorted(at_lattice) == sorted([("eval", p) for p in lattice] + [("grad", p) for p in lattice])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["constant", "linear"]), lower=st.floats(-5.0, 5.0),
       width=st.floats(0.1, 10.0), where=st.floats(-0.5, 1.5), T=st.floats(0.5, 10.0),
       n_steps=st.integers(10, 500), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 3.0))
def test_fit_equals_clipped_normal_equation(name, lower, width, where, T, n_steps, seed, scale):
    # a(t, theta) = theta * y(t) with y = 1 or t: Q is a quadratic in theta, so the
    # LSE over the box is the trapezoid normal-equation solution clipped to the box;
    # a truth outside the box (where < 0 or > 1) exercises the clipped cases
    box = ParameterBox((lower,), (lower + width,))
    m = constant_model(box) if name == "constant" else linear_model(box)
    g = TimeGrid(T, n_steps)
    y = np.ones(g.n_nodes) if name == "constant" else g.nodes
    x = (lower + where * width) * y + scale * white_noise_path("gaussian", g, seed)
    res = lse_fit(Observation(grid=g, x_values=x), m)
    wy = trapezoid_weights(g) * y
    oracle = float(np.clip((wy @ x) / (wy @ y), lower, lower + width))
    assert abs(res.theta_hat[0] - oracle) <= 1e-9 * width
