import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtails import cli, numerics
from regtails.config import build_grid, build_kernel, build_model, config_from_dict, load_config
from regtails.errors import ContractError, DataError, DomainError, NonConvergenceError
from regtails.estimator import (
    FitOptions,
    LseResult,
    Observation,
    _gauss_newton,
    _q,
    _rank_lattice,
    fit_scalar,
    lse_fit,
    normalized_deviation,
    objective,
)
from regtails.harness import run_trials
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
    eps = white_noise_path("gaussian", grid, np.random.PCG64(seed))
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
    eps = white_noise_path("gaussian", g, np.random.PCG64(77)) * 0.05
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


def test_lattice_names_the_first_point_with_a_non_finite_objective():
    g = TimeGrid(1.0, 20)
    m = RegressionModel(box=ParameterBox((-2.0,), (2.0,)),
                        eval=lambda t, tau: t * (math.nan if tau[0] >= 0.5 else tau[0]),
                        grad=lambda t, tau: np.asarray(t, dtype=float)[None, :], name="gap")
    with pytest.raises(DataError, match=r"objective is non-finite at tau \[0\.5\]"):
        lse_fit(Observation(grid=g, x_values=g.nodes.copy()), m)


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
            cand = np.clip(tau + alpha * step, box.lower_arr, box.upper_arr)
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


def _reference_local_minima(values, per_dim, q) -> list[bool]:
    """Brute force: a lattice point counts unless an axis neighbour is strictly lower."""
    index = list(itertools.product(range(per_dim), repeat=q))  # the lattice's own order
    flat = {k: i for i, k in enumerate(index)}
    out = []
    for i, k in enumerate(index):
        undercut = False
        for axis in range(q):
            for d in (-1, 1):
                n = list(k)
                n[axis] += d
                if 0 <= n[axis] < per_dim and values[flat[tuple(n)]] < values[i]:
                    undercut = True
        out.append(not undercut)
    return out


def _reference_lse_fit(obs, model, opts=SimpleNamespace(**_FIT_DEFAULTS)):
    box = model.box
    axes = [np.linspace(lo, hi, opts.coarse_grid_per_dim) for lo, hi in zip(box.lower, box.upper)]
    points = np.array(list(itertools.product(*axes)))
    values = np.array([objective(obs, model, p) for p in points])
    q_min = float(values.min())
    tie_count = int((values <= q_min + opts.tie_tol * max(1.0, abs(q_min))).sum())
    order = sorted(range(len(points)), key=lambda i: (values[i], tuple(points[i])))
    minima = _reference_local_minima(values, opts.coarse_grid_per_dim, model.q)
    starts = [i for i in order if minima[i]][: opts.n_refine_starts]
    best_tau = points[order[0]]
    best_q = float(values[order[0]])
    any_converged = False
    for idx in starts:
        tau, q_val, ok = _reference_gauss_newton(obs, model, points[idx], float(values[idx]), opts)
        any_converged = any_converged or ok
        if q_val < best_q or (q_val == best_q and tuple(tau) < tuple(best_tau)):
            best_tau, best_q = tau, q_val
    if not any_converged:
        raise NonConvergenceError("reference did not converge",
                                  best_point=tuple(float(x) for x in best_tau))
    lo, hi = box.lower_arr, box.upper_arr
    margin = 1e-8 * (hi - lo)
    boundary = bool(np.any(best_tau <= lo + margin) or np.any(best_tau >= hi - margin))
    return LseResult(tuple(float(x) for x in best_tau), best_q, boundary, tie_count, len(starts))


def _flat_model():
    # a(t, tau) does not depend on tau: every Gram matrix is exactly singular, so
    # the fit must take the ridge path
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


_ZERO_BOUND_BOXES = [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]


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
        ("exp_cos3_filtered",
         exp_inner_model(cosine_regressors(3), ParameterBox((-0.5,) * 3, (0.5,) * 3)),
         (0.2, -0.1, 0.05), TimeGrid(6.0, 300), exp_kernel, 0.3),
    ] + [
        # data at a zero bound, signed either way: some draws pull theta_hat onto it
        (f"{name}_box_{lo}_{hi}", build(ParameterBox((lo,), (hi,))), (0.0,), grid, None, scale)
        for name, build, grid, scale in [("linear", linear_model, TimeGrid(5.0, 500), 0.1),
                                         ("constant", constant_model, TimeGrid(2.0, 200), 0.01)]
        for lo, hi in _ZERO_BOUND_BOXES
    ]


@pytest.mark.parametrize("case", _bit_identity_cases(), ids=lambda c: c[0])
def test_fit_bit_identical_to_reference(case, monkeypatch):
    _, m, theta, g, kernel, scale = case
    # the reference sees the uncached formulas, so a stale model cache cannot hide
    ref = _uncached(m)
    a_true = m.eval(g.nodes, np.asarray(theta))
    for seed in range(6):
        eps = noise_path("gaussian", g, np.random.PCG64(seed), kernel)
        obs = Observation(grid=g, x_values=a_true + scale * eps)
        got, want = lse_fit(obs, m), _reference_lse_fit(obs, ref)
        # repr, not ==: -0.0 == 0.0, but tails.csv prints the sign
        assert repr(got) == repr(want)

        # one iteration: most cases hit the cap and raise, carrying the best point
        with monkeypatch.context() as patch:
            patch.setattr(FitOptions, "max_iter", 1)
            got_one = _fit_outcome(lse_fit, obs, m)
        want_one = _fit_outcome(_reference_lse_fit, obs, ref,
                                SimpleNamespace(**{**_FIT_DEFAULTS, "max_iter": 1}))
        assert got_one == want_one


def _fit_outcome(fit, *args) -> str:
    try:
        return repr(fit(*args))
    except NonConvergenceError as err:
        return f"NonConvergenceError at {err.best_point!r}"


def test_square_tie_model_bit_identical_to_reference():
    m = _square_model()
    g = TimeGrid(1.0, 50)
    for shift in (0.0, 0.01, -0.2):
        obs = Observation(grid=g, x_values=g.nodes + shift)
        got, want = lse_fit(obs, m), _reference_lse_fit(obs, m)
        assert repr(got) == repr(want)


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
    eps = white_noise_path("gaussian", g, np.random.PCG64(seed))
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.asarray(theta)) + scale * eps)
    res = lse_fit(obs, m)
    q_hat = objective(obs, m, res.theta_hat)
    lattice = np.linspace(lo, hi, FitOptions.coarse_grid_per_dim)
    assert q_hat <= min(objective(obs, m, (p,)) for p in lattice)
    assert q_hat <= objective(obs, m, theta)
    # Q is a quadratic in theta (linear, constant) or in e^theta (exp_inner with a
    # constant regressor): its lattice has one basin, so the fit refines once
    assert res.n_starts == 1


@pytest.mark.parametrize("q", [1, 2, 3])
def test_basin_starts_match_brute_force(q):
    rng = np.random.default_rng(q)
    for _ in range(200):
        per_dim = int(rng.integers(1, 6))
        # few distinct levels, so ties between neighbours are common
        values = rng.integers(0, 4, per_dim ** q).astype(float)
        _assert_ranked_as_reference(values, per_dim, q, _reference_local_minima(values, per_dim, q))
    plateau = np.full(4 ** q, 0.25)
    _assert_ranked_as_reference(plateau, 4, q, [True] * 4 ** q)
    # a point exactly at the tie tolerance above the minimum counts as tied
    edge = np.full(3 ** q, 2.0)
    edge[0], edge[-1] = 1.0, 1.0 + FitOptions.tie_tol
    _assert_ranked_as_reference(edge, 3, q, _reference_local_minima(edge, 3, q))


def _assert_ranked_as_reference(values, per_dim, q, minima):
    # the ranking lse_fit runs against _reference_lse_fit's order of
    # (value, point) and tie count
    index = list(itertools.product(range(per_dim), repeat=q))
    order = sorted(range(len(index)), key=lambda i: (values[i], index[i]))
    q_min = float(values.min())
    ties = int((values <= q_min + FitOptions.tie_tol * max(1.0, abs(q_min))).sum())
    want = [i for i in order if minima[i]][: FitOptions.n_refine_starts]
    assert _rank_lattice(values, per_dim, q) == (want, ties)


@pytest.mark.parametrize("lo, hi", _ZERO_BOUND_BOXES)
@pytest.mark.parametrize("build", [linear_model, constant_model], ids=["linear", "constant"])
def test_refinement_from_every_lattice_point_matches_reference(build, lo, hi):
    # X = a(t, 0) puts the minimum on the zero bound, and one Gauss-Newton step
    # from a lattice point p lands on +0.0 exactly (p - p): the clip must give
    # the bound's own signed zero, as np.clip with array bounds does.  lse_fit itself
    # starts at the lowest point, the bound, so it never takes that step here
    m = build(ParameterBox((lo,), (hi,)))
    g = TimeGrid(2.0, 200)
    w = trapezoid_weights(g)
    opts = SimpleNamespace(**_FIT_DEFAULTS)
    for scale in (0.0, 0.01):
        obs = Observation(grid=g, x_values=m.eval(g.nodes, np.array([0.0]))
                          + scale * white_noise_path("gaussian", g, np.random.PCG64(3)))
        for p in np.linspace(lo, hi, FitOptions.coarse_grid_per_dim):
            r = obs.x_values - m.eval(g.nodes, np.array([p]))
            q_start = _q(r, w, g.h, p)
            got = _gauss_newton(obs, m, np.array([p]), r, q_start, w)
            tau, q_val, ok = _reference_gauss_newton(obs, m, np.array([p]), q_start, opts)
            assert repr((got[0].tolist(), got[1], got[2])) == repr((tau.tolist(), q_val, ok))


def _two_basin_model():
    """a(t, tau) = f(tau), X = 0: Q = f^2 on [0, 8] with two basins.

    f = -P(tau) tanh((tau - 7.3) / 0.3) with P = 0.3 + 1 - exp(-(tau - 3)^2 / 2):
    a steep basin at 3 where |f| stays >= 0.3, and a zero of f at 7.3.  On the
    lattice 0, 1, ..., 8 the three lowest points are 3, 4 and 2, all in the first
    basin; 7 ranks fourth.
    """
    def f_and_df(tau):
        x = float(tau[0])
        bump = math.exp(-0.5 * (x - 3.0) ** 2)
        p, dp = 1.3 - bump, (x - 3.0) * bump
        th = math.tanh((x - 7.3) / 0.3)
        return -p * th, -dp * th - p * (1.0 - th * th) / 0.3

    return RegressionModel(
        box=ParameterBox((0.0,), (8.0,)),
        eval=lambda t, tau: np.full(np.size(t), f_and_df(tau)[0]),
        grad=lambda t, tau: np.full((1, np.size(t)), f_and_df(tau)[1]),
        name="two_basin",
    )


def test_second_basin_below_the_third_lowest_lattice_point_is_refined():
    m = _two_basin_model()
    g = TimeGrid(1.0, 10)
    obs = Observation(grid=g, x_values=np.zeros(g.n_nodes))
    lattice = np.linspace(0.0, 8.0, FitOptions.coarse_grid_per_dim)
    ranked = sorted(lattice, key=lambda p: objective(obs, m, (p,)))
    assert sorted(ranked[:3]) == [2.0, 3.0, 4.0] and ranked[3] == 7.0
    # the three lowest lattice points all descend to the local minimum at 3,
    # Q = 0.09; the lattice local minimum at 7 leads to the zero at 7.3
    res = lse_fit(obs, m)
    assert res.n_starts == 2
    assert res.theta_hat[0] == pytest.approx(7.3, abs=1e-6)
    assert res.q_value <= 1e-12


def test_lattice_evaluated_once_across_fits(monkeypatch):
    # an empty store, so no earlier test's entries can fill it and clear it mid-test
    monkeypatch.setattr(numerics, "_memo", {})
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
        eps = white_noise_path("gaussian", g, np.random.PCG64(seed)) * 0.2
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
    # the values on the lattice are built once, by the first fit
    assert sorted(call for call in at_lattice if call[0] == "eval") == sorted(("eval", p) for p in lattice)


def test_fit_peak_memory_stays_below_ten_paths(monkeypatch):
    # the lattice is ranked from arrays built once per (model, grid), one
    # matrix-vector product per fit, so a fit on exp_filtered's grid (N = 5001)
    # allocates a few paths and no (9, N) residual stack
    monkeypatch.setattr(numerics, "_memo", {})
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "exp_filtered.json")
    model, grid, kernel = build_model(cfg), build_grid(cfg), build_kernel(cfg)
    truth = model.eval(grid.nodes, np.asarray(cfg.model.theta_true))
    first, second = (Observation(grid=grid, x_values=truth + noise_path(
        "rademacher", grid, np.random.PCG64(seed), kernel)) for seed in (1, 2))
    lse_fit(first, model)  # builds the lattice tables
    tracemalloc.start()
    try:
        lse_fit(second, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * grid.n_nodes * 8


def test_lattice_memo_holds_one_value_table(monkeypatch):
    # a q = 3 fit on N = 5001 nodes stores its 9^3 x N lattice values and
    # nothing of that size beside them: each start takes its own gradient
    g = TimeGrid(20.0, 5000)
    m = exp_inner_model(cosine_regressors(3), ParameterBox((-0.5,) * 3, (0.5,) * 3))
    obs = Observation(grid=g, x_values=m.eval(g.nodes, np.array([0.2, -0.1, 0.05]))
                      + 0.3 * white_noise_path("gaussian", g, np.random.PCG64(7)))
    monkeypatch.setattr(numerics, "_memo", {})
    lse_fit(obs, m)
    held = sum(a.nbytes for v in numerics._memo.values() for a in (v if isinstance(v, tuple) else (v,)))
    assert held < 1.1 * FitOptions.coarse_grid_per_dim ** 3 * g.n_nodes * 8


def _exp_const_lse(x, grid, lower, upper) -> float:
    """Closed-form LSE of a(t, theta) = e^theta over [lower, upper].

    Q(theta) = h [sum w X^2 - 2 e^theta sum w X + e^(2 theta) sum w] is a quadratic
    in e^theta, so theta_hat = log(sum w X / sum w) clipped to the box, or the
    lower bound when sum w X <= 0 and Q increases throughout.
    """
    w = trapezoid_weights(grid)
    wx = w @ x
    return lower if wx <= 0 else float(np.clip(math.log(wx / w.sum()), lower, upper))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["constant", "linear", "exp_const"]), lower=st.floats(-5.0, 5.0),
       width=st.floats(0.1, 10.0), where=st.floats(-0.5, 1.5), T=st.floats(0.5, 10.0),
       n_steps=st.integers(10, 500), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 3.0))
def test_fit_equals_clipped_normal_equation(name, lower, width, where, T, n_steps, seed, scale):
    # a(t, theta) = theta * y(t) with y = 1 or t: Q is a quadratic in theta, so the
    # LSE over the box is the trapezoid normal-equation solution clipped to the box;
    # exp_const, a = e^theta, is that quadratic in e^theta (:func:`_exp_const_lse`).
    # A truth outside the box (where < 0 or > 1) exercises the clipped cases
    box = ParameterBox((lower,), (lower + width,))
    g = TimeGrid(T, n_steps)
    truth = lower + where * width
    noise = scale * white_noise_path("gaussian", g, np.random.PCG64(seed))
    if name == "exp_const":
        obs = Observation(grid=g, x_values=math.exp(truth) + noise)
        m = exp_inner_model(constant_regressors(1), box)
        res = lse_fit(obs, m)
        oracle = _exp_const_lse(obs.x_values, g, lower, lower + width)
        # Gauss-Newton stops on a step of 1e-8 of the box diameter, or on one that
        # the rounding of Q (a few ulps) hides: Q'' = 2 T e^(2 theta) at the minimum
        curvature = 2 * T * math.exp(2 * oracle)
        floor = math.sqrt(16 * 2**-52 * objective(obs, m, (oracle,)) / curvature)
        assert abs(res.theta_hat[0] - oracle) <= 5e-8 * width + floor
        return
    m = constant_model(box) if name == "constant" else linear_model(box)
    y = np.ones(g.n_nodes) if name == "constant" else g.nodes
    x = truth * y + noise
    res = lse_fit(Observation(grid=g, x_values=x), m)
    wy = trapezoid_weights(g) * y
    oracle = float(np.clip((wy @ x) / (wy @ y), lower, lower + width))
    assert abs(res.theta_hat[0] - oracle) <= 1e-9 * width


def test_exp_filtered_trials_equal_the_closed_form():
    # every record of an exp_filtered-shaped run (constant regressor, filtered
    # Rademacher noise, T = 50, N = 5001) against the closed form on its own path
    cfg = config_from_dict({
        "model": {"name": "exp_inner", "parameters": {"regressors": "constant"},
                  "box": {"lower": [-0.5], "upper": [0.5]}, "theta_true": [0.0]},
        "noise": {"driver": "rademacher", "kernel": {"form": "exponential", "rate": 1.0}},
        "grid": {"T": 50.0, "n_steps": 5000},
        "norming": "s_T",
        "montecarlo": {"n_trials": 400, "master_seed": 271828, "R_grid": [0.0, 1.0]},
    })
    grid, kernel = build_grid(cfg), build_kernel(cfg)
    records = run_trials(cfg)
    assert len(records) == 400 and all(r.converged for r in records)
    for r in records:
        # e^0 + noise
        x = 1.0 + noise_path("rademacher", grid, np.random.PCG64(r.trial_seed), kernel)
        assert abs(r.theta_hat[0] - _exp_const_lse(x, grid, -0.5, 0.5)) <= 5e-8  # box width 1


def _one_number(m, g, x) -> tuple[float, float]:
    """s = h w.(phi x) and G = h w.phi^2 of a path x, for a model with a scalar form."""
    phi = m.scalar.phi(g.nodes)
    hw_phi = g.h * trapezoid_weights(g) * phi
    return float(hw_phi @ x), float(hw_phi @ phi)


def _assert_q_value(res, m, g, x):
    # q_value leaves out the data-only term h x'wx of Q
    full = res.q_value + g.h * float(trapezoid_weights(g) @ (x * x))
    assert full == pytest.approx(objective(Observation(grid=g, x_values=x), m, res.theta_hat),
                                 rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("level, noise, bound", [(0.0, 0.0, -0.5), (-0.3, 0.1, -0.5),
                                                 (2.0 * math.exp(0.5), 0.1, 0.5)])
def test_closed_form_clips_to_the_bound(level, noise, bound):
    # exp_const, a = e^theta: s <= 0 is below the range of e^theta, so Q
    # increases over the whole box; s/G above e^0.5 makes it decrease throughout
    m = exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,)))
    g = TimeGrid(5.0, 200)
    x = level + noise * white_noise_path("gaussian", g, np.random.PCG64(4))
    s, gram = _one_number(m, g, x)
    assert s <= 0.0 if bound < 0 else s / gram > math.exp(0.5)
    res = fit_scalar(s, gram, m)
    assert res.theta_hat == (_exp_const_lse(x, g, -0.5, 0.5),) == (bound,)
    assert res.boundary and (res.n_starts, res.lattice_tie_count) == (1, 1)
    assert lse_fit(Observation(grid=g, x_values=x), m).theta_hat == res.theta_hat
    _assert_q_value(res, m, g, x)


@pytest.mark.parametrize("build", [linear_model, constant_model], ids=["linear", "constant"])
def test_closed_form_interior_fit_is_s_over_g(build):
    # test_fit_equals_clipped_normal_equation's oracle: the trapezoid normal equation
    m = build(ParameterBox((0.0,), (5.0,)))
    g = TimeGrid(4.0, 400)
    x = m.eval(g.nodes, np.array([2.1])) + 0.3 * white_noise_path("gaussian", g, np.random.PCG64(6))
    s, gram = _one_number(m, g, x)
    res = fit_scalar(s, gram, m)
    assert res.theta_hat == (s / gram,)
    y = m.scalar.phi(g.nodes)
    wy = trapezoid_weights(g) * y
    assert abs(res.theta_hat[0] - (wy @ x) / (wy @ y)) <= 1e-9 * 5.0
    assert not res.boundary and (res.n_starts, res.lattice_tie_count) == (1, 1)
    assert abs(lse_fit(Observation(grid=g, x_values=x), m).theta_hat[0] - res.theta_hat[0]) <= 1e-9 * 5.0
    _assert_q_value(res, m, g, x)


def test_wide_exp_box_runs_where_f_squared_overflows(tmp_path):
    # on [-1, 800] the lattice reaches e^800, where f^2 G overflows; the LSE is
    # still well defined, and the closed form never evaluates f away from it
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "exp_filtered.json").read_text())
    doc["model"]["box"] = {"lower": [-1.0], "upper": [800.0]}
    doc["grid"] = {"T": 10.0, "n_steps": 1000}
    doc["montecarlo"]["n_trials"] = 200
    doc["bounds"]["c0"] = 0.3
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["tails", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    cfg = load_config(cfg_path)
    grid, kernel = build_grid(cfg), build_kernel(cfg)
    records = run_trials(cfg)
    assert len(records) == 200 and all(r.converged for r in records)
    assert any(r.boundary for r in records)
    for r in records:
        # e^0 + noise
        x = 1.0 + noise_path("rademacher", grid, np.random.PCG64(r.trial_seed), kernel)
        assert abs(r.theta_hat[0] - _exp_const_lse(x, grid, -1.0, 800.0)) <= 1e-12
