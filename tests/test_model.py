import dataclasses
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from regtails import cli
from regtails import model as model_module
from regtails.config import load_config
from regtails.errors import ConfigError, ContractError, DegenerateModelError, DomainError
from regtails.estimator import _clip
from regtails.model import (
    REGRESSOR_REGISTRY,
    ParameterBox,
    RegressionModel,
    constant_model,
    constant_regressors,
    cosine_regressors,
    estimate_equivalence_constants,
    exp_inner_model,
    exp_model_constants,
    linear_model,
    norming_matrix,
    norming_vector,
    phi,
    tabulated_regressors,
)
from regtails.numerics import TimeGrid


@pytest.fixture
def exp1():
    box = ParameterBox((-0.5,), (0.5,))
    return exp_inner_model(constant_regressors(1), box)


def test_box_validation():
    with pytest.raises(ContractError):
        ParameterBox((0.0,), (0.0,))  # zero width
    with pytest.raises(ContractError):
        ParameterBox((1.0,), (0.0,))
    box = ParameterBox((0.0, -1.0), (1.0, 1.0))
    assert box.q == 2
    assert box.contains((0.5, 0.0))
    assert not box.contains((2.0, 0.0))


def test_box_lattice_runs_the_last_axis_fastest():
    box = ParameterBox((0.0, -1.0, 2.0), (1.0, 1.0, 3.5))
    pts = box.lattice(3)
    assert pts.shape == (27, 3)
    axes = [np.linspace(lo, hi, 3) for lo, hi in zip(box.lower, box.upper)]
    for i, p in enumerate(pts):
        assert p.tolist() == [axes[0][i // 9], axes[1][i // 3 % 3], axes[2][i % 3]]
    # lattice(2) is the corner set bit for bit: np.linspace(lo, hi, 2) is [lo, hi]
    rng = np.random.default_rng(5)
    for _ in range(200):
        lo = rng.uniform(-10.0, 10.0, 3)
        hi = lo + rng.uniform(1e-6, 10.0, 3)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        assert ParameterBox(lo, hi).lattice(2).tobytes() == corners.tobytes()


def test_box_arrays_built_once():
    bounds = np.array([0.0, -1.0])
    box = ParameterBox(bounds, (1.0, 1.0))
    assert bounds.flags.writeable  # the caller's array is copied, not frozen
    for name in ("lower_arr", "upper_arr"):
        arr = getattr(box, name)
        assert arr is getattr(box, name)
        assert not arr.flags.writeable
    np.testing.assert_array_equal(box.lower_arr, [0.0, -1.0])
    assert box.diameter == float(np.linalg.norm(np.array([1.0, 2.0])))
    twin = ParameterBox((0.0, -1.0), (1.0, 1.0))
    assert twin == box and hash(twin) == hash(box)
    assert ParameterBox((0.0, -1.0), (1.0, 2.0)) != box


def test_box_clip_signed_zero_takes_the_bound():
    # a signed-zero tie takes the bound's sign, at either bound, for one point
    # and for a column of points, as lse_fit's Python reference does; np.clip
    # does so for one point but keeps the value's zero against broadcast bounds
    for box, value, sign in [
        (ParameterBox((0.0,), (1.0,)), -0.0, False),
        (ParameterBox((-0.0,), (1.0,)), 0.0, True),
        (ParameterBox((-1.0,), (0.0,)), -0.0, False),
        (ParameterBox((-1.0,), (-0.0,)), 0.0, True),
    ]:
        for theta in (np.array([value]), np.full((9, 1), value)):
            got = _clip(theta, box)
            assert got.shape == theta.shape and np.all(got == 0.0)
            assert np.all(np.signbit(got) == sign)
        assert bool(np.signbit(np.clip(np.array([value]), box.lower_arr, box.upper_arr)[0])) is sign
    box = ParameterBox((0.0, -1.0), (1.0, 2.0))
    assert _clip(np.array([[-3.0, 0.5], [0.25, 7.0]]), box).tolist() == [[0.0, 0.5], [0.25, 2.0]]


def test_gradients_match_finite_differences(exp1):
    box2 = ParameterBox((-0.5, -0.3), (0.5, 0.3))
    models = [
        linear_model(ParameterBox((0.0,), (5.0,))),
        constant_model(ParameterBox((-1.0,), (1.0,))),
        exp1,
        exp_inner_model(cosine_regressors(2), box2),
    ]
    rng = np.random.default_rng(12)
    for m in models:
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0.0, 5.0, size=3)
            tau = rng.uniform(m.box.lower_arr, m.box.upper_arr)
            g = np.atleast_2d(m.grad(t, tau))
            for i in range(m.q):
                step = 1e-6 * max(1.0, abs(tau[i]))
                up = tau.copy()
                up[i] += step
                dn = tau.copy()
                dn[i] -= step
                fd = (m.eval(t, up) - m.eval(t, dn)) / (2 * step)
                scale = np.maximum(np.abs(g[i]), 1e-8)
                worst = max(worst, float(np.max(np.abs(fd - g[i]) / scale)))
        assert worst < 1e-5, m.name


def test_exp_inner_caches_never_go_stale():
    # eval and grad interleaved over a read-only grid (whose rows the model keeps)
    # and a writable array that changes between calls; even a returned value
    # changed in place must not leak into a later gradient
    y_of = cosine_regressors(2)
    m = exp_inner_model(y_of, ParameterBox((-1.0, -1.0), (1.0, 1.0)))
    fixed = TimeGrid(3.0, 40).nodes
    loose = np.linspace(0.0, 2.0, 41)
    taus = [np.array([0.3, -0.2]), np.array([-0.7, 0.5]), np.array([0.3, -0.2]), np.array([0.0, 0.9])]
    rng = np.random.default_rng(8)
    kinds = set()
    for _ in range(300):
        t = (fixed, loose)[rng.integers(2)]
        tau = taus[rng.integers(len(taus))].copy()
        kind = ("eval", "grad")[rng.integers(2)]
        got = getattr(m, kind)(t, tau)
        y = np.atleast_2d(y_of(np.array(t)))
        want = np.exp(tau @ y) if kind == "eval" else y * np.exp(tau @ y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        kinds.add((kind, t is fixed))
        if kind == "eval" and rng.random() < 0.3:
            got *= 2.0
        if rng.random() < 0.5:
            loose += rng.uniform(-0.1, 0.1, size=loose.size)
    assert len(kinds) == 4


def test_norming_matrix_values(exp1):
    lin = linear_model(ParameterBox((0.0,), (5.0,)))
    d = norming_matrix(lin, (1.0,), TimeGrid(3.0, 600))
    assert d[0] == pytest.approx(3.0, rel=1e-5)  # sqrt(T^3/3) with T=3

    con = constant_model(ParameterBox((-1.0,), (1.0,)))
    d = norming_matrix(con, (0.0,), TimeGrid(4.0, 40))
    assert d[0] == pytest.approx(2.0, abs=1e-12)

    d = norming_matrix(exp1, (0.0,), TimeGrid(1.0, 100))
    assert d[0] == pytest.approx(1.0, abs=1e-12)


def test_norming_monotone_in_horizon(exp1):
    d_small = norming_matrix(exp1, (0.2,), TimeGrid(1.0, 100))
    d_big = norming_matrix(exp1, (0.2,), TimeGrid(2.0, 200))
    assert d_big[0] >= d_small[0]


def test_norming_degenerate_detected():
    # gradient identically zero
    box = ParameterBox((-1.0,), (1.0,))
    flat = RegressionModel(box=box, eval=lambda t, tau: np.zeros(np.size(t)),
                           grad=lambda t, tau: np.zeros((1, np.size(t))), name="flat")
    with pytest.raises(DegenerateModelError):
        norming_matrix(flat, (0.0,), TimeGrid(1.0, 10))


def test_norming_vector_modes(exp1):
    g = TimeGrid(4.0, 100)
    s = norming_vector("s_T", exp1, (0.0,), g)
    assert s[0] == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        norming_vector("other", exp1, (0.0,), g)


def test_norming_sandwich_for_exponential(exp1):
    # s_T^{-1} d_T(tau) = e^tau stays in (L, H) = (e^{-1/2}, e^{1/2}) uniformly
    L, H = math.exp(-0.5), math.exp(0.5)
    for T in (10.0, 50.0):
        g = TimeGrid(T, int(T * 100))
        sT = math.sqrt(T)
        for tau in np.linspace(-0.49, 0.49, 9):
            ratio = norming_matrix(exp1, (tau,), g)[0] / sT
            assert L * (1 - 1e-9) <= ratio <= H * (1 + 1e-9)


def test_phi_zero_at_equal_arguments(exp1):
    g = TimeGrid(1.0, 50)
    N = norming_vector("s_T", exp1, (0.0,), g)
    assert phi(exp1, (0.0,), g, N, (0.3,), (0.3,)) == 0.0


def test_phi_linear_model_exact():
    lin = linear_model(ParameterBox((0.0,), (5.0,)))
    g = TimeGrid(3.0, 300)
    N = norming_matrix(lin, (2.0,), g)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.uniform(-1, 1)
        v = rng.uniform(-1, 1)
        val = phi(lin, (2.0,), g, N, (u,), (v,))
        assert val == pytest.approx((u - v) ** 2, rel=1e-12, abs=1e-14)


def test_phi_exponential_closed_form(exp1):
    # integrand is constant in t, so quadrature is exact:
    # Phi = (e^{0.1} - 1)^2 with T=1, s_T = 1, theta = 0
    g = TimeGrid(1.0, 100)
    N = norming_vector("s_T", exp1, (0.0,), g)
    val = phi(exp1, (0.0,), g, N, (0.1,), (0.0,))
    assert val == pytest.approx((math.exp(0.1) - 1.0) ** 2, rel=1e-12)


def test_phi_domain_error_names_coordinate(exp1):
    g = TimeGrid(1.0, 50)
    N = norming_vector("s_T", exp1, (0.0,), g)
    with pytest.raises(DomainError, match="coordinate 0"):
        phi(exp1, (0.0,), g, N, (5.0,), (0.0,))


def test_phi_pseudometric_triangle(exp1):
    g = TimeGrid(1.0, 50)
    N = norming_vector("s_T", exp1, (0.0,), g)
    rng = np.random.default_rng(3)
    for _ in range(30):
        u, v, w = rng.uniform(-0.5, 0.5, 3)
        d_uw = math.sqrt(phi(exp1, (0.0,), g, N, (u,), (w,)))
        d_uv = math.sqrt(phi(exp1, (0.0,), g, N, (u,), (v,)))
        d_vw = math.sqrt(phi(exp1, (0.0,), g, N, (v,), (w,)))
        assert d_uw <= d_uv + d_vw + 1e-12


def test_equivalence_constants_linear_unity():
    lin = linear_model(ParameterBox((0.0,), (5.0,)))
    g = TimeGrid(3.0, 300)
    N = norming_matrix(lin, (2.0,), g)
    c0, c1 = estimate_equivalence_constants(lin, (2.0,), g, N, seed=1)
    assert c0 == pytest.approx(1.0, abs=1e-9)
    assert c1 == pytest.approx(1.0, abs=1e-9)


def test_equivalence_constants_constant_model():
    con = constant_model(ParameterBox((-1.0,), (1.0,)))
    g = TimeGrid(4.0, 100)
    N = norming_vector("s_T", con, (0.0,), g)
    c0, c1 = estimate_equivalence_constants(con, (0.0,), g, N, seed=2)
    assert c0 == pytest.approx(1.0, abs=1e-10)
    assert c1 == pytest.approx(1.0, abs=1e-10)


def test_equivalence_constants_exponential_bracket(exp1):
    g = TimeGrid(1.0, 100)
    N = norming_vector("s_T", exp1, (0.0,), g)
    c0, c1 = estimate_equivalence_constants(exp1, (0.0,), g, N, seed=3)
    assert c0 <= c1
    # mean-value oracle: every ratio equals e^{2 xi} with xi in (-1/2, 1/2) shifted
    assert math.exp(-1) - 1e-9 <= c0 <= math.exp(-1) * 1.1
    assert math.exp(1) * 0.9 <= c1 <= math.exp(1) + 1e-9


def _reference_equivalence_constants(model, theta, grid, norming, seed):
    """The pair sampler as it was before the one-number route: :func:`phi` per pair."""
    n_pairs = model_module.EQUIVALENCE_PAIRS
    theta = np.asarray(theta, dtype=float)
    norming = np.asarray(norming, dtype=float)
    rng = np.random.default_rng(seed)
    u_all = (model.box.sample(rng, 2 * n_pairs) - theta) * norming
    lo, hi, kept = math.inf, -math.inf, 0
    for k in range(n_pairs):
        u, v = u_all[2 * k], u_all[2 * k + 1]
        gap = float(np.dot(u - v, u - v))
        if gap <= 1e-18:
            continue
        ratio = phi(model, theta, grid, norming, u, v) / gap
        lo, hi, kept = min(lo, ratio), max(hi, ratio), kept + 1
    if kept == 0:
        raise ContractError("all sampled pairs were degenerate (coincident points)")
    return lo, hi


# (name, model, theta); T = 3 keeps G = integral of phi^2 away from 1
_SCALAR_MODELS = [
    ("linear", linear_model(ParameterBox((0.0,), (5.0,))), (2.0,)),
    ("constant", constant_model(ParameterBox((-1.0,), (1.0,))), (0.0,)),
    ("exp_inner", exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,))), (0.0,)),
]


@pytest.mark.parametrize("name,model,theta", _SCALAR_MODELS, ids=[m[0] for m in _SCALAR_MODELS])
@pytest.mark.parametrize("mode", ["s_T", "d_T"])
def test_scalar_pairs_match_the_phi_loop(monkeypatch, name, model, theta, mode):
    # the one-number route against phi per pair.  Today's loop forms
    # tau_u t - tau_v t node by node, which cancels on the linear model's
    # close pairs (2.0e-13 relative at N = 300); the exact test below pins
    # the one-number route there
    assert model.scalar is not None
    grid = TimeGrid(3.0, 300)
    norming = norming_vector(mode, model, theta, grid)
    tol = 1e-12 if name == "linear" else 1e-13
    for seed in range(5):
        for n_pairs in (100, 2000):
            monkeypatch.setattr(model_module, "EQUIVALENCE_PAIRS", n_pairs)
            got = estimate_equivalence_constants(model, theta, grid, norming, seed)
            want = _reference_equivalence_constants(model, theta, grid, norming, seed)
            assert got[0] == pytest.approx(want[0], rel=tol, abs=0)
            assert got[1] == pytest.approx(want[1], rel=tol, abs=0)


@pytest.mark.parametrize("mode", ["s_T", "d_T"])
def test_scalar_pairs_exact_on_linear_model(mode):
    # every ratio of the linear model is (tau_u - tau_v)^2 G / gap with the
    # trapezoid G of t^2, evaluated here in rational arithmetic
    _, lin, theta = _SCALAR_MODELS[0]
    grid = TimeGrid(3.0, 300)
    norming = norming_vector(mode, lin, theta, grid)
    w = [Fraction(1, 2) if k in (0, grid.n_steps) else 1 for k in range(grid.n_nodes)]
    gram = Fraction(grid.h) * sum(wk * Fraction(float(t)) ** 2 for wk, t in zip(w, grid.nodes))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u_all = (lin.box.sample(rng, 4000) - theta) * norming
        tau = (theta + u_all / norming)[:, 0].tolist()
        gap = ((u_all[0::2] - u_all[1::2])[:, 0] ** 2).tolist()
        ratios = [(Fraction(tau[2 * k]) - Fraction(tau[2 * k + 1])) ** 2 * gram / Fraction(gap[k])
                  for k in range(2000)]
        got = estimate_equivalence_constants(lin, theta, grid, norming, seed)
        for value, exact in zip(got, (min(ratios), max(ratios))):
            assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 15) * exact


# the path route on the same cases: cosine regressors at q = 2 have no ScalarForm
_PATH_MODEL = ("cosine_q2", exp_inner_model(cosine_regressors(2),
                                            ParameterBox((-0.5, -0.5), (0.5, 0.5))), (0.0, 0.0))
_ROUTE_MODELS = [*_SCALAR_MODELS, _PATH_MODEL]


@pytest.mark.parametrize("name,model,theta", _ROUTE_MODELS, ids=[m[0] for m in _ROUTE_MODELS])
def test_scalar_pairs_keep_the_error_contracts(monkeypatch, name, model, theta):
    grid = TimeGrid(3.0, 30)
    norming = norming_vector("s_T", model, theta, grid)
    monkeypatch.setattr(model_module, "EQUIVALENCE_PAIRS", 100)

    def sampled(points):
        # each point is (x, theta[1:]): only the first coordinate varies
        rows = [[x, *theta[1:]] for x in points]
        monkeypatch.setattr(ParameterBox, "sample",
                            lambda box, rng, n: np.array(rows, dtype=float).reshape(n, box.q))

    # every pair coincident
    sampled([theta[0]] * 200)
    for route in (estimate_equivalence_constants, _reference_equivalence_constants):
        with pytest.raises(ContractError, match="all sampled pairs were degenerate"):
            route(model, theta, grid, norming, seed=0)

    # a coincident pair outside the box is skipped; the first kept pair leaves it through v
    lo, hi = model.box.lower[0], model.box.upper[0]
    outside = hi + 0.25 * (hi - lo)
    sampled([outside, outside, lo, outside] + [theta[0], hi] * 98)
    messages = []
    for route in (estimate_equivalence_constants, _reference_equivalence_constants):
        with pytest.raises(DomainError) as err:
            route(model, theta, grid, norming, seed=0)
        messages.append(str(err.value))
    # phi raises it from the same helper
    u, v = ((np.array([x, *theta[1:]]) - theta) * norming for x in (lo, outside))
    with pytest.raises(DomainError) as err:
        phi(model, theta, grid, norming, u, v)
    messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].startswith("normalized shift v leaves the box at coordinate 0: value ")


_OVERFLOWING = [
    ("exp_inner", exp_inner_model(constant_regressors(1), ParameterBox((700.0,), (720.0,))),
     (705.0,)),
    ("cosine_q2", exp_inner_model(cosine_regressors(2), ParameterBox((700.0, -1.0), (720.0, 1.0))),
     (705.0, 0.0)),
]


@pytest.mark.parametrize("name,model,theta", _OVERFLOWING, ids=[m[0] for m in _OVERFLOWING])
def test_scalar_pairs_reject_a_non_finite_phi(monkeypatch, name, model, theta):
    # e^tau overflows inside this box (numpy warns), and phi's integrand check says so
    grid = TimeGrid(3.0, 30)
    norming = norming_vector("s_T", model, theta, grid)
    monkeypatch.setattr(model_module, "EQUIVALENCE_PAIRS", 100)
    for route in (estimate_equivalence_constants, _reference_equivalence_constants):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError, match="integrand contains non-finite entries"):
            route(model, theta, grid, norming, seed=0)


def _counted(calls, fn, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_shipped_constants_evaluate_no_model_path(monkeypatch):
    # exp_filtered samples its 2,000 pairs from f(tau) alone: no phi, no eval
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "exp_filtered.json")
    assert cfg.bounds.c0 == "estimate" and cfg.norming == "s_T"
    calls = {"eval": 0, "grad": 0}
    built = cli.build_model(cfg)
    model = dataclasses.replace(built, eval=_counted(calls, built.eval, "eval"),
                                grad=_counted(calls, built.grad, "grad"))

    def no_phi(*args, **kwargs):
        raise AssertionError("phi evaluated a pair")

    monkeypatch.setattr(model_module, "phi", no_phi)
    consts, extras = cli.resolve_constants(cfg, model, cli.build_grid(cfg), cli.build_kernel(cfg))
    # an s_T norming and the kernel's f0 read no model path either
    assert calls == {"eval": 0, "grad": 0}
    assert extras["c0_source"] == "pair_sampling" and consts.c0 == extras["c0_hat"] > 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("mode", ["s_T", "d_T"])
def test_path_pairs_equal_the_phi_loop(q, mode):
    # no ScalarForm: each kept pair takes two eval calls and the per-pair
    # np.dot gap, so (c0_hat, c1_hat) equal the phi loop bit for bit
    box = ParameterBox((-0.5,) * q, (0.5,) * q)
    built = exp_inner_model(cosine_regressors(q), box)
    assert built.scalar is None
    theta = (0.1, -0.2, 0.0)[:q]
    grid = TimeGrid(3.0, 30)
    norming = norming_vector(mode, built, theta, grid)
    for seed in range(4):
        calls = {"eval": 0}
        model = dataclasses.replace(built, eval=_counted(calls, built.eval, "eval"))
        got = estimate_equivalence_constants(model, theta, grid, norming, seed)
        u_all = (box.sample(np.random.default_rng(seed), 4000) - theta) * norming
        d = u_all[0::2] - u_all[1::2]
        assert calls["eval"] == 2 * int(((d * d).sum(axis=1) > 1e-18).sum()) == 4000
        assert got == _reference_equivalence_constants(built, theta, grid, norming, seed)


def test_pair_gaps_are_the_per_pair_dot_products():
    # np.vecdot takes each row with the dot product np.dot takes; a sum of the
    # squares rounds differently in about a sixth of the rows at q = 2
    d = np.random.default_rng(0).uniform(-1.0, 1.0, (20_000, 3))
    for q in (1, 2, 3):
        rows = d[:, :q]
        assert np.vecdot(rows, rows).tolist() == [float(np.dot(x, x)) for x in rows]


@pytest.mark.parametrize("build,shape", [(linear_model, lambda t: t),
                                         (constant_model, np.ones_like)],
                         ids=["linear", "constant"])
def test_proportional_models_read_one_shape(build, shape):
    # eval, grad and the ScalarForm of tau * phi(t) all read the one phi, and
    # give what tau * t, the constant tau and their gradients give
    model = build(ParameterBox((-1.0,), (5.0,)))
    t = TimeGrid(3.0, 30).nodes
    for tau in (-0.7, 0.0, -0.0, 2.3):
        assert np.array_equal(model.eval(t, (tau,)), tau * shape(t))
        assert np.array_equal(model.eval(t, (tau,)), model.scalar.f(tau) * model.scalar.phi(t))
        grad = model.grad(t, (tau,))
        assert grad.shape == (1, t.size) and grad.flags.writeable
        assert np.array_equal(grad[0], model.scalar.phi(t))
    assert np.array_equal(model.scalar.phi(t), shape(t))
    with pytest.raises(ConfigError, match=f"{model.name} model is scalar"):
        build(ParameterBox((0.0, 0.0), (1.0, 1.0)))


def test_exp_model_constants_unit_regressor():
    box = ParameterBox((-0.5,), (0.5,))
    g = TimeGrid(1.0, 100)
    consts = exp_model_constants(constant_regressors(1), box, g)
    assert consts.J_T[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert consts.H == pytest.approx(math.exp(0.5), abs=1e-12)
    assert consts.L == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert consts.c0_theory == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert consts.c1_theory == pytest.approx(math.exp(1.0), abs=1e-9)


def test_exp_model_constants_cosine_regressors():
    # over whole periods the Gram matrix is diag(1, 1/2)
    box = ParameterBox((-0.2, -0.2), (0.2, 0.2))
    g = TimeGrid(4 * math.pi, 1200)
    consts = exp_model_constants(cosine_regressors(2), box, g)
    np.testing.assert_allclose(consts.J_T, [[1.0, 0.0], [0.0, 0.5]], atol=1e-9)
    assert consts.lambda_min == pytest.approx(0.5, abs=1e-9)


def test_exp_model_constants_degenerate():
    # duplicated regressor rows make the Gram matrix singular
    box = ParameterBox((-0.2, -0.2), (0.2, 0.2))
    with pytest.raises(DegenerateModelError):
        exp_model_constants(lambda t: np.vstack([np.ones(np.size(t))] * 2), box,
                            TimeGrid(1.0, 50))


def test_regressor_registry_and_files(tmp_path):
    # an unknown family is a config error naming model.parameters.regressors
    # (tests/test_config_cli.py); the registry maps the names the config reads
    assert sorted(REGRESSOR_REGISTRY) == ["constant", "cosine"]
    y = REGRESSOR_REGISTRY["constant"](2)
    assert y(np.zeros(3)).shape == (2, 3)
    path = tmp_path / "reg.txt"
    t = np.linspace(0, 10, 101)
    np.savetxt(path, np.column_stack([t, np.sin(t)]))
    y_tab = tabulated_regressors(path, 1)
    np.testing.assert_allclose(y_tab(t[:5])[0], np.sin(t[:5]), atol=1e-12)


def test_tabulated_regressors_interpolate_and_reject_bad_tables(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("0 1 0\n1 3 -2\n3 4 2\n")
    y = tabulated_regressors(path, 2)
    np.testing.assert_array_equal(y(np.array([0.0, 0.5, 2.0, 3.0])),
                                  [[1.0, 2.0, 3.5, 4.0], [0.0, -1.0, 0.0, 2.0]])
    # a one-column file is three times and no regressor, not one time and two regressors
    for text, message in (("0\n1\n2\n", "a time column plus"),
                          ("0 1\n2 1\n2 3\n", "strictly increasing"),
                          ("0 1\n1 x\n", "could not convert"),
                          ("", "is empty"), ("# time y1\n\n", "is empty")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=message) as err:
            tabulated_regressors(path, 1)
        assert f"regressor file {path}" in str(err.value)
    # the box's dimension counts the value columns
    path.write_text("0 1 0\n1 3 -2\n")
    for q in (1, 3):
        with pytest.raises(ConfigError, match=f"has 2 value columns, but the box has {q} "):
            tabulated_regressors(path, q)
