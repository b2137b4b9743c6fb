import math

import numpy as np
import pytest

from regtails.errors import ConfigError, ContractError, DegenerateModelError, DomainError
from regtails.model import (
    ParameterBox,
    RegressionModel,
    constant_model,
    constant_regressors,
    cosine_regressors,
    estimate_equivalence_constants,
    exp_inner_model,
    exp_model_constants,
    linear_model,
    make_regressors,
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
    assert box.corners().shape == (4, 2)


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
    # clip passes array bounds, and with array bounds a signed-zero tie takes the
    # bound's sign, at either bound; only the all-scalar call keeps the value's
    for box, value, sign in [
        (ParameterBox((0.0,), (1.0,)), -0.0, False),
        (ParameterBox((-0.0,), (1.0,)), 0.0, True),
        (ParameterBox((-1.0,), (0.0,)), -0.0, False),
        (ParameterBox((-1.0,), (-0.0,)), 0.0, True),
    ]:
        got = box.clip(np.array([value]))
        assert got[0] == 0.0 and bool(np.signbit(got[0])) is sign
    assert np.signbit(np.clip(-0.0, 0.0, 1.0))


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
    # eval and grad interleaved over a read-only grid (whose rows and last value
    # the model keeps) and a writable array that changes between calls; even a
    # returned value changed in place must not leak into a later gradient
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
    c0, c1 = estimate_equivalence_constants(lin, (2.0,), g, N, 200, seed=1)
    assert c0 == pytest.approx(1.0, abs=1e-9)
    assert c1 == pytest.approx(1.0, abs=1e-9)


def test_equivalence_constants_constant_model():
    con = constant_model(ParameterBox((-1.0,), (1.0,)))
    g = TimeGrid(4.0, 100)
    N = norming_vector("s_T", con, (0.0,), g)
    c0, c1 = estimate_equivalence_constants(con, (0.0,), g, N, 150, seed=2)
    assert c0 == pytest.approx(1.0, abs=1e-10)
    assert c1 == pytest.approx(1.0, abs=1e-10)


def test_equivalence_constants_exponential_bracket(exp1):
    g = TimeGrid(1.0, 100)
    N = norming_vector("s_T", exp1, (0.0,), g)
    c0, c1 = estimate_equivalence_constants(exp1, (0.0,), g, N, 2000, seed=3)
    assert c0 <= c1
    # mean-value oracle: every ratio equals e^{2 xi} with xi in (-1/2, 1/2) shifted
    assert math.exp(-1) - 1e-9 <= c0 <= math.exp(-1) * 1.1
    assert math.exp(1) * 0.9 <= c1 <= math.exp(1) + 1e-9


def test_equivalence_needs_enough_pairs(exp1):
    g = TimeGrid(1.0, 10)
    N = norming_vector("s_T", exp1, (0.0,), g)
    with pytest.raises(ContractError):
        estimate_equivalence_constants(exp1, (0.0,), g, N, 50, seed=0)


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
    y = make_regressors("constant", 2)
    assert y(np.zeros(3)).shape == (2, 3)
    with pytest.raises(ConfigError):
        make_regressors("fourier", 1)
    path = tmp_path / "reg.txt"
    t = np.linspace(0, 10, 101)
    np.savetxt(path, np.column_stack([t, np.sin(t)]))
    y_tab = tabulated_regressors(path)
    np.testing.assert_allclose(y_tab(t[:5])[0], np.sin(t[:5]), atol=1e-12)


def test_tabulated_regressors_interpolate_and_reject_bad_tables(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("0 1 0\n1 3 -2\n3 4 2\n")
    y = tabulated_regressors(path)
    np.testing.assert_array_equal(y(np.array([0.0, 0.5, 2.0, 3.0])),
                                  [[1.0, 2.0, 3.5, 4.0], [0.0, -1.0, 0.0, 2.0]])
    # a one-column file is three times and no regressor, not one time and two regressors
    for text, message in (("0\n1\n2\n", "a time column plus"),
                          ("0 1\n2 1\n2 3\n", "strictly increasing"),
                          ("0 1\n1 x\n", "could not convert"),
                          ("", "is empty"), ("# time y1\n\n", "is empty")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=message) as err:
            tabulated_regressors(path)
        assert f"regressor file {path}" in str(err.value)
