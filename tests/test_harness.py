import dataclasses
import decimal
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaincinv
from scipy.stats import beta as beta_dist

from regtails import cli, estimator, harness
from regtails.bounds import BoundConstants, calibrate_prefactor
from regtails.config import (
    build_grid,
    build_kernel,
    build_model,
    build_norming,
    config_from_dict,
    config_to_dict,
    load_config,
)
from regtails.errors import ContractError, NonConvergenceError
from regtails.estimator import Observation, lse_fit, normalized_deviation
from regtails.harness import (
    MGF_BLOCK,
    MGF_DEFAULT_REPS,
    STREAM_MGF,
    STREAM_PATHS,
    STREAM_TRIALS,
    clopper_pearson,
    compare_with_envelope,
    derive_seed,
    estimate_tail,
    fit_exceedance_rate,
    mgf_check,
    quadratic_form_check,
    run_trials,
)
from regtails.noise import (
    DRIVER_KINDS,
    FilterKernel,
    apply_filter,
    covariance_row,
    driver_log_mgf,
    driver_weights,
    f0_sim,
    f0_sup,
    noise_path,
    quadratic_form,
    sample_driver,
)
from regtails.numerics import TimeGrid, integrate, trapezoid_weights
from test_noise import REFERENCE_DRAWS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _linear_white_config(n_trials=200, seed=101, T=5.0, n_steps=500):
    return config_from_dict({
        "model": {"name": "linear", "box": {"lower": [0.0], "upper": [5.0]},
                  "theta_true": [2.0]},
        "noise": {"driver": "gaussian", "kernel": None},
        "grid": {"T": T, "n_steps": n_steps},
        "norming": "d_T",
        "montecarlo": {"n_trials": n_trials, "master_seed": seed,
                       "R_grid": [0.0, 0.5, 1.0, 1.5, 2.0]},
    })


# -- seeding -------------------------------------------------------------------


def test_derive_seed_is_pure_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seeds = {derive_seed(12345, 1, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(12345, 1, 0) != derive_seed(12345, 2, 0)


def test_derive_seed_on_an_index_array_matches_the_int_form():
    # a chunk takes its seeds from one array call; its uint64 products wrap
    # silently, where a wrapping scalar product would warn and fail here
    indices = list(range(5000)) + [2**32 - 1, 2**32, 2**63, 2**64 - 1]
    for master in (0, 12345, 2**63 + 7, 2**64 - 1):
        for stream in (STREAM_TRIALS, STREAM_PATHS):
            got = derive_seed(master, stream, np.array(indices, dtype=np.uint64)).tolist()
            assert got == [derive_seed(master, stream, i) for i in indices]
            assert all(type(seed) is int for seed in got)


def test_index_streams_are_default_rng_streams_across_seed_blocks():
    start, stop = harness.SEED_BLOCK - 7, 2 * harness.SEED_BLOCK + 5
    streams = harness.index_streams(9, STREAM_PATHS, start, stop)
    got = [bits.state for bits in streams]
    assert got == [np.random.default_rng(derive_seed(9, STREAM_PATHS, i)).bit_generator.state
                   for i in range(start, stop)]
    assert list(harness.index_streams(9, STREAM_PATHS, 4, 4)) == []


def _trial_rows(q, rows):
    """``rows`` of (deviation, theta_hat, boundary, n_starts, lattice_tie_count) as run_trials' array."""
    return np.array(rows, dtype=[("deviation", float), ("theta_hat", float, (q,)), ("boundary", bool),
                                 ("n_starts", np.int8), ("lattice_tie_count", np.int32)])


def _same_rows(got, want):
    # bit for bit, signed zeros included, and the same fields
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _reference_chunk(cfg, start, stop):
    """Rows [start, stop), trial i drawn from default_rng(derive_seed(master, STREAM_TRIALS, i))
    and fitted on its own: lse_fit on the path, or f^-1(s/G) by math.log and a Python clip."""
    grid, model, kernel = build_grid(cfg), build_model(cfg), build_kernel(cfg)
    theta_true = np.asarray(cfg.model.theta_true)
    a_true = model.eval(grid.nodes, theta_true)
    norming = build_norming(cfg, model, grid)
    sqrt_h = np.sqrt(grid.h)
    n_draws = grid.n_nodes if kernel is None else kernel.n_taps(grid.h) + grid.n_steps
    if model.scalar is not None:
        # s = h w.(phi x) = c + u @ z, and the estimate is f^-1(s/G) clipped to the box
        phi = model.scalar.phi(grid.nodes)
        hw_phi = grid.h * trapezoid_weights(grid) * phi
        u = driver_weights(hw_phi, grid, kernel)
        gram, c = float(hw_phi @ phi), float(hw_phi @ a_true)
        (lo,), (hi,) = model.box.lower, model.box.upper
    rows = []
    for i in range(start, stop):
        seed = derive_seed(cfg.montecarlo.master_seed, STREAM_TRIALS, i)
        z = REFERENCE_DRAWS[cfg.noise.driver](np.random.default_rng(seed), n_draws)
        if model.scalar is None:
            eps = z / sqrt_h if kernel is None else apply_filter(kernel, sqrt_h * z, grid)
            fit = lse_fit(Observation(grid=grid, x_values=a_true + eps), model)
            theta_hat, boundary = fit.theta_hat, fit.boundary
            n_starts, ties = fit.n_starts, fit.lattice_tie_count
        else:
            y = (c + float(u @ z)) / gram
            if cfg.model.name == "exp_inner":  # f = exp
                y = math.log(y) if y > 0.0 else -math.inf
            theta = lo if y <= lo else hi if y >= hi else y
            theta_hat, n_starts, ties = (theta,), 1, 1
            boundary = theta <= lo + 1e-8 * (hi - lo) or theta >= hi - 1e-8 * (hi - lo)
        rows.append((normalized_deviation(theta_hat, theta_true, norming), theta_hat,
                     boundary, n_starts, ties))
    return _trial_rows(model.q, rows)


def _route_config(route, driver, kernel, n_trials=60):
    # exp_inner with the constant regressor takes the one-number route, with
    # cosine regressors at q = 2 the path route
    regressors, q = {"one_number": ("constant", 1), "path": ("cosine", 2)}[route]
    return config_from_dict({
        "model": {"name": "exp_inner", "parameters": {"regressors": regressors},
                  "box": {"lower": [-0.5] * q, "upper": [0.5] * q},
                  "theta_true": [0.1, -0.2][:q]},
        "noise": {"driver": driver, "kernel": kernel},
        "grid": {"T": 5.0, "n_steps": 500},
        "norming": "s_T",
        "montecarlo": {"n_trials": n_trials, "master_seed": 23, "R_grid": [0.0, 1.0]},
    })


@pytest.mark.parametrize("route", ["one_number", "path"])
@pytest.mark.parametrize("kernel", [None, {"form": "exponential", "rate": 2.0}])
@pytest.mark.parametrize("driver", DRIVER_KINDS)
def test_chunk_records_match_a_default_rng_per_trial(driver, kernel, route):
    # the chunk's one reset bit generator against a generator built per trial,
    # over chunk bounds at odd offsets
    cfg = _route_config(route, driver, kernel)
    assert (build_model(cfg).scalar is None) == (route == "path")
    assert _same_rows(harness._run_chunk(cfg, 3, 58), _reference_chunk(cfg, 3, 58))


def test_exp_filtered_chunk_takes_f_inverse_per_trial():
    # the shipped exp_filtered run: over its 5,000 trials np.log of the whole
    # column differed from math.log in the last bit of 54 (on an AVX-512 CPU),
    # so only a per-trial f^-1 keeps every row equal to the reference
    cfg = load_config(CONFIGS / "exp_filtered.json")
    assert cfg.montecarlo.n_trials == 5000
    assert _same_rows(harness._run_chunk(cfg, 0, 5000), _reference_chunk(cfg, 0, 5000))


@pytest.mark.parametrize("route, driver", [("one_number", "gaussian"),
                                           ("one_number", "rademacher"), ("path", "rademacher")])
def test_a_chunk_builds_no_generator_per_trial(route, driver, monkeypatch):
    built = []

    def counted(name, make):
        def build(*args, **kwargs):
            built.append(name)
            return make(*args, **kwargs)
        return build

    cfg = _route_config(route, driver, {"form": "exponential", "rate": 2.0}, n_trials=200)
    for name in ("default_rng", "SeedSequence"):
        monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
    assert len(harness._run_chunk(cfg, 0, 200)) == 200
    assert len(built) <= 1, built[:3]


# -- run_trials ------------------------------------------------------------------


def test_run_trials_deterministic_and_parallel_equivalent():
    cfg = _linear_white_config(n_trials=120)
    r1 = run_trials(cfg, workers=1)
    assert _same_rows(run_trials(cfg, workers=1), r1)
    assert _same_rows(run_trials(cfg, workers=2), r1)


def test_run_trials_zero_noise_like():
    # a constant-zero weighting of the noise is impossible; instead use a tiny
    # horizon with huge signal so the fit is numerically exact
    cfg = config_from_dict({
        "model": {"name": "constant", "box": {"lower": [-1.0], "upper": [1.0]},
                  "theta_true": [0.25]},
        "noise": {"driver": "gaussian", "kernel": None},
        "grid": {"T": 50.0, "n_steps": 5000},
        "norming": "s_T",
        "montecarlo": {"n_trials": 100, "master_seed": 3, "R_grid": [0.0, 1.0]},
    })
    trials = run_trials(cfg)
    assert np.all(trials["n_starts"] > 0)
    # constant model: theta_hat = mean of X, deviation = sqrt(T)|mean eps| ~ N(0,1)
    devs = trials["deviation"]
    assert devs.mean() == pytest.approx(math.sqrt(2 / math.pi), abs=0.25)


def test_run_trials_half_normal_deviations():
    cfg = _linear_white_config(n_trials=2000, T=25.0, n_steps=2500)
    devs = run_trials(cfg)["deviation"]
    # closed-form linear estimator: deviation = |N(0,1)| up to O(h)
    se = math.sqrt((1 - 2 / math.pi) / devs.size)
    assert abs(devs.mean() - math.sqrt(2 / math.pi)) <= 3 * se


# -- the one-number route -------------------------------------------------------

_SEPARABLE = {
    "linear": ({"name": "linear", "box": {"lower": [0.0], "upper": [5.0]}, "theta_true": [2.0]},
               "d_T"),
    "constant": ({"name": "constant", "box": {"lower": [-1.0], "upper": [1.0]},
                  "theta_true": [0.25]}, "s_T"),
    "exp_inner": ({"name": "exp_inner", "parameters": {"regressors": "constant"},
                   "box": {"lower": [-0.5], "upper": [0.5]}, "theta_true": [0.1]}, "s_T"),
    "exp_inner_cosine": ({"name": "exp_inner", "parameters": {"regressors": "cosine"},
                          "box": {"lower": [-0.5], "upper": [0.5]}, "theta_true": [0.1]}, "s_T"),
}
_R_LEVELS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


def _separable_config(model, kernel, driver):
    doc, norming = _SEPARABLE[model]
    return config_from_dict({
        "model": doc,
        "noise": {"driver": driver, "kernel": kernel},
        "grid": {"T": 5.0, "n_steps": 500},
        "norming": norming,
        "montecarlo": {"n_trials": 40, "master_seed": 5, "R_grid": _R_LEVELS},
    })


def _counts(devs):
    return [int(np.sum(np.asarray(devs) >= r)) for r in _R_LEVELS]


@pytest.mark.parametrize("driver", ["gaussian", "rademacher", "uniform_sqrt3"])
@pytest.mark.parametrize("kernel", ["white", "exponential", "tabulated"])
@pytest.mark.parametrize("model", sorted(_SEPARABLE))
def test_one_number_trials_match_the_path_fit(model, kernel, driver, tmp_path):
    # each record of the one-number route against lse_fit on the path that
    # noise_path makes from the trial's seed
    table = tmp_path / "kernel.txt"
    table.write_text("0 1\n0.5 0.8\n1 0.3\n2 0\n")
    spec = {"white": None, "exponential": {"form": "exponential", "rate": 2.0},
            "tabulated": {"form": "tabulated", "file": str(table)}}[kernel]
    cfg = _separable_config(model, spec, driver)
    grid, m, k = build_grid(cfg), build_model(cfg), build_kernel(cfg)
    assert m.scalar is not None
    theta_true = np.asarray(cfg.model.theta_true)
    a_true = m.eval(grid.nodes, theta_true)
    norming = build_norming(cfg, m, grid)
    width = m.box.upper[0] - m.box.lower[0]
    trials = run_trials(cfg)
    path_devs = []
    for i, row in enumerate(trials):
        seed = derive_seed(cfg.montecarlo.master_seed, STREAM_TRIALS, i)
        eps = noise_path(driver, grid, np.random.PCG64(seed), k)
        obs = Observation(grid=grid, x_values=a_true + eps)
        want = lse_fit(obs, m)
        if model.startswith("exp_inner"):
            # test_fit_equals_clipped_normal_equation's bound: 5e-8 of the width,
            # plus Q's rounding floor for a curvature 2 T e^(2 theta)
            curvature = 2 * grid.T * math.exp(2 * want.theta_hat[0])
            tol = 5e-8 * width + math.sqrt(16 * 2**-52 * want.q_value / curvature)
        else:
            tol = 1e-9 * width
        assert abs(row["theta_hat"][0] - want.theta_hat[0]) <= tol
        assert (row["boundary"], row["n_starts"], row["lattice_tie_count"]) == (
            want.boundary, want.n_starts, want.lattice_tie_count)
        path_devs.append(normalized_deviation(want.theta_hat, theta_true, norming))
    assert _counts(trials["deviation"]) == _counts(path_devs)


def _shipped_design(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    grid, model = build_grid(cfg), build_model(cfg)
    return harness.ScalarDesign.build(cfg, grid, model, build_kernel(cfg)), grid


def test_shipped_designs_match_their_closed_forms():
    # a dot product of n positive terms is within n eps relative of its value
    eps = np.finfo(float).eps

    # linear_white: phi(t) = t, theta0 = 2, white noise, d_T norming.  G = h w.t^2 is
    # the trapezoid rule of t^2, whose error is h^2 T / 6; c = h w.(t 2t) = 2G; the
    # norming entry is sqrt(h w.t^2) = sqrt(G); u = h w t / sqrt(h), so with w = 1/2
    # at the two ends only and phi(0) = 0, ||u||^2 = h w^2.t^2 = G - h T^2 / 4
    design, grid = _shipped_design("linear_white")
    T, h, n = grid.T, grid.h, grid.n_nodes
    assert design.gram == pytest.approx(T ** 3 / 3 + h * h * T / 6, rel=n * eps)
    assert (design.c, design.theta0) == (2.0 * design.gram, 2.0)
    assert design.scale == pytest.approx(math.sqrt(design.gram), rel=n * eps)
    # scale, ||u|| and G each carry n eps, the square roots half of it, so 2n eps in all
    ratio = design.scale * math.sqrt(float(design.u @ design.u)) / design.gram
    assert ratio == pytest.approx(math.sqrt(1 - h * T * T / (4 * design.gram)), rel=(2 * n + 4) * eps)
    assert round(ratio, 5) == 0.99985

    # exp_filtered: e^theta with phi = 1, theta0 = 0, s_T norming, so G = h w.1 = T and
    # c = G; s - c is the trapezoid integral of the noise over [0, T], whose variance
    # for B(t) = e^-|t| / 2 is T - 1 + e^-T.  Euler-Maclaurin: the cell-average taps
    # give the nodes the covariance (1 - h^2/12) B, and the trapezoid rule over B's
    # kink at t = s adds (T - 2) h^2 / 12, so ||u||^2 = T - 1 + e^-T - h^2/12 + O(h^4).
    # Cutting psi at H moves B by at most e^-H / 2, the double integral by T^2 e^-H / 2
    design, grid = _shipped_design("exp_filtered")
    T, h, n = grid.T, grid.h, grid.n_nodes
    horizon = build_kernel(load_config(CONFIGS / "exp_filtered.json")).truncation_horizon
    assert design.gram == pytest.approx(T, rel=n * eps)
    assert (design.c, design.theta0, design.scale) == (design.gram, 0.0, math.sqrt(T))
    norm_sq = float(design.u @ design.u)
    tol = T * T * math.exp(-horizon) / 2 + h ** 4
    assert abs(norm_sq - (T - 1 + math.exp(-T) - h * h / 12)) <= tol
    assert math.sqrt(norm_sq) / design.gram == pytest.approx(
        0.14, abs=(h * h / 12 + math.exp(-T) + tol) / (2 * math.sqrt(T - 1) * T) + n * eps)


@pytest.mark.parametrize("name", ["exp_filtered", "linear_white"])
def test_shipped_configs_build_no_path_and_call_no_path_fit(name, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a separable model built a path or ran the path fit")

    monkeypatch.setattr(harness, "noise_path", never)
    monkeypatch.setattr(harness, "lse_fit", never)
    monkeypatch.setattr(estimator, "_gauss_newton", never)
    cfg = load_config(CONFIGS / f"{name}.json")
    cfg = dataclasses.replace(cfg, montecarlo=dataclasses.replace(cfg.montecarlo, n_trials=20))
    trials = run_trials(cfg)
    assert trials.size == 20 and np.all(trials["n_starts"] == 1)


def test_cosine_regressors_keep_the_path_route(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a model without a scalar form took the one-number route")

    fits = []

    def counted(*args):
        fits.append(None)
        return lse_fit(*args)

    monkeypatch.setattr(harness.ScalarDesign, "build", never)
    monkeypatch.setattr(harness, "lse_fit", counted)
    cfg = config_from_dict({
        "model": {"name": "exp_inner", "parameters": {"regressors": "cosine"},
                  "box": {"lower": [-0.5, -0.5], "upper": [0.5, 0.5]}, "theta_true": [0.1, -0.2]},
        "noise": {"driver": "gaussian", "kernel": {"form": "exponential", "rate": 1.0}},
        "grid": {"T": 10.0, "n_steps": 500},
        "norming": "s_T",
        "montecarlo": {"n_trials": 10, "master_seed": 7, "R_grid": [0.0, 1.0]},
    })
    assert build_model(cfg).scalar is None
    assert run_trials(cfg).size == 10 == len(fits)


def _exp_filtered_shaped(n_trials):
    # exp_filtered on a shorter grid: constant regressor, Rademacher driver,
    # exponential kernel, s_T norming
    doc = json.loads((CONFIGS / "exp_filtered.json").read_text())
    doc["grid"] = {"T": 10.0, "n_steps": 1000}
    doc["montecarlo"]["n_trials"] = n_trials
    return doc


def _assert_trials_replay(cfg):
    trials = run_trials(cfg)
    for i in (0, 1, 17, 59):
        assert _same_rows(harness._run_chunk(cfg, i, i + 1), trials[i:i + 1])


def test_one_number_trial_replays_from_its_index():
    _assert_trials_replay(config_from_dict(_exp_filtered_shaped(60)))


def test_path_trial_replays_from_its_index():
    _assert_trials_replay(_route_config("path", "rademacher", {"form": "exponential", "rate": 2.0}))


def test_run_trials_memory_per_trial_is_bounded():
    # a run keeps one 22-byte row per trial and its chunk's columns, not a
    # record object per trial (about 290 B each)
    cfg = _linear_white_config(n_trials=20_000, n_steps=50)
    run_trials(dataclasses.replace(cfg, montecarlo=dataclasses.replace(cfg.montecarlo, n_trials=100)))
    tracemalloc.start()
    try:
        trials = run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trials.size == 20_000
    assert peak <= 100 * 20_000


def test_too_many_nonconverged_trials_exit_3_naming_them(tmp_path, monkeypatch, capsys):
    # two failed fits of 100 trials break the 1% rule; the message names both
    # trials with the seeds that replay them
    cfg = _route_config("path", "gaussian", None, n_trials=100)
    assert build_model(cfg).scalar is None
    failing = (7, 61)
    seeds = [derive_seed(cfg.montecarlo.master_seed, STREAM_TRIALS, i) for i in failing]
    fits = []

    def fit(obs, model):
        fits.append(None)
        if len(fits) - 1 in failing:
            raise NonConvergenceError("capped", best_point=(0.1, -0.2))
        return lse_fit(obs, model)

    monkeypatch.setattr(harness, "lse_fit", fit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert cli.main(["tails", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "2 of 100 trials failed to converge" in err
    for i, seed in zip(failing, seeds):
        assert f"{i} (seed {seed})" in err


def test_one_number_tails_bytes_do_not_depend_on_workers(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_exp_filtered_shaped(200)))
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    for out, workers in ((out1, "1"), (out2, "2")):
        assert cli.main(["tails", "--config", str(cfg_path), "--out", str(out),
                         "--workers", workers]) == 0
    for name in ("tails.csv", "tails_meta.json", "tails_plot.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- tail estimation ---------------------------------------------------------------


def test_clopper_pearson_zero_count_closed_form():
    low, high = clopper_pearson(0, 100)
    assert low == 0.0
    # closed form for k = 0: 1 - alpha_half^(1/n)
    assert high == pytest.approx(1.0 - 0.025 ** (1.0 / 100.0), abs=1e-12)
    assert high == pytest.approx(0.03621669264517646, abs=1e-12)
    # beta-quantile oracle
    assert high == pytest.approx(float(beta_dist.ppf(0.975, 1, 100)), abs=1e-14)


def test_clopper_pearson_full_count():
    low, high = clopper_pearson(100, 100)
    assert high == 1.0
    assert low == pytest.approx(0.025 ** (1.0 / 100.0), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 33, 100, 900, 1000, 3159, 4500, 5000, 9490,
                               10_000, 100_000, 1_000_000])
def test_clopper_pearson_matches_beta_quantiles(n):
    rng = np.random.default_rng(n)
    ks = sorted({0, 1, 2, 3, n - 1, n, *rng.integers(0, n + 1, 30).tolist()} & set(range(n + 1)))
    rel = 1e-13 if n <= 10_000 else 1e-10
    limits = np.array([clopper_pearson(k, n) for k in ks])
    reference = np.array([
        [betaincinv(k, n - k + 1, 0.025) if k > 0 else 0.0,
         betaincinv(k + 1, n - k, 0.975) if k < n else 1.0] for k in ks])
    np.testing.assert_allclose(limits, reference, rtol=rel, atol=0)
    assert np.all(np.diff(limits, axis=0) > 0)  # both limits increase with k
    assert np.all((limits[:, 0] <= np.array(ks) / n) & (np.array(ks) / n <= limits[:, 1]))


def _exact_binomial_tail(k, n, x):
    """P(Bin(n, x) >= k) and k P(Bin(n, x) = k) / x at the float x, summed in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        p = decimal.Decimal(x)
        q = 1 - p
        terms = [q ** n]
        for j in range(n):
            terms.append(terms[-1] * (n - j) * p / ((j + 1) * q))
        return float(sum(terms[k:])), float(k * terms[k] / p)


@pytest.mark.parametrize("n", [2, 5, 33, 100, 900, 4500])
def test_binomial_tail_matches_an_exact_sum(n):
    rng = np.random.default_rng(n)
    ks = sorted({1, 2, 63, 64, 65, 66, n // 2, n - 1, n} & set(range(1, n + 1)))
    checked = 0
    for k in ks:
        # where the summed side switches, on both sides of (k + 1)/(n + 3),
        # where a beta continued fraction in x would hand over, and at random points
        xs = [k / (n + 1), (k + 1) / (n + 3) * (1 - 1e-9), (k + 1) / (n + 3) * (1 + 1e-9),
              *rng.uniform(0.0, 1.0, 3).tolist()]
        for x in xs:
            tail, slope = harness._binomial_tail(k, n, x)
            exact_tail, exact_slope = _exact_binomial_tail(k, n, x)
            if exact_tail > 1e-300:
                assert tail == pytest.approx(exact_tail, rel=1e-12, abs=0), (k, x)
                checked += 1
            if exact_slope > 1e-300:
                assert slope == pytest.approx(exact_slope, rel=1e-12, abs=0), (k, x)
    assert checked >= 2 * len(ks)


def test_clopper_pearson_coverage():
    rng = np.random.default_rng(17)
    n = 200
    for p in (0.01, 0.1, 0.5):
        covered = 0
        for _ in range(1000):
            k = rng.binomial(n, p)
            low, high = clopper_pearson(int(k), n)
            covered += low <= p <= high
        assert covered >= 930, f"coverage {covered}/1000 at p={p}"


def test_estimate_tail_basic_shape():
    rng = np.random.default_rng(0)
    devs = np.abs(rng.standard_normal(5000))
    r = np.array([0.0, 0.5, 1.0, 2.0])
    tail = estimate_tail(devs, r)
    assert tail.p_hat[0] == 1.0
    assert np.all(np.diff(tail.counts) <= 0)
    assert np.all(tail.ci_low <= tail.p_hat) and np.all(tail.p_hat <= tail.ci_high)
    np.testing.assert_array_equal(tail.counts / tail.n_trials, tail.p_hat)


def test_estimate_tail_order_invariant():
    rng = np.random.default_rng(4)
    devs = np.abs(rng.standard_normal(1000))
    r = np.array([0.2, 0.8, 1.6])
    a = estimate_tail(devs, r)
    b = estimate_tail(rng.permutation(devs), r)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.ci_low, b.ci_low)
    assert a.fitted_rate == b.fitted_rate


def test_estimate_tail_contracts():
    devs = np.abs(np.random.default_rng(0).standard_normal(500))
    with pytest.raises(ContractError):
        estimate_tail(devs[:50], np.array([1.0]))
    with pytest.raises(ContractError):
        estimate_tail(devs, np.array([]))
    with pytest.raises(ContractError):
        estimate_tail(devs, np.array([1.0, 0.5]))


def test_fitted_rate_half_normal():
    rng = np.random.default_rng(8)
    devs = np.abs(rng.standard_normal(100_000))
    r = np.array([2.0, 2.25, 2.5, 2.75, 3.0])
    tail = estimate_tail(devs, r)
    assert np.all(tail.counts >= 10)
    assert 0.40 <= tail.fitted_rate <= 0.60


def test_fitted_rate_excludes_sparse_levels():
    counts = np.array([5000, 50, 3])
    r = np.array([0.5, 1.0, 3.0])
    rate = fit_exceedance_rate(r, counts, 10_000)
    dense = fit_exceedance_rate(r[:2], counts[:2], 10_000)
    assert rate == pytest.approx(dense)


def test_compare_with_envelope_calibrated_passes():
    rng = np.random.default_rng(9)
    devs = np.abs(rng.standard_normal(20_000))
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    consts = BoundConstants(q=1, c0=1.0, f0=1.0 / (2 * math.pi), beta=0.0)  # b = 1/16
    p_hat = np.array([(devs >= x).mean() for x in r])
    consts = dataclasses.replace(consts, b_cal=calibrate_prefactor(p_hat, r, consts.b))
    tail = estimate_tail(devs, r)
    cmp = compare_with_envelope(tail, consts)
    assert cmp.overall_pass
    assert cmp.rate_ok  # half-normal rate 1/2 >= 1/16
    assert np.all(cmp.level_ok)
    # the envelope is clipped to a probability
    assert compare_with_envelope(tail, dataclasses.replace(consts, b_cal=3.0)).envelope[0] == 1.0


def test_compare_with_envelope_adversarial_fails():
    devs = np.full(500, 10.0)
    r = np.array([1.0, 2.0])
    consts = BoundConstants(q=1, c0=8.0, f0=0.5 / (2 * math.pi), beta=0.0, b_cal=1.0)  # b = 1
    tail = estimate_tail(devs, r)
    cmp = compare_with_envelope(tail, consts)
    assert list(cmp.envelope) == [math.exp(-1.0), math.exp(-4.0)]
    assert not cmp.level_ok.all()
    assert not cmp.overall_pass
    assert cmp.b_cert < consts.b
    # a calibrated prefactor of 0 (no training trial reached a level) certifies
    # no rate, and says so without a log(0) warning
    assert compare_with_envelope(tail, dataclasses.replace(consts, b_cal=0.0)).b_cert == -math.inf
    # no level with R > 0 has a positive lower limit, so none certifies a rate
    assert compare_with_envelope(estimate_tail(np.zeros(500), r), consts).b_cert is None


# -- MGF checker ---------------------------------------------------------------


def _spike(grid):
    # check's unit-norm node spike: one nonzero driver coefficient
    spike = np.zeros(grid.n_nodes)
    spike[grid.n_nodes // 2] = 1.0 / math.sqrt(grid.h)
    return spike


def test_mgf_at_zero_is_exactly_one():
    g = TimeGrid(1.0, 50)
    rep = mgf_check("gaussian", np.ones(g.n_nodes), g, 1.0, np.array([0.0]), 5)
    assert rep.empirical_mean[0] == 1.0
    assert rep.overall_pass


def test_mgf_gaussian_white_matches_exact_mgf():
    # I ~ N(0, h * sum w^2) with trapezoid weights w, so E exp(lam I) = exp(lam^2 (T - h/2) / 2)
    g = TimeGrid(1.0, 100)
    lam = np.array([0.5, 1.0, 1.5])
    rep = mgf_check("gaussian", np.ones(g.n_nodes), g, 1.0, lam, 6)
    np.testing.assert_allclose(rep.exact_mean, np.exp(0.5 * lam ** 2 * (1.0 - g.h / 2)),
                               rtol=1e-12)
    np.testing.assert_allclose(rep.envelope, np.exp(0.5 * lam ** 2 * 1.0), rtol=1e-12)
    assert rep.overall_pass


@pytest.mark.parametrize("driver", DRIVER_KINDS)
def test_mgf_sampler_estimates_the_exact_mgf(driver):
    # ties sample_driver to its law: the replication mean of exp(lam I) lies
    # within 4 standard errors of the exact MGF, the standard error itself
    # exact from the MGF at 2 lam (finite here for every driver: 2 lam u = 0.2)
    g = TimeGrid(1.0, 100)
    lam = np.array([0.5, 1.0])
    rep = mgf_check(driver, np.ones(g.n_nodes), g, 1.0, lam, 31)
    u = trapezoid_weights(g) * math.sqrt(g.h)
    for j, x in enumerate(lam):
        exact = math.exp(driver_log_mgf(driver, x * u).sum())
        assert rep.exact_mean[j] == pytest.approx(exact, rel=1e-12)
        second = math.exp(driver_log_mgf(driver, 2 * x * u).sum())
        se = math.sqrt((second - exact ** 2) / MGF_DEFAULT_REPS)
        assert abs(rep.empirical_mean[j] - exact) <= 4 * se, (driver, x)


def test_mgf_random_weights_pass_for_gaussian():
    g = TimeGrid(1.0, 100)
    rng = np.random.default_rng(10)
    delta = rng.standard_normal(g.n_nodes)
    lam_max = math.sqrt(8.0 / max(np.trapezoid(delta ** 2, dx=g.h), 1e-9))
    rep = mgf_check("gaussian", delta, g, 1.0, np.array([0.3, 0.9]) * lam_max, 11)
    assert rep.overall_pass


def test_mgf_negative_control_fails_on_margin():
    g = TimeGrid(1.0, 100)
    rep = mgf_check("centered_exponential", _spike(g), g, 1.0, np.array([0.5, 1.5, 2.0]), 12)
    assert not rep.overall_pass
    assert not rep.per_lambda_pass[-1]


@pytest.mark.parametrize("kernel", [None, FilterKernel.exponential(1.0)])
def test_mgf_negative_control_fails_on_flat_weight(kernel):
    # check's flat weight and lambda grid on the check-filtered grid (T = 50,
    # N = 2501): the exact log-MGF of the centered exponential exceeds the
    # envelope's 3.61 at the top lambda, raw and through the filter
    g = TimeGrid(50.0, 2500)
    d0 = 1.0 if kernel is None else 2 * math.pi * f0_sup(kernel)
    lam = np.array([0.0, 0.3, 0.6, 0.95]) * math.sqrt(8.0 / (d0 * g.T))
    rep = mgf_check("centered_exponential", np.ones(g.n_nodes), g, d0, lam, 13, kernel=kernel)
    assert math.log(rep.envelope[-1]) == pytest.approx(3.61, rel=1e-12)
    assert math.log(rep.exact_mean[-1]) == pytest.approx(3.744 if kernel is None else 3.668,
                                                         abs=5e-4)
    assert rep.per_lambda_pass[0] and not rep.per_lambda_pass[-1]
    assert not rep.overall_pass


@pytest.mark.parametrize("driver", DRIVER_KINDS)
def test_drivers_are_strictly_sub_gaussian_on_check_weights(driver):
    # the paper's strict sub-Gaussianity, log E exp(lambda I) <= lambda^2 Var(I) / 2
    # with Var(I) = ||u||^2 for I = u @ z, on check's flat, spike and filtered
    # weights (check-filtered grid) and lambda * max|u| = +-1e-3 .. +-30; the
    # centered exponential, check's negative control, breaks it
    g = TimeGrid(50.0, 2500)
    worst = 0.0
    for delta, kernel in ((np.ones(g.n_nodes), None), (_spike(g), None),
                          (np.ones(g.n_nodes), FilterKernel.exponential(1.0))):
        u = driver_weights(trapezoid_weights(g) * g.h * delta, g, kernel)
        u = u[u != 0.0]
        for x in np.geomspace(1e-3, 30.0, 25):
            for lam in (x / np.abs(u).max(), -x / np.abs(u).max()):
                ratio = driver_log_mgf(driver, lam * u).sum() / (0.5 * lam ** 2 * (u @ u))
                worst = max(worst, ratio)
    if driver == "centered_exponential":
        assert worst == math.inf
    else:
        assert worst <= 1.0 + 1e-12


def test_mgf_verdict_stays_exact_past_float_range():
    # no cap on lambda: at exponent 3200 both exponentials overflow to inf, and
    # the verdict, taken on the logarithms, still passes with no warning
    g = TimeGrid(4.0, 100)
    lam = np.array([3.0, 40.0])
    rep = mgf_check("gaussian", np.ones(g.n_nodes), g, 1.0, lam, 0)
    assert rep.overall_pass
    assert rep.envelope[0] == pytest.approx(math.exp(18.0), rel=1e-12)
    assert rep.envelope[1] == math.inf and rep.exact_mean[1] == math.inf
    assert np.all(np.isfinite(rep.empirical_mean))


def test_mgf_replications_are_whole_even_blocks():
    # an even block continues the Rademacher words' stream, and whole blocks
    # leave no short last one
    assert MGF_BLOCK % 2 == 0 and MGF_DEFAULT_REPS % MGF_BLOCK == 0
    assert cli.MGF_DEFAULT_REPS is MGF_DEFAULT_REPS


@pytest.mark.parametrize("kernel", [None, FilterKernel.exponential(1.0)])
def test_mgf_zero_weight_is_a_contract_error(kernel, monkeypatch):
    g = TimeGrid(1.0, 10)

    def no_draws(*args):
        raise AssertionError("drew driver values for a zero weight")

    monkeypatch.setattr(harness, "sample_driver", no_draws)
    with pytest.raises(ContractError, match="weight delta"):
        mgf_check("gaussian", np.zeros(g.n_nodes), g, 1.0, np.array([0.1]), 0, kernel=kernel)


@pytest.mark.parametrize("driver", DRIVER_KINDS)
def test_mgf_replications_are_rows_of_one_stream(driver):
    # 101 nodes: an odd count per row, so a row boundary splits the 64-bit words
    # that 32-bit draws are taken from; the reference is one call of the law's
    # Generator method on default_rng at the check's stream seed
    g = TimeGrid(1.0, 100)
    lam = np.array([0.5, 1.0])
    rep = mgf_check(driver, np.ones(g.n_nodes), g, 1.0, lam, 21)
    rng = np.random.default_rng(derive_seed(21, STREAM_MGF, 0))
    z = REFERENCE_DRAWS[driver](rng, MGF_DEFAULT_REPS * g.n_nodes).reshape(-1, g.n_nodes)
    samples = z @ (trapezoid_weights(g) * np.sqrt(g.h))
    expected = np.exp(np.outer(lam, samples)).mean(axis=1)
    np.testing.assert_allclose(rep.empirical_mean, expected, rtol=1e-12, atol=0.0)


def _rademacher_mgf_means_by_integers(delta, grid, lam, seed, kernel):
    # mgf_check's block loop with Rademacher values drawn through integers
    u = driver_weights(trapezoid_weights(grid) * grid.h * delta, grid, kernel)
    u = u[u != 0.0]
    rng = np.random.default_rng(derive_seed(seed, STREAM_MGF, 0))
    samples = np.concatenate([
        REFERENCE_DRAWS["rademacher"](rng, MGF_BLOCK * u.size).reshape(MGF_BLOCK, u.size) @ u
        for _ in range(MGF_DEFAULT_REPS // MGF_BLOCK)])
    means = np.empty(lam.size)
    with np.errstate(over="ignore"):
        for j, x in enumerate(lam):
            vals = np.exp(x * samples)
            means[j] = vals.mean() if np.all(np.isfinite(vals)) else math.inf
    return means


@pytest.mark.parametrize("weight", ["flat", "spike", "filtered"])
def test_mgf_rademacher_replications_match_integers_bit_for_bit(weight):
    # 101 nodes: the flat and filtered rows have odd counts
    g = TimeGrid(1.0, 100)
    delta = _spike(g) if weight == "spike" else np.ones(g.n_nodes)
    kernel = FilterKernel.exponential(1.0) if weight == "filtered" else None
    lam = np.array([0.5, 1.5, 2.0])
    rep = mgf_check("rademacher", delta, g, 1.0, lam, 17, kernel=kernel)
    assert np.all(rep.empirical_mean == _rademacher_mgf_means_by_integers(delta, g, lam, 17, kernel))


def test_mgf_filtered_peak_memory_stays_below_a_megabyte():
    # replications are drawn MGF_BLOCK rows at a time: at N = 2501 a row of a
    # filtered weight's draws is 3,501 values, and the block's arrays stay small
    kernel = FilterKernel.exponential(1.0)
    grid = TimeGrid(50.0, 2500)
    lam = np.array([0.0, 0.3, 0.6, 0.95]) * math.sqrt(8.0 / grid.T)
    args = ("rademacher", np.ones(grid.n_nodes), grid, 1.0, lam, 5)
    mgf_check(*args, kernel=kernel)  # builds the taps
    tracemalloc.start()
    try:
        mgf_check(*args, kernel=kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_mgf_spike_draws_only_its_support():
    lam = np.array([0.5, 1.5, 2.0])
    reports = []
    for g in (TimeGrid(1.0, 100), TimeGrid(2.0, 200)):
        # the spike sits on node 50, then node 100
        reports.append(mgf_check("rademacher", _spike(g), g, 1.0, lam, 4))
    short, long = reports
    for name in ("lambda_grid", "empirical_mean", "exact_mean", "envelope", "per_lambda_pass"):
        assert np.array_equal(getattr(short, name), getattr(long, name)), name
    assert (short.overall_pass, short.n_rep) == (long.overall_pass, long.n_rep)


def test_check_draws_mgf_replications_in_blocks(tmp_path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_driver(*args)

    monkeypatch.setattr(harness, "sample_driver", counting)
    doc = {
        "model": {"name": "linear", "box": {"lower": [0.0], "upper": [5.0]},
                  "theta_true": [2.0]},
        "noise": {"driver": "gaussian", "kernel": {"form": "exponential", "rate": 1.0}},
        "grid": {"T": 1.0, "n_steps": 100},
        "norming": "d_T",
        "montecarlo": {"n_trials": 200, "master_seed": 3, "R_grid": [0.0, 1.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert {"mgf_raw", "mgf_raw_margin", "mgf_filtered"} <= report.keys()
    # 1,250 blocks for each of the three weights: raw flat, spike and filtered flat
    assert len(calls) == 3_750


# -- quadratic form ---------------------------------------------------------------


def test_quadratic_form_zero_weight():
    k = FilterKernel.exponential(1.0)
    g = TimeGrid(2.0, 40)
    assert quadratic_form(covariance_row(k, g), np.zeros(g.n_nodes), g) == 0.0


def test_quadratic_form_check_exponential_kernel():
    k = FilterKernel.exponential(1.0)
    g = TimeGrid(30.0, 600)
    f0 = f0_sup(k)
    # the verdict is the simulated spectrum's supremum against the kernel's
    sim = f0_sim(k, g.h)
    assert sim <= f0 * (1 + 1e-3)
    rep = quadratic_form_check(k, g, f0, sim)
    assert rep.passed
    assert not quadratic_form_check(k, g, sim / (1 + 2e-3), sim).passed
    # sup_t integral of |B(t-s)| ds over a long window approaches integral of B = 1
    assert rep.b2 == pytest.approx(1.0, abs=1e-3)

    # the matrix-free products against the dense N x N covariance matrix
    cov = covariance_row(k, g)
    B = cov[np.abs(np.subtract.outer(np.arange(g.n_nodes), np.arange(g.n_nodes)))]
    w = np.ones(g.n_nodes)
    w[[0, -1]] = 0.5
    assert rep.b1 == pytest.approx(math.sqrt(g.h ** 2 * (w @ (B * B) @ w)), rel=1e-12)
    assert rep.b2 == pytest.approx((g.h * np.abs(B) @ w).max(), rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(5):
        delta = rng.standard_normal(g.n_nodes)
        wd = w * delta
        dense = g.h ** 2 * (wd @ B @ wd)
        assert quadratic_form(cov, delta, g) == pytest.approx(dense, rel=1e-12)


def test_quadratic_form_check_fails_where_the_simulated_spectrum_overshoots():
    # a signed table whose taps at h = 0.3 peak 5% above the kernel's f0: no
    # smooth weight sees it, a cosine at the taps' peak frequency does
    k = FilterKernel.tabulated([0.0, 0.228, 1.023, 1.339], [-1.935, -1.097, 1.187, -1.597])
    g = TimeGrid(30.0, 100)
    f0 = f0_sup(k)
    sim = f0_sim(k, g.h)
    assert not quadratic_form_check(k, g, f0, sim).passed
    assert sim / f0 == pytest.approx(1.050, abs=1e-3)
    taps = k.taps(g.h)
    lam = np.linspace(0.0, math.pi / g.h, 20_001)
    power = np.abs(np.exp(-1j * g.h * np.outer(lam, np.arange(taps.size))) @ taps) ** 2
    delta = np.cos(lam[power.argmax()] * g.nodes)
    form = quadratic_form(covariance_row(k, g), delta, g)
    assert form >= 1.03 * 2 * math.pi * f0 * integrate(delta * delta, g)
