"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated after the fact.
"""

import math
import time

import numpy as np
import pytest

import regtails.cli as cli
from regtails.bounds import BoundConstants
from regtails.config import BasisConfig, config_from_dict
from regtails.errors import ContractError
from regtails.estimator import Observation, lse_fit
from regtails.harness import (
    STREAM_TRIALS,
    compare_with_envelope,
    derive_seed,
    estimate_tail,
    mgf_check,
    quadratic_form_check,
    run_trials,
)
from regtails.model import (
    ParameterBox,
    constant_regressors,
    estimate_equivalence_constants,
    exp_inner_model,
    exp_model_constants,
    linear_model,
    norming_vector,
)
from regtails.noise import (
    FilterKernel,
    covariance_of_filter,
    f0_sim,
    f0_sup,
    ito_nisio_path,
    spectral_density,
    white_noise_path,
)
from regtails.numerics import TimeGrid
from regtails import bounds


def _report(num: int, ok: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit ({elapsed:.1f}s)"


def test_criterion_01_zero_noise_identifiability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    lin = linear_model(ParameterBox((0.0,), (5.0,)))
    g_lin = TimeGrid(3.0, 300)
    for _ in range(20):
        theta = rng.uniform(0.25, 4.75)
        obs = Observation(grid=g_lin, x_values=lin.eval(g_lin.nodes, np.array([theta])))
        res = lse_fit(obs, lin)
        worst = max(worst, abs(res.theta_hat[0] - theta))
    expm = exp_inner_model(constant_regressors(1), ParameterBox((-0.5,), (0.5,)))
    g_exp = TimeGrid(1.0, 100)
    for _ in range(20):
        theta = rng.uniform(-0.45, 0.45)
        obs = Observation(grid=g_exp, x_values=expm.eval(g_exp.nodes, np.array([theta])))
        res = lse_fit(obs, expm)
        worst = max(worst, abs(res.theta_hat[0] - theta))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-6, elapsed, 30.0, f"max recovery error {worst:.2e} <= 1e-6")


def test_criterion_02_linear_oracle_equivalence():
    t0 = time.perf_counter()
    lin = linear_model(ParameterBox((0.0,), (5.0,)))
    g = TimeGrid(25.0, 2500)
    worst = 0.0
    n_interior = 0
    for i in range(100):
        eps = white_noise_path("gaussian", g, np.random.PCG64(derive_seed(77, STREAM_TRIALS, i)))
        x = lin.eval(g.nodes, np.array([2.0])) + eps
        obs = Observation(grid=g, x_values=x)
        res = lse_fit(obs, lin)
        closed = np.trapezoid(g.nodes * x, dx=g.h) / np.trapezoid(g.nodes ** 2, dx=g.h)
        if 0.0 < closed < 5.0:
            n_interior += 1
            worst = max(worst, abs(res.theta_hat[0] - closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and n_interior == 100
    _report(2, ok, elapsed, 60.0,
            f"max |lse - normal equations| = {worst:.2e} over {n_interior} interior instances")


def test_criterion_03_exact_tail_cross_check():
    t0 = time.perf_counter()
    cfg = config_from_dict({
        "model": {"name": "linear", "box": {"lower": [0.0], "upper": [5.0]},
                  "theta_true": [2.0]},
        "noise": {"driver": "gaussian", "kernel": None},
        "grid": {"T": 25.0, "n_steps": 2500},
        "norming": "d_T",
        "montecarlo": {"n_trials": 20_000, "master_seed": 31415,
                       "R_grid": [0.5, 1.0, 1.5, 2.0, 2.5]},
        "bounds": {"c0": 1.0},
    })
    tail = estimate_tail(run_trials(cfg)["deviation"], np.asarray(cfg.montecarlo.R_grid))
    details = []
    ok = True
    for i, r in enumerate(tail.r_grid):
        exact = math.erfc(r / math.sqrt(2.0))  # 2 * (1 - Phi(R)) for a standard normal
        inside = tail.ci_low[i] <= exact <= tail.ci_high[i]
        ok = ok and inside
        details.append(f"R={r}: p_hat={tail.p_hat[i]:.4f} exact={exact:.4f} in-band={inside}")
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 300.0, "; ".join(details))


@pytest.mark.parametrize("driver", ["gaussian", "rademacher"])
def test_criterion_04_envelope_domination(driver):
    t0 = time.perf_counter()
    r_grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]
    cfg = config_from_dict({
        "model": {"name": "exp_inner", "parameters": {"regressors": "constant"},
                  "box": {"lower": [-0.5], "upper": [0.5]}, "theta_true": [0.0]},
        "noise": {"driver": driver, "kernel": {"form": "exponential", "rate": 1.0}},
        "grid": {"T": 50.0, "n_steps": 5000},
        "norming": "s_T",
        "montecarlo": {"n_trials": 20_000, "master_seed": 271828, "R_grid": r_grid},
    })
    model = cli.build_model(cfg)
    grid = cli.build_grid(cfg)
    kernel = cli.build_kernel(cfg)
    f0 = f0_sup(kernel)
    assert f0 == pytest.approx(1.0 / (2 * math.pi), rel=1e-5)
    norming = cli.build_norming(cfg, model, grid)
    c0_hat, _ = estimate_equivalence_constants(model, (0.0,), grid, norming,
                                               derive_seed(cfg.montecarlo.master_seed, 4, 0))
    consts = BoundConstants(q=1, c0=c0_hat, f0=f0)

    tail = estimate_tail(run_trials(cfg)["deviation"], np.asarray(r_grid))
    cmp = compare_with_envelope(tail, consts)
    dense = tail.counts >= 10
    dominated = bool(np.all(cmp.level_ok[dense]))
    rate_ok = tail.fitted_rate >= consts.b
    elapsed = time.perf_counter() - t0
    _report(4, dominated and rate_ok, elapsed, 600.0,
            f"driver={driver}: b={consts.b:.4f} c0_hat={c0_hat:.4f} "
            f"B_needed={cmp.B_needed:.3f} fitted_rate={tail.fitted_rate:.3f} "
            f"levels>=10 dominated={dominated}")


def test_criterion_05_example_constants():
    t0 = time.perf_counter()
    box = ParameterBox((-0.5,), (0.5,))
    model = exp_inner_model(constant_regressors(1), box)
    grid = TimeGrid(1.0, 100)
    consts = exp_model_constants(constant_regressors(1), box, grid)
    hand_ok = (
        abs(consts.J_T[0, 0] - 1.0) <= 1e-6
        and abs(consts.H - math.exp(0.5)) <= 1e-6
        and abs(consts.L - math.exp(-0.5)) <= 1e-6
    )
    norming = norming_vector("s_T", model, (0.0,), grid)
    c0_hat, c1_hat = estimate_equivalence_constants(model, (0.0,), grid, norming, seed=55)
    lo = consts.L ** 2 * (consts.lambda_min - 0.01)
    hi = consts.H ** 2 * (float(np.trace(consts.J_T)) + 0.01)
    bracket_ok = lo <= c0_hat <= c1_hat <= hi
    elapsed = time.perf_counter() - t0
    _report(5, hand_ok and bracket_ok, elapsed, 60.0,
            f"J={consts.J_T[0,0]:.8f} H={consts.H:.8f} L={consts.L:.8f}; "
            f"ratios [{c0_hat:.5f}, {c1_hat:.5f}] within [{lo:.5f}, {hi:.5f}]")


def test_criterion_06_spectral_covariance_closed_forms():
    t0 = time.perf_counter()
    ok = True
    details = []
    for a in (0.5, 1.0, 2.0):
        k = FilterKernel.exponential(a)
        f0_exact = 1.0 / (2 * math.pi * a * a)
        b0, b1 = covariance_of_filter(k, np.array([0.0, 1.0]))
        checks = {
            "f(0)": (spectral_density(k, 0.0), f0_exact),
            "f0_sup": (f0_sup(k), f0_exact),
            "B(0)": (b0, 1.0 / (2 * a)),
            "B(1)": (b1, math.exp(-a) / (2 * a)),
        }
        for name, (got, want) in checks.items():
            rel = abs(got - want) / abs(want)
            ok = ok and rel <= 1e-5
        grid = TimeGrid(30.0, 600)
        sim = f0_sim(k, grid.h)
        ok = ok and quadratic_form_check(k, grid, f0_exact, sim).passed
        details.append(f"a={a}: closed forms ok, qf f0_sim/f0={sim / f0_exact:.9f}")
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, 60.0, "; ".join(details))


def test_criterion_07_sub_gaussianity_discrimination():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 100)
    flat = np.ones(grid.n_nodes)
    kernel = FilterKernel.exponential(1.0)
    d0_filtered = 2 * math.pi * f0_sup(kernel)
    lam_raw = np.array([0.0, 0.5, 1.5, 2.8])
    lam_filtered = lam_raw / math.sqrt(d0_filtered)
    results = []
    ok = True
    for drv in ("gaussian", "rademacher", "uniform_sqrt3"):
        raw = mgf_check(drv, flat, grid, 1.0, lam_raw, seed=701)
        filt = mgf_check(drv, flat, grid, d0_filtered, lam_filtered, seed=702, kernel=kernel)
        ok = ok and raw.overall_pass and filt.overall_pass
        results.append(f"{drv}: raw={raw.overall_pass} filtered={filt.overall_pass}")
    spike = np.zeros(grid.n_nodes)
    spike[grid.n_nodes // 2] = 1.0 / math.sqrt(grid.h)
    neg = mgf_check("centered_exponential", spike, grid, 1.0, np.array([0.5, 1.5, 2.0]), seed=703)
    ok = ok and not neg.overall_pass
    results.append(f"centered_exponential raw rejected={not neg.overall_pass}")
    elapsed = time.perf_counter() - t0
    _report(7, ok, elapsed, 300.0, "; ".join(results))


def test_criterion_08_series_construction_covariance():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 8)
    n_seeds = 10_000
    pairs = [(2, 4), (2, 6), (2, 8), (4, 6), (4, 8), (6, 8)]  # node indices, t = idx/8

    def covariances(n_terms):
        basis = BasisConfig(n_terms=n_terms, horizon=2.0)
        xs = np.array([ito_nisio_path("gaussian", basis, grid, np.random.PCG64(8000 + i))
                       for i in range(n_seeds)])
        out = []
        for a, b in pairs:
            prods = xs[:, a] * xs[:, b]
            out.append((float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(n_seeds))))
        return out

    est_1024 = covariances(1024)
    est_2048 = covariances(2048)
    ok = True
    details = []
    for (a, b), (emp, se), (emp2, _) in zip(pairs, est_1024, est_2048):
        s, t = grid.nodes[a], grid.nodes[b]
        target = min(s, t)
        within = abs(emp - target) <= 4 * se
        stable = abs(emp2 - emp) < se
        ok = ok and within and stable
        details.append(f"({s},{t}): {emp:.4f} vs {target} (4se={4*se:.4f}, shift={abs(emp2-emp):.2e})")
    elapsed = time.perf_counter() - t0
    _report(8, ok, elapsed, 300.0, "; ".join(details))


def test_criterion_09_bound_formula_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(1000):
        q = int(rng.integers(1, 5))
        c0 = float(rng.uniform(0.05, 5.0))
        f0 = float(rng.uniform(0.05, 5.0))
        a = bounds.stationary_rate(q, c0, f0, 0.0)
        b = bounds.exponent_rate(q, c0, 2 * math.pi * f0, 0.0)
        ok = ok and abs(a - b) <= 1e-14 * abs(b)
        consts = BoundConstants(q=q, c0=c0, f0=f0, beta=0.0)
        h = float(rng.uniform(0.1, 3.0))
        T = float(rng.uniform(1.5, 200.0))
        lhs = bounds.moderate_deviation_envelope(consts, h, T)
        rhs = bounds.tail_envelope(consts, h * math.sqrt(math.log(T)))
        ok = ok and abs(lhs - rhs) <= 1e-14 * max(abs(rhs), 1e-300)
        rho = float(rng.uniform(0.1, 2.0))
        nu = float(rng.uniform(0.0, 0.49))
        ok = ok and (bounds.consistency_envelope(consts, rho, nu, 2 * T)
                     <= bounds.consistency_envelope(consts, rho, nu, T))
    elapsed = time.perf_counter() - t0
    _report(9, ok, elapsed, 5.0, "rate consistency, log-level identity, T-monotonicity on 1000 draws")


def test_criterion_10_byte_identical_reproducibility(tmp_path):
    t0 = time.perf_counter()
    import json

    doc = {
        "model": {"name": "linear", "box": {"lower": [0.0], "upper": [5.0]},
                  "theta_true": [2.0]},
        "noise": {"driver": "gaussian", "kernel": None},
        "grid": {"T": 5.0, "n_steps": 500},
        "norming": "d_T",
        "montecarlo": {"n_trials": 2000, "master_seed": 424242,
                       "R_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]},
        "bounds": {"c0": "estimate"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    rc1 = cli.main(["tails", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"])
    rc8 = cli.main(["tails", "--config", str(cfg_path), "--out", str(out8), "--workers", "8"])
    ok = rc1 == 0 and rc8 == 0
    identical = []
    for name in ("tails.csv", "tails_meta.json", "tails_plot.tsv"):
        same = (out1 / name).read_bytes() == (out8 / name).read_bytes()
        identical.append(f"{name}={same}")
        ok = ok and same
    elapsed = time.perf_counter() - t0
    _report(10, ok, elapsed, 600.0, "workers 1 vs 8: " + ", ".join(identical))
