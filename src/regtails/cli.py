"""Batch command-line interface.

Subcommands:
    simulate    generate noise paths and a covariance-vs-theory summary
    tails       Monte-Carlo tail estimation and envelope comparison
    check       sub-Gaussianity / quadratic-form / constant verification
    constants   print the resolved bound constants without simulating

Exit codes: 0 success (a failed *verdict* is still a successful run),
2 configuration error, 3 runtime or convergence failure.

All outputs embed the resolved config and package version; numbers are
serialized with shortest round-trip representation so repeated runs with the
same config and master seed are byte-identical, independent of --workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CONSISTENCY_EXPONENT_NOTE, BoundConstants
from .config import (
    ExperimentConfig,
    as_seed,
    build_basis,
    build_grid,
    build_kernel,
    build_model,
    build_norming,
    config_to_dict,
    load_config,
)
from .errors import ConfigError, ContractError
from .harness import (
    MGF_DEFAULT_REPS,  # noqa: F401 - the benchmark reads it here
    MIN_TAIL_TRIALS,
    STREAM_MGF,
    STREAM_PATHS,
    STREAM_PAIRS,
    STREAM_TRIALS,
    compare_with_envelope,
    derive_seed,
    estimate_tail,
    index_streams,
    mgf_check,
    quadratic_form_check,
    run_trials,
)
from .model import estimate_equivalence_constants, exp_model_constants
from .noise import (
    WHITE_NOISE_F0,
    covariance_of_filter,
    f0_sim,
    f0_sup,
    ito_nisio_path,
    noise_path,
)

# -- deterministic serialization helpers -------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        # JSON has no infinity or nan: a non-finite value is written as its repr string
        return float(obj) if np.isfinite(obj) else repr(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _provenance_comment(cfg: ExperimentConfig) -> list[str]:
    compact = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return [f"# regtails {__version__}", f"# config: {compact}"]


def _write_rows(path: Path, cfg: ExperimentConfig, header: list[str],
                rows: list[list], sep: str):
    lines = _provenance_comment(cfg)
    lines.append(sep.join(header))
    for row in rows:
        lines.append(sep.join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, cfg: ExperimentConfig, payload: dict):
    doc = {"version": __version__, "config": config_to_dict(cfg)}
    doc.update(_jsonify(payload))
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# -- constants resolution -----------------------------------------------------


def _sample_pairs(cfg: ExperimentConfig, model, grid) -> tuple[float, float]:
    """c0_hat and c1_hat from the config's random parameter pairs, seeded by its master seed."""
    return estimate_equivalence_constants(
        model, cfg.model.theta_true, grid, build_norming(cfg, model, grid),
        derive_seed(cfg.montecarlo.master_seed, STREAM_PAIRS, 0))


def resolve_constants(cfg: ExperimentConfig, model, grid, kernel) -> tuple[BoundConstants, dict]:
    """Assemble the bound constants from config, spectrum, and pair sampling.

    The one place that decides f0, d0 and c0 for ``constants``, ``tails`` and
    ``check``.  ``extras`` says where each came from, with the sampled c0_hat
    and c1_hat, and with a kernel its ``f0_sim``: the spectral supremum of the
    simulated process on this grid, which no constant uses and ``check`` tests.
    """
    extras: dict = {}
    if cfg.bounds.f0 != "auto":
        f0 = cfg.bounds.f0
        extras["f0_source"] = "config"
    elif kernel is None:
        f0 = WHITE_NOISE_F0
        extras["f0_source"] = "white_noise"
    else:
        f0 = f0_sup(kernel)
        extras["f0_source"] = "kernel_spectrum"
    if kernel is not None:
        extras["f0_sim"] = f0_sim(kernel, grid.h)
    if cfg.bounds.c0 != "estimate":
        c0 = cfg.bounds.c0
        extras["c0_source"] = "config"
    else:
        c0_hat, c1_hat = _sample_pairs(cfg, model, grid)
        c0 = c0_hat
        extras.update(c0_source="pair_sampling", c0_hat=c0_hat, c1_hat=c1_hat)
    return BoundConstants(model.q, c0, f0), extras


# -- subcommands ---------------------------------------------------------------


def cmd_constants(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    model = build_model(cfg)
    grid = build_grid(cfg)
    kernel = build_kernel(cfg)
    consts, extras = resolve_constants(cfg, model, grid, kernel)
    payload = {
        "constants": _constants_dict(consts),
        "extras": extras,
        "notes": {"consistency_envelope": CONSISTENCY_EXPONENT_NOTE},
    }
    print(json.dumps(_jsonify(payload), sort_keys=True, indent=2))
    return 0


def _constants_dict(consts: BoundConstants) -> dict:
    return {
        "q": consts.q, "c0": consts.c0, "d0": consts.d0, "f0": consts.f0,
        "beta": consts.beta, "b": consts.b,
    }


def cmd_tails(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    n = cfg.montecarlo.n_trials
    if n < MIN_TAIL_TRIALS:
        raise ConfigError(
            f"montecarlo.n_trials: tails needs at least {MIN_TAIL_TRIALS} trials, got {n}")
    model = build_model(cfg)
    grid = build_grid(cfg)
    kernel = build_kernel(cfg)
    consts, extras = resolve_constants(cfg, model, grid, kernel)

    trials = run_trials(cfg, workers=workers)
    tail = estimate_tail(trials["deviation"], np.asarray(cfg.montecarlo.R_grid))
    cmp = compare_with_envelope(tail, consts)

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, r in enumerate(tail.r_grid):
        rows.append([
            float(r), int(tail.counts[i]), tail.n_trials, float(tail.p_hat[i]),
            float(tail.ci_low[i]), float(tail.ci_high[i]), float(cmp.envelope[i]),
            "pass" if cmp.level_ok[i] else "fail",
        ])
    _write_rows(out_dir / "tails.csv", cfg,
                ["R", "count", "n", "p_hat", "ci_low", "ci_high", "envelope", "verdict"],
                rows, sep=",")
    plot_rows = [[float(r) ** 2, float(-np.log(p))]
                 for r, p in zip(tail.r_grid, tail.p_hat) if p > 0]
    _write_rows(out_dir / "tails_plot.tsv", cfg, ["R_squared", "neg_log_p"], plot_rows, sep="\t")
    failed = np.flatnonzero(trials["n_starts"] == 0).tolist()
    _write_json(out_dir / "tails_meta.json", cfg, {
        "constants": _constants_dict(consts),
        "extras": extras,
        "fitted_rate": tail.fitted_rate,
        "b_cert": cmp.b_cert,
        "b_cert_ratio": None if cmp.b_cert is None else cmp.b_cert / consts.b,
        "B_needed": cmp.B_needed,
        "rate_ok": cmp.rate_ok,
        "level_verdicts": [bool(v) for v in cmp.level_ok],
        "overall_pass": cmp.overall_pass,
        "n_trials": n,
        "n_nonconverged": len(failed),
        "nonconverged": [[i, derive_seed(cfg.montecarlo.master_seed, STREAM_TRIALS, i)]
                         for i in failed],
        "boundary_frac": np.count_nonzero(trials["boundary"]) / n,
        "multi_basin_frac": np.count_nonzero(trials["n_starts"] > 1) / n,
        "tie_frac": np.count_nonzero(trials["lattice_tie_count"] > 1) / n,
        "notes": {"consistency_envelope": CONSISTENCY_EXPONENT_NOTE},
    })
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    n_paths = cfg.montecarlo.n_trials
    if n_paths < 2:
        raise ConfigError(
            f"montecarlo.n_trials: simulate needs at least 2 paths for a standard error, "
            f"got {n_paths}")
    grid = build_grid(cfg)
    kernel = build_kernel(cfg)
    basis = build_basis(cfg)
    master = cfg.montecarlo.master_seed
    out_dir.mkdir(parents=True, exist_ok=True)
    n_files = min(n_paths, 16)

    # each mode names its path function and the node pairs (a, b) whose
    # product x[a] * x[b] estimates a covariance, with a key and theory value each
    if basis is not None:
        # series-construction mode: Cov(xi(s), xi(t)) against min(s, t)
        mode, column = "series_construction", "xi"
        path = partial(ito_nisio_path, cfg.noise.driver, basis, grid)
        quarter = max(1, grid.n_steps // 4)
        half = min(2 * quarter, grid.n_steps)  # one step has no node 2
        pairs = [(quarter, half), (quarter, grid.n_steps), (half, grid.n_steps)]
        keys = [{"s": float(grid.nodes[a]), "t": float(grid.nodes[b])} for a, b in pairs]
        theory = [float(min(grid.nodes[a], grid.nodes[b])) for a, b in pairs]
    else:
        # stationary / white mode: lag covariances Cov(eps(0), eps(lag))
        mode, column = ("white" if kernel is None else "filtered"), "eps"
        path = partial(noise_path, cfg.noise.driver, grid, kernel=kernel)
        if kernel is None:
            lag_steps = [0, 1]
            theory = [1.0 / grid.h if k == 0 else 0.0 for k in lag_steps]
        else:
            char_time = 1.0 / kernel.rate if kernel.rate else 1.0
            max_lag = min(5.0 * char_time, grid.T)
            n_lags = 6
            lag_steps = sorted({int(round(k * max_lag / ((n_lags - 1) * grid.h))) for k in range(n_lags)})
            theory = covariance_of_filter(kernel, np.array(lag_steps) * grid.h).tolist()
        pairs = [(0, k) for k in lag_steps]
        keys = [{"lag": float(k * grid.h)} for k in lag_steps]

    prods = np.zeros((n_paths, len(pairs)))
    for i, bits in enumerate(index_streams(master, STREAM_PATHS, 0, n_paths)):
        x = path(bits)
        if i < n_files:
            _write_rows(out_dir / f"path_{i:05d}.tsv", cfg, ["t", column],
                        [[float(t), float(v)] for t, v in zip(grid.nodes, x)], sep="\t")
        prods[i] = [x[a] * x[b] for a, b in pairs]
    entries = []
    ok = True
    for j, (key, th) in enumerate(zip(keys, theory)):
        emp = float(prods[:, j].mean())
        se = float(prods[:, j].std(ddof=1) / np.sqrt(n_paths))
        within = abs(emp - th) <= 4.0 * se
        ok = ok and within
        entries.append({**key, "empirical": emp, "theory": th, "se": se, "within_4se": within})
    _write_json(out_dir / "simulate_summary.json", cfg, {
        "mode": mode, "covariance": entries, "all_within_4se": ok, "n_paths": n_paths,
    })
    return 0


def cmd_check(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    model = build_model(cfg)
    grid = build_grid(cfg)
    kernel = build_kernel(cfg)
    master = cfg.montecarlo.master_seed
    # the run's own f0, d0 and a config c0 are under test; pairs are sampled once per process
    consts, extras = resolve_constants(cfg, model, grid, kernel)
    if "c0_hat" in extras:
        c0_hat, c1_hat = extras["c0_hat"], extras["c1_hat"]
    else:
        c0_hat, c1_hat = _sample_pairs(cfg, model, grid)
    payload: dict = {"verdicts": {}, "c0_hat": c0_hat, "c1_hat": c1_hat,
                     "f0": consts.f0, "d0": consts.d0}

    if model.name == "exp_inner":
        # the gradient of exp(<tau, y(t)>) at tau = 0 is the regressor rows y(t):
        # the model's own, so a regressor file is read once
        theory = exp_model_constants(lambda t: model.grad(t, np.zeros(model.q)), model.box, grid)
        c0_theory, c1_theory = theory.c0_theory, theory.c1_theory
        if cfg.norming != "s_T":
            # the closed forms bound Phi / (T ||tau - tau'||^2); a norming d has
            # ||u - v||^2 / max d_i^2 <= ||tau - tau'||^2 <= ||u - v||^2 / min d_i^2
            d_sq = build_norming(cfg, model, grid) ** 2
            c0_theory = c0_theory * grid.T / float(d_sq.max())
            c1_theory = c1_theory * grid.T / float(d_sq.min())
        payload.update({
            "c0_theory": c0_theory, "c1_theory": c1_theory,
            "H": theory.H, "L": theory.L, "lambda_min": theory.lambda_min,
            "J_T": theory.J_T,
        })
        payload["verdicts"]["equivalence_bracket"] = bool(
            c0_hat >= c0_theory * 0.99 and c1_hat <= c1_theory * 1.01
        )
        c0_lower = c0_theory
    else:
        # linear and constant: every pair's ratio Phi / ||u - v||^2 is G / d^2,
        # so the sampled minimum is the infimum
        c0_lower = c0_hat
    if cfg.bounds.c0 != "estimate":
        payload["verdicts"]["c0_config"] = bool(consts.c0 <= c0_lower * (1.0 + 1e-9))

    # white nodes' simulated spectral supremum is exactly WHITE_NOISE_F0
    sim = extras.get("f0_sim", WHITE_NOISE_F0)
    qf = quadratic_form_check(kernel, grid, consts.f0, sim)
    if kernel is not None:
        payload["b1"] = qf.b1
        payload["b2"] = qf.b2
    payload["quadratic_form"] = {"f0_sim": sim}
    payload["verdicts"]["quadratic_form"] = qf.passed

    # two weight probes: a flat weight exercises the integrated path, a unit-norm
    # node spike exercises a single margin (where a non-sub-Gaussian driver
    # cannot hide behind central-limit averaging)
    flat = np.ones(grid.n_nodes)
    spike = np.zeros(grid.n_nodes)
    spike[grid.n_nodes // 2] = 1.0 / np.sqrt(grid.h)
    lam_flat = np.array([0.0, 0.3, 0.6, 0.95]) * float(np.sqrt(8.0 / grid.T))
    lam_spike = np.array([0.0, 0.5, 1.5, 2.0])
    raw_flat = mgf_check(cfg.noise.driver, flat, grid, 1.0, lam_flat,
                         derive_seed(master, STREAM_MGF, 1))
    raw_spike = mgf_check(cfg.noise.driver, spike, grid, 1.0, lam_spike,
                          derive_seed(master, STREAM_MGF, 3))
    payload["mgf_raw"] = _mgf_dict(raw_flat)
    payload["mgf_raw_margin"] = _mgf_dict(raw_spike)
    payload["verdicts"]["mgf_raw"] = bool(raw_flat.overall_pass and raw_spike.overall_pass)
    if kernel is not None:
        lam_filt = np.array([0.0, 0.3, 0.6, 0.95]) * float(np.sqrt(8.0 / (consts.d0 * grid.T)))
        filt = mgf_check(cfg.noise.driver, flat, grid, consts.d0, lam_filt,
                         derive_seed(master, STREAM_MGF, 2), kernel=kernel)
        payload["mgf_filtered"] = _mgf_dict(filt)
        payload["verdicts"]["mgf_filtered"] = filt.overall_pass

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "check_report.json", cfg, payload)
    return 0


def _mgf_dict(report) -> dict:
    return {k: v for k, v in dataclasses.asdict(report).items() if k != "n_rep"}


_COMMANDS = {
    "simulate": cmd_simulate,
    "tails": cmd_tails,
    "check": cmd_check,
    "constants": cmd_constants,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="regtails", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment JSON config")
        p.add_argument("--workers", type=int, default=1, help="worker processes for trials")
        p.add_argument("--out", default=None, help="output directory (default: config output.directory)")
        p.add_argument("--seed", type=int, default=None, help="override montecarlo.master_seed")
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(
                cfg, montecarlo=dataclasses.replace(cfg.montecarlo,
                                                    master_seed=as_seed(args.seed, "--seed")))
        if cfg.noise.basis is not None and args.command != "simulate":
            raise ConfigError(
                f"noise.basis: only `simulate` reads it; remove it to run {args.command}")
        out_dir = Path(args.out) if args.out else Path(cfg.output.directory)
        return _COMMANDS[args.command](cfg, out_dir, args.workers)
    except (ConfigError, ContractError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"run failed: {err}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry of ``python -m regtails.cli`` and the ``regtails`` script.

    Everything imported so far lives until the process exits, so it is moved
    to the collector's permanent generation: neither the run's full
    collections nor the ones at exit scan it, and forked workers inherit it
    frozen.  ``main`` leaves the collector alone, since a caller in the same
    process would have its own garbage pinned too.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
