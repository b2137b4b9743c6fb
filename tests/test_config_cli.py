import concurrent.futures
import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regtails.cli as cli
from regtails import harness
from regtails import model as model_module
from regtails import noise
from regtails.config import (
    build_basis,
    build_grid,
    build_kernel,
    build_model,
    config_from_dict,
    config_from_json,
    config_to_dict,
    load_config,
)
from regtails.errors import ConfigError, ContractError, NonConvergenceError
from regtails.estimator import lse_fit
from regtails.harness import STREAM_PATHS, STREAM_TRIALS, derive_seed, run_trials
from regtails.noise import FilterKernel, ito_nisio_path, noise_path
from regtails.numerics import load_table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _linear_doc(**overrides):
    doc = {
        "model": {"name": "linear", "box": {"lower": [0.0], "upper": [5.0]},
                  "theta_true": [2.0]},
        "noise": {"driver": "gaussian", "kernel": None},
        "grid": {"T": 5.0, "n_steps": 500},
        "norming": "d_T",
        "montecarlo": {"n_trials": 300, "master_seed": 11,
                       "R_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]},
        "bounds": {"c0": "estimate"},
        "output": {"directory": "out"},
    }
    doc.update(overrides)
    return doc


def _write_config(tmp_path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- config parsing ---------------------------------------------------------

# one misspelled key in every object the parser reads
_MISSPELLED = [
    (lambda d: d.update(montecarol={}), "montecarol"),
    (lambda d: d["model"].update(theta=[2.0]), "model.theta"),
    (lambda d: d["model"]["box"].update(uper=[5.0]), "model.box.uper"),
    (lambda d: d["model"].update(parameters={"regresors": "constant"}), "model.parameters.regresors"),
    (lambda d: d["noise"].update(drivr="gaussian"), "noise.drivr"),
    (lambda d: d["noise"].update(kernel={"form": "exponential", "rate": 1.0, "rte": 2.0}),
     "noise.kernel.rte"),
    (lambda d: d["noise"].update(kernel={"form": "exponential", "rate": 1.0, "file": "k.txt"}),
     "noise.kernel.file"),
    (lambda d: d["noise"].update(basis={"n_terms": 8, "horizon": 5.0, "n_term": 4}),
     "noise.basis.n_term"),
    (lambda d: d["grid"].update(nsteps=100), "grid.nsteps"),
    (lambda d: d["montecarlo"].update(seed=3), "montecarlo.seed"),
    (lambda d: d["bounds"].update(betta=0.1), "bounds.betta"),
    (lambda d: d["output"].update(format=["csv"]), "output.format"),
]

# settings that became constants: each names its key and says why it is gone
_REMOVED_BOUNDS = [
    (lambda d: d["bounds"].update(beta="auto"), "bounds.beta"),
    (lambda d: d["bounds"].update(beta=0.001), "bounds.beta"),
    (lambda d: d["bounds"].update(equivalence_pairs=2000), "bounds.equivalence_pairs"),
    *[(lambda d, v=v: d["bounds"].update(B_cal=v), "bounds.B_cal")
      for v in ("fixed", "calibrate", {"mode": "fixed", "value": 2.0})],
]
_REMOVED_REASONS = {
    "noise.prehistory": "derived from the kernel",
    "bounds.beta": "a thousandth of the rate before slack",
    "bounds.equivalence_pairs": "estimated from 2000 pairs",
    "bounds.B_cal": "the envelope's prefactor is 1",
}

# values of the wrong type (an optional object may be absent or null, nothing
# else), removed settings, and a kernel next to a basis
_REJECTED = [
    (lambda d: d.update(bounds=0), "bounds"),
    (lambda d: d.update(bounds=False), "bounds"),
    (lambda d: d.update(output=[]), "output"),
    (lambda d: d["model"].update(parameters=0), "model.parameters"),
    (lambda d: d["output"].update(directory=5), "output.directory"),
    (lambda d: d["output"].update(directory=""), "output.directory"),
    (lambda d: d["noise"].update(kernel={"form": "tabulated", "file": 5}), "noise.kernel.file"),
    (lambda d: d["model"].update(parameters={"regressor_file": 7}), "model.parameters.regressor_file"),
    (lambda d: d["model"].update(parameters={"regressors": ["constant"]}), "model.parameters.regressors"),
    (lambda d: d["montecarlo"].update(R_grid=[True, 2]), "montecarlo.R_grid"),
    (lambda d: d["grid"].update(T="5"), "grid.T"),
    (lambda d: d["noise"].update(kernel={"form": "exponential", "rate": 1.0},
                                 basis={"n_terms": 8, "horizon": 5.0}), "noise.basis"),
    (lambda d: d["noise"].update(kernel={"form": "exponential", "rate": 1.0,
                                         "truncation_horizon": 20.0}),
     "noise.kernel.truncation_horizon"),
    (lambda d: d["noise"].update(basis={"family": "haar", "n_terms": 8, "horizon": 5.0}),
     "noise.basis.family"),
    (lambda d: d["output"].update(formats=["csv"]), "output.formats"),
    (lambda d: d["montecarlo"].update(master_seed=2**64), "montecarlo.master_seed"),
    *[(lambda d, v=v: d["noise"].update(kernel={"form": v, "rate": 1.0}), "noise.kernel.form")
      for v in ({}, [], 5, None)],
    (lambda d: d["model"].update(parameters={"regressors": "constant"}), "model.parameters"),
    (lambda d: d["model"].update(name="exp_inner", parameters={"regressors": "constant",
                                                                 "regressor_file": "y.txt"}),
     "model.parameters"),
    (lambda d: d["noise"].update(kernel=None, basis={"n_terms": 8, "horizon": 4.0}),
     "noise.basis.horizon"),
    # a regressor family the registry does not name, and one whose q rows coincide
    (lambda d: d["model"].update(name="exp_inner", box={"lower": [-0.5], "upper": [0.5]},
                                 theta_true=[0.0], parameters={"regressors": "fourier"}),
     "model.parameters.regressors"),
    (lambda d: d["model"].update(name="exp_inner", box={"lower": [-0.5, -0.5], "upper": [0.5, 0.5]},
                                 theta_true=[0.0, 0.0], parameters={"regressors": "constant"}),
     "model.parameters.regressors"),
]


def test_round_trip_identity():
    cfg = config_from_dict(_linear_doc())
    again = config_from_json(json.dumps(config_to_dict(cfg)))
    assert cfg == again
    assert config_to_dict(cfg) == config_to_dict(again)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["grid"].update(n_steps=0), "grid.n_steps"),
    (lambda d: d["grid"].update(T=-1.0), "grid.T"),
    (lambda d: d["montecarlo"].update(R_grid=[1.0, 0.5]), "montecarlo.R_grid"),
    (lambda d: d["montecarlo"].update(n_trials=0), "montecarlo.n_trials"),
    (lambda d: d["model"].update(theta_true=[5.0]), "model.theta_true"),
    (lambda d: d["model"]["box"].update(lower=[5.0]), "model.box"),
    (lambda d: d["noise"].update(driver="levy"), "noise.driver"),
    (lambda d: d["model"].update(name="spline"), "model.name"),
    (lambda d: d["noise"].update(kernel=5), "noise.kernel.form"),
    (lambda d: d.update(noise=5), "noise"),
    *_MISSPELLED,
    *_REJECTED,
    *[(lambda d, v=v: d["noise"].update(prehistory=v), "noise.prehistory")
      for v in ("auto", 5.0, None)],
    *_REMOVED_BOUNDS,
    # a removed key is named, with its reason, whatever its value
    *[(lambda d, v=v: d["bounds"].update(B_cal=v), "bounds.B_cal") for v in (False, [1.0])],
])
def test_validation_names_offending_field(mutate, field):
    doc = _linear_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")) as err:
        config_from_dict(doc)
    reason = _REMOVED_REASONS.get(field)
    if reason:
        assert reason in str(err.value)


@pytest.mark.parametrize("absent", [
    lambda d, key: d.pop(key),
    lambda d, key: d.update({key: None}),
], ids=["missing", "null"])
def test_absent_or_null_optional_object_reads_as_defaults(absent):
    defaults = config_from_dict(_linear_doc(bounds={}, output={}))
    doc = _linear_doc()
    for key in ("bounds", "output"):
        absent(doc, key)
    doc["model"]["parameters"] = None
    assert config_from_dict(doc) == defaults


def test_shipped_configs_load_and_round_trip():
    paths = sorted(CONFIGS.glob("*.json"))
    assert len(paths) >= 2
    for path in paths:
        cfg = load_config(path)
        doc = config_to_dict(cfg)
        assert config_from_dict(doc) == cfg
        assert config_to_dict(config_from_dict(doc)) == doc


def test_empty_model_parameters_read_as_absent():
    cfgs = []
    for params in (None, {}):
        doc = _linear_doc()
        doc["model"]["parameters"] = params
        cfgs.append(config_from_dict(doc))
    assert cfgs[0] == cfgs[1] == config_from_dict(_linear_doc())
    assert "parameters" not in config_to_dict(cfgs[1])["model"]


# the canonical documents of the shipped configs: the provenance every output embeds
_SHIPPED_CANONICAL = {
    "exp_filtered.json": {
        "model": {"name": "exp_inner", "box": {"lower": [-0.5], "upper": [0.5]},
                  "theta_true": [0.0], "parameters": {"regressors": "constant"}},
        "noise": {"driver": "rademacher", "kernel": {"form": "exponential", "rate": 1.0}},
        "grid": {"T": 50.0, "n_steps": 5000},
        "norming": "s_T",
        "montecarlo": {"n_trials": 5000, "master_seed": 271828,
                       "R_grid": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5,
                                  2.75, 3.0]},
        "bounds": {"c0": "estimate", "f0": "auto"},
        "output": {"directory": "out_exp_filtered"},
    },
    "linear_white.json": {
        "model": {"name": "linear", "box": {"lower": [0.0], "upper": [5.0]}, "theta_true": [2.0]},
        "noise": {"driver": "gaussian", "kernel": None},
        "grid": {"T": 25.0, "n_steps": 2500},
        "norming": "d_T",
        "montecarlo": {"n_trials": 5000, "master_seed": 31415,
                       "R_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]},
        "bounds": {"c0": 1.0, "f0": "auto"},
        "output": {"directory": "out_linear_white"},
    },
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_CANONICAL))
def test_shipped_configs_canonical_document(name):
    doc = config_to_dict(load_config(CONFIGS / name))
    assert doc == _SHIPPED_CANONICAL[name]
    # types too: JSON lists and floats, as the outputs write them
    assert json.dumps(doc, sort_keys=True) == json.dumps(_SHIPPED_CANONICAL[name], sort_keys=True)


def test_norming_default_and_validation():
    doc = _linear_doc()
    del doc["norming"]
    assert config_from_dict(doc).norming == "d_T"
    doc["norming"] = "diag"
    with pytest.raises(ConfigError, match="norming"):
        config_from_dict(doc)


_MUTATION_DOCS = [_linear_doc(), *(json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json")))]
_MUTATION_VALUES = (None, True, -1, 0, "x", [], {})


def _paths(node, path=()):
    """Every key path and list index under ``node``, the root () first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _resolves(doc, dotted: str) -> bool:
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_mutation_is_valid_or_names_its_field(data):
    original = data.draw(st.sampled_from(_MUTATION_DOCS))
    doc = copy.deepcopy(original)
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(["delete", "add", "set"]))
    value = copy.deepcopy(data.draw(st.sampled_from(_MUTATION_VALUES)))
    if kind == "add":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), dict)]))
        _at(doc, path)["unknown_key"] = value
    else:
        candidates = [p for p in paths if p and (kind == "set" or isinstance(p[-1], str))]
        path = data.draw(st.sampled_from(candidates))
        parent = _at(doc, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        cfg = config_from_dict(doc)
    except ConfigError as err:
        # the message opens with a dotted path of the document (or of its parent
        # object, for a missing or unknown key)
        field = str(err).split(": ", 1)[0]
        parent = field.rpartition(".")[0]
        assert any(_resolves(d, field) or (parent and _resolves(d, parent))
                   for d in (original, doc)), str(err)
        return
    # no setting is a boolean, so a JSON true can only be a mistyped value
    assert not (kind == "set" and value is True), f"{path} = true was accepted"
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg and config_to_dict(again) == config_to_dict(cfg)
    for build in (build_grid, build_model, build_kernel, build_basis,
                  lambda cfg: Path(cfg.output.directory)):
        try:
            build(cfg)
        except (ConfigError, ContractError, FileNotFoundError):  # the CLI's exit 2
            pass


# -- CLI ----------------------------------------------------------------------


def test_tails_outputs_and_rerun_identical(tmp_path):
    cfg_path = _write_config(tmp_path, _linear_doc())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out1)]) == 0
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out2), "--workers", "2"]) == 0
    for name in ("tails.csv", "tails_meta.json", "tails_plot.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "tails.csv").read_text().splitlines()
    assert header[2] == "R,count,n,p_hat,ci_low,ci_high,envelope,verdict"
    meta = json.loads((out1 / "tails_meta.json").read_text())
    assert meta["config"]["montecarlo"]["master_seed"] == 11
    assert "consistency_envelope" in meta["notes"]
    assert meta["version"]
    assert isinstance(meta["overall_pass"], bool)


def test_tails_meta_run_diagnostics_identical_across_workers(tmp_path):
    # theta_true sits next to the box edge, so some fits land on it
    doc = _linear_doc()
    doc["model"]["theta_true"] = [4.99]
    cfg_path = _write_config(tmp_path, doc)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out1), "--workers", "1"]) == 0
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "tails_meta.json").read_bytes() == (out2 / "tails_meta.json").read_bytes()
    meta = json.loads((out1 / "tails_meta.json").read_text())
    trials = run_trials(load_config(cfg_path))
    assert meta["boundary_frac"] == sum(trials["boundary"].tolist()) / trials.size
    assert 0.0 < meta["boundary_frac"] < 1.0
    assert meta["nonconverged"] == []
    # Q is a quadratic in theta: every lattice has one basin and no tie
    assert set(zip(trials["n_starts"].tolist(), trials["lattice_tie_count"].tolist())) == {(1, 1)}
    assert meta["multi_basin_frac"] == 0.0 and meta["tie_frac"] == 0.0


def test_tails_meta_lists_nonconverged_trials(tmp_path, monkeypatch):
    # exp_inner with cosine regressors at q = 2 has no scalar form, so its trials
    # fit the path, where a fit can fail to converge and a lattice can hold
    # several basins; one worker fits the trials in order, so the k-th fit is trial k - 1
    doc = _linear_doc(norming="s_T")
    doc["model"] = {"name": "exp_inner", "parameters": {"regressors": "cosine"},
                    "box": {"lower": [-0.5, -0.5], "upper": [0.5, 0.5]},
                    "theta_true": [0.1, -0.2]}
    cfg_path = _write_config(tmp_path, doc)
    calls = []

    def fit(obs, model):
        calls.append(None)
        if len(calls) in (4, 200):
            raise NonConvergenceError("capped", best_point=(0.1, -0.2))
        res = lse_fit(obs, model)
        if len(calls) == 20:
            return dataclasses.replace(res, lattice_tie_count=3)
        return res

    monkeypatch.setattr(harness, "lse_fit", fit)
    out = tmp_path / "o"
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "tails_meta.json").read_text())
    seed = load_config(cfg_path).montecarlo.master_seed
    assert meta["nonconverged"] == [[i, derive_seed(seed, STREAM_TRIALS, i)] for i in (3, 199)]
    assert meta["n_nonconverged"] == 2
    calls.clear()
    trials = run_trials(load_config(cfg_path))
    assert len(calls) == 300
    # a fit that raised reports no starts, no ties and no boundary
    failed = trials[[3, 199]]
    assert failed["n_starts"].tolist() == failed["lattice_tie_count"].tolist() == [0, 0]
    assert not failed["boundary"].any()
    assert np.count_nonzero(trials["n_starts"] == 0) == 2
    assert trials[19]["lattice_tie_count"] == 3
    assert 0.0 < meta["multi_basin_frac"] == sum((trials["n_starts"] > 1).tolist()) / 300
    assert meta["tie_frac"] == sum((trials["lattice_tie_count"] > 1).tolist()) / 300 == 1 / 300


@pytest.mark.parametrize("name", ["exp_filtered", "linear_white"])
def test_shipped_tails_need_no_prefactor_above_one(tmp_path, name):
    # every trial is tested against exp(-b R^2); B_needed, the smallest prefactor
    # the lower limits demand at rate b, is at most 1 exactly when every level passes
    out = tmp_path / name
    assert cli.main(["tails", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
    meta = json.loads((out / "tails_meta.json").read_text())
    assert meta["n_trials"] == 5000
    assert not {"n_train", "n_eval"} & set(meta) and "B_cal" not in meta["constants"]
    assert meta["overall_pass"] and all(meta["level_verdicts"])
    assert meta["B_needed"] <= 1.0
    rows = [line.split(",") for line in (out / "tails.csv").read_text().splitlines()[3:]]
    assert {row[2] for row in rows} == {"5000"}
    # taken over the levels with R > 0: the R = 0 level's lower limit,
    # 0.025^(1/n) = 0.99926, would hide the margin under the envelope
    b = meta["constants"]["b"]
    assert meta["B_needed"] == pytest.approx(
        max(float(row[4]) * math.exp(b * float(row[0]) ** 2) for row in rows if float(row[0]) > 0),
        rel=1e-12)
    assert meta["B_needed"] < 0.99


@pytest.mark.parametrize("c0,passes", [(50.0, False), (1.0, True)])
def test_envelope_verdict_can_fail_end_to_end(tmp_path, c0, passes):
    # white noise gives d0 = 1 and q = 1, so b = 0.999 * c0 / 16: at c0 = 50 the
    # envelope decays at b = 3.12, far faster than the empirical tail
    doc = _linear_doc()
    doc["bounds"] = {"c0": c0}
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "tails_meta.json").read_text())
    assert meta["constants"]["b"] == pytest.approx(0.999 * c0 / 16.0)
    assert meta["overall_pass"] is passes
    assert meta["rate_ok"] is passes
    assert (meta["B_needed"] <= 1.0) is all(meta["level_verdicts"])
    rows = [line.split(",") for line in (out / "tails.csv").read_text().splitlines()[3:]]
    assert ("fail" in [row[-1] for row in rows]) is not passes
    # the certified rate reaches b exactly when every level it is taken over passes
    certified = [row[-1] == "pass" for row in rows if float(row[0]) > 0 and float(row[4]) > 0]
    assert certified
    assert (meta["b_cert"] >= meta["constants"]["b"]) is all(certified)
    assert meta["b_cert_ratio"] == meta["b_cert"] / meta["constants"]["b"]


def test_seed_override_changes_results(tmp_path):
    cfg_path = _write_config(tmp_path, _linear_doc())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    # the largest seed the config accepts, 2^64 - 1
    seed = str(2**64 - 1)
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out1), "--seed", seed]) == 0
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "tails.csv").read_bytes() != (out2 / "tails.csv").read_bytes()
    meta = json.loads((out1 / "tails_meta.json").read_text())
    assert meta["config"]["montecarlo"]["master_seed"] == 2**64 - 1
    # the embedded config is a valid provenance record: it parses back to the run's config
    assert config_from_dict(meta["config"]).montecarlo.master_seed == 2**64 - 1


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 3])
def test_seed_flag_outside_64_bits_exits_2(tmp_path, monkeypatch, capsys, seed):
    # the flag obeys the config's rule, 0 <= seed < 2^64: a negative seed would be
    # embedded where the config rejects it, and 2^64 + 3 would run as seed 3
    cfg_path = _write_config(tmp_path, _linear_doc())

    def never(cfg, workers=1):
        raise AssertionError("trials ran before the seed was checked")

    monkeypatch.setattr(cli, "run_trials", never)
    out = tmp_path / "x"
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out), "--seed", str(seed)]) == 2
    assert "--seed:" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_exits_2(tmp_path):
    doc = _linear_doc()
    doc["grid"]["n_steps"] = 0
    cfg_path = _write_config(tmp_path, doc)
    assert cli.main(["tails", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2_naming_the_flag(tmp_path, monkeypatch, capsys, workers):
    cfg_path = _write_config(tmp_path, _linear_doc())

    def never(cfg, workers=1):
        raise AssertionError("trials ran with an invalid worker count")

    monkeypatch.setattr(cli, "run_trials", never)
    out = tmp_path / "x"
    assert cli.main(["tails", "--config", cfg_path, "--out", str(out), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_run_trials_starts_at_most_cpu_count_processes(monkeypatch):
    # a stand-in pool records max_workers and maps in this process: no process starts
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cfg = config_from_dict(_linear_doc(montecarlo={"n_trials": 40, "master_seed": 11,
                                                   "R_grid": [0.0, 1.0]}))
    serial = run_trials(cfg, workers=1).tobytes()
    assert run_trials(cfg, workers=1000).tobytes() == serial
    assert run_trials(cfg, workers=2).tobytes() == serial
    assert seen == [3, 2]


def test_jsonify_writes_non_finite_floats_as_strings():
    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    values = [np.float64("inf"), np.float64("-inf"), np.float64("nan"), np.float32("inf"),
              math.inf, math.nan, np.array([1.5, np.inf])]
    text = json.dumps(cli._jsonify({"values": values}))
    assert json.loads(text, parse_constant=reject)["values"] == [
        "inf", "-inf", "nan", "inf", "inf", "nan", [1.5, "inf"]]


def test_check_verifies_the_configured_f0(tmp_path, capsys):
    # 16x below the kernel's spectral supremum 1/(2 pi): the constants built on
    # it are invalid, and `check` must test the f0 and d0 the run actually uses
    doc = json.loads((CONFIGS / "exp_filtered.json").read_text())
    doc["grid"] = {"T": 10.0, "n_steps": 500}
    doc["bounds"]["f0"] = 0.01
    cfg_path = _write_config(tmp_path, doc)
    assert cli.main(["constants", "--config", cfg_path]) == 0
    constants = json.loads(capsys.readouterr().out)["constants"]
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["f0"] == constants["f0"] == 0.01
    assert report["d0"] == constants["d0"] == 2 * math.pi * 0.01
    assert report["verdicts"]["quadratic_form"] is False
    assert report["verdicts"]["mgf_filtered"] is False
    assert report["verdicts"]["mgf_raw"] is True


def test_check_takes_the_simulated_spectral_supremum_once(tmp_path, monkeypatch):
    # a signed table's supremum costs an 8x-padded rFFT and 40 golden-section
    # steps: check takes one for the kernel's f0 and one for the taps' f0_sim
    table = tmp_path / "lobe.txt"
    table.write_text("".join(f"{t} {v}\n" for t, v in zip(
        [0.0, 0.297, 0.647, 1.540, 2.065, 3.027, 3.209, 4.003, 4.502],
        [1.000, -1.774, -0.348, -1.077, 0.574, -0.751, 1.653, -0.857, 1.590])))
    doc = _linear_doc()
    doc["noise"]["kernel"] = {"form": "tabulated", "file": str(table)}
    doc["grid"] = {"T": 5.0, "n_steps": 500}
    calls = []
    sup_power = noise._sup_power

    def counted(samples, step):
        calls.append(step)
        return sup_power(samples, step)

    monkeypatch.setattr(noise, "_sup_power", counted)
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert len(calls) == 2
    monkeypatch.undo()
    report = json.loads((out / "check_report.json").read_text())
    kernel = FilterKernel.from_file(table)
    sim, f0 = noise.f0_sim(kernel, 0.01), noise.f0_sup(kernel)
    assert report["quadratic_form"] == {"f0_sim": sim}
    assert report["f0"] == f0
    assert report["verdicts"]["quadratic_form"] is (sim <= f0 * (1 + 1e-3))


@pytest.mark.parametrize("f0,passes", [(0.01, False), ("auto", True)])
def test_check_verifies_the_configured_f0_on_white_noise(tmp_path, f0, passes):
    # the white nodes' spectral supremum is exactly 1/(2 pi): a config f0 below
    # it fails the quadratic_form verdict, and no kernel-only entry appears
    doc = json.loads((CONFIGS / "linear_white.json").read_text())
    doc["grid"] = {"T": 5.0, "n_steps": 500}
    doc["bounds"]["f0"] = f0
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["quadratic_form"] == {"f0_sim": 1 / (2 * math.pi)}
    assert report["verdicts"] == {"mgf_raw": True, "quadratic_form": passes, "c0_config": True}
    assert set(report) == {"version", "config", "verdicts", "c0_hat", "c1_hat", "f0", "d0",
                           "quadratic_form", "mgf_raw", "mgf_raw_margin"}


@pytest.mark.parametrize("name,c0,passes", [
    ("linear_white", 50, False), ("linear_white", 1.0, True),
    ("exp_filtered", 0.3, True), ("exp_filtered", 0.38, False), ("exp_filtered", 0.5, False),
    ("exp_filtered", "estimate", None),
], ids=["linear_50", "linear_shipped", "exp_0.3", "exp_0.38", "exp_0.5", "exp_estimate"])
def test_check_verifies_a_configured_c0(tmp_path, name, c0, passes):
    # linear under d_T: every pair's ratio is 1, so c0_hat is the infimum; exp_inner
    # with the constant regressor on [-0.5, 0.5]: c0_theory = L^2 lambda_min = e^-1,
    # and 0.38 lies between it and the sampled minimum (0.392 on these pairs)
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["grid"] = {"T": 5.0, "n_steps": 500}
    doc["bounds"]["c0"] = c0
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    verdicts = json.loads((out / "check_report.json").read_text())["verdicts"]
    assert verdicts.get("c0_config") is passes


@pytest.mark.parametrize("name,f0", [("exp_filtered", "auto"), ("linear_white", "auto"),
                                     ("exp_filtered", 0.2)],
                         ids=["exp_filtered", "linear_white", "exp_filtered_config_f0"])
def test_constants_tails_and_check_use_the_same_constants(tmp_path, capsys, name, f0):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["grid"] = {"T": doc["grid"]["T"] / 5, "n_steps": 500}
    doc["bounds"]["f0"] = f0
    doc["montecarlo"]["n_trials"] = 120
    cfg_path = _write_config(tmp_path, doc)
    assert cli.main(["constants", "--config", cfg_path]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert cli.main(["tails", "--config", cfg_path, "--out", str(tmp_path / "t")]) == 0
    meta = json.loads((tmp_path / "t" / "tails_meta.json").read_text())
    assert cli.main(["check", "--config", cfg_path, "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "check_report.json").read_text())
    for constants in (printed["constants"], meta["constants"]):
        assert (constants["f0"], constants["d0"]) == (report["f0"], report["d0"])
    # a kernel's simulated spectral supremum is reported next to the constants;
    # white noise has none
    f0_sims = {extras.get("f0_sim") for extras in (printed["extras"], meta["extras"])}
    if name == "exp_filtered":
        assert f0_sims == {report["quadratic_form"]["f0_sim"]}
    else:
        assert f0_sims == {None}
    sampled = printed["extras"]["c0_source"] == "pair_sampling"
    assert sampled == (name == "exp_filtered")
    if sampled:
        assert printed["constants"]["c0"] == meta["constants"]["c0"] == report["c0_hat"]
        assert printed["extras"]["c1_hat"] == report["c1_hat"]


def test_runtime_failure_exits_3(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, _linear_doc())

    def boom(cfg, workers=1):
        raise NonConvergenceError("too many failed fits")

    monkeypatch.setattr(cli, "run_trials", boom)
    assert cli.main(["tails", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("command", ["tails", "check", "simulate"])
@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["noise"].update(prehistory="auto"), "noise.prehistory"),
    *_REMOVED_BOUNDS,
    *_MISSPELLED,
    *_REJECTED,
])
def test_config_key_error_exits_2_before_any_computation(tmp_path, monkeypatch, capsys,
                                                         command, mutate, field):
    doc = _linear_doc()
    doc["noise"] = {"driver": "rademacher", "kernel": {"form": "exponential", "rate": 1.0}}
    mutate(doc)
    cfg_path = _write_config(tmp_path, doc)

    def never(*args, **kwargs):
        raise AssertionError("computation ran before the config was validated")

    for module, name in ((cli, "f0_sup"), (cli, "run_trials"),
                         (cli, "estimate_equivalence_constants"), (cli, "noise_path"),
                         (cli, "ito_nisio_path"), (cli, "covariance_of_filter")):
        monkeypatch.setattr(module, name, never)
    out = tmp_path / "x"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["tails", "check", "constants"])
def test_basis_outside_simulate_exits_2_before_any_computation(tmp_path, monkeypatch, capsys,
                                                               command):
    # the series construction feeds only `simulate`; elsewhere the runs would use
    # white increments while every output names the Haar series
    doc = _linear_doc()
    doc["noise"]["basis"] = {"n_terms": 64, "horizon": 25.0}
    cfg_path = _write_config(tmp_path, doc)

    def never(*args, **kwargs):
        raise AssertionError("computation ran before the basis was rejected")

    for name in ("run_trials", "resolve_constants", "estimate_equivalence_constants",
                 "mgf_check", "quadratic_form_check", "build_model"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "x"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "noise.basis:" in err and "only `simulate` reads it" in err
    assert not out.exists()


def test_too_few_trials_exit_2_before_any_trial(tmp_path, monkeypatch, capsys):
    doc = _linear_doc()
    doc["montecarlo"]["n_trials"] = 99
    cfg_path = _write_config(tmp_path, doc)

    def never(cfg, workers=1):
        raise AssertionError("trials ran before the trial count was checked")

    monkeypatch.setattr(cli, "run_trials", never)
    assert cli.main(["tails", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "montecarlo.n_trials" in err
    assert "at least 100 trials, got 99" in err


def test_simulate_with_one_path_exits_2_before_any_path(tmp_path, monkeypatch, capsys):
    doc = _linear_doc()
    doc["grid"] = {"T": 1.0, "n_steps": 100}
    doc["montecarlo"]["n_trials"] = 1
    out = tmp_path / "one"

    def never(*args, **kwargs):
        raise AssertionError("a path was drawn before the path count was checked")

    monkeypatch.setattr(cli, "noise_path", never)
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "montecarlo.n_trials" in capsys.readouterr().err
    assert not (out / "simulate_summary.json").exists()

    monkeypatch.undo()
    doc["montecarlo"]["n_trials"] = 2
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["n_paths"] == 2
    assert all(math.isfinite(entry["se"]) for entry in summary["covariance"])


def _loaded_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and return the scipy and process-pool modules it loaded."""
    code += ("\nimport json; print(json.dumps(sorted(m for m in sys.modules if m == 'scipy'"
             " or m.startswith('scipy.') or m == 'concurrent.futures.process')))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_minflt from os.wait4")
def test_check_makes_no_page_fault_storm(tmp_path):
    # check on exp_filtered at half its grid (N = 2501) makes 6k-9k minor page
    # faults, imports included; an array the allocator hands back to the system
    # and faults in again on every block of a loop makes hundreds of thousands
    doc = json.loads((CONFIGS / "exp_filtered.json").read_text())
    doc["grid"]["n_steps"] = 2500
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "regtails.cli", "check", "--config", _write_config(tmp_path, doc),
         "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_minflt < 50_000


def test_cli_import_leaves_out_slow_scipy_modules():
    assert _loaded_after("import sys, regtails.cli") == []


def test_cli_import_leaves_out_numpy_random():
    # numpy loads numpy.random at its first use; loaded at import, its import
    # time would land in the set-up of every command
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, regtails.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_leaves_out_the_process_pool_and_logging():
    # only run_trials' workers > 1 branch imports concurrent.futures, which
    # imports logging; a serial command loads neither
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, regtails.cli; "
         "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_cli_subcommands_run_without_scipy(tmp_path):
    doc = _linear_doc()
    doc["noise"] = {"driver": "rademacher", "kernel": {"form": "exponential", "rate": 1.0}}
    doc["grid"] = {"T": 1.0, "n_steps": 100}
    doc["montecarlo"]["n_trials"] = 120
    cfg_path, out = _write_config(tmp_path, doc), str(tmp_path / "out")
    code = ("import sys, regtails.cli as cli\n"
            "for cmd in ('constants', 'simulate', 'tails', 'check'):\n"
            f"    assert cli.main([cmd, '--config', {cfg_path!r}, '--out', {out!r}]) == 0, cmd")
    assert _loaded_after(code) == []


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["tails", "--config", str(tmp_path / "nope.json")]) == 2


def test_simulate_outputs(tmp_path):
    doc = _linear_doc()
    doc["noise"] = {"driver": "gaussian", "kernel": {"form": "exponential", "rate": 1.0}}
    doc["grid"] = {"T": 2.0, "n_steps": 200}
    doc["montecarlo"]["n_trials"] = 800
    cfg_path = _write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    summary = json.loads((out1 / "simulate_summary.json").read_text())
    assert summary["covariance"][0]["within_4se"]
    assert summary["covariance"][0]["theory"] == pytest.approx(0.5, rel=1e-5)
    paths = sorted(out1.glob("path_*.tsv"))
    assert paths
    # byte-identical rerun
    assert paths[0].read_bytes() == (out2 / paths[0].name).read_bytes()


def test_simulate_series_mode(tmp_path):
    doc = _linear_doc()
    doc["noise"] = {"driver": "gaussian", "kernel": None,
                    "basis": {"n_terms": 512, "horizon": 2.0}}
    doc["grid"] = {"T": 1.0, "n_steps": 8}
    doc["montecarlo"]["n_trials"] = 3000
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "ser"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["mode"] == "series_construction"
    assert summary["all_within_4se"]


@pytest.mark.parametrize("mode", ["white", "filtered", "series_construction"])
def test_simulate_paths_are_the_streams_of_default_rng(mode, tmp_path):
    # each path file against the path drawn from default_rng(derive_seed(master, STREAM_PATHS, i))
    doc = _linear_doc()
    doc["noise"] = {"driver": "rademacher",
                    "kernel": {"form": "exponential", "rate": 1.0} if mode == "filtered" else None}
    if mode == "series_construction":
        doc["noise"]["basis"] = {"n_terms": 33, "horizon": 5.0}
    doc["montecarlo"]["n_trials"] = 19
    cfg = config_from_dict(doc)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert json.loads((out / "simulate_summary.json").read_text())["mode"] == mode
    grid, kernel, basis = build_grid(cfg), build_kernel(cfg), build_basis(cfg)
    files = sorted(out.glob("path_*.tsv"))
    assert len(files) == 16
    for i, file in enumerate(files):
        bits = np.random.default_rng(derive_seed(11, STREAM_PATHS, i)).bit_generator
        want = (noise_path("rademacher", grid, bits, kernel) if basis is None
                else ito_nisio_path("rademacher", basis, grid, bits))
        rows = [line for line in file.read_text().splitlines() if not line.startswith("#")][1:]
        assert [float(row.split("\t")[1]) for row in rows] == want.tolist(), file.name


def test_check_filtered_rademacher_passes(tmp_path):
    doc = _linear_doc()
    doc["model"] = {"name": "exp_inner", "parameters": {"regressors": "constant"},
                    "box": {"lower": [-0.5], "upper": [0.5]}, "theta_true": [0.0]}
    doc["noise"] = {"driver": "rademacher", "kernel": {"form": "exponential", "rate": 1.0}}
    doc["grid"] = {"T": 1.0, "n_steps": 100}
    doc["norming"] = "s_T"
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["verdicts"]["mgf_raw"] is True
    assert report["verdicts"]["mgf_filtered"] is True
    assert report["verdicts"]["quadratic_form"] is True
    assert report["verdicts"]["equivalence_bracket"] is True
    assert report["c0_theory"] == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert report["b2"] > 0


@pytest.mark.parametrize("norming,theta,c0,c1", [
    # d_T at theta = 0.3: d^2 = T e^0.6, so the bracket is [e^-1.6, e^0.4]
    ("d_T", 0.3, math.exp(-1.6), math.exp(0.4)),
    ("s_T", 0.0, math.exp(-1.0), math.exp(1.0)),
], ids=["d_T", "s_T"])
def test_check_equivalence_bracket_follows_the_norming(tmp_path, norming, theta, c0, c1):
    doc = json.loads((CONFIGS / "exp_filtered.json").read_text())
    doc["grid"] = {"T": 10.0, "n_steps": 1000}
    doc["norming"] = norming
    doc["model"]["theta_true"] = [theta]
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["verdicts"]["equivalence_bracket"] is True
    assert report["c0_theory"] == pytest.approx(c0, rel=1e-6)
    assert report["c1_theory"] == pytest.approx(c1, rel=1e-6)
    assert report["c0_theory"] <= report["c0_hat"] <= report["c1_hat"] <= report["c1_theory"]
    if norming == "s_T":
        # s_T keeps the closed forms as they are, unscaled by T / s_T^2
        assert report["c0_theory"] == report["L"] ** 2 * report["lambda_min"]


def test_check_negative_control_fails_but_exits_0(tmp_path):
    doc = _linear_doc()
    doc["noise"] = {"driver": "centered_exponential", "kernel": None}
    doc["grid"] = {"T": 1.0, "n_steps": 100}
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "neg"
    assert cli.main(["check", "--config", cfg_path, "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    report = json.loads((out / "check_report.json").read_text(), parse_constant=reject)
    assert report["verdicts"]["mgf_raw"] is False
    # the exact MGF of the centered exponential is infinite from lambda * u = 1 on
    assert report["mgf_raw_margin"]["exact_mean"][-1] == "inf"


@pytest.mark.parametrize("n_steps", [1, 4])
def test_check_runs_on_grids_with_few_steps(tmp_path, n_steps):
    doc = _linear_doc()
    doc["noise"] = {"driver": "rademacher", "kernel": {"form": "exponential", "rate": 1.0}}
    doc["grid"] = {"T": 1.0, "n_steps": n_steps}
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "chk"
    assert cli.main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert set(report["quadratic_form"]) == {"f0_sim"}
    assert report["verdicts"]["quadratic_form"] is True


def test_constants_subcommand(tmp_path, capsys):
    doc = _linear_doc()
    doc["bounds"] = {"c0": 1.0}
    cfg_path = _write_config(tmp_path, doc)
    assert cli.main(["constants", "--config", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    # white-increment noise: f0 = 1/(2 pi), d0 = 1, b = c0/16 - beta
    assert payload["constants"]["d0"] == pytest.approx(1.0, rel=1e-12)
    assert payload["constants"]["b"] == pytest.approx(1.0 / 16.0, rel=2e-3)
    assert payload["extras"]["f0_source"] == "white_noise"


def _exp_inner_doc(parameters, kernel=None):
    doc = _linear_doc()
    doc["model"] = {"name": "exp_inner", "parameters": parameters,
                    "box": {"lower": [-0.5], "upper": [0.5]}, "theta_true": [0.0]}
    doc["noise"]["kernel"] = kernel
    doc["grid"] = {"T": 1.0, "n_steps": 100}
    return doc


def test_constants_reads_a_regressor_file(tmp_path, monkeypatch, capsys):
    # a file of ones interpolates to exactly the constant family.  The file's
    # model takes the path route and the family the scalar route, whose ratios
    # agree to about 1e-15: on these 300 pairs bit for bit, not on the 2000 a
    # run samples (c1_hat then differs in its last two digits)
    monkeypatch.setattr(model_module, "EQUIVALENCE_PAIRS", 300)
    table = tmp_path / "ones.txt"
    table.write_text("0 1\n0.5 1\n2 1\n")
    payloads = []
    for parameters in ({"regressors": "constant"}, {"regressor_file": str(table)}):
        cfg_path = _write_config(tmp_path, _exp_inner_doc(parameters))
        assert cli.main(["constants", "--config", cfg_path]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[0] == payloads[1]
    assert payloads[1]["extras"]["c0_source"] == "pair_sampling"


@pytest.mark.parametrize("command", ["constants", "tails", "check"])
def test_a_regressor_file_of_the_wrong_width_exits_2_before_any_computation(
        tmp_path, monkeypatch, capsys, command):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the regressor file was checked")

    monkeypatch.setattr(cli, "estimate_equivalence_constants", computed)
    monkeypatch.setattr(cli, "run_trials", computed)
    table = tmp_path / "two.txt"
    table.write_text("0 1 2\n0.5 1 2\n2 1 2\n")
    doc = _exp_inner_doc({"regressor_file": str(table)}, {"form": "exponential", "rate": 1.0})
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"model.parameters.regressor_file: regressor file {table} has 2 value columns, "
            f"but the box has 1 coordinates") in err
    assert not out.exists()


@pytest.mark.parametrize("text,problem", [
    ("0\n1\n", ""), ("0 1\n1 x\n", ""), ("", " is empty"), ("# time value\n\n", " is empty"),
], ids=["one_column", "malformed", "empty", "comment_only"])
@pytest.mark.parametrize("what", ["kernel", "regressor"])
def test_bad_table_file_exits_2_naming_it(tmp_path, capsys, what, text, problem):
    table = tmp_path / "table.txt"
    table.write_text(text)
    if what == "kernel":
        doc = _exp_inner_doc({"regressors": "constant"}, {"form": "tabulated", "file": str(table)})
    else:
        doc = _exp_inner_doc({"regressor_file": str(table)})
    assert cli.main(["constants", "--config", _write_config(tmp_path, doc)]) == 2
    assert f"{what} file {table}{problem}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("what", ["kernel", "regressor"])
@pytest.mark.parametrize("command", ["constants", "tails", "check"])
def test_a_non_finite_table_value_exits_2_naming_the_file(tmp_path, monkeypatch, capsys,
                                                          command, what, value):
    # NumPy parses nan and inf as floats; the file is rejected as it is read
    def computed(*args, **kwargs):
        raise AssertionError("computed before the table was checked")

    for name in ("estimate_equivalence_constants", "run_trials", "f0_sup", "f0_sim",
                 "exp_model_constants", "quadratic_form_check", "mgf_check"):
        monkeypatch.setattr(cli, name, computed)
    table = tmp_path / "table.txt"
    table.write_text(f"0 1\n1 {value}\n2 1\n")
    if what == "kernel":
        doc = _exp_inner_doc({"regressors": "constant"}, {"form": "tabulated", "file": str(table)})
    else:
        doc = _exp_inner_doc({"regressor_file": str(table)}, {"form": "exponential", "rate": 1.0})
    doc["bounds"]["c0"] = 0.5
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert f"{what} file {table} has a value that is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_check_reads_a_regressor_file_once(tmp_path, monkeypatch):
    # exp_model_constants takes the regressor rows from the built model, not from a second read
    reads = []

    def counted(path, what):
        reads.append(str(path))
        return load_table(path, what)

    table = tmp_path / "ones.txt"
    table.write_text("0 1\n0.5 1\n2 1\n")
    reports = []
    for parameters in ({"regressors": "constant"}, {"regressor_file": str(table)}):
        monkeypatch.setattr(model_module, "load_table", counted)
        doc = _exp_inner_doc(parameters, {"form": "exponential", "rate": 1.0})
        out = tmp_path / "chk"
        assert cli.main(["check", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        reports.append(json.loads((out / "check_report.json").read_text()))
    assert reads == [str(table)]
    # a file of ones gives the constant family's regressor rows, so the same closed forms
    for key in ("c0_theory", "c1_theory", "H", "L", "lambda_min"):
        assert reports[0][key] == reports[1][key]


def test_simulate_series_mode_takes_one_step(tmp_path):
    # one step has nodes 0 and T only: every pair is (T, T), whose covariance is T
    doc = _linear_doc()
    doc["noise"] = {"driver": "gaussian", "kernel": None,
                    "basis": {"n_terms": 64, "horizon": 2.0}}
    doc["grid"] = {"T": 1.0, "n_steps": 1}
    out = tmp_path / "ser"
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert [(e["s"], e["t"], e["theory"]) for e in summary["covariance"]] == [(1.0, 1.0, 1.0)] * 3
