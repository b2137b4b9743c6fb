"""The names and verdicts the benchmark under bench/ reads from the package.

bench/tracer.py wraps every (module, attr) in its HOOKS list, and bench/run.py
and bench/probe.py read a few more names.  bench/run.py also gates each run's
verdicts on bench/reference.json.  A rename or a flipped verdict here would
otherwise only show up in a benchmark run or the minutes-long
bench/test_smoke.py.
"""

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import regtails.cli as cli
from regtails import harness
from regtails.config import build_grid, build_kernel, build_model, load_config
from regtails.estimator import FitOptions, LseResult
from regtails.harness import MgfReport
from regtails.model import EQUIVALENCE_PAIRS, ParameterBox, linear_model

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_run(monkeypatch):
    """bench/run.py as a module; its dataclasses look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location("_bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends bench/
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_is_callable():
    missing = [f"{mod}.{attr}" for mod, attr, *_ in _load_tracer().HOOKS
               if not callable(getattr(importlib.import_module(f"regtails.{mod}"), attr, None))]
    assert missing == []


def test_names_the_benchmark_reads():
    assert "n_rep" in {f.name for f in dataclasses.fields(MgfReport)}
    assert {"boundary", "lattice_tie_count"} <= {f.name for f in dataclasses.fields(LseResult)}
    assert isinstance(FitOptions().coarse_grid_per_dim, int)
    assert isinstance(cli.MGF_DEFAULT_REPS, int)
    assert harness.STREAM_PAIRS == 4  # bench/run.py restates it as a literal
    # and this as the default of bounds.get("equivalence_pairs", 2000)
    assert EQUIVALENCE_PAIRS == 2000
    # the tracer swaps a built model's eval/grad with dataclasses.replace
    model = linear_model(ParameterBox((0.0,), (1.0,)))
    swapped = dataclasses.replace(model, eval=model.eval, grad=model.grad)
    assert swapped.eval(np.array([2.0]), np.array([3.0]))[0] == 6.0


@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("name", ["exp_filtered", "linear_white"])
def test_constants_match_the_benchmark_closed_form(monkeypatch, name, seed):
    # the benchmark gates every run on these closed forms; a kernel horizon or
    # quadrature change that moves f0 would otherwise show only there
    run = _load_run(monkeypatch)
    path = ROOT / "configs" / f"{name}.json"
    cfg = load_config(path)
    cfg = dataclasses.replace(cfg, montecarlo=dataclasses.replace(cfg.montecarlo, master_seed=seed))
    consts, _ = cli.resolve_constants(cfg, build_model(cfg), build_grid(cfg), build_kernel(cfg))
    expected = run.expected_constants(json.loads(path.read_text()), seed)
    assert set(expected) == {"f0", "d0", "c0", "b"}
    for key, want in expected.items():
        assert abs(getattr(consts, key) - want) <= run.REL_TOL * abs(want), key


@pytest.mark.parametrize("seed", [1, 9001])
def test_check_verdicts_match_the_benchmark_reference(monkeypatch, tmp_path, seed):
    # the benchmark rejects a run whose verdicts differ from bench/reference.json;
    # a change to the simulated noise that flips one would otherwise show only there
    run = _load_run(monkeypatch)
    workload = run.WORKLOADS["check-filtered"]
    doc = json.loads((ROOT / workload.config).read_text())
    doc["grid"]["n_steps"] = workload.n_steps
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    assert report["verdicts"] == reference["workloads"][workload.name][str(seed)]["verdicts"]
