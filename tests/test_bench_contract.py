"""The names the benchmark under bench/ reads from the package.

bench/tracer.py wraps every (module, attr) in its HOOKS list, and bench/run.py
and bench/probe.py read a few more names.  A rename here would otherwise only
show up in the minutes-long bench/test_smoke.py.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import regtails.cli as cli
from regtails import harness
from regtails.estimator import FitOptions, LseResult
from regtails.harness import MgfReport
from regtails.model import ParameterBox, linear_model

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
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
    # the tracer swaps a built model's eval/grad with dataclasses.replace
    model = linear_model(ParameterBox((0.0,), (1.0,)))
    swapped = dataclasses.replace(model, eval=model.eval, grad=model.grad)
    assert swapped.eval(np.array([2.0]), np.array([3.0]))[0] == 6.0
