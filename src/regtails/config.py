"""Experiment configuration: a single JSON document describing one run.

The file has sections model / noise / grid / norming / montecarlo / bounds /
output.  Everything is validated before any computation, an unknown key too,
and a parsed config serializes back to an identical document (round-trip
stable), which is what makes output files reproducible provenance records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import (
    ParameterBox,
    RegressionModel,
    constant_model,
    exp_inner_model,
    linear_model,
    make_regressors,
    norming_vector,
    tabulated_regressors,
    NORMING_MODES,
)
from .noise import DRIVER_KINDS, BasisSpec, FilterKernel
from .numerics import TimeGrid, default_n_steps

MODEL_NAMES = ("linear", "constant", "exp_inner")


@dataclass(frozen=True)
class ModelConfig:
    name: str
    box_lower: tuple[float, ...]
    box_upper: tuple[float, ...]
    theta_true: tuple[float, ...]
    regressors: str | None = None
    regressor_file: str | None = None


@dataclass(frozen=True)
class NoiseConfig:
    driver: str
    kernel_form: str | None = None
    kernel_rate: float | None = None
    kernel_file: str | None = None
    basis_n_terms: int | None = None
    basis_horizon: float | None = None


@dataclass(frozen=True)
class GridConfig:
    T: float
    n_steps: int | None = None


@dataclass(frozen=True)
class MonteCarloConfig:
    n_trials: int
    master_seed: int
    r_grid: tuple[float, ...]


@dataclass(frozen=True)
class BoundsConfig:
    beta: float | None = None          # None -> proportional default
    b_cal_mode: str = "fixed"
    b_cal_value: float = 1.0
    calibration_fraction: float = 0.1
    c0: float | None = None            # None -> estimate from pair sampling
    equivalence_pairs: int = 2000
    f0: float | None = None            # None -> from the kernel spectrum


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    noise: NoiseConfig
    grid: GridConfig
    norming: str
    montecarlo: MonteCarloConfig
    bounds: BoundsConfig = BoundsConfig()
    output: OutputConfig = OutputConfig()


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _require(section: dict, key: str, where: str):
    if not isinstance(section, dict) or key not in section:
        _fail(f"{where}.{key}", "missing required key")
    return section[key]


def _known(section, where: str, keys: tuple[str, ...]) -> dict:
    """``section`` itself, once it is an object holding no key outside ``keys``."""
    if not isinstance(section, dict):
        _fail(where, "expected a JSON object")
    for key in section:
        if key not in keys:
            _fail(f"{where}.{key}" if where else key, f"unknown key; expected one of {keys}")
    return section


def _optional(section: dict, key: str):
    """The value at ``key``, with an absent key or null read as an empty object."""
    value = section.get(key)
    return {} if value is None else value


def _as_float(value, field: str, positive=False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(field, f"expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        _fail(field, "must be finite")
    if positive and out <= 0:
        _fail(field, f"must be positive, got {out}")
    return out


def _as_int(value, field: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    return value


def as_seed(value, field: str) -> int:
    """A master seed, 0 <= seed < 2^64: derive_seed reads seeds modulo 2^64."""
    seed = _as_int(value, field, minimum=0)
    if seed >= 1 << 64:
        _fail(field, f"must be below 2^64, got {seed}")
    return seed


def _as_str(value, field: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(field, f"expected a non-empty string, got {value!r}")
    return value


def _as_float_tuple(value, field: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(field, "expected a non-empty list of numbers")
    return tuple(_as_float(v, field) for v in value)


def _parse_model(section: dict) -> ModelConfig:
    _known(section, "model", ("name", "box", "theta_true", "parameters"))
    name = _require(section, "name", "model")
    if name not in MODEL_NAMES:
        _fail("model.name", f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    box = _known(_require(section, "box", "model"), "model.box", ("lower", "upper"))
    lower = _as_float_tuple(_require(box, "lower", "model.box"), "model.box.lower")
    upper = _as_float_tuple(_require(box, "upper", "model.box"), "model.box.upper")
    if len(lower) != len(upper):
        _fail("model.box", "lower and upper must have the same length")
    if not all(lo < hi for lo, hi in zip(lower, upper)):
        _fail("model.box", "must satisfy lower < upper per coordinate")
    theta = _as_float_tuple(_require(section, "theta_true", "model"), "model.theta_true")
    if len(theta) != len(lower):
        _fail("model.theta_true", "dimension does not match the box")
    if not all(lo < t < hi for t, lo, hi in zip(theta, lower, upper)):
        _fail("model.theta_true", "must be interior to the box")
    params = _known(_optional(section, "parameters"), "model.parameters",
                    ("regressors", "regressor_file"))
    regressors = params.get("regressors")
    regressor_file = params.get("regressor_file")
    for key, value in (("regressors", regressors), ("regressor_file", regressor_file)):
        if value is not None:
            _as_str(value, f"model.parameters.{key}")
    if name == "exp_inner":
        if regressors is None and regressor_file is None:
            _fail("model.parameters.regressors", "exp_inner model needs a regressor family or file")
    elif len(lower) != 1:
        _fail("model.box", f"{name} model is scalar; box must be one-dimensional")
    return ModelConfig(name=name, box_lower=lower, box_upper=upper, theta_true=theta,
                       regressors=regressors, regressor_file=regressor_file)


def _parse_noise(section: dict) -> NoiseConfig:
    if "prehistory" in _known(section, "noise", ("driver", "kernel", "basis", "prehistory")):
        _fail("noise.prehistory", "not a setting: the filter prehistory is derived from the kernel")
    driver = _require(section, "driver", "noise")
    if driver not in DRIVER_KINDS:
        _fail("noise.driver", f"unknown driver {driver!r}; expected one of {DRIVER_KINDS}")
    kernel = section.get("kernel")
    form = rate = kfile = None
    if kernel is not None:
        form = _require(kernel, "form", "noise.kernel")
        if form == "exponential":
            _known(kernel, "noise.kernel", ("form", "rate"))
            rate = _as_float(_require(kernel, "rate", "noise.kernel"), "noise.kernel.rate", positive=True)
        elif form == "tabulated":
            _known(kernel, "noise.kernel", ("form", "file"))
            kfile = _as_str(_require(kernel, "file", "noise.kernel"), "noise.kernel.file")
        else:
            _fail("noise.kernel.form", f"unknown kernel form {form!r}")
    basis = section.get("basis")
    b_terms = b_horizon = None
    if basis is not None:
        _known(basis, "noise.basis", ("n_terms", "horizon"))
        if kernel is not None:
            _fail("noise.basis", "the series construction takes no kernel; set noise.kernel to null")
        b_terms = _as_int(_require(basis, "n_terms", "noise.basis"), "noise.basis.n_terms", minimum=1)
        b_horizon = _as_float(_require(basis, "horizon", "noise.basis"), "noise.basis.horizon",
                              positive=True)
    return NoiseConfig(driver=driver, kernel_form=form, kernel_rate=rate, kernel_file=kfile,
                       basis_n_terms=b_terms, basis_horizon=b_horizon)


def _parse_grid(section: dict) -> GridConfig:
    _known(section, "grid", ("T", "n_steps"))
    T = _as_float(_require(section, "T", "grid"), "grid.T", positive=True)
    n_steps = section.get("n_steps")
    if n_steps is not None:
        n_steps = _as_int(n_steps, "grid.n_steps", minimum=1)
    return GridConfig(T=T, n_steps=n_steps)


def _parse_montecarlo(section: dict) -> MonteCarloConfig:
    _known(section, "montecarlo", ("n_trials", "master_seed", "R_grid"))
    n_trials = _as_int(_require(section, "n_trials", "montecarlo"), "montecarlo.n_trials", minimum=1)
    master_seed = as_seed(_require(section, "master_seed", "montecarlo"),
                          "montecarlo.master_seed")
    r_grid = _as_float_tuple(_require(section, "R_grid", "montecarlo"), "montecarlo.R_grid")
    if any(r < 0 for r in r_grid):
        _fail("montecarlo.R_grid", "levels must be >= 0")
    if any(b <= a for a, b in zip(r_grid, r_grid[1:])):
        _fail("montecarlo.R_grid", "levels must be strictly increasing")
    return MonteCarloConfig(n_trials=n_trials, master_seed=master_seed, r_grid=r_grid)


def _parse_bounds(section: dict) -> BoundsConfig:
    _known(section, "bounds", ("beta", "B_cal", "c0", "equivalence_pairs", "f0"))
    beta = section.get("beta", "auto")
    beta = None if beta == "auto" else _as_float(beta, "bounds.beta", positive=True)
    bcal = _known(_optional(section, "B_cal"), "bounds.B_cal", ("mode", "value", "fraction"))
    mode = bcal.get("mode", "fixed")
    if mode not in ("fixed", "calibrate"):
        _fail("bounds.B_cal.mode", f"expected 'fixed' or 'calibrate', got {mode!r}")
    value = _as_float(bcal.get("value", 1.0), "bounds.B_cal.value", positive=True)
    fraction = _as_float(bcal.get("fraction", 0.1), "bounds.B_cal.fraction")
    if not 0.0 < fraction < 1.0:
        _fail("bounds.B_cal.fraction", f"must lie in (0, 1), got {fraction}")
    c0 = section.get("c0", "estimate")
    c0 = None if c0 == "estimate" else _as_float(c0, "bounds.c0", positive=True)
    equivalence_pairs = _as_int(section.get("equivalence_pairs", 2000), "bounds.equivalence_pairs", minimum=100)
    f0 = section.get("f0", "auto")
    f0 = None if f0 == "auto" else _as_float(f0, "bounds.f0", positive=True)
    return BoundsConfig(beta=beta, b_cal_mode=mode, b_cal_value=value,
                        calibration_fraction=fraction, c0=c0, equivalence_pairs=equivalence_pairs, f0=f0)


def _parse_output(section: dict) -> OutputConfig:
    _known(section, "output", ("directory",))
    return OutputConfig(directory=_as_str(section.get("directory", "out"), "output.directory"))


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _known(doc, "", ("model", "noise", "grid", "norming", "montecarlo", "bounds", "output"))
    for key in ("model", "noise", "grid", "montecarlo"):
        if key not in doc:
            _fail(key, "missing required section")
    norming = doc.get("norming", "d_T")
    if norming not in NORMING_MODES:
        _fail("norming", f"expected one of {NORMING_MODES}, got {norming!r}")
    return ExperimentConfig(
        model=_parse_model(doc["model"]),
        noise=_parse_noise(doc["noise"]),
        grid=_parse_grid(doc["grid"]),
        norming=norming,
        montecarlo=_parse_montecarlo(doc["montecarlo"]),
        bounds=_parse_bounds(_optional(doc, "bounds")),
        output=_parse_output(_optional(doc, "output")),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    model: dict = {
        "name": cfg.model.name,
        "box": {"lower": list(cfg.model.box_lower), "upper": list(cfg.model.box_upper)},
        "theta_true": list(cfg.model.theta_true),
    }
    params = {}
    if cfg.model.regressors is not None:
        params["regressors"] = cfg.model.regressors
    if cfg.model.regressor_file is not None:
        params["regressor_file"] = cfg.model.regressor_file
    if params:
        model["parameters"] = params
    noise: dict = {"driver": cfg.noise.driver}
    if cfg.noise.kernel_form is None:
        noise["kernel"] = None
    elif cfg.noise.kernel_form == "exponential":
        noise["kernel"] = {"form": "exponential", "rate": cfg.noise.kernel_rate}
    else:
        noise["kernel"] = {"form": "tabulated", "file": cfg.noise.kernel_file}
    if cfg.noise.basis_n_terms is not None:
        noise["basis"] = {"n_terms": cfg.noise.basis_n_terms, "horizon": cfg.noise.basis_horizon}
    grid: dict = {"T": cfg.grid.T}
    if cfg.grid.n_steps is not None:
        grid["n_steps"] = cfg.grid.n_steps
    return {
        "model": model,
        "noise": noise,
        "grid": grid,
        "norming": cfg.norming,
        "montecarlo": {
            "n_trials": cfg.montecarlo.n_trials,
            "master_seed": cfg.montecarlo.master_seed,
            "R_grid": list(cfg.montecarlo.r_grid),
        },
        "bounds": {
            "beta": "auto" if cfg.bounds.beta is None else cfg.bounds.beta,
            "B_cal": {
                "mode": cfg.bounds.b_cal_mode,
                "value": cfg.bounds.b_cal_value,
                "fraction": cfg.bounds.calibration_fraction,
            },
            "c0": "estimate" if cfg.bounds.c0 is None else cfg.bounds.c0,
            "equivalence_pairs": cfg.bounds.equivalence_pairs,
            "f0": "auto" if cfg.bounds.f0 is None else cfg.bounds.f0,
        },
        "output": {"directory": cfg.output.directory},
    }


def config_from_json(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return config_from_dict(doc)


def load_config(path) -> ExperimentConfig:
    return config_from_json(Path(path).read_text())


# -- builders: config -> runtime objects ------------------------------------


def build_grid(cfg: ExperimentConfig) -> TimeGrid:
    n_steps = cfg.grid.n_steps
    if n_steps is None:
        n_steps = default_n_steps(cfg.grid.T)
    return TimeGrid(cfg.grid.T, n_steps)


def build_regressors(cfg: ExperimentConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Regressor functions y(t) of the exp_inner model: from a file, else a named family."""
    if cfg.model.regressor_file is not None:
        return tabulated_regressors(cfg.model.regressor_file)
    return make_regressors(cfg.model.regressors, len(cfg.model.box_lower))


def build_model(cfg: ExperimentConfig) -> RegressionModel:
    box = ParameterBox(cfg.model.box_lower, cfg.model.box_upper)
    if cfg.model.name == "linear":
        return linear_model(box)
    if cfg.model.name == "constant":
        return constant_model(box)
    return exp_inner_model(build_regressors(cfg), box)


def build_kernel(cfg: ExperimentConfig) -> FilterKernel | None:
    if cfg.noise.kernel_form is None:
        return None
    if cfg.noise.kernel_form == "exponential":
        return FilterKernel.exponential(cfg.noise.kernel_rate)
    return FilterKernel.from_file(cfg.noise.kernel_file)


def build_basis(cfg: ExperimentConfig) -> BasisSpec | None:
    if cfg.noise.basis_n_terms is None:
        return None
    return BasisSpec(n_terms=cfg.noise.basis_n_terms, horizon=cfg.noise.basis_horizon)


def build_norming(cfg: ExperimentConfig, model: RegressionModel, grid: TimeGrid) -> np.ndarray:
    return norming_vector(cfg.norming, model, cfg.model.theta_true, grid)
