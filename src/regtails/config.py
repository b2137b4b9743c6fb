"""Experiment configuration: a single JSON document describing one run.

The file has sections model / noise / grid / norming / montecarlo / bounds /
output.  Each JSON object is one frozen dataclass below whose fields are
exactly its keys: a field states its key's name, how its value is read and
its default, and nothing else restates them.  Everything is validated before
any computation, an unknown key too, and a parsed config serializes back to
an identical document (round-trip stable), which is what makes output files
reproducible provenance records.
"""

# no ``from __future__ import annotations`` here: dataclasses parses string
# annotations field by field, about 0.3 ms more per config class on CPython 3.11
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import (
    EQUIVALENCE_PAIRS,
    NORMING_MODES,
    REGRESSOR_REGISTRY,
    ParameterBox,
    RegressionModel,
    constant_model,
    exp_inner_model,
    linear_model,
    norming_vector,
    tabulated_regressors,
)
from .noise import DRIVER_KINDS, FilterKernel
from .numerics import TimeGrid, default_n_steps

MODEL_NAMES = ("linear", "constant", "exp_inner")

# keys that are no longer settings, with the reason a config that sets one is rejected
_REMOVED = {
    "noise.prehistory": "not a setting: the filter prehistory is derived from the kernel",
    "bounds.beta": "not a setting: the slack is a thousandth of the rate before slack",
    "bounds.equivalence_pairs": f"not a setting: c0 is estimated from {EQUIVALENCE_PAIRS} pairs",
    "bounds.B_cal": "not a setting: the envelope's prefactor is 1",
}


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


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


def _as_levels(value, field: str) -> tuple[float, ...]:
    levels = _as_float_tuple(value, field)
    if any(r < 0 for r in levels):
        _fail(field, "levels must be >= 0")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        _fail(field, "levels must be strictly increasing")
    return levels


def _one_of(choices: tuple[str, ...]):
    def read(value, field: str) -> str:
        if value not in choices:
            _fail(field, f"expected one of {choices}, got {value!r}")
        return value
    return read


_positive = partial(_as_float, positive=True)


def _read(cls, doc, where: str):
    """An instance of the config class ``cls`` from the JSON object ``doc``.

    Each key is read by its field's reader, an absent or null object reads as
    ``{}``, and an absent key takes its field's default.  A key may also write
    out a default that is null or a word (``"auto"``): it reads as absent.
    """
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        _fail(where or "config document", "expected a JSON object")
    keys = fields(cls)
    names = tuple(f.name for f in keys)
    for key in doc:
        if key not in names:
            path = f"{where}.{key}" if where else key
            _fail(path, _REMOVED.get(path, f"unknown key; expected one of {names}"))
    values = {}
    for f in keys:
        path = f"{where}.{f.name}" if where else f.name
        value = doc.get(f.name, f.default)
        if value is MISSING:
            _fail(path, "missing required key")
        if not (value is f.default or isinstance(value, str) and value == f.default):
            value = f.metadata["read"](value, path)
        values[f.name] = value
    return cls(**values)


def _key(read, default=MISSING, write_null=False):
    """A field read from the JSON key of its name by ``read(value, path)``.

    A config class as ``read`` reads a nested object.  An unset optional key is
    left out of the written document unless ``write_null``.
    """
    if isinstance(read, type):
        read = partial(_read, read)
    return field(default=default, metadata={"read": read, "write_null": write_null})


@dataclass(frozen=True)
class BoxConfig:
    lower: tuple[float, ...] = _key(_as_float_tuple)
    upper: tuple[float, ...] = _key(_as_float_tuple)


@dataclass(frozen=True)
class ParametersConfig:
    regressors: str | None = _key(_one_of(tuple(REGRESSOR_REGISTRY)), None)
    regressor_file: str | None = _key(_as_str, None)


@dataclass(frozen=True)
class ModelConfig:
    name: str = _key(_one_of(MODEL_NAMES))
    box: BoxConfig = _key(BoxConfig)
    theta_true: tuple[float, ...] = _key(_as_float_tuple)
    parameters: ParametersConfig = _key(ParametersConfig, ParametersConfig())


@dataclass(frozen=True)
class _KernelConfig:
    form: str = _key(_as_str)


@dataclass(frozen=True)
class ExponentialKernelConfig(_KernelConfig):
    rate: float = _key(_positive)


@dataclass(frozen=True)
class TabulatedKernelConfig(_KernelConfig):
    file: str = _key(_as_str)


_KERNEL_FORMS = {"exponential": ExponentialKernelConfig, "tabulated": TabulatedKernelConfig}


def _read_kernel(doc, field: str) -> _KernelConfig:
    """The kernel's form, read first, decides which other key it takes."""
    form = doc.get("form") if isinstance(doc, dict) else None
    _one_of(tuple(_KERNEL_FORMS))(form, f"{field}.form")
    return _read(_KERNEL_FORMS[form], doc, field)


@dataclass(frozen=True)
class BasisConfig:
    n_terms: int = _key(partial(_as_int, minimum=1))
    horizon: float = _key(_positive)


@dataclass(frozen=True)
class NoiseConfig:
    driver: str = _key(_one_of(DRIVER_KINDS))
    kernel: _KernelConfig | None = _key(_read_kernel, None, write_null=True)  # null: white
    basis: BasisConfig | None = _key(BasisConfig, None)


@dataclass(frozen=True)
class GridConfig:
    T: float = _key(_positive)
    n_steps: int | None = _key(partial(_as_int, minimum=1), None)


@dataclass(frozen=True)
class MonteCarloConfig:
    n_trials: int = _key(partial(_as_int, minimum=1))
    master_seed: int = _key(as_seed)
    R_grid: tuple[float, ...] = _key(_as_levels)


@dataclass(frozen=True)
class BoundsConfig:
    c0: float | str = _key(_positive, "estimate")       # "estimate": from pair sampling
    f0: float | str = _key(_positive, "auto")           # "auto": from the kernel spectrum


@dataclass(frozen=True)
class OutputConfig:
    directory: str = _key(_as_str, "out")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = _key(ModelConfig)
    noise: NoiseConfig = _key(NoiseConfig)
    grid: GridConfig = _key(GridConfig)
    montecarlo: MonteCarloConfig = _key(MonteCarloConfig)
    norming: str = _key(_one_of(NORMING_MODES), "d_T")
    bounds: BoundsConfig = _key(BoundsConfig, BoundsConfig())
    output: OutputConfig = _key(OutputConfig, OutputConfig())


def _check(cfg: ExperimentConfig) -> None:
    """The rules that tie one key to another."""
    model, box = cfg.model, cfg.model.box
    if len(box.lower) != len(box.upper):
        _fail("model.box", "lower and upper must have the same length")
    if not all(lo < hi for lo, hi in zip(box.lower, box.upper)):
        _fail("model.box", "must satisfy lower < upper per coordinate")
    if len(model.theta_true) != len(box.lower):
        _fail("model.theta_true", "dimension does not match the box")
    if not all(lo < t < hi for t, lo, hi in zip(model.theta_true, box.lower, box.upper)):
        _fail("model.theta_true", "must be interior to the box")
    params = model.parameters
    if model.name == "exp_inner":
        if (params.regressors is None) == (params.regressor_file is None):
            _fail("model.parameters", "exp_inner needs exactly one of regressors and regressor_file")
        if params.regressors == "constant" and len(box.lower) > 1:
            _fail("model.parameters.regressors", "the constant family repeats one row, so at "
                  "q >= 2 J_T is singular and the parameter is not identifiable")
    else:
        if len(box.lower) != 1:
            _fail("model.box", f"{model.name} model is scalar; box must be one-dimensional")
        if params != ParametersConfig():
            _fail("model.parameters", f"the {model.name} model reads no parameters; remove them")
    basis = cfg.noise.basis
    if basis is not None:
        if cfg.noise.kernel is not None:
            _fail("noise.basis", "the series construction takes no kernel; set noise.kernel to null")
        if cfg.grid.T > basis.horizon + 1e-12:
            _fail("noise.basis.horizon", f"must reach grid.T = {cfg.grid.T}, got {basis.horizon}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = _read(ExperimentConfig, doc, "")
    _check(cfg)
    return cfg


def config_to_dict(cfg) -> dict:
    """The JSON document of a config object: each field under its key.

    An unset optional key (None, or an object with nothing set) is left out,
    except where the field writes null.
    """
    doc = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value in (None, {}) and not f.metadata["write_null"]:
            continue
        doc[f.name] = value
    return doc


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
    params, q = cfg.model.parameters, len(cfg.model.box.lower)
    if params.regressor_file is not None:
        try:
            return tabulated_regressors(params.regressor_file, q)
        except ConfigError as err:
            _fail("model.parameters.regressor_file", str(err))
    return REGRESSOR_REGISTRY[params.regressors](q)


def build_model(cfg: ExperimentConfig) -> RegressionModel:
    box = ParameterBox(cfg.model.box.lower, cfg.model.box.upper)
    if cfg.model.name == "linear":
        return linear_model(box)
    if cfg.model.name == "constant":
        return constant_model(box)
    return exp_inner_model(build_regressors(cfg), box)


def build_kernel(cfg: ExperimentConfig) -> FilterKernel | None:
    kernel = cfg.noise.kernel
    if kernel is None:
        return None
    if isinstance(kernel, ExponentialKernelConfig):
        return FilterKernel.exponential(kernel.rate)
    return FilterKernel.from_file(kernel.file)


def build_basis(cfg: ExperimentConfig) -> BasisConfig | None:
    """The series construction's basis, which ``noise.ito_nisio_path`` reads as it is."""
    return cfg.noise.basis


def build_norming(cfg: ExperimentConfig, model: RegressionModel, grid: TimeGrid) -> np.ndarray:
    return norming_vector(cfg.norming, model, cfg.model.theta_true, grid)
