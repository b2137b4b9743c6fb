"""Outside-in span tracer for the regtails layers.

The tracer never edits the package.  It wraps each layer module's public
functions from the outside and rebinds every name in every ``regtails`` module
that refers to the original function, because ``from .x import f`` copies the
binding into the importing module.  Function references held in module-level
dicts (the CLI's subcommand table) are rebound too.

Span hooks record ``(name, start, end, parent, info)`` in memory; the caller
writes them out once the run ends.  Counter hooks only count calls, so the
time of a helper stays in its caller's self time.  A span's self time is its
duration minus the durations of its child spans (one thread, so children never
overlap).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

SPAN = "span"
COUNT = "count"


def _grid_square_bytes(grid) -> int:
    # one N x N int64 index array plus one N x N float64 matrix, from array sizes
    return 2 * 8 * grid.n_nodes ** 2


def _qf_bytes(args, kwargs, result):
    return _grid_square_bytes(kwargs.get("grid", args[2] if len(args) > 2 else None))


def _qf_check_bytes(args, kwargs, result):
    return _grid_square_bytes(kwargs.get("grid", args[1] if len(args) > 1 else None))


def _fit_info(args, kwargs, result):
    return [bool(result.boundary), int(getattr(result, "lattice_tie_count", 1)) > 1]


def _mgf_paths(args, kwargs, result):
    return int(result.n_rep)


_BOUNDS_FUNCS = ("exponent_rate", "stationary_rate", "default_beta", "noise_integral_tail",
                 "tail_envelope", "consistency_envelope", "moderate_deviation_envelope",
                 "calibrate_prefactor")

#: (module, attribute, span name, kind, info extractor)
HOOKS = [
    ("numerics", "trapezoid_weights", "numerics.trapezoid_weights", SPAN, None),
    ("numerics", "integrate", "numerics.integrate", SPAN, None),
    ("numerics", "inner_product", "numerics.inner_product", SPAN, None),
    ("noise", "sample_driver", "noise.sample_driver", SPAN, None),
    ("noise", "simulate_increments", "noise.simulate_increments", SPAN, None),
    ("noise", "apply_filter", "noise.apply_filter", SPAN, None),
    ("noise", "filtered_noise_path", "noise.filtered_noise_path", SPAN, None),
    ("noise", "white_noise_path", "noise.white_noise_path", SPAN, None),
    ("noise", "covariance_row", "noise.covariance_row", SPAN, None),
    ("noise", "covariance_of_filter", "noise.covariance_of_filter", COUNT, None),
    ("noise", "quadratic_form", "noise.quadratic_form", SPAN, _qf_bytes),
    ("noise", "f0_sup", "noise.f0_sup", SPAN, None),
    ("noise", "spectral_density", "noise.spectral_density", COUNT, None),
    ("model", "phi", "model.phi", COUNT, None),
    ("model", "estimate_equivalence_constants", "model.estimate_equivalence_constants", SPAN, None),
    ("model", "exp_model_constants", "model.exp_model_constants", SPAN, None),
    ("estimator", "lse_fit", "estimator.lse_fit", SPAN, _fit_info),
    ("estimator", "objective", "estimator.objective", SPAN, None),
    *[("bounds", f, f"bounds.{f}", SPAN, None) for f in _BOUNDS_FUNCS],
    ("harness", "derive_seed", "harness.derive_seed", COUNT, None),
    ("harness", "run_trials", "harness.run_trials", SPAN, None),
    ("harness", "estimate_tail", "harness.estimate_tail", SPAN, None),
    ("harness", "clopper_pearson", "harness.clopper_pearson", SPAN, None),
    ("harness", "mgf_check", "harness.mgf_check", SPAN, _mgf_paths),
    ("harness", "quadratic_form_check", "harness.quadratic_form_check", SPAN, _qf_check_bytes),
    ("config", "load_config", "config.load_config", SPAN, None),
    ("config", "build_grid", "config.build_grid", SPAN, None),
    ("config", "build_model", "config.build_model", SPAN, None),
    ("config", "build_kernel", "config.build_kernel", SPAN, None),
    ("config", "build_norming", "config.build_norming", SPAN, None),
    ("config", "build_basis", "config.build_basis", SPAN, None),
    ("cli", "resolve_constants", "cli.resolve_constants", SPAN, None),
    ("cli", "cmd_tails", "cli.cmd_tails", SPAN, None),
    ("cli", "cmd_check", "cli.cmd_check", SPAN, None),
]


class Tracer:
    """In-memory span and call-count recorder for a single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start, end, parent index, info]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info`` extracts data from the result."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                rec[4] = type(err).__name__
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so its calls are counted without opening a span."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def _traced_build_model(tracer: Tracer, build_model):
    """Wrap the model returned by ``build_model`` so its eval/grad callables record spans."""

    def build(cfg):
        model = build_model(cfg)
        return dataclasses.replace(model, eval=tracer.span("model.eval", model.eval),
                                   grad=tracer.span("model.grad", model.grad))

    return functools.wraps(build_model)(build)


def install(tracer: Tracer, package: str = "regtails") -> list[str]:
    """Wrap every hook that exists and rebind it everywhere; return the hooks not found."""
    importlib.import_module(f"{package}.cli")
    missing = []
    replacement = {}
    for mod_name, attr, name, kind, info in HOOKS:
        mod = importlib.import_module(f"{package}.{mod_name}")
        fn = getattr(mod, attr, None)
        if not callable(fn):
            missing.append(f"{mod_name}.{attr}")
            continue
        target = _traced_build_model(tracer, fn) if name == "config.build_model" else fn
        wrapped = tracer.span(name, target, info) if kind == SPAN else tracer.counter(name, target)
        replacement[id(fn)] = (fn, wrapped)

    def swap(value):
        hit = replacement.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if isinstance(value, dict) and key != "__builtins__":
                for k, v in list(value.items()):
                    if swap(v) is not v:
                        value[k] = swap(v)
            elif swap(value) is not value:
                setattr(mod, key, swap(value))
    return missing


# -- span summary ------------------------------------------------------------


def summarize(doc: dict, lattice_size: int) -> dict:
    """Per-layer metrics from a dumped trace.

    ``lattice_size`` is the number of lattice points of the fit: inside each
    ``lse_fit`` span the first that many ``objective`` calls are the lattice
    scan, the rest are Gauss-Newton refinement.
    """
    names = doc["names"]
    spans = doc["spans"]
    counts = doc["counts"]
    n = len(spans)
    child_time = [0.0] * n
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    info: dict[str, list] = {}
    for i, (nid, start, end, parent, extra) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        if extra is not None:
            info.setdefault(name, []).append(extra)

    def c(name):
        return calls.get(name, counts.get(name, 0))

    def s(*group):
        return sum(self_s.get(g, 0.0) for g in group)

    def prefixed(prefix):
        return [k for k in self_s if k.startswith(prefix)]

    # lattice vs refinement, from objective spans nested directly in each fit
    fit_id = names.index("estimator.lse_fit") if "estimator.lse_fit" in names else -1
    obj_id = names.index("estimator.objective") if "estimator.objective" in names else -1
    fit_obj: dict[int, list] = {}
    if fit_id >= 0:
        for nid, start, end, parent, _ in spans:
            if nid == obj_id and parent >= 0 and spans[parent][0] == fit_id:
                fit_obj.setdefault(parent, []).append(end)
    lattice_s = refine_s = 0.0
    refine_calls = 0
    n_fits = 0
    for i, (nid, start, end, parent, _) in enumerate(spans):
        if nid != fit_id:
            continue
        n_fits += 1
        ends = fit_obj.get(i, [])
        cut = ends[min(lattice_size, len(ends)) - 1] if ends else start
        lattice_s += cut - start
        refine_s += end - cut
        refine_calls += max(0, len(ends) - lattice_size)
    fits = info.get("estimator.lse_fit", [])
    nonconverged = sum(1 for x in fits if x == "NonConvergenceError")
    done = [x for x in fits if isinstance(x, list)]

    def frac(k, total):
        return k / total if total else 0.0

    def total(name):
        # integer span payloads; a call that raised carries its exception name instead
        return sum(x for x in info.get(name, []) if isinstance(x, int))

    return {
        "numerics.trapezoid_weights.calls": c("numerics.trapezoid_weights"),
        "numerics.integrate.calls": c("numerics.integrate"),
        "numerics.self_s": s(*prefixed("numerics.")),
        "noise.sample_driver.calls": c("noise.sample_driver"),
        "noise.sample_driver.self_s": s("noise.sample_driver"),
        "noise.apply_filter.calls": c("noise.apply_filter"),
        "noise.apply_filter.self_s": s("noise.apply_filter"),
        "noise.path.self_s": s("noise.filtered_noise_path", "noise.white_noise_path",
                               "noise.simulate_increments"),
        "noise.covariance_row.self_s": s("noise.covariance_row"),
        "noise.quadratic_form.calls": c("noise.quadratic_form"),
        "noise.quadratic_form.self_s": s("noise.quadratic_form"),
        "noise.quadratic_form.bytes_computed": total("noise.quadratic_form"),
        "noise.f0_sup.calls": c("noise.f0_sup"),
        "noise.f0_sup.self_s": s("noise.f0_sup"),
        "noise.spectral_density.calls": c("noise.spectral_density"),
        "model.eval.calls": c("model.eval"),
        "model.eval.self_s": s("model.eval"),
        "model.grad.calls": c("model.grad"),
        "model.grad.self_s": s("model.grad"),
        "model.phi.calls": c("model.phi"),
        "model.estimate_equivalence_constants.self_s": s("model.estimate_equivalence_constants"),
        "model.exp_model_constants.self_s": s("model.exp_model_constants"),
        "estimator.lse_fit.calls": n_fits,
        "estimator.lse_fit.self_s": s("estimator.lse_fit"),
        "estimator.objective.calls": c("estimator.objective"),
        "estimator.objective.self_s": s("estimator.objective"),
        "estimator.lattice_s": lattice_s,
        "estimator.refine_s": refine_s,
        "estimator.refine_calls_per_fit": frac(refine_calls, n_fits),
        "estimator.nonconverged": nonconverged,
        "estimator.boundary_frac": frac(sum(1 for x in done if x[0]), n_fits),
        "estimator.tie_frac": frac(sum(1 for x in done if x[1]), n_fits),
        "bounds.calls": sum(c(f"bounds.{f}") for f in _BOUNDS_FUNCS),
        "bounds.self_s": s(*prefixed("bounds.")),
        "harness.run_trials.self_s": s("harness.run_trials"),
        "harness.derive_seed.calls": c("harness.derive_seed"),
        "harness.estimate_tail.self_s": s("harness.estimate_tail"),
        "harness.clopper_pearson.calls": c("harness.clopper_pearson"),
        "harness.clopper_pearson.self_s": s("harness.clopper_pearson"),
        "harness.mgf_check.self_s": s("harness.mgf_check"),
        "harness.mgf_check.paths": total("harness.mgf_check"),
        "harness.quadratic_form_check.self_s": s("harness.quadratic_form_check"),
        "harness.quadratic_form_check.bytes_computed": total("harness.quadratic_form_check"),
        "config.load_config.self_s": s("config.load_config"),
        "config.build.calls": sum(c(k) for k in calls if k.startswith("config.build_")),
        "config.build.self_s": s(*prefixed("config.build_")),
        "cli.resolve_constants.self_s": s("cli.resolve_constants"),
        "cli.command.self_s": s(*prefixed("cli.cmd_")),
    }
