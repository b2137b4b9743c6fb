"""Child-process probes for the benchmark; each runs in a fresh interpreter.

    python3 bench/probe.py setup CONFIG
        time ``import regtails.cli`` + ``load_config`` + the config builders and
        print one JSON line with the time, the module path, the CLI's MGF
        replications per probe and library versions.

    python3 bench/probe.py traced SPANS_FILE -- CLI_ARGS...
        run the regtails CLI in this process with every layer hook installed,
        write the spans to SPANS_FILE when it ends, and print one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def setup(config_path: str) -> dict:
    start = time.perf_counter()
    import regtails.cli  # noqa: F401 - the import is part of what is timed
    from regtails.config import build_grid, build_kernel, build_model, build_norming, load_config

    cfg = load_config(config_path)
    grid = build_grid(cfg)
    model = build_model(cfg)
    build_kernel(cfg)
    build_norming(cfg, model, grid)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "module": regtails.cli.__file__,
            "mgf_reps": regtails.cli.MGF_DEFAULT_REPS, **_versions()}


def traced(spans_path: str, cli_args: list[str]) -> tuple[int, dict]:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, install

    tracer = Tracer()
    missing = install(tracer)
    from regtails import cli
    from regtails.estimator import FitOptions

    cfg_path = cli_args[cli_args.index("--config") + 1]
    with open(cfg_path) as fh:
        q = len(json.load(fh)["model"]["box"]["lower"])
    start = time.perf_counter()
    code = cli.main(cli_args)
    run_s = time.perf_counter() - start
    doc = {"exit_code": code, "run_s": run_s, "missing_hooks": missing,
           "lattice_size": FitOptions().coarse_grid_per_dim ** q, "trace": tracer.dump()}
    start = time.perf_counter()
    with open(spans_path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code, {"exit_code": code, "dump_s": time.perf_counter() - start,
                  "module": cli.__file__, **_versions()}


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        print(json.dumps(setup(argv[1])))
        return 0
    if len(argv) >= 3 and argv[0] == "traced" and argv[2] == "--":
        code, info = traced(argv[1], argv[3:])
        print(json.dumps(info))
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
