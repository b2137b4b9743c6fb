"""regtails benchmark: CLI workloads, end-to-end metrics, output gate, traced layers.

    python3 bench/run.py --workload tails-filtered --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, untraced, default seed
    python3 bench/run.py --trace 1            # every workload, per-layer metrics
    python3 bench/run.py --smoke --seconds 5  # tiny grid and trial count, same code path

Each workload runs the real ``regtails`` CLI from this checkout's ``src/`` in a
fresh subprocess, one process at a time, with BLAS threads capped at one.  An
untraced run repeats the CLI at the workload seed until ``--seconds`` would be
exceeded and reports medians, with times scaled to a reference machine speed
(see ``reference_task``).  A traced run (``--trace 1``) runs the CLI once
untraced and once in-process under the layer hooks of ``tracer.py`` and reports
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``detail``, holds provenance, every repetition and the gate results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = BENCH_DIR / "_work"
sys.path.insert(0, str(BENCH_DIR))

from tracer import summarize  # noqa: E402

DEFAULT_SEED = 1
#: held out from tuning; confirm a claimed gain here as well (README.md)
HELDOUT_SEED = 9001
SETUP_REPEATS = 3
#: nominal reference_task() seconds: end-to-end times are reported as if the
#: machine ran at the speed where the reference task takes this long
REFERENCE_NOMINAL_S = 1.4
#: BLAS threads per CLI process; workers x threads stays <= nproc on a 2-core box
THREAD_CAPS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}
REL_TOL = 1e-6          # f0_sup's own tolerance
STREAM_PAIRS = 4        # regtails.harness.STREAM_PAIRS
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    n_trials: int | None      # None keeps the config's value
    n_steps: int | None       # None keeps the config's grid
    smoke_n_steps: int
    gate_workers: int | None = None   # another worker count that must give the same bytes


WORKLOADS = {
    # heaviest Monte-Carlo loop: Rademacher increments through an exponential
    # kernel, nonlinear exp_inner fit, f0_sup and c0 pair sampling
    "tails-filtered": Workload("tails-filtered", "tails", "configs/exp_filtered.json",
                               n_trials=1000, n_steps=None, smoke_n_steps=500),
    # white Gaussian noise and a linear model, constants from the config: the
    # estimator and per-trial harness overhead dominate.  Timed at --workers 1
    # like the others, because timed processes share one pinned CPU with the
    # reference task.  Every run still checks that --workers 2 gives the same
    # bytes, so the process-pool path runs, untimed
    "tails-white": Workload("tails-white", "tails", "configs/linear_white.json",
                            n_trials=None, n_steps=None, smoke_n_steps=250, gate_workers=2),
    # no fitting: covariance quadrature, dense quadratic-form probes, MGF
    # replications with bootstrap, f0_sup twice.  Half the shipped grid
    # (N = 2501, same T): at N = 5001 one process takes 25-30 s, a run holds one
    # and its time could not be scaled by the reference task taken around it
    "check-filtered": Workload("check-filtered", "check", "configs/exp_filtered.json",
                               n_trials=None, n_steps=2500, smoke_n_steps=500),
}
SMOKE_TRIALS = 120      # smallest count leaving >= 100 eval trials after calibration

#: per-layer counts that must be zero on a workload, because it bypasses the layer
EXPECTED_ZERO = {
    "tails-white": ("noise.apply_filter.calls", "model.phi.calls"),
    "check-filtered": ("estimator.lse_fit.calls",),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, probe failed)."""


# -- child processes -------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], log_dir: Path) -> Proc:
    """Run one child to completion; wall time is spawn to exit, usage from wait4."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 covers the child and every descendant it waited for (pool workers);
    # ru_maxrss is the largest single process of that tree, in KiB on Linux
    return Proc(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, stdout=out_path.read_text(),
                stderr=err_path.read_text())


def last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else {}


def probe_setup(config: Path, log_dir: Path) -> dict:
    proc = spawn([str(BENCH_DIR / "probe.py"), "setup", str(config)], log_dir)
    if proc.code != 0:
        raise BenchError(f"set-up probe failed (exit {proc.code}): {proc.stderr.strip()[-400:]}")
    info = last_json(proc.stdout)
    if not Path(info["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"regtails was imported from {info['module']}, not from {ROOT / 'src'}")
    return info


def import_times(log_dir: Path) -> dict[str, float]:
    """Cumulative import seconds per regtails module from ``python -X importtime``."""
    proc = spawn(["-X", "importtime", "-c", "import regtails.cli"], log_dir)
    out = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(regtails(?:\.\w+)?)\s*$", line)
        if m:
            short = m.group(2).removeprefix("regtails.")
            out[f"{short}.import_s"] = int(m.group(1)) / 1e6
    return out


# -- inputs and the output gate -------------------------------------------------


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, stream: int, index: int) -> int:
    """The program's counter seed, restated here so the reference is independent."""
    z = _splitmix64((master & _MASK64) ^ _splitmix64(stream & _MASK64))
    return _splitmix64(z ^ _splitmix64(index & _MASK64))


def expected_constants(doc: dict, seed: int) -> dict[str, float]:
    """Closed-form f0, d0, c0 and b of the shipped configs, to within REL_TOL.

    Exponential kernel psi = exp(-a t): f0 = 1 / (2 pi a^2); white noise:
    f0 = 1 / (2 pi).  A pair-sampled c0 is restated for exp_inner with constant
    regressors, q = 1, s_T norming, where Phi(u, v) / ||u - v||^2 reduces to
    ((e^x - e^y) / (x - y))^2 at the sampled box points x, y.  The default
    slack beta = 1e-3 * c0 / (8 d0 (1 + q)) gives b = 0.999 * c0 / (8 d0 (1 + q)).
    """
    kernel = doc["noise"]["kernel"]
    if kernel is None:
        f0 = 1.0 / (2.0 * math.pi)
    elif kernel.get("form") == "exponential":
        f0 = 1.0 / (2.0 * math.pi * kernel["rate"] ** 2)
    else:
        return {}
    out = {"f0": f0, "d0": 2.0 * math.pi * f0}
    model, bounds = doc["model"], doc.get("bounds", {})
    lower, upper = model["box"]["lower"], model["box"]["upper"]
    q = len(lower)
    c0 = bounds.get("c0", "estimate")
    if c0 == "estimate":
        if not (model["name"] == "exp_inner" and q == 1 and doc.get("norming") == "s_T"
                and model.get("parameters", {}).get("regressors") == "constant"):
            return out
        rng = np.random.default_rng(derive_seed(seed, STREAM_PAIRS, 0))
        w = rng.uniform(np.asarray(lower), np.asarray(upper),
                        size=(2 * bounds.get("equivalence_pairs", 2000), q))[:, 0]
        x, y = w[0::2], w[1::2]
        keep = np.abs(x - y) > 1e-9
        c0 = float((((np.exp(x) - np.exp(y)) / (x - y))[keep] ** 2).min())
    out["c0"] = float(c0)
    if bounds.get("beta", "auto") == "auto":
        out["b"] = 0.999 * out["c0"] / (8.0 * out["d0"] * (1.0 + q))
    return out


@dataclass
class Outputs:
    """What one CLI run left in its output directory, with the gate verdict."""

    digest: str = ""
    n_bytes: int = 0
    verdicts: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    nonconverged: int = 0
    paths: int | None = None    # Monte-Carlo paths the process reports it ran
    n_probes: int = 0           # quadratic-form probes (check)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _all_true(value) -> bool:
    if isinstance(value, dict):
        return all(_all_true(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_true(v) for v in value)
    return value is True


def read_outputs(wl: Workload, out_dir: Path, code: int, expected: dict,
                 ref_verdicts: dict | None, mgf_reps: int) -> Outputs:
    """Digest, verdicts, constants and path count of one process's outputs, gated.

    A ``tails`` path is a trial.  A ``check`` path is a quadratic-form probe
    or an MGF replication: the report gives the probe count and the MGF probes
    run, each ``mgf_reps`` (the program's ``MGF_DEFAULT_REPS``) replications.
    """
    res = Outputs()
    if code != 0:
        res.problems.append(f"exit code {code}")
    files = sorted(p for p in out_dir.iterdir() if p.is_file()) if out_dir.is_dir() else []
    h = hashlib.sha256()
    for p in files:
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        res.n_bytes += len(data)
    res.digest = h.hexdigest()
    try:
        if wl.command == "tails":
            meta = json.loads((out_dir / "tails_meta.json").read_text())
            res.verdicts = {"overall_pass": meta["overall_pass"], "rate_ok": meta["rate_ok"],
                            "level_verdicts": meta["level_verdicts"]}
            res.constants = {k: meta["constants"][k] for k in ("b", "f0", "d0", "c0")}
            res.nonconverged = int(meta["n_nonconverged"])
            res.paths = int(meta["n_trials"])
        else:
            report = json.loads((out_dir / "check_report.json").read_text())
            res.verdicts = dict(report["verdicts"])
            res.constants = {"f0": report["f0"], "d0": report["d0"], "c0": report["c0_hat"]}
            res.n_probes = int(report.get("quadratic_form", {}).get("n_probes", 0))
            n_mgf = sum(k in report for k in ("mgf_raw", "mgf_raw_margin", "mgf_filtered"))
            res.paths = res.n_probes + n_mgf * mgf_reps
    except (OSError, KeyError, ValueError) as err:
        res.problems.append(f"unreadable output: {err!r}")
        return res
    if ref_verdicts is not None:
        if res.verdicts != ref_verdicts:
            res.problems.append(f"verdicts {res.verdicts} differ from seed commit {ref_verdicts}")
    elif not _all_true(res.verdicts):
        res.problems.append(f"verdicts {res.verdicts} are not all pass")
    for key, got in res.constants.items():
        want = expected.get(key)
        if want is not None and not abs(got - want) <= REL_TOL * abs(want):
            res.problems.append(f"{key} = {got} but reference is {want}")
    return res


def reference_task() -> float:
    """Seconds taken by a fixed mix of the work the CLI does, in small steps.

    Each step does an FFT convolution and array arithmetic, random draws, and
    plain Python integer arithmetic: the machine's speed for each of these
    drifts on its own, and the workloads weigh them differently.  The task
    never changes with the program, so the ratio of its time now to
    REFERENCE_NOMINAL_S measures how fast the machine is running at the moment.
    """
    rng = np.random.default_rng(0)
    taps = np.exp(-np.arange(2000) * 0.01)
    taps_f = np.fft.rfft(taps, 16384)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(500):
        y = np.fft.irfft(np.fft.rfft(rng.standard_normal(7001), 16384) * taps_f, 16384)[:5001]
        for k in range(20):
            r = y - np.exp(0.01 * k * np.ones(5001))
            acc += float(np.dot(r, r))
        for _ in range(7):
            acc += float(rng.integers(0, 2, 7001).sum()) + float(rng.standard_normal(2501).sum())
        n = 0
        for j in range(8400):
            n += j * 3 % 7
        acc += n
    return time.perf_counter() - start


# -- one workload run -------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@contextmanager
def one_cpu():
    """Pin this process, and the children it starts meanwhile, to one CPU.

    The CPUs of a shared host slow down independently of each other, so a
    reference task only tracks a timed process that runs on the same CPU.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, work: Path, reference: dict):
        self.wl, self.seed, self.work = wl, seed, work
        self.mgf_reps = 0       # replications per MGF probe, from the set-up probe
        self.n_dirs = 0
        doc = json.loads((ROOT / wl.config).read_text())
        if wl.n_trials is not None:
            doc["montecarlo"]["n_trials"] = wl.n_trials
        if wl.n_steps is not None:
            doc["grid"]["n_steps"] = wl.n_steps
        if smoke:
            doc["grid"]["n_steps"] = wl.smoke_n_steps
            doc["montecarlo"]["n_trials"] = SMOKE_TRIALS
        self.doc = doc
        self.config = work / "config.json"
        self.config.write_text(json.dumps(doc, indent=2))
        self.expected = expected_constants(doc, seed)
        ref = {} if smoke else reference.get(wl.name, {}).get(str(seed), {})
        self.ref_verdicts = ref.get("verdicts")
        self.ref_digest = ref.get("digest")
        self.n_nodes = doc["grid"]["n_steps"] + 1
        self.problems: list[str] = []
        self.reps: list[dict] = []

    @property
    def paths(self) -> int:
        """Paths per CLI process, as the first process with readable outputs reports them."""
        return next((r["paths"] for r in self.reps if r["paths"]), 1)

    @property
    def attempted(self) -> int:
        return self.paths * len(self.reps)

    @property
    def failed(self) -> int:
        return sum(r["nonconverged"] if r["gate_ok"] else self.paths for r in self.reps)

    def _new_dir(self, tag: str) -> Path:
        self.n_dirs += 1
        d = self.work / f"{self.n_dirs:03d}-{tag}"
        (d / "out").mkdir(parents=True)
        return d

    def _account(self, rep: dict, proc: Proc, out_dir: Path):
        outputs = read_outputs(self.wl, out_dir, proc.code, self.expected, self.ref_verdicts,
                               self.mgf_reps)
        self.problems += [f"{rep['tag']}: {p}" for p in outputs.problems]
        rep.update(digest=outputs.digest, gate_ok=outputs.ok, verdicts=outputs.verdicts,
                   constants=outputs.constants, nonconverged=outputs.nonconverged,
                   paths=outputs.paths, n_probes=outputs.n_probes,
                   output_bytes=outputs.n_bytes)
        if proc.code != 0:
            rep["stderr"] = proc.stderr.strip()[-400:]
        self.reps.append(rep)

    def cli(self, workers: int, tag: str) -> dict:
        """One untraced CLI process at the workload seed, gated."""
        d = self._new_dir(tag)
        proc = spawn(["-m", "regtails.cli", self.wl.command, "--config", str(self.config),
                      "--workers", str(workers), "--seed", str(self.seed),
                      "--out", str(d / "out")], d)
        rep = {"tag": tag, "workers": workers, "wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
               "peak_rss_mb": proc.rss_mb}
        self._account(rep, proc, d / "out")
        return rep

    def traced(self) -> tuple[dict, dict]:
        """The CLI in-process under the layer hooks at --workers 1; returns (rep, trace)."""
        d = self._new_dir("traced")
        spans = d / "spans.json"
        proc = spawn([str(BENCH_DIR / "probe.py"), "traced", str(spans), "--",
                      self.wl.command, "--config", str(self.config), "--workers", "1",
                      "--seed", str(self.seed), "--out", str(d / "out")], d)
        info = last_json(proc.stdout) if proc.stdout.strip() else {}
        # the spans are written after the CLI returns; that write is not overhead
        rep = {"tag": "traced", "workers": 1, "wall_s": proc.wall_s - info.get("dump_s", 0.0),
               "cpu_s": proc.cpu_s, "peak_rss_mb": proc.rss_mb}
        self._account(rep, proc, d / "out")
        trace = json.loads(spans.read_text()) if spans.exists() else None
        if trace is None:
            self.problems.append(f"traced run wrote no spans: {proc.stderr.strip()[-400:]}")
        return rep, trace

    def check_identical(self, reps: list[dict], what: str):
        if len({r["digest"] for r in reps}) > 1:
            self.problems.append(f"{what}: outputs differ across {[r['tag'] for r in reps]}")
            for r in reps:
                r["gate_ok"] = False

    def untraced(self, seconds: float, log_dir: Path) -> tuple[dict, dict]:
        """Timed repetitions; returns (series in reference seconds, raw series).

        Rounds of a reference task, a set-up probe and a CLI process run on one
        CPU, and one more reference task closes the last round.  The set-up
        probe and CLI process of a round are scaled by the mean of the two
        reference times around them, so the scaling follows the machine's
        speed as it drifts from one process to the next.
        """
        setups, timed, refs = [], [], []
        with one_cpu():
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                refs.append(reference_task())
                setups.append(probe_setup(self.config, log_dir)["setup_s"])
                timed.append(self.cli(1, f"rep{len(timed)}"))
                now = time.perf_counter()
                # start another round while at least half of it fits in the budget:
                # a run then holds two check processes, not one
                if now - start + (now - round_start) / 2 > seconds:
                    break
            while len(setups) < SETUP_REPEATS:
                refs.append(reference_task())
                setups.append(probe_setup(self.config, log_dir)["setup_s"])
            refs.append(reference_task())
        self.check_identical(timed, "repeat at one seed")
        if self.wl.gate_workers:
            other = self.cli(self.wl.gate_workers, f"workers{self.wl.gate_workers}")
            self.check_identical([timed[0], other], "--workers 1 vs N")
        raw = {
            "wall_s": [r["wall_s"] for r in timed],
            "cpu_s": [r["cpu_s"] for r in timed],
            "setup_s": setups,
            "reference_s": refs,
        }
        # round i lies between refs[i] and refs[i + 1]
        scale = [2.0 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
        wall = [w * k for w, k in zip(raw["wall_s"], scale)]
        setup_s = [t * k for t, k in zip(setups, scale)]
        setup_median = statistics.median(setup_s)
        series = {
            "wall_s": wall,
            # floored so a smoke-sized run, shorter than set-up, stays finite
            "paths_per_s": [self.paths / max(w - setup_median, 1e-3) for w in wall],
            "cpu_s": [c * k for c, k in zip(raw["cpu_s"], scale)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            "setup_s": setup_s,
        }
        return series, raw

    def layers(self, log_dir: Path) -> dict:
        # the untraced and the traced process run on one CPU, each between two
        # reference tasks, so the overhead compares times at the reference speed
        with one_cpu():
            refs = [reference_task()]
            base = self.cli(1, "untraced")
            refs.append(reference_task())
            rep, trace = self.traced()
            refs.append(reference_task())
        untraced = [base]
        if self.wl.gate_workers:
            untraced.append(self.cli(self.wl.gate_workers, f"workers{self.wl.gate_workers}"))
        self.check_identical([*untraced, rep], "traced vs untraced")
        metrics = {}
        if trace is not None:
            metrics.update(summarize(trace["trace"], trace["lattice_size"]))
            if trace["missing_hooks"]:
                self.problems.append(f"hooks not found: {trace['missing_hooks']}")
        metrics.update(import_times(log_dir))
        metrics["cli.output_bytes"] = rep["output_bytes"]
        metrics["trace_overhead_frac"] = ((rep["wall_s"] / (refs[1] + refs[2]))
                                          / (base["wall_s"] / (refs[0] + refs[1])) - 1.0)
        for name in EXPECTED_ZERO.get(self.wl.name, ()):
            if metrics.get(name, 0) != 0:
                self.problems.append(f"{name} = {metrics[name]} but the workload bypasses it")
        if self.wl.command == "check" and trace is not None:
            counted = metrics["harness.mgf_check.paths"] + rep["n_probes"]
            if counted != rep["paths"]:
                self.problems.append(f"the trace counts {counted} paths but the path count "
                                     f"from the report is {rep['paths']}")
        return metrics


def run_workload(wl: Workload, args, spec: dict, reference: dict, work: Path) -> dict:
    work.mkdir(parents=True)
    run = Run(wl, args.seed, args.smoke, work, reference)
    logs = work / "probe"
    logs.mkdir()
    warm = probe_setup(run.config, logs)     # fills bytecode and page caches, untimed
    run.mgf_reps = warm["mgf_reps"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    raw = {}
    if args.trace:
        values = run.layers(logs)
        stats = {}
    else:
        series, raw = run.untraced(args.seconds, logs)
        stats = {k: quartiles(v) + (len(v),) for k, v in series.items()}
        values = {k: s[1] for k, s in stats.items()}
        values.update({f"measured_{k}": statistics.median(v) for k, v in raw.items()})
    # a layer or module a later change removes reads 0; the list names it
    absent = sorted(set(units) - set(values))
    values.update(dict.fromkeys(absent, 0))
    digest_match = None
    if run.ref_digest is not None:
        digest_match = all(r["digest"] == run.ref_digest for r in run.reps)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "command": f"regtails {wl.command} --config {wl.config} --workers 1",
        "provenance": {
            "git_commit": git_commit(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            **{k: warm[k] for k in ("python", "numpy", "scipy", "blas")},
            "thread_caps": THREAD_CAPS, "N": run.n_nodes,
            "n_trials": run.doc["montecarlo"]["n_trials"], "paths_per_run": run.paths,
            "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        },
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted if run.attempted else 0.0,
        "gate_ok": not run.problems, "problems": run.problems,
        "seed_commit_digest_match": digest_match, "absent_metrics": absent,
        "quartiles": {k: {"q1": s[0], "median": s[1], "q3": s[2], "n": s[3]}
                      for k, s in stats.items()},
        "reps": run.reps,
        "measured": raw,
        "metrics": values,
    }
    print_table(wl, run, detail, values, stats, units)
    return {"detail": detail, "units": units}


def print_table(wl: Workload, run: Run, detail: dict, values: dict, stats: dict, units: dict):
    p = detail["provenance"]
    print(f"== {wl.name}: {detail['command']} --seed {run.seed}"
          f"  (N={p['N']}, n_trials={p['n_trials']}, trace={detail['trace']})")
    for name in units:
        line = f"   {name:<44} {values[name]:>16.6g} {units[name]}"
        if name in stats:
            q1, _, q3, n = stats[name]
            line += f"   [q1 {q1:.6g}, q3 {q3:.6g}, n={n}]"
        print(line)
    measured = {k.removeprefix("measured_"): v for k, v in values.items()
                if k.startswith("measured_")}
    if measured:
        print("   measured medians, before scaling to the reference speed: "
              + ", ".join(f"{k} {v:.4g} s" for k, v in measured.items()))
    print(f"   {'failed_frac':<44} {detail['failed_frac']:>16.6g} frac"
          f"   [{run.failed} of {run.attempted} paths]")
    print(f"   {'gate':<44} {'pass' if detail['gate_ok'] else 'FAIL'}"
          f"   seed-commit bytes: {detail['seed_commit_digest_match']}")
    for problem in run.problems:
        print(f"   ! {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid and trial count; same code path and checks")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "regtails" / "cli.py",
              *{ROOT / wl.config for wl in WORKLOADS.values()}]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"benchmark: missing {absent}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref_path = BENCH_DIR / "reference.json"
    reference = json.loads(ref_path.read_text())["workloads"] if ref_path.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK_ROOT / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args, spec, reference, work / name)
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    details = [r["detail"] for r in results.values()]
    metrics = {}
    for name, r in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for k, unit in r["units"].items():
            metrics[prefix + k] = {"value": r["detail"]["metrics"][k], "unit": unit}
    print("detail " + json.dumps(details if len(details) > 1 else details[0]))
    print(json.dumps({
        "correct": all(d["gate_ok"] for d in details),
        "attempted": sum(d["attempted"] for d in details),
        "failed": sum(d["failed"] for d in details),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
