"""Smoke tests of the benchmark itself: tiny grid and trial count, same code path.

Run with ``python3 -m pytest bench/test_smoke.py -q`` (about three minutes).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import EXPECTED_ZERO  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--workload", "all",
         "--seed", "3", "--seconds", "4", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2].removeprefix("detail "))
    assert all(not d["absent_metrics"] for d in details), details
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout[-3000:]
    assert result["attempted"] > 0 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    for wl in WORKLOADS:
        for metric in SPEC[kind]:
            got = result["metrics"][f"{wl}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    return result["metrics"]


def test_untraced_reports_every_end_to_end_metric():
    metrics = smoke(0)
    for wl in WORKLOADS:
        assert metrics[f"{wl}.wall_s"]["value"] > 0
        assert metrics[f"{wl}.setup_s"]["value"] > 0


def test_traced_counts_repeat_and_bypassed_layers_stay_zero():
    first, second = smoke(1), smoke(1)
    counts = [k for k, v in first.items() if v["unit"] in ("count", "bytes")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for wl, names in EXPECTED_ZERO.items():
        for name in names:
            assert first[f"{wl}.{name}"]["value"] == 0, (wl, name)
    assert first["tails-filtered.estimator.lse_fit.calls"]["value"] > 0
    assert first["check-filtered.noise.quadratic_form.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for p in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

