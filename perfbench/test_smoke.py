"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(seed),
           "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def assert_metrics(metrics: dict, spec: list) -> None:
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    for m in metrics.values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(bench("--workload", workload, "--trace", "0"))
    assert_metrics(res["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_account_for_wall(workload):
    metrics = result(bench("--workload", workload, "--trace", "1"))["metrics"]
    assert_metrics(metrics, SPEC["per_layer"])
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["bench.self_s"]["value"] >= 0


def test_exact_counts_repeat():
    counts = ("groebner.buchberger.pairs", "sci.point_survey.points",
              "lattice.smith_normal_form.calls")
    runs = {w: [result(bench("--workload", w, "--trace", "1"))["metrics"] for _ in range(2)]
            for w in WORKLOADS}
    for name in counts:
        for w, (a, b) in runs.items():
            assert a[name]["value"] == b[name]["value"], (w, name)
        assert runs["frobenius-mix"][0][name]["value"] > 0


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", WORKLOADS[0], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_reject_wrong_answers():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import oracles
    from workloads import _check_survey

    image = len(oracles.image_points(3, 2, 3))
    zero = oracles.certificate_zero_count(3, 2, 3)
    assert (image, zero) == (14, 35)
    witness = (0, 0, 0, 0, 0, 2)
    assert _check_survey("certificate", 3, 2, 3, image, zero, witness) is None
    assert _check_survey("certificate", 3, 2, 3, image, zero + 1, witness)
    assert _check_survey("certificate", 3, 2, 3, image, zero, None)
    assert _check_survey("certificate", 3, 2, 3, image, zero, (0, 0, 0, 0, 0, 0))
    blocks, sigma = oracles.type_star(random.Random(0), 3, 2)
    want = oracles.block_binomial(blocks, sigma, 2)
    assert sorted(want.values()) == [-1, 1]
