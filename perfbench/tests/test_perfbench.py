"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from virmin.models import KacLabel, MinimalModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_says_what_it_should_move():
    groups = json.loads((BENCH / "moves.json").read_text())["groups"]
    listed = [name for g in groups for name in g["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    for g in groups:
        assert set(g["moves"]) | set(g["holds"]) <= set(run.WORKLOADS)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    report, result = _result(bench("--workload", "verify-all", "--seed", "3",
                                   "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert report["failed_fraction"] == {"value": 0.0, "failed": 0, "attempted": result["attempted"]}
    assert {"python", "numpy", "nproc", "cpu"} <= set(report["env"])
    if trace:
        assert report["spans"] > 0 and (ROOT / report["span_file"]).is_file()
    else:
        assert result["attempted"] == 10 * report["metrics"]["verify_all_s"]["n"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    def labels(cls, seed):
        w = cls(seed, tmp_path / f"{cls.name}-{seed}")
        try:
            return [op.label for op in w.round()]
        finally:
            w.close()

    for cls in (workloads.CertifyCold, workloads.ExactAlgebra):
        assert labels(cls, 7) == labels(cls, 7)
        assert labels(cls, 7) != labels(cls, 8)
        assert labels(cls, 7)


def test_ising_check_catches_a_sign_flipped_closed_form(monkeypatch):
    spec = workloads._diagonal(workloads.random.Random(0), MinimalModel(3, 4), KacLabel(1, 2))
    channel, z = KacLabel(2, 1), 0.37
    value = workloads.blocks.block(spec, channel, z).value
    assert workloads.check_ising_block(channel, z, value)[0] == workloads.OK
    closed_form = workloads.ising_sigma_closed_form
    monkeypatch.setattr(workloads, "ising_sigma_closed_form", lambda c, x: -closed_form(c, x))
    assert workloads.check_ising_block(channel, z, value)[0] == workloads.INCORRECT


def test_kacdet_check_catches_a_perturbed_warm_determinant():
    model = MinimalModel(4, 5)
    params = workloads.VermaParams(workloads.central_charge(model),
                                   workloads.generic_weight(model, Fraction(1, 10), 11, 1))
    det = workloads.verma.kac_determinant(params, 4)
    assert workloads.check_kacdet(det, det, expect_zero=False)[0] == workloads.OK
    assert workloads.check_kacdet(det, det * (1 + Fraction(1, 10**12)),
                                  expect_zero=False)[0] == workloads.INCORRECT
    assert workloads.check_kacdet(det, det, expect_zero=True)[0] == workloads.INCORRECT


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer.wrap("m.inner", lambda: busy(0.02))
    outer = tracer.wrap("m.outer", lambda: (busy(0.01), inner(), inner()))
    tracer.op_id = 5
    outer()
    self_s, total_s, calls = tracer.summary()
    assert calls == {"m.outer": 1, "m.inner": 2}
    assert self_s["m.outer"] == pytest.approx(total_s["m.outer"] - total_s["m.inner"])
    assert 0.009 < self_s["m.outer"] < 0.03 and total_s["m.inner"] >= 0.04
    outer_span, first_inner, _ = tracer.spans
    assert first_inner[3] == 0 and outer_span[3] == -1
    assert all(span[4] == 5 for span in tracer.spans)
