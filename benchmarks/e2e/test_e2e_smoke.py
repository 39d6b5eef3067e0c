"""Smoke test of the e2e benchmark (not part of tier-1; run with
``pytest benchmarks/e2e``): every workload completes one verified pass,
its output matches ``BENCHMARK.json``, and a wrong reference is caught.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(*argv):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"]
                         + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_matches_contract(workload, tmp_path):
    out = tmp_path / "report.json"
    p = run("--workload", workload, "--smoke", "--out", str(out))
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]

    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    for m in CONTRACT["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]
    assert len(last["metrics"]) == len(CONTRACT["end_to_end"])

    report = json.loads(out.read_text())
    r = report["workloads"][workload]
    assert r["end_to_end"] == last["metrics"]
    assert r["passes"] == 1 and r["failures"] == []
    for key in ("scheduler_default", "topology_default", "vectorize",
                "codegen", "host_cpus", "python", "numpy"):
        assert key in r["config"]
    assert report["config"]["seed"] == 1
    assert not os.path.exists(os.path.join(ROOT, ".bench_tmp"))


def test_wrong_reference_is_a_failed_op():
    p = run("--workload", "sim_compute", "--smoke", "--corrupt-reference")
    assert p.returncode != 0
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
    assert "dgefa128.p16" in p.stdout  # the program is named


def test_unknown_workload_is_refused():
    p = run("--workload", "nope", "--smoke")
    assert p.returncode != 0
