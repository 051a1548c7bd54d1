"""Tests of the benchmark itself; they use the smoke size (p=4, q=2).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
from layertrace import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_shape():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        # the nine layers' self times cover the traced wall time
        assert abs(result["metrics"]["trace.unaccounted_s"]["value"]) < 0.01
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "kcold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_and_envelope_checks():
    rows = {("2", "gfem_k"): (0.3, 0.25), ("3", "gfem_k"): (0.05, 0.04)}
    recorded = {"1": [[["2", "gfem_k"], [0.3, 0.25]], [["3", "gfem_k"], [0.05, 0.04]]]}
    assert run.check_rows(rows, recorded, 1) is None
    shifted = {**rows, ("3", "gfem_k"): (0.05 * (1 + 1e-5), 0.04)}
    assert "reference" in run.check_rows(shifted, recorded, 1)
    # an unrecorded seed is held to the envelope of the recorded ones
    assert run.check_rows(rows, recorded, 7) is None
    stale = {**rows, ("3", "gfem_k"): (0.8, 0.04)}
    assert "outside" in run.check_rows(stale, recorded, 7)
    assert run.check_rows({("2", "gfem_k"): (0.3, 0.25)}, recorded, 7) is not None


def test_self_times_add_up_to_the_root():
    tracer = Tracer(run_id=0)

    def leaf():
        time.sleep(0.01)

    def middle():
        leaf()
        leaf()
        time.sleep(0.005)

    def root():
        middle()
        leaf()

    leaf = tracer.wrap("x.leaf", leaf)
    middle = tracer.wrap("x.middle", middle)
    root = tracer.wrap("x.root", root)
    root()
    own = tracer.self_times()
    names = [s[0] for s in tracer.spans]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert names[0] == "x.root" and len(names) == 5
    assert sum(own) == pytest.approx(total, rel=1e-9)
    assert own[names.index("x.middle")] == pytest.approx(0.005, abs=0.004)
