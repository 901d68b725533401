"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The wide digest test runs the two wide workloads in full (about a minute).
"""

import json
import os
import shutil
import subprocess
import sys

import harness as h  # first: pins BLAS before numpy is imported
import numpy as np
import pytest
import tracing

TINY = {
    "synth": {"n_symbols": 4, "n_days": 2, "metaorder_rate": 0.01,
              "participation": 0.7, "cross_coupling": 0.2,
              "impact": {"g0": 0.005, "tau0": 20.0, "beta": 0.0}},
    "lags": "1,2,5,10,30", "n_lags": 5, "matrix_tau": 30, "threads": 2,
}


@pytest.fixture
def tiny_case(tmp_path, monkeypatch):
    monkeypatch.setitem(h.WORKLOADS, "tiny", TINY)
    case_dir, _, _ = h.setup("tiny", 7, str(tmp_path))
    return case_dir


def test_pair_check_catches_a_perturbed_store_value(tiny_case, tmp_path):
    out = str(tmp_path / "out")
    rc, _, _, tail = h.run_cli(tiny_case, out, threads=1)
    assert rc == 0, tail
    assert h.check_outputs(out, "tiny") == []

    # just over and well under the 1e-12 normwise tolerance, at the lag where
    # the curve peaks
    value_path = os.path.join("curves", "response_exclude_zero", "value.npy")
    for rel, expect_failure in ((1.5e-12, True), (1e-14, False)):
        copy = str(tmp_path / f"copy_{rel}")
        shutil.copytree(out, copy)
        value = np.load(os.path.join(copy, value_path))
        a, b = h.sample_pairs(value.shape[0])[-1]
        k = int(np.nanargmax(np.abs(value[a, b])))
        value[a, b, k] *= 1.0 + rel
        np.save(os.path.join(copy, value_path), value)
        failures = h.check_pairs(copy)
        assert bool(failures) == expect_failure, failures
        if expect_failure:
            assert len(failures) == 1 and "response/exclude_zero" in failures[0]


def test_traced_pass_collects_worker_spans(tiny_case, tmp_path):
    out, spans_dir = str(tmp_path / "out"), str(tmp_path / "spans")
    entry = (os.path.join(h.ROOT, "perfbench", "tracing.py"), spans_dir)
    rc, _, _, tail = h.run_cli(tiny_case, out, threads=2, entry=entry)
    assert rc == 0, tail
    assert any(name.startswith("worker-") for name in os.listdir(spans_dir))
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        metrics = tracing.layer_metrics(tracing.load_spans(spans_dir), json.load(fh))
    # 2 kinds x 2 modes x 2 days, all run in the workers
    assert metrics["estimators.panel_calls"][1] == 8
    assert 0.0 < metrics["pipeline.estimate_busy_frac"][1] <= 1.0
    # signs stage: 8 series; respond: 4 signs + 4 series per (mode, day);
    # correlate: 4 signs per (mode, day)
    assert metrics["store.container_loads"][1] == 8 + 2 * 2 * 8 + 2 * 2 * 4
    assert h.check_outputs(out, "tiny") == []


def test_wide_workloads_give_identical_out_digests(tmp_path):
    assert h.WORKLOADS["wide_t1"]["synth"] == h.WORKLOADS["wide_t2"]["synth"]
    case_dir, _, _ = h.setup("wide_t1", 11, str(tmp_path))
    digests = []
    for workload in ("wide_t1", "wide_t2"):
        out = str(tmp_path / workload)
        rc, _, _, tail = h.run_cli(case_dir, out, h.WORKLOADS[workload]["threads"])
        assert rc == 0, tail
        assert h.check_outputs(out, workload) == []
        digests.append(h.tree_digest(out))
        shutil.rmtree(out)
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(h.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(h.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_t1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
