"""Smoke test of the benchmark harness at tiny size; timings are ignored.

    python -m pytest bench/test_smoke.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"num_devices": 200, "pilot_length": 40, "num_blocks": 2,
        "num_trials": 2, "se_sample_count": 500}
NO_REFERENCE_SEED = 987654321


def _listed(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [entry["name"] for entry in json.load(fh)[kind]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_reported_and_outputs_checked(name, trace, tmp_path):
    result = workloads.measure(name, seed=1, seconds=0, trace=trace,
                               out_dir=str(tmp_path), src_dir=SRC,
                               overrides=TINY)
    for metric in _listed("per_layer" if trace else "end_to_end"):
        assert result["metrics"][metric] is not None, metric
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    # the output check ran: it extracted the quality values
    assert set(result["info"]["quality"]) >= {"pmd_si", "pmd_nosi", "nmse_si"}
    assert result["info"]["csv_sha256"]


def test_traced_pool_workers_report_their_layers(tmp_path):
    result = workloads.measure("fig4-desk-par2", seed=1, seconds=0, trace=True,
                               out_dir=str(tmp_path), src_dir=SRC,
                               overrides=TINY)
    metrics = result["metrics"]
    # trials run only in the workers: both variants of each trial
    assert metrics["amp.run_trial.calls"] == 2 * TINY["num_trials"]
    assert metrics["experiment.pool_wait_s"] > 0.0
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    pool = {s["id"] for s in spans if s["name"] == tracing.POOL_SPAN}
    assert any(s["parent"] in pool and s["pid"] != spans[0]["pid"] for s in spans)


def test_removed_hook_target_is_reported_absent(tmp_path, monkeypatch):
    hooks = tuple(("amp.run_block", "removed_wrapper", *hook[2:])
                  if hook[0] == "amp.run_block" else hook
                  for hook in tracing.HOOKS)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    result = workloads.measure("fig3-desk", seed=1, seconds=0, trace=True,
                               out_dir=str(tmp_path), src_dir=SRC,
                               overrides=TINY)
    metrics = result["metrics"]
    for metric in ("amp.run_block.calls", "amp.run_block.self_s",
                   "amp.iterations", "amp.blocks_unconverged"):
        assert metrics[metric] is None, metric
    assert metrics["amp.run_trial.calls"] == 4


def test_run_prints_result_as_last_line(tmp_path, monkeypatch, capsys):
    for var in run._THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, ""))
    tiny = dataclasses.replace(workloads.WORKLOADS["fig3-desk"],
                               options={"preset": "fig3-desk", **TINY})
    monkeypatch.setitem(workloads.WORKLOADS, "fig3-desk", tiny)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    code = run.main(["--workload", "fig3-desk", "--seed", str(NO_REFERENCE_SEED),
                     "--seconds", "0", "--trace", "0"])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(_listed("end_to_end"))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig3-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
