"""Smoke test of the benchmark at tiny size (a few iterations and utterances).

    python3 -m pytest perfbench/test_smoke.py

Run from the repository root. It runs every workload untraced and traced,
checks that every metric BENCHMARK.json names is printed with its unit, that
span self times add up to the root span, that the counts repeat exactly, and
that the output checks catch a damaged output.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _child(spec: dict, argv: list, work: str, traced: bool, run_id: int = 0) -> dict:
    shutil.rmtree(spec["out_dir"], ignore_errors=True)
    result = os.path.join(work, f"result{run_id}.json")
    spec_path = os.path.join(work, f"spec{run_id}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "argv": argv, "trace": traced, "run_id": run_id,
                   "result": result, "hook_module": "trainer", "hook_name": "adamw_step"}, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_self_times_sum_to_root_and_counts_repeat(tmp_path):
    spec = inputs.generate("train_C1", 5, str(tmp_path / "inputs"), tiny=True)
    first = _child(spec, spec["argv"], str(tmp_path), traced=True, run_id=0)
    second = _child(spec, spec["argv"], str(tmp_path), traced=True, run_id=1)
    assert first["missing"] == []
    spans = first["spans"]
    roots = [s for s in spans if s[tracing.PARENT] == -1]
    assert len(roots) == 1 and roots[0][tracing.NAME] == "cli.main"
    root_s = roots[0][tracing.END] - roots[0][tracing.START]
    assert abs(tracing.self_times(spans).sum() - root_s) <= 1e-9 * max(root_s, 1.0)
    assert all(own >= -1e-9 for own in tracing.self_times(spans))
    a = tracing.per_layer([first], per_iteration=True)
    b = tracing.per_layer([second], per_iteration=True)
    for name in ("tensor.backward.nodes", "tensor.linear.calls"):
        assert a[name] == b[name] > 0
    assert a["tensor.bidir_recurrent.self_ms"] > 0


def test_missing_wrapped_name_is_reported():
    sys.path.insert(0, SRC)
    try:
        tracer = tracing.Tracer(0)
        tracing.install(tracer, {"tensor": ["no_such_op"]})
    finally:
        sys.path.remove(SRC)
    assert tracer.missing == ["tensor.no_such_op"]


def test_checks_catch_damaged_outputs(tmp_path):
    sys.path.insert(0, SRC)
    try:
        spec = inputs.generate("augment_files", 4, str(tmp_path / "aug"), tiny=True)
        _child(spec, spec["argv"], str(tmp_path), traced=False)
        data = checks.load_augment_inputs(spec)
        ids = {utt_id for utt_id, _, _ in data["speech"]}
        failures, _, _ = checks.check_augment(spec["out_dir"], data, ids)
        assert not any(failures.values()), failures
        victim = sorted(ids)[0]
        path = os.path.join(spec["out_dir"], f"{victim}.wav")
        samples, rate = inputs.read_wav(path)
        samples[len(samples) // 2] += 0.01
        inputs.write_wav(path, samples, rate)
        failures, _, _ = checks.check_augment(spec["out_dir"], data, ids)
        assert [u for u, msgs in failures.items() if msgs] == [victim]

        spec = inputs.generate("train_A", 4, str(tmp_path / "train"), tiny=True)
        _child(spec, spec["argv"], str(tmp_path), traced=False, run_id=1)
        checksum = checks.expected_teacher_checksum(spec["config"])
        assert checks.check_train(spec["out_dir"], spec["iterations"], checksum)[0] == []
        metrics = os.path.join(spec["out_dir"], "metrics.jsonl")
        with open(metrics, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(metrics, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        assert checks.check_train(spec["out_dir"], spec["iterations"], checksum)[0]
    finally:
        sys.path.remove(SRC)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "train_A", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
