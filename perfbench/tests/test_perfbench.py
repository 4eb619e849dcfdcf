"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

They run every workload at the ``tiny`` size, so each finishes in seconds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from bench import calib, records, reps  # noqa: E402
from bench.spans import SpanRecorder  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "42", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = run.END_TO_END if trace == "0" else run.PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        # Each metric is also printed by name with its unit and sample count.
        assert any(
            line.split()[1:2] == [name] and f" {metric['unit']} " in line
            and "(n=" in line
            for line in proc.stdout.splitlines()
        ), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    meta = json.loads(proc.stdout.splitlines()[0])["meta"]
    assert {"nproc", "cpu", "python", "numpy", "commit", "seed"} <= set(meta)
    assert meta["seed"] == 42


def test_corrupted_record_counts_as_failure():
    proc = _bench("--workload", "sweep_store", "--seconds", "1", "--size", "tiny",
                  "--corrupt-record")
    result = _result(proc)
    assert result["failed"] > 0
    assert result["correct"] is False


def test_unstored_seed_is_checked_against_a_serial_evaluation():
    result = _result(_bench("--workload", "sweep_store", "--seed", "43",
                            "--seconds", "1", "--size", "tiny"))
    assert result["correct"] and result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench("--workload", "grid_serial", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- seeds ------------------------------------------------------------- #


def _child(kind, **spec):
    spec.setdefault("size", "tiny")
    spec.setdefault("seed", 42)
    return run.run_child(dict(spec, kind=kind))


def test_seed_changes_inputs_and_repeats_exactly():
    a = _child("grid", seed=42)["records"]
    b = _child("grid", seed=42)["records"]
    c = _child("grid", seed=43)["records"]
    assert a == b
    assert a != c


def test_seed_42_cycle_rows_are_repro_validate():
    from repro.analysis.validation import cross_validate
    from repro.microarch.config import BIG
    from repro.workloads.spec import get_profile

    size = reps.SIZES["tiny"]
    rows = _child("cycle")["rows"]
    cv = cross_validate([get_profile(n) for n in size["profiles"]], BIG,
                        instructions=size["solo_instructions"])
    for name, interval, cycle in rows[: len(size["profiles"])]:
        assert interval == cv.interval_ipc[name]
        assert cycle == cv.cycle_ipc[name]


def test_references_exist_for_canonical_and_held_out_seeds():
    assert records.load_ref("full", reps.CANONICAL_SEED) is not None
    assert records.load_ref("full", run.HELD_OUT_SEED) is not None
    assert records.load_ref("tiny", reps.CANONICAL_SEED) is not None


# -- serve load and memory --------------------------------------------- #


@pytest.mark.parametrize("size", sorted(reps.SIZES))
def test_end_to_end_rate_is_on_the_ladder(size):
    assert reps.SIZES[size]["rate"] in reps.SIZES[size]["rates"]


def test_peak_rss_sums_the_process_tree():
    own = reps.tree_peak_rss_mb(os.getpid())
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time; b = b'x' * (64 << 20); sys.stdout.write('up\\n');"
         " sys.stdout.flush(); time.sleep(30)"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline() == "up\n"
        assert reps.tree_peak_rss_mb(child.pid) >= 64
        assert reps.tree_peak_rss_mb(os.getpid()) >= own + 64
    finally:
        child.kill()
        child.wait()


# -- host speed -------------------------------------------------------- #


def test_reference_seconds_divide_out_host_speed():
    ref = calib.REF_PROBE_S
    sampler = calib.HostSampler([])
    sampler.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (9.0, ref)]
    assert sampler.ref_seconds(0.5, 1.5) == pytest.approx(1.0)
    # Two seconds at half the reference speed are one reference second.
    assert sampler.ref_seconds(1.5, 3.5) == pytest.approx(1.0)
    # A span too short to hold a probe takes the four nearest.
    assert sampler.ref_seconds(3.1, 3.2) == pytest.approx(0.1 / 1.5)
    assert sampler.ref_laps([0.5, 1.5, 3.5]) == pytest.approx([1.0, 1.0])


def test_sampler_probes_every_vcpu_it_is_given():
    cpus = calib.usable_cpus()
    with calib.HostSampler(cpus) as sampler:
        time.sleep(0.3)
    assert len(sampler.samples) >= 3 * len(cpus)
    assert all(spent > 0 for _t, spent in sampler.samples)


def test_repetitions_come_back_in_reference_seconds():
    rep = _child("grid")
    assert len(rep["ref_laps"]) == len(rep["laps"])
    assert rep["setup_ref_s"] > 0
    assert all(lap > 0 for lap in rep["ref_laps"])


# -- spans ------------------------------------------------------------- #


class _Layer:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_spans_give_self_time_and_are_removed_afterwards():
    original = _Layer.__dict__["outer"]
    recorder = SpanRecorder()
    recorder.wrap("outer", _Layer, "outer")
    recorder.wrap("inner", _Layer, "inner")
    _Layer().outer()
    recorder.restore()
    assert _Layer.__dict__["outer"] is original
    summary = recorder.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["self_s"] >= 0.03
    assert 0.02 <= summary["outer"]["self_s"] < summary["outer"]["total_s"]
    assert summary["outer"]["total_s"] == pytest.approx(recorder.covered_seconds())


def test_module_functions_are_wrapped_where_imported_by_name():
    from repro.core import study
    from repro.interval import contention

    original = contention.evaluate_batch
    recorder = SpanRecorder()
    recorder.wrap("interval.evaluate_batch", contention, "evaluate_batch")
    assert study.evaluate_batch is not original
    recorder.restore()
    assert study.evaluate_batch is original
    assert contention.evaluate_batch is original
