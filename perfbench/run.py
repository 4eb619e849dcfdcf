"""The repository benchmark: user-facing workloads, timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload grid_serial --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 42      # every workload
    python3 perfbench/run.py --regen-refs --seed 42        # rewrite references

Every repetition runs in a fresh process (``child.py``), because a user
pays cold model caches on every ``repro`` invocation.  ``--trace 0``
reports the end-to-end metrics as medians over the repetitions that fit
in ``--seconds``; ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer split.  Outputs are checked against
the references in ``perfbench/ref`` (or, for a seed without one, against
a serial evaluation made in the same run); every wrong record counts in
``failed``.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

from bench import calib, records  # noqa: E402
from bench.reps import (  # noqa: E402
    CANONICAL_SEED,
    GENERATOR_LATE_MAX_MS,
    POINT_P99_LIMIT_MS,
    SIZES,
)

#: A seed used by no one while writing a change, to re-check claims on.
HELD_OUT_SEED = 7919

WORKLOADS = ("grid_serial", "sweep_store", "cycle_validate", "serve_mixed")

END_TO_END = {"setup_s": "s", "points_per_ref_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "interval.evaluate_batch.self_s": "s",
    "interval.batch_statics.self_s": "s",
    "interval.batch_statics.calls": "count",
    "scheduler.place.self_s": "s",
    "scheduler.place.calls": "count",
    "power.chip.self_s": "s",
    "workloads.mixes.self_s": "s",
    "study.evaluate_mixes.self_s": "s",
    "experiments.figure.self_s": "s",
    "engine.keys.self_s": "s",
    "engine.keys.calls": "count",
    "engine.store.read_s": "s",
    "engine.store.hit_ratio": "ratio",
    "engine.store.write_s": "s",
    "engine.dispatch.wait_s": "s",
    "engine.failures": "count",
    "engine.worker_respawns": "count",
    "engine.pool.start_s": "s",
    "sweep.cold_points_per_s": "1/s",
    "sweep.warm_points_per_s": "1/s",
    "serve.submit_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.boot_s": "s",
    "serve.point_p50_ms": "ms",
    "serve.point_p99_ms": "ms",
    "serve.point_samples": "count",
    "serve.point_rate_max": "1/s",
    "serve.generator_late_p99_ms": "ms",
    "memory.warm.self_s": "s",
    "workloads.tracegen.self_s": "s",
    "workloads.tracegen.instr": "count",
    "sim.prepare.self_s": "s",
    "sim.execute.self_s": "s",
    "sim.live.self_s": "s",
    "sim.live.speedup_vs_full": "ratio",
    "sim.live.ipc_err": "ratio",
    "cycle.sim_instr_per_s": "1/s",
    "cycle.tier_ipc_err": "ratio",
    "obs.trace_overhead": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_s": "s",
    "bench.fail_frac": "ratio",
    "bench.points_per_wall_s": "1/s",
    "bench.setup_wall_s": "s",
    "bench.probe_ms": "ms",
}

#: Repetitions every end-to-end run makes, however long they take: a
#: median of one would carry a single repetition's noise.
MIN_REPS = 2

#: ``serve_mixed`` makes three: its repetitions spread more (the bulk job
#: shares the daemon with interactive points that arrive at different
#: moments), and a median of three drops one outlier where a median of
#: two (their mean) keeps half of it.
SERVE_MIN_REPS = 3

#: Hard wall-clock cap on one child (the contract allows 180 s per run).
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The program could not run a workload at all (no result printed)."""


def run_child(spec: dict) -> dict:
    """Run one repetition in a fresh process; kill its whole group on
    timeout so no daemon or worker outlives it.

    Meanwhile a :class:`calib.HostSampler` probes the host's speed on the
    vCPUs the program runs on, and the child's unit times and set-up time
    come back also in reference seconds (``ref_laps``, ``setup_ref_s``).
    A serial program (and the daemon) is pinned to one vCPU, so that its
    probe runs where it does; a parallel one (a cold sweep's parent and
    pool workers, ``spec["parallel"]``) is left free, and every vCPU is
    probed.
    """
    spec = dict(spec, src=str(SRC))
    cpus = calib.usable_cpus()
    program_cpus = cpus if spec.get("parallel") else cpus[-1:]
    if spec["kind"] == "serve" and len(cpus) > 1:
        spec["client_cpus"] = cpus[:-1]
    with calib.HostSampler(program_cpus) as sampler:
        os.sched_setaffinity(0, program_cpus)  # inherited by the child
        try:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py")],
                cwd=ROOT,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                start_new_session=True,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, cpus)
        spec["launch"] = time.monotonic()
        try:
            out, _ = proc.communicate(json.dumps(spec), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"{spec['kind']} repetition timed out")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren
            except ProcessLookupError:
                pass
    if proc.returncode != 0:
        raise BenchmarkError(f"{spec['kind']} repetition exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if "marks" in result:
        result["ref_laps"] = sampler.ref_laps(result["marks"])
        result["setup_ref_s"] = sampler.ref_seconds(*result["setup_window"])
        result["probe_ms"] = 1000.0 * statistics.median(
            spent for _t, spent in sampler.samples
        )
    return result


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-int(q * len(ordered)) // 100)))
    return ordered[rank - 1]


def median_pass_s(reps: List[dict], key: str = "ref_laps") -> float:
    """The median pass time, taken unit by unit (``key`` names the unit
    times: ``ref_laps`` in reference seconds, ``laps`` in seconds).

    Each unit of a pass (one design's slice of the grid, one validation
    row, one sweep pass) gets its median over the repetitions, and the
    pass time is their sum.  A slow spell of the host that hits different
    units in different repetitions then drops out, where a median of
    whole passes would keep it whenever it touched most repetitions.
    """
    laps = [rep[key] for rep in reps]
    if len({len(unit) for unit in laps}) != 1:
        raise BenchmarkError("repetitions split their work differently")
    return sum(statistics.median(unit) for unit in zip(*laps))


def ref_s(rep: dict) -> float:
    """One repetition's pass time in reference seconds."""
    return sum(rep["ref_laps"])


def run_metadata(seed: int) -> dict:
    """Where a number came from, so it is never compared across machines."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class Run:
    """One benchmark run of one workload: repetitions, checks, metrics."""

    def __init__(self, workload: str, seed: int, size: str, seconds: float,
                 corrupt: bool = False):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.seconds = seconds
        self.corrupt = corrupt
        self.start = time.monotonic()
        self.ref = records.load_ref(size, seed)
        self.canonical_ref = records.load_ref(size, CANONICAL_SEED)
        self.attempted = 0
        self.failed = 0
        #: Seconds of checking left to do after the timed repetitions.
        self.reserve_s = 0.0
        self.work = WORK / f"{os.getpid()}-{workload}"
        self._dirs = 0

    # -- repetitions ---------------------------------------------------- #

    def child(self, kind: str, **spec) -> dict:
        return run_child(dict(spec, kind=kind, seed=self.seed, size=self.size))

    def fresh_dir(self) -> str:
        """A new, empty directory under the run's work area (relative, so
        a unix socket path inside it stays short)."""
        self._dirs += 1
        path = self.work / str(self._dirs)
        path.mkdir(parents=True)
        return os.path.relpath(path, ROOT)

    def repeat(self, make_rep, min_reps: int = MIN_REPS) -> List[dict]:
        """At least ``min_reps`` repetitions, then more until the next one,
        of average length, (plus the checks still to run after timing,
        ``reserve_s``) would overrun ``--seconds``."""
        reps: List[dict] = []
        spent = 0.0
        while len(reps) < min_reps or (
            time.monotonic() - self.start + spent / len(reps) + self.reserve_s
            <= self.seconds
        ):
            began = time.monotonic()
            reps.append(make_rep())
            spent += time.monotonic() - began
        return reps

    # -- correctness ---------------------------------------------------- #

    def check_records(self, got: List[str], want: Optional[List[str]]) -> None:
        self.attempted += len(got)
        if want is not None:
            self.failed += records.mismatches(got, want)

    def check_contained(self, want: Optional[List[str]], got: List[str]) -> None:
        """Every wanted record must be among ``got`` (a multiset)."""
        if want is None:
            return
        self.attempted += len(want)
        self.failed += sum((Counter(want) - Counter(got)).values())

    def check_value(self, got, want) -> None:
        self.attempted += 1
        if want is not None and got != want:
            self.failed += 1

    def check_against(self, reps: List[dict], ref: Optional[dict],
                      keys=("grid_smt0", "grid_smt1"), tables=()) -> None:
        """Each rep's records (and table hashes) against the reference,
        or against the first rep when no reference exists."""
        if ref is None:
            ref = {**reps[0], **reps[0]["records"]}
        for rep in reps:
            for key in keys:
                if key in rep["records"]:
                    self.check_records(rep["records"][key], ref.get(key))
            for table in tables:
                self.check_value(rep[table], ref.get(table))

    def serial_reference(self) -> dict:
        """The serial SMT-on grid for this seed (the jobs=N == jobs=1
        contract): stored, or computed now in a fresh process."""
        if self.ref is not None:
            return self.ref
        rep = self.child("grid", smts=[True])
        return {"grid_smt1": rep["records"]["grid_smt1"],
                "sweep_table": rep["sweep_table"]}

    # -- metrics -------------------------------------------------------- #

    def end_to_end(self, reps: List[dict]) -> Dict[str, float]:
        """The end-to-end metrics, in reference seconds (``bench.calib``),
        plus their wall-clock counterparts for the traced run."""
        return {
            "setup_s": statistics.median(r["setup_ref_s"] for r in reps),
            "points_per_ref_s": reps[0]["points"] / median_pass_s(reps),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "bench.setup_wall_s": statistics.median(r["setup_s"] for r in reps),
            "bench.points_per_wall_s":
                reps[0]["points"] / median_pass_s(reps, "laps"),
            "bench.probe_ms": statistics.median(r["probe_ms"] for r in reps),
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# workloads                                                               #
# ---------------------------------------------------------------------- #


def grid_serial(run: Run, traced: bool):
    if not traced:
        reps = run.repeat(lambda: run.child("grid"))
        run.check_against(reps, run.ref, tables=("fig10_table",))
        return reps, run.end_to_end(reps), {}
    base = run.child("grid")
    spans = run.child("grid", traced=True)
    own = run.child("grid", obs_trace=True)
    reps = [base, spans, own]
    run.check_against(reps, run.ref, tables=("fig10_table",))
    layers = dict(spans["layers"])
    layers["bench.trace_overhead"] = ref_s(spans) / ref_s(base) - 1.0
    layers["obs.trace_overhead"] = ref_s(own) / ref_s(base) - 1.0
    return reps, run.end_to_end([base]), layers


def _corrupt_one_record(store_dir: str) -> None:
    """Rewrite one stored record with a wrong but well-formed value (the
    benchmark's self-test that its correctness check catches it)."""
    path = next(iter(sorted((ROOT / store_dir).glob("v*/*/*.json"))))
    record = json.loads(path.read_text())
    record["payload"]["stp"] *= 1.5
    path.write_text(json.dumps(record))


def _sweep_pair(run: Run, traced: bool = False) -> dict:
    """``repro sweep --jobs 2`` twice on one fresh store: a cold pass,
    then a warm pass in a new process where every point is a store hit."""
    store_dir = run.fresh_dir()
    cold = run.child("sweep", jobs=2, store_dir=store_dir, traced=traced,
                     parallel=True)
    if run.corrupt:
        _corrupt_one_record(store_dir)
    # All hits: the pool never starts, and the pass runs serially.
    warm = run.child("sweep", jobs=2, store_dir=store_dir, traced=traced)
    pair = {
        "setup_s": statistics.median([cold["setup_s"], warm["setup_s"]]),
        "setup_ref_s": statistics.median([cold["setup_ref_s"], warm["setup_ref_s"]]),
        "points": cold["points"] + warm["points"],
        "pass_s": cold["pass_s"] + warm["pass_s"],
        "laps": cold["laps"] + warm["laps"],
        "ref_laps": cold["ref_laps"] + warm["ref_laps"],
        "probe_ms": statistics.median([cold["probe_ms"], warm["probe_ms"]]),
        "rss_mb": max(cold["rss_mb"], warm["rss_mb"]),
        "passes": [cold, warm],
    }
    if traced:
        layers = {
            name: cold["layers"].get(name, 0.0) + warm["layers"].get(name, 0.0)
            for name in cold["layers"]
        }
        # The warm pass is the one whose hits matter.
        layers["engine.store.hit_ratio"] = warm["layers"]["engine.store.hit_ratio"]
        pair["layers"] = layers
    return pair


def sweep_store(run: Run, traced: bool):
    if run.ref is None:
        run.reserve_s = 4.0  # the serial reference, computed after timing
    if not traced:
        reps = run.repeat(lambda: _sweep_pair(run))
    else:
        reps = [_sweep_pair(run), _sweep_pair(run, traced=True)]
    run.check_against(
        [p for rep in reps for p in rep["passes"]],
        run.serial_reference(),
        keys=("grid_smt1",),
        tables=("sweep_table",),
    )
    if not traced:
        return reps, run.end_to_end(reps), {}
    base, spans = reps
    cold, warm = base["passes"]
    layers = dict(spans["layers"])
    layers.update(
        {
            "bench.trace_overhead": ref_s(spans) / ref_s(base) - 1.0,
            "sweep.cold_points_per_s": cold["points"] / ref_s(cold),
            "sweep.warm_points_per_s": warm["points"] / ref_s(warm),
        }
    )
    return reps, run.end_to_end([base]), layers


def cycle_validate(run: Run, traced: bool):
    if not traced:
        reps = run.repeat(lambda: run.child("cycle"))
    else:
        base = run.child("cycle")
        spans = run.child("cycle", traced=True, live=True)
        reps = [base, spans]
    ref = run.ref or {"cycle": reps[0]["records"]["cycle"]}
    for rep in reps:
        run.check_records(rep["records"]["cycle"], ref["cycle"])
        # Plausibility holds for every seed: IPCs positive and finite.
        run.failed += sum(
            1 for _n, interval, cycle in rep["rows"]
            if not (0.0 < interval < 100.0 and 0.0 < cycle < 100.0)
        )
    if not traced:
        return reps, run.end_to_end(reps), {}
    layers = dict(spans["layers"])
    layers["bench.trace_overhead"] = ref_s(spans) / ref_s(base) - 1.0
    layers["cycle.sim_instr_per_s"] = base["instructions"] / ref_s(base)
    layers["cycle.tier_ipc_err"] = base["tier_ipc_err"]
    return reps, run.end_to_end([base]), layers


def serve_mixed(run: Run, traced: bool):
    size = SIZES[run.size]

    def rep(rate: float, **spec) -> dict:
        return run.child("serve", work_dir=run.fresh_dir(), rate=rate, **spec)

    if not traced:
        run.reserve_s = 1.0  # the serial check of the interactive answers
        reps = run.repeat(lambda: rep(size["rate"]), SERVE_MIN_REPS)
    else:
        # One untraced repetition per rate on the ladder (the end-to-end
        # rate is one of them), then a traced one at the end-to-end rate.
        ladder = {rate: rep(rate) for rate in size["rates"]}
        base = ladder[size["rate"]]
        spans = rep(size["rate"], traced=True)
        reps = list(ladder.values()) + [spans]
    canonical = run.canonical_ref or {}
    answered = []
    for rep_out in reps:
        # The store also holds the interactive points; every bulk record
        # must be among its records.
        run.check_contained(canonical.get("serve_bulk"), rep_out["store_hashes"])
        run.check_value(rep_out["serve_table"], canonical.get("serve_table"))
        answered += rep_out["interactive"]
        run.attempted += rep_out["interactive_failed"]
        run.failed += rep_out["interactive_failed"]
    # Interactive answers against a serial evaluation of the same points.
    if answered:
        serial = run.child("points", points=[p for p, _h in answered])["hashes"]
        run.check_records([h for _p, h in answered], serial)
    if not traced:
        return reps, run.end_to_end(reps), {}
    # The ladder climbs until the first rate that misses the limit.
    rate_max = 0.0
    climbing = True
    for rate, rung in sorted(ladder.items()):
        p99 = percentile(rung["latencies_ms"], 99)
        late = percentile(rung["late_ms"], 99)
        # A generator that ran late cannot tell whether the daemon kept up.
        if late > GENERATOR_LATE_MAX_MS:
            verdict = "invalid: the generator ran late"
        elif p99 <= POINT_P99_LIMIT_MS:
            verdict = "meets the limit"
        else:
            verdict = "misses the limit"
        climbing = climbing and verdict == "meets the limit"
        if climbing:
            rate_max = rate
        print(f"serve_mixed     rate {rate:g}/s: {len(rung['latencies_ms'])} "
              f"requests, p50 {percentile(rung['latencies_ms'], 50):.1f} ms, "
              f"p99 {p99:.1f} ms, generator late p99 {late:.1f} ms: {verdict}")
    latencies = base["latencies_ms"] + spans["latencies_ms"]
    late = percentile(base["late_ms"] + spans["late_ms"], 99)
    if late > GENERATOR_LATE_MAX_MS:
        print(f"serve_mixed     point latencies invalid: generator late p99 "
              f"{late:.1f} ms")
    layers = dict(spans["layers"])
    layers.update(
        {
            "bench.trace_overhead": ref_s(spans) / ref_s(base) - 1.0,
            "serve.point_p50_ms": percentile(latencies, 50),
            "serve.point_p99_ms": percentile(latencies, 99),
            "serve.point_samples": len(latencies),
            "serve.point_rate_max": rate_max,
            "serve.generator_late_p99_ms": late,
        }
    )
    return reps, run.end_to_end([base]), layers


PLANS = {
    "grid_serial": grid_serial,
    "sweep_store": sweep_store,
    "cycle_validate": cycle_validate,
    "serve_mixed": serve_mixed,
}


def measure(workload: str, seed: int, size: str, seconds: float, traced: bool,
            corrupt: bool = False) -> dict:
    """Run one workload; returns the contract's result object."""
    run = Run(workload, seed, size, seconds, corrupt=corrupt)
    try:
        reps, e2e, layers = PLANS[workload](run, traced)
    finally:
        run.cleanup()
    for index, rep in enumerate(reps):
        print(f"{workload:15s} repetition {index}: setup {rep['setup_s']:.4f} s, "
              f"{rep['points']} points in {rep['pass_s']:.4f} s "
              f"({ref_s(rep):.4f} reference s)")
    if traced:
        names = PER_LAYER
        values = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
        values["bench.fail_frac"] = run.failed / max(1, run.attempted)
        for name in ("bench.setup_wall_s", "bench.points_per_wall_s",
                     "bench.probe_ms"):
            values[name] = e2e[name]
    else:
        names = END_TO_END
        values = e2e
    for name, unit in names.items():
        print(f"{workload:15s} {name:32s} {values[name]:14.6g} {unit:6s} "
              f"(n={len(reps)} repetitions)")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in names.items()
        },
    }


def regen_refs(seed: int, size: str) -> None:
    """Recompute and store the reference hashes for (size, seed).

    Only this command writes ``perfbench/ref``; at seed 42 on the full
    size it first checks the fig10 values against ``figure fig10``.
    """
    run = Run("regen", seed, size, 0.0)
    try:
        grid = run.child("grid")
        cycle = run.child("cycle")
        ref = {
            **grid["records"],
            "fig10_table": grid["fig10_table"],
            "sweep_table": grid["sweep_table"],
            "cycle": cycle["records"]["cycle"],
            "tier_ipc_err": cycle["tier_ipc_err"],
        }
        if seed == CANONICAL_SEED:
            if size == "full":
                _check_fig10(grid["fig10_values"])
            # The daemon's sweep job always uses the repository's own mixes.
            bulk = run.child("grid", smts=[True], mixes_per_count=12)
            ref["serve_bulk"] = bulk["records"]["grid_smt1"]
            ref["serve_table"] = bulk["sweep_table"]
    finally:
        run.cleanup()
    print(f"wrote {records.save_ref(size, seed, ref)}")


def _check_fig10(values: List[float]) -> None:
    sys.path.insert(0, str(SRC))
    from repro.core.designs import DESIGN_ORDER
    from repro.experiments import fig10_datacenter

    table = fig10_datacenter.run()
    columns = ["datacenter noSMT", "datacenter SMT", "mirrored noSMT", "mirrored SMT"]
    expected = [row[col] for col in columns for row in table.rows]
    if len(DESIGN_ORDER) * 4 != len(values) or expected != values:
        raise BenchmarkError("grid_serial's fig10 values differ from `figure fig10`")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--regen-refs", action="store_true",
                        help="recompute the stored reference hashes for --seed")
    parser.add_argument("--corrupt-record", action="store_true",
                        help="self-test: corrupt one stored record between "
                        "sweep_store's cold and warm pass, which must then "
                        "report failures")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.regen_refs:
            regen_refs(args.seed, args.size)
            return 0
        print(json.dumps({"meta": run_metadata(args.seed)}))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: measure(name, args.seed, args.size, args.seconds,
                          bool(args.trace), corrupt=args.corrupt_record)
            for name in workloads
        }
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
