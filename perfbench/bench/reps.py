"""One measured repetition of a workload, run in a fresh child process.

Each function here takes the repetition's spec (a JSON-able dict made by
``run.py``) and returns a JSON-able dict.  The child imports the program
first; ``setup_s`` runs from the parent's launch of the child until the
first unit of work is handed to the program, so interpreter start,
imports and model construction are all in it.  The benchmark generates
every input itself from the seed and hands the program only (design, mix,
SMT) points or traced threads.
"""

import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import records
from .spans import SpanRecorder

#: The seed that reproduces the repository's own commands.
CANONICAL_SEED = 42

#: Workload sizes.  ``full`` is what the repository's commands evaluate;
#: ``tiny`` exists so the benchmark's own tests finish in seconds.
SIZES = {
    "full": {
        "designs": None,  # all nine of Figure 2
        "max_threads": 24,
        "mixes_per_count": 12,
        "profiles": None,  # all twelve SPEC-like profiles
        "solo_instructions": 20_000,
        "chip_instructions": 10_000,
        "chips": [
            ("4B", ("mcf", "tonto", "hmmer", "libquantum",
                    "omnetpp", "calculix", "astar", "gobmk")),
            ("3B2m", ("mcf", "libquantum", "milc", "lbm")),
        ],
        "rate": 1,
        "rates": [1, 2, 4, 8, 16],
    },
    "tiny": {
        "designs": ["4B", "3B2m"],
        "max_threads": 3,
        "mixes_per_count": 2,
        "profiles": ["mcf", "tonto"],
        "solo_instructions": 2_000,
        "chip_instructions": 1_000,
        "chips": [("3B2m", ("mcf", "libquantum", "milc", "lbm"))],
        "rate": 20,
        "rates": [20, 40],
    },
}

#: The open-loop latency limit a rate must meet to count in
#: ``serve.point_rate_max`` (on the p99 of its requests).  README.md gives
#: the measurements it rests on.
POINT_P99_LIMIT_MS = 5000.0

#: How long the load generator waits for one interactive answer.  A
#: request that fails or is refused counts as a miss of this latency.
POINT_WAIT_S = 60.0

#: Above this generator lateness (p99) a rate's latencies are invalid:
#: the client, not the daemon, would be what ran late.
GENERATOR_LATE_MAX_MS = POINT_P99_LIMIT_MS / 10.0


def derived_seed(seed: int, base: int) -> int:
    """A program seed derived from the workload seed; ``base`` at seed 42."""
    return (base + seed - CANONICAL_SEED) % (2**31)


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak RSS (``VmHWM``) of ``root`` and each live descendant.

    Read while the program's workers are still up, so each of an
    engine's pool workers adds its own peak.
    """
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total_kb = 0
    todo = [root]
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # exited since the scan
    return total_kb / 1024.0


def design_names(size: str) -> List[str]:
    from repro.core.designs import DESIGN_ORDER

    return list(SIZES[size]["designs"] or DESIGN_ORDER)


def grid_points(
    designs: Sequence[str], mixes: Dict[int, list], smts: Sequence[bool]
) -> List[Tuple[str, Tuple[str, ...], bool]]:
    """Unique (design, mix, SMT) points in the order the figure asks."""
    seen = set()
    points = []
    for smt in smts:
        for design in designs:
            for n in sorted(mixes):
                for mix in mixes[n]:
                    key = (design, tuple(mix), smt)
                    if key not in seen:
                        seen.add(key)
                        points.append(key)
    return points


# ---------------------------------------------------------------------- #
# per-layer tracing                                                       #
# ---------------------------------------------------------------------- #


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.core import scheduler, study
    from repro.engine import executor, keys, store
    from repro.interval import contention, model
    from repro.memory import hierarchy
    from repro.power import mcpat
    from repro.serve import client
    from repro.sim import multicore, sampling
    from repro.workloads import multiprogram, tracegen

    recorder.wrap("interval.evaluate_batch", contention, "evaluate_batch")
    recorder.wrap("interval.batch_statics", model.IntervalCoreModel, "batch_statics")
    recorder.wrap("scheduler.place", scheduler.Scheduler, "place")
    recorder.wrap("power.chip", mcpat.ChipPowerModel, "power")
    recorder.wrap("workloads.mixes", multiprogram, "heterogeneous_mixes")
    recorder.wrap("study.evaluate_mixes", study.DesignSpaceStudy, "evaluate_mixes")
    recorder.wrap("study.prefetch", study.DesignSpaceStudy, "prefetch")
    recorder.wrap("experiments.figure", study.DesignSpaceStudy, "aggregate_stp")
    recorder.wrap("engine.keys", keys, "content_key")
    recorder.wrap("engine.store.read", store.ResultStore, "get_many")
    recorder.wrap("engine.store.write", store.ResultStore, "write_many")
    recorder.wrap("engine.dispatch", executor.ParallelExecutor, "map")
    recorder.wrap("engine.pool.start", executor.WorkerPool, "_ensure")
    recorder.wrap("serve.submit", client.ServeClient, "submit")
    recorder.wrap("memory.warm", hierarchy.MemoryHierarchy, "warm")
    recorder.wrap(
        "workloads.tracegen",
        tracegen.TraceGenerator,
        "generate",
        count=lambda _gen, num_instructions: num_instructions,
    )
    recorder.wrap("sim.prepare", multicore.MulticoreSimulator, "prepare")
    recorder.wrap("sim.execute", multicore.MulticoreSimulator, "execute")
    # Imported lazily by MulticoreSimulator.run at call time, so replacing
    # the module attribute covers it.
    recorder.wrap("sim.live", sampling, "execute_sampled_live")


def span_metrics(recorder: SpanRecorder, pass_s: float) -> Dict[str, float]:
    """Per-layer numbers derived from the recorded spans."""
    summary = recorder.summary()

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    submits = summary.get("serve.submit", {}).get("durations", [])
    return {
        "interval.evaluate_batch.self_s": self_s("interval.evaluate_batch"),
        "interval.batch_statics.self_s": self_s("interval.batch_statics"),
        "interval.batch_statics.calls": calls("interval.batch_statics"),
        "scheduler.place.self_s": self_s("scheduler.place"),
        "scheduler.place.calls": calls("scheduler.place"),
        "power.chip.self_s": self_s("power.chip"),
        "workloads.mixes.self_s": self_s("workloads.mixes"),
        "study.evaluate_mixes.self_s": self_s("study.evaluate_mixes"),
        "experiments.figure.self_s": self_s("experiments.figure"),
        "engine.keys.self_s": self_s("engine.keys"),
        "engine.keys.calls": calls("engine.keys"),
        "engine.store.read_s": total_s("engine.store.read"),
        "engine.store.write_s": total_s("engine.store.write"),
        "engine.dispatch.wait_s": self_s("engine.dispatch"),
        "engine.pool.start_s": total_s("engine.pool.start"),
        "serve.submit_ms": 1000.0 * statistics.median(submits) if submits else 0.0,
        "memory.warm.self_s": self_s("memory.warm"),
        "workloads.tracegen.self_s": self_s("workloads.tracegen"),
        "workloads.tracegen.instr": recorder.counts.get("workloads.tracegen", 0.0),
        "sim.prepare.self_s": self_s("sim.prepare"),
        "sim.execute.self_s": self_s("sim.execute"),
        "sim.live.self_s": self_s("sim.live"),
        "bench.unattributed_s": max(0.0, pass_s - recorder.covered_seconds()),
    }


class _Pass:
    """Times one pass and, when traced, records spans around it.

    ``lap()`` closes one unit of the pass's work.  ``marks`` holds the
    monotonic time of the pass's start and of each unit's end, the last
    at the end of the pass; ``laps`` holds the seconds of each unit, so
    they add up to ``pass_s``.  ``run.py`` turns marks into reference
    seconds with the host-speed samples it took meanwhile.
    """

    def __init__(self, spec: dict):
        self.recorder = SpanRecorder() if spec.get("traced") else None
        self.obs_trace = bool(spec.get("obs_trace"))
        self.launch = spec["launch"]
        self.marks: List[float] = []

    def __enter__(self) -> "_Pass":
        if self.recorder is not None:
            install_layer_spans(self.recorder)
        if self.obs_trace:
            from repro.obs import TRACER

            TRACER.enable()
        self.marks.append(time.monotonic())
        return self

    def lap(self) -> None:
        self.marks.append(time.monotonic())

    def __exit__(self, *exc) -> None:
        self.lap()
        if self.recorder is not None:
            self.recorder.restore()
        if self.obs_trace:
            from repro.obs import reset_observability

            reset_observability()

    @property
    def pass_s(self) -> float:
        return self.marks[-1] - self.marks[0]

    def result(self, **fields) -> dict:
        out = {
            "setup_window": [self.launch, self.marks[0]],
            "setup_s": self.marks[0] - self.launch,
            "marks": self.marks,
            "laps": [b - a for a, b in zip(self.marks, self.marks[1:])],
            "pass_s": self.pass_s,
            **fields,
        }
        if self.recorder is not None:
            out["layers"] = span_metrics(self.recorder, self.pass_s)
        return out


# ---------------------------------------------------------------------- #
# interval grids                                                          #
# ---------------------------------------------------------------------- #


def grid_rep(spec: dict) -> dict:
    """Serial grid evaluation in one process, no engine (``figure fig10``).

    ``smts`` (False, True) evaluates the whole fig10 grid and aggregates
    it into the fig10 table; (True,) is the SMT-on half that ``sweep``
    evaluates, used as the serial reference for engine and daemon runs.
    """
    from repro.core.designs import get_design
    from repro.core.distributions import datacenter, mirrored_datacenter
    from repro.core.study import DesignSpaceStudy
    from repro.workloads.multiprogram import heterogeneous_mixes

    size = SIZES[spec["size"]]
    seed = spec["seed"]
    mixes_per_count = spec.get("mixes_per_count", size["mixes_per_count"])
    designs = design_names(spec["size"])
    counts = range(1, size["max_threads"] + 1)
    smts = tuple(spec.get("smts", (False, True)))
    with _Pass(spec) as timed:
        mixes = {n: heterogeneous_mixes(n, mixes_per_count, seed) for n in counts}
        study = DesignSpaceStudy(
            designs=[get_design(name) for name in designs],
            seed=seed,
            mixes_per_count=mixes_per_count,
        )
        timed.lap()
        for smt in smts:
            for name in designs:
                for n in counts:
                    study.evaluate_mixes(name, mixes[n], smt)
                timed.lap()
        fig10 = None
        if smts == (False, True):
            top = size["max_threads"]
            fig10 = [
                study.aggregate_stp(name, "heterogeneous", dist, smt)
                for dist in (datacenter(top), mirrored_datacenter(top))
                for smt in (False, True)
                for name in designs
            ]
    points = grid_points(designs, mixes, smts)
    grid_records = {f"grid_smt{int(smt)}": [] for smt in smts}
    for point in points:
        grid_records[f"grid_smt{int(point[2])}"].append(
            records.mix_record_hash(study.evaluate_mix(*point))
        )
    sweep_table = None
    if True in smts:
        sweep_table = records.value_hash(
            [[study.mean_stp(name, "heterogeneous", n) for name in designs]
             for n in counts]
        )
    return timed.result(
        rss_mb=tree_peak_rss_mb(os.getpid()),
        points=len(points),
        records=grid_records,
        sweep_table=sweep_table,
        fig10_table=records.value_hash(fig10) if fig10 is not None else None,
        fig10_values=fig10,
    )


def points_rep(spec: dict) -> dict:
    """Serial evaluation of explicit points (reference for daemon answers)."""
    from repro.core.study import DesignSpaceStudy

    study = DesignSpaceStudy()
    hashes = [
        records.mix_record_hash(study.evaluate_mix(design, list(mix), smt))
        for design, mix, smt in spec["points"]
    ]
    return {"hashes": hashes}


def sweep_rep(spec: dict) -> dict:
    """``repro sweep --jobs N``: the SMT-on grid through an Engine + store.

    On an empty store this is the cold pass (compute in the warm pool,
    write each record); on a populated one every point is a store hit.
    """
    from repro.core.study import DesignSpaceStudy
    from repro.engine import Engine, ResultStore
    from repro.workloads.multiprogram import heterogeneous_mixes

    size = SIZES[spec["size"]]
    seed = spec["seed"]
    jobs = spec["jobs"]
    designs = design_names(spec["size"])
    counts = list(range(1, size["max_threads"] + 1))
    engine = Engine(
        jobs=jobs,
        store=ResultStore(spec["store_dir"]),
        slab_size=32 if jobs > 1 else None,
        pool="persistent",
    )
    study = DesignSpaceStudy(
        seed=seed, mixes_per_count=size["mixes_per_count"], engine=engine
    )
    try:
        with _Pass(spec) as timed:
            study.prefetch(designs, "heterogeneous", counts, True)
            table = [
                [study.mean_stp(name, "heterogeneous", n) for name in designs]
                for n in counts
            ]
            engine.write_summary()
        summary = engine.run_summary()
        hit_ratio = engine.store.stats.hit_rate
        rss_mb = tree_peak_rss_mb(os.getpid())  # pool workers still up
    finally:
        engine.shutdown()
    mixes = {
        n: heterogeneous_mixes(n, size["mixes_per_count"], seed) for n in counts
    }
    points = grid_points(designs, mixes, (True,))
    out = timed.result(
        rss_mb=rss_mb,
        points=len(points),
        records={"grid_smt1": [
            records.mix_record_hash(study.evaluate_mix(*p)) for p in points
        ]},
        sweep_table=records.value_hash(table),
    )
    if "layers" in out:
        out["layers"].update(
            {
                "engine.store.hit_ratio": hit_ratio,
                "engine.failures": summary["units_failed"],
                "engine.worker_respawns": summary["worker_respawns"],
            }
        )
    return out


# ---------------------------------------------------------------------- #
# cycle tier                                                              #
# ---------------------------------------------------------------------- #


def _validation_set(size: dict, seed: int, sampling=None, lap=lambda: None):
    """``repro validate`` plus two chip mixes, from seeded traced threads.

    Returns rows of (name, interval IPC, cycle IPC) and the number of
    simulated instructions (warm-up prefixes included).  At seed 42 the
    solo rows are exactly ``repro validate``'s.  ``lap`` is called after
    each row.
    """
    from repro.core.designs import ChipDesign, get_design
    from repro.core.scheduler import Scheduler
    from repro.interval.contention import ChipModel, isolated_ips
    from repro.microarch.config import BIG
    from repro.sim.multicore import MulticoreSimulator, ThreadSim
    from repro.workloads.spec import all_profiles, get_profile

    if size["profiles"] is None:
        profiles = all_profiles()
    else:
        profiles = [get_profile(name) for name in size["profiles"]]
    solo = ChipDesign(name=f"xval-{BIG.name}", cores=(BIG,))
    budget = size["solo_instructions"]
    rows = []
    instructions = 0
    for profile in profiles:
        interval = isolated_ips(profile, BIG) / (BIG.frequency_ghz * 1e9)
        run = MulticoreSimulator(solo).run(
            [ThreadSim(profile, core_index=0, seed=derived_seed(seed, 7))],
            budget,
            sampling=sampling,
        )
        rows.append((profile.name, interval, run.ipc_of(0)))
        instructions += budget + budget // 2
        lap()
    budget = size["chip_instructions"]
    for design_name, mix in size["chips"]:
        design = get_design(design_name)
        placement = Scheduler(design, smt=True).place(
            [get_profile(name) for name in mix]
        )
        interval = sum(t.ipc for t in ChipModel(design).evaluate(placement).threads)
        threads = [
            ThreadSim(spec.profile, core_index=core, seed=derived_seed(seed, 11 + slot))
            for core, specs in enumerate(placement.core_threads)
            for slot, spec in enumerate(specs)
        ]
        run = MulticoreSimulator(design).run(threads, budget, sampling=sampling)
        rows.append((f"{design_name}:{'+'.join(mix)}", interval, run.total_ipc))
        instructions += len(threads) * (budget + budget // 2)
        lap()
    return rows, instructions


def cycle_rep(spec: dict) -> dict:
    """The validation set in full detail on the cycle tier."""
    # Import the cycle tier before timing starts: imports are set-up, as in
    # the other workloads (``sampling`` pulls in the simulator and memory).
    import repro.core.scheduler  # noqa: F401
    import repro.sim.sampling  # noqa: F401
    import repro.workloads.spec  # noqa: F401

    size = SIZES[spec["size"]]
    with _Pass(spec) as timed:
        rows, instructions = _validation_set(size, spec["seed"], lap=timed.lap)
    errors = [abs(interval / cycle - 1.0) for _n, interval, cycle in rows]
    out = timed.result(
        rss_mb=tree_peak_rss_mb(os.getpid()),
        points=len(rows),
        instructions=instructions,
        records={"cycle": [records.value_hash(row) for row in rows]},
        rows=rows,
        tier_ipc_err=sum(errors) / len(errors),
    )
    if spec.get("live"):
        # The traced run alone replays the set with live sampling: the
        # evidence for keeping or dropping that mode.
        recorder = SpanRecorder()
        install_layer_spans(recorder)
        start = time.monotonic()
        try:
            live_rows, _ = _validation_set(size, spec["seed"], sampling="live")
        finally:
            recorder.restore()
        live_s = time.monotonic() - start
        out["layers"].update(
            {
                "sim.live.self_s": recorder.summary()
                .get("sim.live", {})
                .get("self_s", 0.0),
                "sim.live.speedup_vs_full": out["pass_s"] / live_s,
                "sim.live.ipc_err": sum(
                    abs(live[2] / full[2] - 1.0)
                    for live, full in zip(live_rows, rows)
                )
                / len(rows),
            }
        )
    return out


# ---------------------------------------------------------------------- #
# serve daemon                                                            #
# ---------------------------------------------------------------------- #


class _OpenLoop:
    """Interactive ``point`` jobs offered open loop at one fixed rate.

    The points follow the fig10 grid's own make-up: a design of the study,
    1 to ``max_threads`` threads with each count equally likely, SMT on or
    off equally, and a fresh seeded mix, so no answer is a store hit.

    One thread submits each job at its due time on its own connection;
    another waits for the answers in submission order on a second one.
    Latency runs from the due time, so a stalled submit or a slow daemon
    is charged to every request it delays.  ``late_s`` is the generator's
    own lateness: how long after a request fell due (or after the previous
    submit returned, when that was later) the submit thread got to run.
    It grows when the client starves for CPU, not when the daemon is slow.
    """

    def __init__(self, address: str, size: dict, designs: List[str], seed: int,
                 rate: float):
        import random

        self.address = address
        self.designs = designs
        self.rate = rate
        self.max_threads = size["max_threads"]
        self.rng = random.Random(derived_seed(seed, 1234))
        self.pending: "queue.Queue[Optional[dict]]" = queue.Queue()
        self.samples: List[dict] = []
        self.stop = threading.Event()

    def _next_point(self):
        from repro.workloads.multiprogram import heterogeneous_mixes

        n = self.rng.randint(1, self.max_threads)
        mix = heterogeneous_mixes(n, 1, self.rng.randrange(2**31))[0]
        return (self.rng.choice(self.designs), tuple(mix), self.rng.random() < 0.5)

    def submit_loop(self) -> None:
        from repro.serve import ServeClient

        try:
            with ServeClient(self.address, client_name="interactive") as client:
                due = free = time.monotonic()
                while not self.stop.is_set():
                    delay = due - time.monotonic()
                    if delay > 0 and self.stop.wait(delay):
                        break
                    point = self._next_point()
                    sample = {"due": due, "point": point,
                              "late_s": time.monotonic() - max(due, free)}
                    try:
                        sample["job"] = client.submit(
                            "point",
                            {"design": point[0], "mix": list(point[1]),
                             "smt": point[2]},
                            "interactive",
                        )
                    except Exception as exc:  # refused: a miss and a failure
                        sample["error"] = repr(exc)
                    free = time.monotonic()
                    self.pending.put(sample)
                    due += 1.0 / self.rate
        finally:
            self.pending.put(None)

    def wait_loop(self) -> None:
        from repro.engine.tasks import result_from_payload
        from repro.serve import ServeClient

        with ServeClient(self.address, client_name="interactive-wait") as client:
            for sample in iter(self.pending.get, None):
                if "job" in sample:
                    try:
                        status = client.wait(sample["job"], timeout=POINT_WAIT_S)
                        sample["done"] = time.monotonic()
                        sample["hash"] = records.mix_record_hash(
                            result_from_payload(status["result"]["point"])
                        )
                    except Exception as exc:  # a failed request is a miss
                        sample["error"] = repr(exc)
                self.samples.append(sample)


def serve_rep(spec: dict) -> dict:
    """``repro serve --jobs 1`` with a bulk cold sweep and open-loop points
    offered at ``spec["rate"]`` per second."""
    from repro.engine.tasks import result_from_payload
    from repro.serve import ServeClient
    from repro.serve.client import wait_for_server
    from repro.workloads.multiprogram import heterogeneous_mixes

    size = SIZES[spec["size"]]
    designs = design_names(spec["size"])
    work = spec["work_dir"]
    socket_path = os.path.join(work, "serve.sock")
    address = f"unix:{socket_path}"
    store_dir = os.path.join(work, "store")
    env = dict(os.environ, PYTHONPATH=spec["src"])
    recorder = SpanRecorder() if spec.get("traced") else None
    if recorder is not None:
        install_layer_spans(recorder)
    boot = time.monotonic()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "--log-level", "warning", "serve",
         "--socket", socket_path, "--jobs", "1", "--cache-dir", store_dir],
        env=env,
    )
    # The daemon keeps the vCPU this process was started on (where run.py
    # samples the host's speed); the benchmark's clients move off it.
    if spec.get("client_cpus"):
        os.sched_setaffinity(0, spec["client_cpus"])
    try:
        wait_for_server(address, timeout=60.0, interval=0.005)
        boot_s = time.monotonic() - boot
        load = _OpenLoop(address, size, designs, spec["seed"], spec["rate"])
        threads = [threading.Thread(target=load.submit_loop),
                   threading.Thread(target=load.wait_loop)]
        with ServeClient(address, client_name="bulk") as bulk:
            start = time.monotonic()
            for thread in threads:
                thread.start()
            try:
                result = bulk.sweep(
                    designs, "heterogeneous", size["max_threads"], True,
                    timeout=170.0,
                )
                pass_s = time.monotonic() - start
            finally:
                load.stop.set()
                for thread in threads:
                    thread.join(timeout=POINT_WAIT_S + 10.0)
            # The daemon's processes (at --jobs 1 it starts no worker
            # process), not this load-generating client.
            rss_mb = tree_peak_rss_mb(daemon.pid)
            if recorder is not None:
                histograms = bulk.metrics(window=1)["snapshot"]["histograms"]
                engine_stats = bulk.stats()["engine"]
            bulk.shutdown()
        daemon.wait(timeout=60.0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    if recorder is not None:
        recorder.restore()

    # Every record the daemon stored: the bulk grid plus the interactive
    # points.  Read as files, because recomputing 2,583 content keys here
    # would cost seconds per repetition.
    store_hashes = sorted(
        records.mix_record_hash(
            result_from_payload(json.loads(path.read_text())["payload"])
        )
        for path in Path(store_dir).glob("v*/*/*.json")
    )
    counts = range(1, size["max_threads"] + 1)
    mixes = {n: heterogeneous_mixes(n, 12, CANONICAL_SEED) for n in counts}
    table = [[result["mean_stp"][name][str(n)] for name in designs] for n in counts]

    latencies = []
    answered = []
    for sample in load.samples:
        if "hash" in sample:
            latencies.append(1000.0 * (sample["done"] - sample["due"]))
            answered.append((sample["point"], sample["hash"]))
        else:
            latencies.append(1000.0 * POINT_WAIT_S)
    out = {
        "setup_window": [boot, boot + boot_s],
        "setup_s": boot_s,
        "marks": [start, start + pass_s],
        "pass_s": pass_s,
        "laps": [pass_s],
        "rss_mb": rss_mb,
        "points": len(grid_points(designs, mixes, (True,))),
        "store_hashes": store_hashes,
        "serve_table": records.value_hash(table),
        "interactive": answered,
        "interactive_failed": sum(1 for s in load.samples if "hash" not in s),
        "latencies_ms": latencies,
        "late_ms": [1000.0 * s["late_s"] for s in load.samples],
    }
    if recorder is not None:
        queue_wait = histograms.get("serve.job_queue_wait_seconds", {})
        out["layers"] = span_metrics(recorder, pass_s)
        out["layers"].update(
            {
                "serve.boot_s": boot_s,
                "serve.queue_wait_p50_ms": 1000.0 * queue_wait.get("p50", 0.0),
                "serve.queue_wait_p99_ms": 1000.0 * queue_wait.get("p99", 0.0),
                "engine.failures": engine_stats["units_failed"],
                "engine.worker_respawns": engine_stats["worker_respawns"],
            }
        )
    return out


REPS = {
    "grid": grid_rep,
    "points": points_rep,
    "sweep": sweep_rep,
    "cycle": cycle_rep,
    "serve": serve_rep,
}
