"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-designs`` / ``list-benchmarks`` / ``list-experiments`` — inventory;
* ``evaluate --design 4B --mix mcf,tonto,...`` — one workload mix on one
  design (STP, ANTT, power, bus state);
* ``curve --design 4B --kind heterogeneous`` — STP vs thread count;
* ``figure <id>`` — regenerate one of the paper's tables/figures
  (``table1``, ``fig01`` ... ``fig17``, ``ablation-*``, ``ext-*``),
  optionally through the evaluation engine (``--jobs``, ``--cache-dir``);
* ``sweep`` — evaluate a design-space grid through the parallel engine
  with the persistent result store (``--jobs N --cache-dir PATH``);
* ``list-scenarios`` / ``explore --scenario <name>`` — adaptive design
  search (successive halving, optional GA refinement) on a named
  thread-count scenario, at a fraction of the full-grid cost;
* ``cache stats`` / ``cache clear`` — inspect or empty the result store;
* ``findings`` — evaluate the paper's eleven findings;
* ``validate`` — cross-validate the interval tier against the cycle tier.

Observability (:mod:`repro.obs`): every command honours ``--log-level`` and
``--log-json`` (status output on stderr; stdout stays machine-stable), and
``sweep``/``figure`` accept ``--trace FILE`` (Chrome trace-event JSON,
including worker-process spans), ``--metrics FILE`` (counter/histogram
snapshot) and ``--progress/--no-progress`` (live ETA line, auto on a TTY).
"""

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.designs import ALTERNATIVE_DESIGNS, DESIGN_ORDER, get_design
from repro.core.study import DesignSpaceStudy
from repro.experiments.base import ExperimentTable
from repro.obs import (
    METRICS,
    TRACER,
    ProgressLine,
    configure_logging,
    get_logger,
    reset_observability,
)
from repro.workloads.parsec import PARSEC_ORDER
from repro.workloads.spec import SPEC_ORDER

_LOG = get_logger("cli")


def _figure_registry() -> Dict[str, Callable[[], List[ExperimentTable]]]:
    """Lazy imports so ``--help`` stays fast."""
    from repro.experiments import (
        ablations,
        ext_acs,
        ext_prefetch,
        ext_scaled_budget,
        ext_serial_boost,
        fig01_parsec_threads,
        fig02_design_space,
        fig03_throughput_curves,
        fig04_tonto_libquantum,
        fig05_antt,
        fig06_fig07_fig08_uniform,
        fig09_per_benchmark,
        fig10_datacenter,
        fig11_fig12_parsec,
        fig13_dynamic,
        fig14_power,
        fig15_pareto,
        fig16_alternatives,
        fig17_bandwidth,
        table1_configs,
    )

    return {
        "table1": lambda: [table1_configs.run()],
        "fig01": lambda: [fig01_parsec_threads.run()],
        "fig02": lambda: [fig02_design_space.run()],
        "fig03": lambda: [
            fig03_throughput_curves.run("homogeneous"),
            fig03_throughput_curves.run("heterogeneous"),
        ],
        "fig04": lambda: [
            fig04_tonto_libquantum.run("tonto"),
            fig04_tonto_libquantum.run("libquantum"),
        ],
        "fig05": lambda: [fig05_antt.run()],
        "fig06": lambda: [fig06_fig07_fig08_uniform.run("none")],
        "fig07": lambda: [fig06_fig07_fig08_uniform.run("homogeneous-only")],
        "fig08": lambda: [fig06_fig07_fig08_uniform.run("all")],
        "fig09": lambda: [fig09_per_benchmark.run()],
        "fig10": lambda: [fig10_datacenter.run_distribution(), fig10_datacenter.run()],
        "fig11": lambda: [
            fig11_fig12_parsec.run_average("roi"),
            fig11_fig12_parsec.run_average("whole"),
        ],
        "fig12": lambda: [
            fig11_fig12_parsec.run_per_benchmark("roi"),
            fig11_fig12_parsec.run_per_benchmark("whole"),
        ],
        "fig13": lambda: [
            fig13_dynamic.run("homogeneous"),
            fig13_dynamic.run("heterogeneous"),
        ],
        "fig14": lambda: [fig14_power.run()],
        "fig15": lambda: [fig15_pareto.run()],
        "fig16": lambda: [fig16_alternatives.run()],
        "fig17": lambda: [
            fig17_bandwidth.run("homogeneous"),
            fig17_bandwidth.run("heterogeneous"),
        ],
        "ablation-scheduling": lambda: [ablations.run_scheduling()],
        "ablation-llc": lambda: [ablations.run_llc_sharing()],
        "ablation-rob": lambda: [ablations.run_rob_partitioning()],
        "ablation-fetch": lambda: [ablations.run_fetch_policy()],
        "ext-scaled-budget": lambda: [ext_scaled_budget.run()],
        "ext-acs": lambda: [ext_acs.run()],
        "ext-serial-boost": lambda: [ext_serial_boost.run()],
        "ext-prefetch": lambda: [ext_prefetch.run()],
    }


def _cmd_list_designs(_args: argparse.Namespace) -> int:
    print("baseline designs (Figure 2):")
    for name in DESIGN_ORDER:
        design = get_design(name)
        counts = ", ".join(f"{v}x {k}" for k, v in design.core_counts().items())
        print(f"  {name:6s} {counts}  ({design.max_threads} HW threads)")
    print("alternative designs (Section 8.1):")
    for name in sorted(ALTERNATIVE_DESIGNS):
        print(f"  {name}")
    return 0


def _cmd_list_benchmarks(_args: argparse.Namespace) -> int:
    print("SPEC-like single-thread profiles:")
    for name in SPEC_ORDER:
        print(f"  {name}")
    print("PARSEC-like multi-threaded workloads:")
    for name in PARSEC_ORDER:
        print(f"  {name}")
    return 0


def _cmd_list_experiments(_args: argparse.Namespace) -> int:
    for key in _figure_registry():
        print(f"  {key}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    mix = [b.strip() for b in args.mix.split(",") if b.strip()]
    if not mix:
        _LOG.error("error: --mix needs at least one benchmark")
        return 2
    from repro.workloads.multiprogram import profiles_for

    study = DesignSpaceStudy()
    try:
        design = study.design(args.design)
        profiles_for(mix)
    except (KeyError, ValueError) as exc:
        _LOG.error(f"error: {exc.args[0]}")
        return 2
    if not args.no_smt and len(mix) > design.max_threads:
        _LOG.error(
            f"error: design {design.name} has {design.max_threads} hardware "
            f"threads, the mix has {len(mix)} (--no-smt time-shares cores)"
        )
        return 2
    result = study.evaluate_mix(args.design, mix, smt=not args.no_smt)
    print(f"design          : {result.design_name}")
    print(f"mix ({len(mix):2d} threads): {', '.join(mix)}")
    print(f"SMT             : {'on' if result.smt else 'off'}")
    print(f"STP             : {result.stp:.3f}")
    print(f"ANTT            : {result.antt:.3f}")
    print(f"power (gated)   : {result.power_gated_w:.1f} W")
    print(f"power (ungated) : {result.power_ungated_w:.1f} W")
    print(f"bus utilization : {result.bus_utilization:.0%}")
    print(f"mem latency     : x{result.mem_latency_inflation:.2f} vs unloaded")
    return 0


def _check_max_threads(max_threads: int) -> None:
    if max_threads < 1:
        _LOG.error(f"error: --max-threads must be >= 1, got {max_threads}")
        raise SystemExit(2)


def _cmd_curve(args: argparse.Namespace) -> int:
    _check_max_threads(args.max_threads)
    study = DesignSpaceStudy()
    counts = range(1, args.max_threads + 1)
    curve = study.throughput_curve(
        args.design, args.kind, counts, smt=not args.no_smt
    )
    peak = max(curve.values())
    print(f"STP vs thread count: {args.design}, {args.kind}, "
          f"SMT {'off' if args.no_smt else 'on'}")
    for n in counts:
        bar = "#" * int(curve[n] / peak * 50)
        print(f"  {n:2d} {curve[n]:6.2f} {bar}")
    return 0


def _build_engine(
    jobs: int,
    cache_dir: Optional[str],
    no_cache: bool = False,
    retries: int = 1,
    unit_timeout: Optional[float] = None,
    slab_size: Optional[int] = None,
):
    """An engine with the persistent store (unless ``no_cache``).

    ``slab_size`` controls slab dispatch: ``None`` picks the default for
    multi-worker runs (32 points per slab, enough to amortize IPC), ``0``
    forces per-point dispatch, anything else is the points-per-slab count.
    """
    from repro.engine import Engine, ResultStore

    if jobs < 1:
        _LOG.error(f"error: --jobs must be >= 1, got {jobs}")
        raise SystemExit(2)
    if retries < 0:
        _LOG.error(f"error: --retries must be >= 0, got {retries}")
        raise SystemExit(2)
    if unit_timeout is not None and unit_timeout <= 0:
        _LOG.error(f"error: --unit-timeout must be > 0, got {unit_timeout}")
        raise SystemExit(2)
    if slab_size is not None and slab_size < 0:
        _LOG.error(f"error: --slab-size must be >= 0, got {slab_size}")
        raise SystemExit(2)
    if slab_size is None:
        slab_size = 32 if jobs > 1 else 0
    store = None if no_cache else ResultStore(cache_dir)
    return Engine(
        jobs=jobs,
        store=store,
        retries=retries,
        unit_timeout=unit_timeout,
        slab_size=slab_size or None,
    )


def _finish_engine(engine) -> None:
    """Persist the run summary, stop warm workers and report stats
    (stderr keeps stdout clean)."""
    engine.write_summary()
    engine.shutdown()
    _LOG.info(engine.stats.formatted())
    for failure in engine.stats.failures:
        _LOG.warning(
            f"failed unit: {failure['design']}/{'+'.join(failure['mix'])} "
            f"{failure['error_type']}: {failure['message']} "
            f"({failure['attempts']} attempt(s))"
        )
    if engine.store is not None and engine.store.degraded:
        _LOG.warning(
            f"store: DEGRADED to in-memory caching "
            f"({engine.store.degraded_reason})"
        )


def _obs_begin(args: argparse.Namespace) -> None:
    """Enable the global tracer/metrics registry per ``--trace``/``--metrics``."""
    if getattr(args, "trace", None):
        TRACER.reset()
        TRACER.enable()
    if getattr(args, "metrics", None):
        METRICS.reset()
        METRICS.enable()


def _obs_finish(args: argparse.Namespace) -> None:
    """Write any requested trace/metrics files, then disable and reset."""
    try:
        if getattr(args, "trace", None) and TRACER.enabled:
            count = TRACER.write(args.trace)
            _LOG.info(f"wrote trace: {args.trace}", events=count)
        if getattr(args, "metrics", None) and METRICS.enabled:
            METRICS.write(args.metrics)
            _LOG.info(f"wrote metrics: {args.metrics}")
    finally:
        reset_observability()


def _cmd_figure(args: argparse.Namespace) -> int:
    registry = _figure_registry()
    if args.id not in registry:
        _LOG.error(f"unknown experiment {args.id!r}; try: {', '.join(registry)}")
        return 2
    if args.server:
        return _cmd_figure_remote(args)
    engine = None
    if args.jobs != 1 or args.cache_dir is not None:
        from repro.experiments.context import set_engine

        engine = _build_engine(
            args.jobs, args.cache_dir, retries=args.retries,
            unit_timeout=args.unit_timeout,
        )
        engine.progress = ProgressLine(f"figure {args.id}", enabled=args.progress)
        set_engine(engine)
    _obs_begin(args)
    try:
        for table in registry[args.id]():
            print(table.to_json() if args.json else table.formatted())
            print()
    finally:
        if engine is not None:
            _finish_engine(engine)
            set_engine(None)
        _obs_finish(args)
    return 0


def _cmd_figure_remote(args: argparse.Namespace) -> int:
    """``figure --server``: render through the daemon's warm engine.

    The daemon runs the same registry entry through its engine and ships
    back both renderings; stdout is byte-identical to local execution.
    """
    from repro.serve import ServeClient, ServeConnectionError, ServeError

    try:
        with ServeClient(args.server, client_name="cli-figure") as client:
            tables = client.figure(args.id)
    except (ServeError, ServeConnectionError) as exc:
        _LOG.error(f"error: {exc}")
        return 2
    for table in tables:
        print(table["json"] if args.json else table["formatted"])
        print()
    return 0


def _cmd_sweep_remote(args: argparse.Namespace, designs: "Sequence[str]") -> int:
    """``sweep --server``: same table, evaluated by the daemon.

    Stdout must be byte-identical to a local run: the server computes the
    per-(design, thread count) harmonic means through the same study
    helpers in the same order; floats survive the JSON wire exactly
    (``repr`` round-trip), and the table is rebuilt and printed with the
    identical layout code.
    """
    from repro.serve import ServeClient, ServeConnectionError, ServeError

    smt = not args.no_smt
    counts = list(range(1, args.max_threads + 1))
    progress = ProgressLine("sweep", enabled=args.progress)

    def on_progress(event):
        if event.get("final"):
            return  # terminal events carry done_points, not done
        if event.get("event") == "progress":
            progress.begin(event.get("total") or 0)
        progress.update(event.get("done") or 0)

    try:
        with ServeClient(args.server, client_name="cli-sweep") as client:
            result = client.sweep(
                list(designs), args.kind, args.max_threads, smt,
                on_progress=on_progress,
            )
    except (ServeError, ServeConnectionError) as exc:
        progress.finish()
        _LOG.error(f"error: {exc}")
        return 2
    progress.finish()
    mean_stp = result["mean_stp"]
    table = ExperimentTable(
        experiment_id="sweep",
        title=f"mean STP vs thread count, {args.kind} workloads, "
        f"SMT {'on' if smt else 'off'}",
        columns=["threads"] + list(designs),
    )
    for n in counts:
        table.add_row(
            threads=n,
            **{name: mean_stp[name][str(n)] for name in designs},
        )
    print(table.to_json() if args.json else table.formatted())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.design.strip().lower() == "all":
        designs: Sequence[str] = DESIGN_ORDER
    else:
        designs = [d.strip() for d in args.design.split(",") if d.strip()]
    if not designs:
        _LOG.error("error: --design needs at least one design name")
        return 2
    _check_max_threads(args.max_threads)
    if args.server:
        return _cmd_sweep_remote(args, designs)
    engine = _build_engine(
        args.jobs, args.cache_dir, args.no_cache,
        retries=args.retries, unit_timeout=args.unit_timeout,
        slab_size=args.slab_size,
    )
    engine.progress = ProgressLine("sweep", enabled=args.progress)
    study = DesignSpaceStudy(engine=engine)
    counts = list(range(1, args.max_threads + 1))
    smt = not args.no_smt
    _obs_begin(args)
    try:
        try:
            study.prefetch(designs, args.kind, counts, smt)
        except KeyError as exc:
            _LOG.error(f"error: {exc.args[0]}")
            return 2
        table = ExperimentTable(
            experiment_id="sweep",
            title=f"mean STP vs thread count, {args.kind} workloads, "
            f"SMT {'on' if smt else 'off'}",
            columns=["threads"] + list(designs),
        )
        for n in counts:
            table.add_row(
                threads=n,
                **{
                    name: study.mean_stp(name, args.kind, n, smt)
                    for name in designs
                },
            )
        print(table.to_json() if args.json else table.formatted())
        _finish_engine(engine)
        return 0
    finally:
        _obs_finish(args)


def _cmd_list_scenarios(_args: argparse.Namespace) -> int:
    from repro.core.scenarios import SCENARIOS

    width = max(len(name) for name in SCENARIOS)
    for name, scenario in SCENARIOS.items():
        print(f"{name.ljust(width)}  {scenario.description}")
    return 0


def _explore_table(result: Dict) -> ExperimentTable:
    """Render one exploration summary as an experiment table.

    A pure function of the JSON-safe result dict, so local and
    ``--server`` runs print byte-identical output.
    """
    table = ExperimentTable(
        experiment_id="explore",
        title=f"adaptive design search, scenario '{result['scenario']}', "
        f"{result['kind']} workloads, SMT "
        f"{'on' if result['smt'] else 'off'}",
        columns=["rung", "designs", "threads", "mixes", "points", "cumulative", "best"],
    )
    for rung in result["rungs"]:
        table.add_row(
            rung=rung["rung"],
            designs=len(rung["designs"]),
            threads=rung["thread_counts"],
            mixes=rung["mixes_per_count"],
            points=rung["new_points"],
            cumulative=rung["cumulative_points"],
            best=rung["kept"][0],
        )
    ranking = " > ".join(
        f"{entry['design']} {entry['score']:.4f}" for entry in result["ranking"]
    )
    table.notes.append(f"final rung ranking: {ranking}")
    if result["tie_escalated"]:
        table.notes.append(
            "near-tie between finalists resolved at full fidelity"
        )
    ga = result.get("ga")
    if ga:
        evaluated = ", ".join(
            f"{entry['design']} {entry['score']:.4f}"
            for entry in ga["evaluated"]
        )
        table.notes.append(
            f"GA refinement ({ga['rounds']} round(s)): {evaluated or 'budget exhausted'}"
        )
    table.notes.append(
        f"winner: {result['winner']} "
        f"(score {result['winner_score']:.4f} on {result['distribution']})"
    )
    table.notes.append(
        f"evaluated {result['evaluations']} of {result['full_grid_points']} "
        f"full-grid points ({result['fraction']:.1%})"
    )
    return table


def _cmd_explore_remote(args: argparse.Namespace, params: Dict) -> int:
    """``explore --server``: the daemon runs the search on its warm study.

    Stdout is byte-identical to a local run: the table is rebuilt from
    the JSON-round-tripped summary with the identical layout code.
    """
    from repro.serve import ServeClient, ServeConnectionError, ServeError

    try:
        with ServeClient(args.server, client_name="cli-explore") as client:
            result = client.explore(params)
    except (ServeError, ServeConnectionError) as exc:
        _LOG.error(f"error: {exc}")
        return 2
    table = _explore_table(result)
    print(table.to_json() if args.json else table.formatted())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.core.scenarios import get_scenario
    from repro.explore import ExploreConfig, run_explore

    if args.design.strip().lower() == "all":
        designs: Sequence[str] = DESIGN_ORDER
    else:
        designs = [d.strip() for d in args.design.split(",") if d.strip()]
    if not designs:
        _LOG.error("error: --design needs at least one design name")
        return 2
    try:
        get_scenario(args.scenario)
    except ValueError as exc:
        _LOG.error(f"error: {exc}")
        return 2
    params = {
        "scenario": args.scenario,
        "designs": tuple(designs),
        "kind": args.kind,
        "max_threads": args.max_threads,
        "smt": not args.no_smt,
        "seed": args.seed,
        "eta": args.eta,
        "min_counts": args.min_counts,
        "min_mixes": args.min_mixes,
        "budget_fraction": args.budget,
        "ga_rounds": args.ga,
    }
    try:
        config = ExploreConfig(**params)
    except ValueError as exc:
        _LOG.error(f"error: {exc}")
        return 2
    if args.server:
        params["designs"] = list(designs)
        return _cmd_explore_remote(args, params)
    engine = _build_engine(
        args.jobs, args.cache_dir, args.no_cache,
        retries=args.retries, unit_timeout=args.unit_timeout,
        slab_size=args.slab_size,
    )
    engine.progress = ProgressLine("explore", enabled=args.progress)
    try:
        study = DesignSpaceStudy(
            designs=[get_design(name) for name in designs], engine=engine
        )
    except KeyError as exc:
        _LOG.error(f"error: {exc.args[0]}")
        return 2
    _obs_begin(args)
    try:
        result = run_explore(config, study=study)
        table = _explore_table(result)
        print(table.to_json() if args.json else table.formatted())
        _finish_engine(engine)
        return 0
    finally:
        _obs_finish(args)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import ResultStore

    store = ResultStore(args.cache_dir)
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"evicted {removed} record(s) from {store.cache_dir}")
        return 0

    content = store.content_summary()
    last_run = store.read_run_summary()
    if args.json:
        print(json.dumps({"store": content, "last_run": last_run}, indent=2))
        return 0
    print(f"cache dir       : {content['cache_dir']}")
    print(f"schema version  : {content['schema_version']}")
    print(f"records         : {content['records']}")
    print(f"total bytes     : {content['total_bytes']}")
    if content["orphan_tmp_files"] or content["empty_shards"]:
        print(
            f"debris          : {content['orphan_tmp_files']} orphan tmp "
            f"file(s), {content['empty_shards']} empty shard dir(s) "
            "(swept on next clear/prune)"
        )
    if content["degraded"]:
        print(f"degraded        : yes ({content['degraded_reason']})")
    if last_run is None:
        print("last run        : (none recorded)")
        return 0
    print(f"last run        : {last_run.get('finished_at', '?')}")
    print(f"  jobs          : {last_run.get('jobs', '?')}")
    print(f"  units         : {last_run.get('units_total', '?')}")
    hit_rate = last_run.get("store_hit_rate")
    if isinstance(hit_rate, (int, float)):
        print(f"  store hits    : {last_run.get('store_hits', '?')} ({hit_rate:.1%})")
    wall = last_run.get("wall_seconds")
    if isinstance(wall, (int, float)):
        print(f"  wall time     : {wall:.3f} s")
    utilization = last_run.get("worker_utilization")
    if isinstance(utilization, (int, float)):
        print(f"  utilization   : {utilization:.0%}")
    pool_starts = last_run.get("pool_starts", 0)
    pool_reuses = last_run.get("pool_reuses", 0)
    if pool_starts or pool_reuses:
        print(
            f"  pool          : {pool_starts} start(s), "
            f"{pool_reuses} warm reuse(s)"
        )
    failed = last_run.get("units_failed", 0)
    retried = last_run.get("units_retried", 0)
    respawned = last_run.get("worker_respawns", 0)
    if failed or retried or respawned:
        print(
            f"  faults        : {failed} failed, {retried} retried, "
            f"{respawned} worker(s) respawned"
        )
    phases = last_run.get("phase_seconds")
    shares = last_run.get("phase_shares") or {}
    if isinstance(phases, dict) and phases:
        breakdown = "  ".join(
            f"{name}={seconds:.3f}s/{shares.get(name, 0.0):.0%}"
            for name, seconds in sorted(phases.items())
        )
        print(f"  phases        : {breakdown}")
    unit_seconds = last_run.get("unit_seconds")
    if isinstance(unit_seconds, dict) and unit_seconds.get("count"):
        print(
            f"  unit latency  : p50 {unit_seconds['p50'] * 1e3:.1f} ms  "
            f"p95 {unit_seconds['p95'] * 1e3:.1f} ms  "
            f"over {unit_seconds['count']} computed unit(s)"
        )
    metrics = last_run.get("metrics")
    if isinstance(metrics, dict):
        print(
            f"  metrics       : {len(metrics.get('counters', {}))} counter(s), "
            f"{len(metrics.get('gauges', {}))} gauge(s), "
            f"{len(metrics.get('histograms', {}))} histogram(s)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident evaluation daemon (see docs/serving.md)."""
    from repro.serve import ServeConfig, SweepServer

    if args.socket and args.port is not None:
        _LOG.error("error: give --socket or --port, not both")
        return 2
    if args.socket:
        listen = f"unix:{args.socket}"
    elif args.port is not None:
        listen = f"{args.host}:{args.port}"
    else:
        _LOG.error("error: serve needs --socket PATH or --port N")
        return 2
    if args.jobs < 1:
        _LOG.error(f"error: --jobs must be >= 1, got {args.jobs}")
        return 2
    if args.slab_size < 1:
        _LOG.error(f"error: --slab-size must be >= 1, got {args.slab_size}")
        return 2
    if args.quota < 1:
        _LOG.error(f"error: --quota must be >= 1, got {args.quota}")
        return 2
    if args.max_finished_jobs < 0:
        _LOG.error(
            f"error: --max-finished-jobs must be >= 0, got {args.max_finished_jobs}"
        )
        return 2
    if args.http_port is not None and args.http_port < 0:
        _LOG.error(f"error: --http-port must be >= 0, got {args.http_port}")
        return 2
    if args.record_interval <= 0:
        _LOG.error(
            f"error: --record-interval must be > 0, got {args.record_interval}"
        )
        return 2
    if args.record_window < 1 or args.trace_ring < 1:
        _LOG.error("error: --record-window and --trace-ring must be >= 1")
        return 2
    config = ServeConfig(
        listen=listen,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        retries=args.retries,
        unit_timeout=args.unit_timeout,
        slab_size=args.slab_size,
        quota=args.quota,
        max_finished_jobs=args.max_finished_jobs,
        http_port=args.http_port,
        http_host=args.http_host,
        record_interval=args.record_interval,
        record_window=args.record_window,
        trace_ring=args.trace_ring,
        flight_path=args.flight_record,
    )
    _obs_begin(args)
    try:
        return SweepServer(config).run()
    finally:
        _obs_finish(args)


def _top_snapshot(client) -> Dict:
    """One dashboard frame from a serve daemon's health + metrics ops."""
    health = client.health()
    telemetry = client.metrics(window=3)
    counters = telemetry["snapshot"]["counters"]
    gauges = telemetry["snapshot"].get("gauges", {})
    series = telemetry["series"]
    throughput: Dict[str, Optional[float]] = {
        "points_per_second": None,
        "jobs_per_second": None,
        "window_seconds": None,
    }
    if len(series) >= 2:
        prev, last = series[-2], series[-1]
        dt = last["ts"] - prev["ts"]
        if dt > 0:

            def rate(name: str) -> float:
                delta = last["counters"].get(name, 0) - prev["counters"].get(
                    name, 0
                )
                return round(delta / dt, 3)

            throughput = {
                "points_per_second": rate("serve.points_completed"),
                "jobs_per_second": rate("serve.jobs_completed"),
                "window_seconds": round(dt, 3),
            }
    if throughput["points_per_second"] is None:
        # Not enough samples yet (fresh daemon / long interval): fall
        # back to lifetime averages so --once always reports something.
        uptime = health.get("uptime_seconds") or 0
        if uptime > 0:
            throughput = {
                "points_per_second": round(
                    counters.get("serve.points_completed", 0) / uptime, 3
                ),
                "jobs_per_second": round(
                    counters.get("serve.jobs_completed", 0) / uptime, 3
                ),
                "window_seconds": uptime,
            }
    clients: Dict[str, Dict[str, float]] = {}
    prefix = "serve.client_points_completed{client="
    total_client_points = 0.0
    for name, value in counters.items():
        if name.startswith(prefix) and name.endswith("}"):
            clients[name[len(prefix):-1]] = {"points_completed": value}
            total_client_points += value
    for entry in clients.values():
        entry["share"] = round(
            entry["points_completed"] / total_client_points, 4
        ) if total_client_points else 0.0
    return {
        "address": client.address,
        "uptime_seconds": health.get("uptime_seconds"),
        "ready": health.get("ready"),
        "draining": health.get("draining"),
        "jobs": health.get("jobs", {}),
        "active_jobs": health.get("active_jobs"),
        "queue": health.get("queue", {}),
        "throughput": throughput,
        "latency": health.get("slo", {}),
        "clients": clients,
        "counters": counters,
        "gauges": gauges,
    }


def _fmt_latency(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _top_render(snap: Dict) -> List[str]:
    """Render one snapshot as the fixed-shape dashboard frame."""
    jobs = snap["jobs"]
    queue = snap["queue"]
    rate = snap["throughput"]
    gauges = snap.get("gauges", {})

    def slo_text(key: str) -> str:
        slo = snap["latency"].get(key, {})
        return "/".join(
            _fmt_latency(slo.get(q)) for q in ("p50", "p95", "p99")
        )

    pts = rate.get("points_per_second")
    clients = sorted(
        snap["clients"].items(),
        key=lambda item: -item[1]["points_completed"],
    )
    client_text = "   ".join(
        f"{name} {entry['share'] * 100:.0f}%" for name, entry in clients[:6]
    )
    return [
        f"repro top — {snap['address']}   up {snap['uptime_seconds']:.0f}s   "
        f"ready {'yes' if snap['ready'] else 'no'}   "
        f"draining {'yes' if snap['draining'] else 'no'}",
        "jobs      "
        + "   ".join(
            f"{state} {jobs.get(state, 0)}"
            for state in ("queued", "running", "done", "failed", "cancelled")
        ),
        f"queue     ready {queue.get('ready', 0)}   "
        f"in-flight {queue.get('in_flight', 0)}   "
        f"backlog {sum((queue.get('backlog') or {}).values())}   "
        f"preemptions {queue.get('preemptions', 0)}   "
        f"quota {queue.get('quota', 0)}",
        f"points    {snap['counters'].get('serve.points_requested', 0):.0f} "
        f"requested   "
        f"{snap['counters'].get('serve.points_completed', 0):.0f} done   "
        f"{snap['counters'].get('serve.points_coalesced', 0):.0f} coalesced   "
        f"{pts if pts is not None else 0:.1f} pts/s",
        f"latency   queue-wait {slo_text('queue_wait_seconds')}   "
        f"e2e {slo_text('e2e_seconds')}   "
        f"slab {slo_text('slab_seconds')}   (p50/p95/p99)",
        f"pool      workers {gauges.get('serve.pool_workers', 0):.0f}   "
        f"starts {gauges.get('serve.pool_starts', 0):.0f}   "
        f"warm reuses {gauges.get('serve.pool_reuses', 0):.0f}   "
        f"respawns {gauges.get('serve.worker_respawns', 0):.0f}   "
        f"in-flight pts {gauges.get('serve.in_flight_points', 0):.0f}",
        f"clients   {client_text or '-'}",
    ]


def _cmd_top(args: argparse.Namespace) -> int:
    """TTY dashboard over the serve daemon's health/metrics ops."""
    from repro.obs import MultiLineDisplay
    from repro.serve import ServeClient, ServeConnectionError, ServeError

    display = MultiLineDisplay()
    try:
        with ServeClient(args.server, client_name="cli-top") as client:
            while True:
                try:
                    snap = _top_snapshot(client)
                except (ServeError, ServeConnectionError) as exc:
                    _LOG.error(f"error: {exc}")
                    return 2
                if args.json:
                    print(json.dumps(snap, sort_keys=True))
                else:
                    display.render(_top_render(snap))
                if args.once:
                    return 0
                time.sleep(args.interval)
    except ServeConnectionError as exc:
        _LOG.error(f"error: {exc}")
        return 2
    except KeyboardInterrupt:
        return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    if args.scenario:
        names = [s.strip() for s in args.scenario.split(",") if s.strip()]
        unknown = [n for n in names if n not in bench.SCENARIOS]
        if unknown:
            _LOG.error(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"choose from {', '.join(bench.SCENARIOS)}"
            )
            return 2
    elif args.fast:
        names = list(bench.FAST_SCENARIOS)
    else:
        names = list(bench.SCENARIOS)
    if args.repeat < 1:
        _LOG.error(f"error: --repeat must be >= 1, got {args.repeat}")
        return 2
    by_tier: Dict[str, List[str]] = {}
    for name in names:
        by_tier.setdefault(bench.tier_of(name), []).append(name)
    if args.output is not None and len(by_tier) > 1:
        _LOG.error(
            "error: --output names a single file but the selected scenarios "
            "span multiple tiers; select one tier or drop --output to use "
            "the per-tier defaults (BENCH_cycle.json / BENCH_interval.json "
            "/ BENCH_serve.json)"
        )
        return 2
    # One report file per tier; save-baseline and --check see all scenarios.
    combined: Dict = {"schema_version": None, "baseline": None, "scenarios": {}}
    for tier in bench.TIERS:
        if tier not in by_tier:
            continue
        report = bench.run_suite(
            scenarios=by_tier[tier],
            repeats=args.repeat,
            baseline_path=args.baseline,
            profile=args.profile,
        )
        out = args.output or bench.REPORT_FILES[tier]
        print(
            json.dumps(report, indent=2) if args.json
            else bench.format_report(report)
        )
        bench.write_report(report, out)
        _LOG.info(f"wrote {out}")
        combined["schema_version"] = report["schema_version"]
        combined["baseline"] = combined["baseline"] or report["baseline"]
        combined["scenarios"].update(report["scenarios"])
    if args.save_baseline:
        bench.save_baseline(combined, args.save_baseline, label=args.baseline_label)
        _LOG.info(f"recorded baseline: {args.save_baseline}")
    if args.check is not None:
        failures = bench.check_regressions(combined, max_regression=args.check)
        for message in failures:
            _LOG.error(f"perf regression: {message}")
        if failures:
            return 1
        _LOG.info(
            f"perf check passed: no scenario regressed more than "
            f"{args.check:.0%} vs baseline"
        )
    return 0


def _cmd_findings(_args: argparse.Namespace) -> int:
    from repro.experiments import findings

    ok = True
    for f in findings.evaluate_all():
        status = "PASS" if f.holds else "FAIL"
        ok = ok and f.holds
        print(f"Finding {f.number:2d} [{status}] {f.claim}")
        print(f"    {f.evidence}")
    return 0 if ok else 1


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.cpi_stacks import cpi_stack_table
    from repro.microarch.config import CORE_CONFIGS
    from repro.workloads.spec import all_profiles

    table = cpi_stack_table(
        all_profiles(), CORE_CONFIGS[args.core], co_runners=args.smt
    )
    print(table.formatted())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import cross_validate
    from repro.microarch.config import BIG
    from repro.workloads.spec import all_profiles

    if args.instructions < 1:
        _LOG.error(f"error: --instructions must be >= 1, got {args.instructions}")
        return 2
    cv = cross_validate(
        all_profiles(),
        BIG,
        instructions=args.instructions,
        sampling=args.sampling,
    )
    print(f"{'benchmark':12s}{'interval':>10s}{'cycle':>8s}{'ratio':>7s}")
    for name in sorted(cv.interval_ipc):
        print(
            f"{name:12s}{cv.interval_ipc[name]:10.2f}"
            f"{cv.cycle_ipc[name]:8.2f}{cv.ratios[name]:7.2f}"
        )
    print(f"Spearman rank correlation: {cv.rank_correlation:.3f}")
    return 0 if cv.rank_correlation > 0.8 else 1


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON file (load in Perfetto or "
        "chrome://tracing); includes spans from worker processes",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write a JSON snapshot of counters/gauges/histograms",
    )
    progress = parser.add_mutually_exclusive_group()
    progress.add_argument(
        "--progress",
        action="store_true",
        dest="progress",
        default=None,
        help="show a live progress line with ETA on stderr (default: "
        "auto, only when stderr is a TTY)",
    )
    progress.add_argument(
        "--no-progress",
        action="store_false",
        dest="progress",
        help="never show the progress line",
    )


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default=None,
        metavar="ADDR",
        help="evaluate through a running serve daemon instead of a local "
        "engine (unix:PATH, PATH, HOST:PORT or :PORT); output is "
        "byte-identical to local execution, and local engine flags "
        "(--jobs, --cache-dir, ...) are ignored",
    )


def _add_fault_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retry a failing grid point N times with exponential backoff "
        "before reporting it as a structured failure (default: 1)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget; a unit exceeding it counts as a "
        "failed attempt and is retried (default: no timeout)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Benefit of SMT in the Multi-Core Era' (ASPLOS 2014)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="status output verbosity on stderr (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit status output as JSON lines instead of text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-designs", help="show the chip design space").set_defaults(
        func=_cmd_list_designs
    )
    sub.add_parser("list-benchmarks", help="show the workload suites").set_defaults(
        func=_cmd_list_benchmarks
    )
    sub.add_parser(
        "list-experiments", help="show reproducible tables/figures"
    ).set_defaults(func=_cmd_list_experiments)

    p_eval = sub.add_parser("evaluate", help="evaluate one mix on one design")
    p_eval.add_argument("--design", default="4B")
    p_eval.add_argument(
        "--mix", required=True, help="comma-separated benchmark names"
    )
    p_eval.add_argument("--no-smt", action="store_true")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_curve = sub.add_parser("curve", help="STP vs thread count (ASCII chart)")
    p_curve.add_argument("--design", default="4B")
    p_curve.add_argument(
        "--kind", default="heterogeneous", choices=("homogeneous", "heterogeneous")
    )
    p_curve.add_argument("--max-threads", type=int, default=24)
    p_curve.add_argument("--no-smt", action="store_true")
    p_curve.set_defaults(func=_cmd_curve)

    p_fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    p_fig.add_argument("id", help="e.g. fig03, fig15, table1, ext-acs")
    p_fig.add_argument("--json", action="store_true", help="machine-readable output")
    p_fig.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate grid points on N worker processes (engine mode)",
    )
    p_fig.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result store location (default: ~/.cache/repro; "
        "engine mode is enabled whenever this or --jobs > 1 is given)",
    )
    _add_fault_tolerance_flags(p_fig)
    _add_obs_flags(p_fig)
    _add_server_flag(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate a design-space grid through the parallel engine",
    )
    p_sweep.add_argument(
        "--design",
        default="all",
        help="comma-separated design names, or 'all' (default)",
    )
    p_sweep.add_argument(
        "--kind",
        default="heterogeneous",
        choices=("homogeneous", "heterogeneous"),
    )
    p_sweep.add_argument("--max-threads", type=int, default=24)
    p_sweep.add_argument("--no-smt", action="store_true")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    p_sweep.add_argument(
        "--slab-size",
        type=int,
        default=None,
        metavar="N",
        help="grid points per worker dispatch (default: 32 when --jobs > 1, "
        "per-point otherwise; 0 forces per-point dispatch)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result store location (default: ~/.cache/repro)",
    )
    p_sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent store (compute everything)",
    )
    _add_fault_tolerance_flags(p_sweep)
    _add_obs_flags(p_sweep)
    _add_server_flag(p_sweep)
    p_sweep.add_argument("--json", action="store_true", help="machine-readable output")
    p_sweep.set_defaults(func=_cmd_sweep)

    sub.add_parser(
        "list-scenarios", help="show the thread-count scenario catalog"
    ).set_defaults(func=_cmd_list_scenarios)

    p_explore = sub.add_parser(
        "explore",
        help="adaptive design search on a scenario (successive halving)",
    )
    p_explore.add_argument(
        "--scenario",
        required=True,
        help="scenario name (see 'repro list-scenarios')",
    )
    p_explore.add_argument(
        "--design",
        default="all",
        help="comma-separated candidate design names, or 'all' (default)",
    )
    p_explore.add_argument(
        "--kind",
        default="heterogeneous",
        choices=("homogeneous", "heterogeneous"),
    )
    p_explore.add_argument("--max-threads", type=int, default=24)
    p_explore.add_argument("--no-smt", action="store_true")
    p_explore.add_argument(
        "--seed",
        type=int,
        default=42,
        help="seeds the scenario trace and the GA (default: 42)",
    )
    p_explore.add_argument(
        "--eta",
        type=int,
        default=3,
        metavar="N",
        help="keep 1/N of the candidates per rung; fidelity grows by N "
        "per rung (default: 3)",
    )
    p_explore.add_argument(
        "--min-counts",
        type=int,
        default=4,
        metavar="N",
        help="thread counts evaluated at rung 0, most probable first "
        "(default: 4)",
    )
    p_explore.add_argument(
        "--min-mixes",
        type=int,
        default=3,
        metavar="N",
        help="mixes per thread count at rung 0 (default: 3)",
    )
    p_explore.add_argument(
        "--budget",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="evaluation ceiling as a fraction of the full grid; bounds "
        "tie escalation and GA refinement (default: 0.2)",
    )
    p_explore.add_argument(
        "--ga",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="GA refinement rounds over the full power-budget composition "
        "space, seeded by the halving winner (default: 0 = off; raise "
        "--budget to give it room)",
    )
    p_explore.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    p_explore.add_argument(
        "--slab-size",
        type=int,
        default=None,
        metavar="N",
        help="grid points per worker dispatch (default: 32 when --jobs > 1, "
        "per-point otherwise; 0 forces per-point dispatch)",
    )
    p_explore.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result store location (default: ~/.cache/repro)",
    )
    p_explore.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent store (compute everything)",
    )
    _add_fault_tolerance_flags(p_explore)
    _add_obs_flags(p_explore)
    _add_server_flag(p_explore)
    p_explore.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_explore.set_defaults(func=_cmd_explore)

    p_cache = sub.add_parser("cache", help="inspect or clear the result store")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="store contents and last engine run summary"
    )
    p_cache_stats.add_argument("--cache-dir", default=None, metavar="PATH")
    p_cache_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_cache_stats.set_defaults(func=_cmd_cache)
    p_cache_clear = cache_sub.add_parser("clear", help="evict every stored record")
    p_cache_clear.add_argument("--cache-dir", default=None, metavar="PATH")
    p_cache_clear.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident evaluation daemon (async job API over a "
        "unix socket or TCP; see docs/serving.md)",
    )
    listen_group = p_serve.add_mutually_exclusive_group(required=False)
    listen_group.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket to listen on"
    )
    listen_group.add_argument(
        "--port", type=int, default=None, metavar="N", help="TCP port to listen on"
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="TCP bind address with --port (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    p_serve.add_argument(
        "--slab-size",
        type=int,
        default=32,
        metavar="N",
        help="grid points per dispatch slab — the preemption granularity "
        "(default: 32)",
    )
    p_serve.add_argument(
        "--quota",
        type=int,
        default=4,
        metavar="N",
        help="max slabs admitted per client at once; the rest queue "
        "fairly (default: 4)",
    )
    p_serve.add_argument(
        "--max-finished-jobs",
        type=int,
        default=512,
        metavar="N",
        help="terminal jobs kept for poll/wait before eviction; 0 keeps "
        "all (default: 512)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result store location (default: ~/.cache/repro)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent store (compute everything)",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="N",
        help="also serve Prometheus-format /metrics and /healthz over "
        "HTTP on this port (0 picks an ephemeral port; see "
        "docs/observability.md)",
    )
    p_serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --http-port (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--record-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="time-series recorder sampling interval (default: 1.0)",
    )
    p_serve.add_argument(
        "--record-window",
        type=int,
        default=512,
        metavar="N",
        help="time-series samples kept in the ring (default: 512)",
    )
    p_serve.add_argument(
        "--trace-ring",
        type=int,
        default=2048,
        metavar="N",
        help="spans held by the continuous tracer, drainable live via "
        "the trace op (default: 2048)",
    )
    p_serve.add_argument(
        "--flight-record",
        default=None,
        metavar="FILE",
        help="write a flight record (recent spans + time series + "
        "metrics) to FILE on SIGUSR1 and when the drain completes",
    )
    _add_fault_tolerance_flags(p_serve)
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live dashboard for a running serve daemon: jobs by state, "
        "queue depths, points/s throughput, latency percentiles and "
        "per-client shares (use --once --json for scripting)",
    )
    p_top.add_argument(
        "--server",
        required=True,
        metavar="ADDR",
        help="serve daemon address (unix:PATH, PATH, HOST:PORT or :PORT)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: 2.0)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit",
    )
    p_top.add_argument(
        "--json",
        action="store_true",
        help="emit each frame as one JSON object on stdout",
    )
    p_top.set_defaults(func=_cmd_top)

    p_bench = sub.add_parser(
        "bench",
        help="time the cycle-level and interval tiers; writes "
        "BENCH_cycle.json and BENCH_interval.json",
    )
    p_bench.add_argument(
        "--scenario",
        default=None,
        metavar="NAME[,NAME]",
        help="run only these scenarios (default: all)",
    )
    p_bench.add_argument(
        "--fast",
        action="store_true",
        help="run only the fast scenarios used by the CI perf gate",
    )
    p_bench.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="repeats per scenario; best wall time wins (default: 1)",
    )
    p_bench.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="report file when a single tier is selected (default: "
        "BENCH_cycle.json / BENCH_interval.json per tier)",
    )
    p_bench.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline to compute speedups against "
        "(default: benchmarks/perf/baseline.json)",
    )
    p_bench.add_argument(
        "--save-baseline",
        default=None,
        metavar="FILE",
        help="also record these numbers as a new baseline file",
    )
    p_bench.add_argument(
        "--baseline-label",
        default="seed",
        metavar="LABEL",
        help="label stored in --save-baseline (default: seed)",
    )
    p_bench.add_argument(
        "--profile",
        action="store_true",
        help="additionally run each scenario under cProfile and log the "
        "top-20 cumulative hotspots",
    )
    p_bench.add_argument(
        "--check",
        type=float,
        default=None,
        nargs="?",
        const=0.25,
        metavar="FRACTION",
        help="exit non-zero if any scenario's instr/sec falls more than "
        "this fraction below the baseline (default when given: 0.25); "
        "the CI perf gate runs with this flag",
    )
    p_bench.add_argument("--json", action="store_true", help="machine-readable output")
    p_bench.set_defaults(func=_cmd_bench)

    sub.add_parser("findings", help="evaluate the 11 findings").set_defaults(
        func=_cmd_findings
    )

    p_char = sub.add_parser(
        "characterize", help="CPI stacks for the benchmark suite"
    )
    p_char.add_argument(
        "--core", default="big", choices=("big", "medium", "small")
    )
    p_char.add_argument(
        "--smt", type=int, default=0, metavar="N", help="co-runners sharing the core"
    )
    p_char.set_defaults(func=_cmd_characterize)

    p_val = sub.add_parser(
        "validate", help="cross-validate interval vs cycle tiers"
    )
    p_val.add_argument("--instructions", type=int, default=15_000)
    p_val.add_argument(
        "--sampling",
        default=None,
        choices=("live",),
        help="'live' runs the cycle tier in adaptive live-sampled mode "
        "(online phase detector + error controller): detailed windows plus "
        "functionally-warmed fast-forward instead of full simulation "
        "(see docs/performance.md)",
    )
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser(
        "report", help="regenerate every experiment into one markdown report"
    )
    p_rep.add_argument("--output", default="reproduction_report.md")
    p_rep.add_argument(
        "--heavy", action="store_true", help="include the slow ext-* experiments"
    )
    p_rep.set_defaults(func=_cmd_report)
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(heavy_extensions=args.heavy)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
