"""The resident evaluation daemon: ``python -m repro serve``.

One long-lived process owns one warm :class:`~repro.engine.executor.Engine`
— process pool, persistent content-addressed
:class:`~repro.engine.store.ResultStore`, and the interval tier's
warm-start hints — and serves an async job API over
newline-delimited JSON (:mod:`repro.serve.protocol`) on a unix socket or
TCP port.  Every ``sweep``/``figure``/``point`` request that used to pay
import, pool-spawn and store-open costs per CLI invocation instead rides
the warm engine.

Inside the server:

* **request coalescing** — grid points are identified by the engine's
  content keys; a second job requesting a point already in flight
  attaches to the first computation instead of enqueueing a duplicate
  (``serve.points_coalesced``);
* **priority scheduling** — dispatch happens at *slab* granularity
  through :class:`~repro.serve.jobs.SlabScheduler`: an interactive point
  query jumps ahead of the remaining slabs of a bulk sweep, but never
  preempts a running slab;
* **per-client quotas** — each client may have a bounded number of slabs
  admitted at once; excess slabs are backlogged (FIFO, fair-share across
  clients), never rejected;
* **graceful drain** — SIGTERM (or the ``shutdown`` op) stops admission,
  finishes every accepted job, persists the engine run summary and exits
  0.  A second SIGTERM cancels queued jobs and exits after the running
  slab.

Engine evaluation runs on a single dispatcher thread, so the engine (and
its process pool) is never entered concurrently; job bookkeeping runs on
the event-loop thread only.  The per-unit SIGALRM timeout cannot arm on
the dispatcher thread — the engine degrades it to no-timeout with a
structured warning (see :func:`repro.engine.executor._deadline`).
"""

import asyncio
import concurrent.futures
import os
import signal
import socket as socket_module
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import METRICS, TRACER, MetricsRegistry, get_logger
from repro.obs.live import (
    RingTracer,
    RollingHistogram,
    TelemetryHTTPServer,
    TimeSeriesRecorder,
    prometheus_text,
    tee_instant,
    tee_span,
    write_flight_record,
)
from repro.serve import protocol
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    PointState,
    Slab,
    SlabScheduler,
)

_LOG = get_logger("serve")

#: Default points per dispatch slab (matches the CLI's engine default).
DEFAULT_SLAB_SIZE = 32

#: Default per-client admission quota (slabs admitted at once).
DEFAULT_QUOTA = 4

#: Default number of terminal jobs kept for poll/wait before eviction.
DEFAULT_MAX_FINISHED_JOBS = 512

#: Default time-series sampling interval (seconds) and ring capacity.
DEFAULT_RECORD_INTERVAL = 1.0
DEFAULT_RECORD_WINDOW = 512

#: Default continuous-tracer ring capacity (spans kept live).
DEFAULT_TRACE_RING = 2048

#: Observations kept per rolling SLO histogram (recent-window p50/p95/p99).
DEFAULT_SLO_WINDOW = 1024

#: Distinct clients tracked with labelled per-client counters before the
#: rest fold into one ``client=other`` series (anonymous ``conn-N`` names
#: would otherwise grow the registry without bound).
MAX_CLIENT_LABELS = 64


@dataclass
class ServeConfig:
    """Everything the daemon needs to listen and evaluate."""

    #: Listen address: ``unix:PATH`` / ``PATH`` / ``HOST:PORT`` / ``:PORT``.
    listen: str = "unix:repro-serve.sock"
    jobs: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    retries: int = 1
    unit_timeout: Optional[float] = None
    slab_size: int = DEFAULT_SLAB_SIZE
    quota: int = DEFAULT_QUOTA
    #: Terminal jobs retained for poll/wait; older ones are evicted so a
    #: long-lived daemon's job table stays bounded.
    max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS
    #: Serve Prometheus ``/metrics`` and ``/healthz`` on this port when
    #: set (0 binds an ephemeral port, readable via ``http_address``).
    http_port: Optional[int] = None
    http_host: str = "127.0.0.1"
    #: Time-series recorder: sampling interval and ring capacity.
    record_interval: float = DEFAULT_RECORD_INTERVAL
    record_window: int = DEFAULT_RECORD_WINDOW
    #: Continuous-tracer ring capacity (spans held live).
    trace_ring: int = DEFAULT_TRACE_RING
    #: Write a flight record (spans + time-series + metrics) to this file
    #: on SIGUSR1 and when the drain completes.
    flight_path: Optional[str] = None


class SweepServer:
    """Asyncio NDJSON server around one warm engine."""

    def __init__(self, config: ServeConfig, install_signals: bool = True):
        self.config = config
        self.install_signals = install_signals
        self.engine = self._build_engine(config)
        # Design lookup, mix enumeration and the reference uncore come from
        # a default study — the exact objects the local CLI sweep uses, so
        # content keys (and therefore store records) match byte-for-byte.
        from repro.core.study import DesignSpaceStudy

        self.study = DesignSpaceStudy()
        self.started_at = time.time()
        self.draining = False
        self._drain_hard = False
        self._jobs: Dict[str, Job] = {}
        self._points: Dict[str, PointState] = {}
        self._slabs: Dict[int, Slab] = {}
        self._scheduler = SlabScheduler(quota=config.quota)
        self._job_seq = 0
        self._slab_seq = 0
        self._conn_seq = 0
        self.finished_order: List[str] = []
        self.counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "points_requested": 0,
            "points_coalesced": 0,
            "slabs_dispatched": 0,
        }
        # Live telemetry (docs/observability.md, "Live telemetry").  The
        # server owns a private always-on registry: the *global* METRICS
        # is reset by every local CLI run's teardown, which would wipe a
        # same-process daemon's history mid-flight.  serve.* counters are
        # still mirrored into METRICS when it is enabled (--metrics).
        self.metrics = MetricsRegistry()
        self.metrics.enable()
        self.ring_tracer = RingTracer(cap=config.trace_ring)
        self.recorder = TimeSeriesRecorder(
            self.metrics,
            interval=config.record_interval,
            capacity=config.record_window,
            pre_sample=self._refresh_gauges,
        )
        #: Recent-window latency distributions backing the ``health`` op.
        self.slo: Dict[str, RollingHistogram] = {
            "queue_wait_seconds": RollingHistogram(DEFAULT_SLO_WINDOW),
            "run_seconds": RollingHistogram(DEFAULT_SLO_WINDOW),
            "e2e_seconds": RollingHistogram(DEFAULT_SLO_WINDOW),
            "slab_seconds": RollingHistogram(DEFAULT_SLO_WINDOW),
            "stream_emit_seconds": RollingHistogram(DEFAULT_SLO_WINDOW),
        }
        self._client_labels: set = set()
        self.http: Optional[TelemetryHTTPServer] = None
        self.http_address: Optional[str] = None
        # Event-loop plumbing (bound inside _main).
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._work_available: Optional[asyncio.Event] = None
        self._dispatch_enabled: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._done_events: Dict[str, asyncio.Event] = {}
        self._streams: Dict[str, List[asyncio.Queue]] = {}
        self._connections: set = set()  # open StreamWriters, for drain
        # One dispatcher thread: the engine is entered serially, always.
        self._dispatch_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-dispatch"
        )
        # A separate prep thread so submit decomposition (content-key
        # derivation for thousands of points) neither blocks the event
        # loop nor queues behind a long-running slab.
        self._prep_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-prep"
        )
        #: Set once listening (threading.Event: readable off-loop).
        self.ready = threading.Event()
        self.bound_address: Optional[str] = None

    @staticmethod
    def _build_engine(config: ServeConfig):
        from repro.engine import Engine, ResultStore

        store = None if config.no_cache else ResultStore(config.cache_dir)
        # The server dispatches config.slab_size points per engine call;
        # the engine must split that batch across its workers, so its own
        # slab size is the per-worker share (otherwise one dispatch slab
        # would collapse into a single worker unit and serialize the pool).
        if config.jobs > 1:
            engine_slab = max(1, -(-config.slab_size // config.jobs))
        else:
            engine_slab = config.slab_size
        return Engine(
            jobs=config.jobs,
            store=store,
            retries=config.retries,
            unit_timeout=config.unit_timeout,
            slab_size=engine_slab if engine_slab > 1 else None,
        )

    # ------------------------------------------------------------------ #
    # telemetry plumbing                                                  #
    # ------------------------------------------------------------------ #

    def _count(self, name: str, amount: float = 1) -> None:
        """Record a serve counter in the live registry (and mirror it into
        the global METRICS when ``--metrics`` enabled it)."""
        self.metrics.inc(name, amount)
        METRICS.inc(name, amount)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        METRICS.observe(name, value)

    def _observe_latency(self, name: str, slo_key: str, value: float) -> None:
        """One latency sample: registry histogram + rolling SLO window."""
        self._observe(name, value)
        self.slo[slo_key].observe(value)

    def _span(self, name: str, **args: Any):
        return tee_span((self.ring_tracer, TRACER), name, cat="serve", **args)

    def _instant(self, name: str, **args: Any) -> None:
        tee_instant((self.ring_tracer, TRACER), name, cat="serve", **args)

    def _client_label(self, client: str) -> str:
        """Per-client counter label, capped at MAX_CLIENT_LABELS distinct
        names; later clients share one ``other`` series so anonymous
        connection names cannot grow the registry without bound."""
        if client in self._client_labels:
            return client
        if len(self._client_labels) < MAX_CLIENT_LABELS:
            self._client_labels.add(client)
            return client
        return "other"

    def _refresh_gauges(self) -> None:
        """Point-in-time scheduler/server gauges (also the recorder's
        pre-sample hook, so every time-series sample carries them).  Runs
        on the recorder thread too: reads are best-effort (the event loop
        may be mutating the tables) and a racing tick is simply skipped
        by the caller."""
        m = self.metrics
        m.set_gauge("serve.ready_slabs", self._scheduler.ready_count)
        m.set_gauge("serve.backlog_slabs", self._scheduler.backlog_count)
        m.set_gauge("serve.in_flight_slabs", self._scheduler.in_flight)
        m.set_gauge("serve.in_flight_points", self._scheduler.in_flight_points)
        m.set_gauge("serve.preemptions", self._scheduler.preemptions)
        m.set_gauge("serve.pool_workers", len(self.engine.executor.pool_pids()))
        m.set_gauge("serve.pool_starts", self.engine.executor.pool_starts)
        m.set_gauge("serve.pool_reuses", self.engine.executor.pool_reuses)
        m.set_gauge("serve.worker_respawns", self.engine.executor.worker_respawns)
        m.set_gauge("serve.active_jobs", self._active_jobs())
        m.set_gauge("serve.tracked_jobs", len(self._jobs))
        m.set_gauge("serve.tracked_points", len(self._points))
        m.set_gauge("serve.trace_ring_events", len(self.ring_tracer.events))
        m.set_gauge("serve.trace_ring_dropped", self.ring_tracer.dropped)
        m.set_gauge(
            "serve.uptime_seconds", round(time.time() - self.started_at, 3)
        )
        m.set_gauge("serve.draining", 1 if self.draining else 0)

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def run(self) -> int:
        """Blocking entry point: serve until drained; returns exit code."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # second Ctrl-C during hard drain
            _LOG.warning("serve: interrupted before drain completed")
            return 1
        return 0

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._work_available = asyncio.Event()
        self._dispatch_enabled = asyncio.Event()
        self._dispatch_enabled.set()
        self._stopped = asyncio.Event()
        if self.install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self.loop.add_signal_handler(signum, self.begin_drain)
                except (NotImplementedError, RuntimeError):
                    pass
            if self.config.flight_path:
                try:
                    self.loop.add_signal_handler(
                        signal.SIGUSR1, self.flight_dump, "signal"
                    )
                except (NotImplementedError, RuntimeError):
                    pass
        # Figures evaluate through the warm engine via the experiment
        # context hook, exactly like ``figure --jobs``.
        from repro.experiments.context import set_engine

        set_engine(self.engine)
        await self._listen()
        self.recorder.start()
        if self.config.http_port is not None:
            self.http = TelemetryHTTPServer(
                self.config.http_host,
                self.config.http_port,
                metrics_text=self.prometheus_text,
                health_json=self.health_dict,
            ).start()
            self.http_address = self.http.address
        dispatcher = asyncio.create_task(self._dispatch_loop())
        _LOG.info(
            f"serving on {self.bound_address}",
            jobs=self.engine.jobs,
            slab_size=self.config.slab_size,
            quota=self.config.quota,
            http=self.http_address,
        )
        self.ready.set()
        try:
            await self._stopped.wait()
        finally:
            dispatcher.cancel()
            await asyncio.gather(dispatcher, return_exceptions=True)
            await self._shutdown_cleanup()

    async def _listen(self) -> None:
        family, target = protocol.parse_address(self.config.listen)
        if family == "unix":
            path = os.path.expanduser(target)
            if os.path.exists(path) and not self._socket_is_live(path):
                os.unlink(path)  # stale socket from a dead server
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path, limit=protocol.MAX_LINE_BYTES
            )
            self.bound_address = f"unix:{path}"
        else:
            host, port = target
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=host,
                port=port,
                limit=protocol.MAX_LINE_BYTES,
            )
            bound = self._server.sockets[0].getsockname()
            self.bound_address = f"{bound[0]}:{bound[1]}"

    @staticmethod
    def _socket_is_live(path: str) -> bool:
        probe = socket_module.socket(socket_module.AF_UNIX)
        try:
            probe.settimeout(0.25)
            probe.connect(path)
            return True
        except OSError:
            return False
        finally:
            probe.close()

    async def _shutdown_cleanup(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close lingering client connections so their handler tasks end on
        # EOF instead of being cancelled noisily at loop teardown.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        for _ in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        if self.bound_address and self.bound_address.startswith("unix:"):
            try:
                os.unlink(self.bound_address[len("unix:"):])
            except OSError:
                pass
        if self.config.flight_path:
            self.flight_dump("drain")
        self.recorder.stop()
        if self.http is not None:
            self.http.stop()
            self.http = None
        self.engine.write_summary()
        # The drain guarantees nothing is in flight; stop the warm workers.
        self.engine.shutdown()
        from repro.experiments.context import set_engine

        set_engine(None)
        self._dispatch_pool.shutdown(wait=False)
        self._prep_pool.shutdown(wait=False)
        _LOG.info(
            "serve: drained and stopped",
            jobs_completed=self.counters["jobs_completed"],
            points_coalesced=self.counters["points_coalesced"],
        )

    def begin_drain(self) -> None:
        """Stop admission; finish accepted jobs; exit when idle.

        Called from the SIGTERM handler or the ``shutdown`` op.  A second
        call hardens the drain: queued jobs are cancelled and only the
        slab already running completes.
        """
        if not self.draining:
            self.draining = True
            self._instant("serve.drain")
            self._count("serve.drains")
            _LOG.info(
                "serve: draining (finishing accepted jobs, refusing new ones)"
            )
        elif not self._drain_hard:
            self._drain_hard = True
            _LOG.warning("serve: hard drain (cancelling queued jobs)")
            for job in list(self._jobs.values()):
                if job.state in (QUEUED, RUNNING):
                    self._cancel_job(job)
        self._work_available.set()
        self._maybe_stop()

    def _active_jobs(self) -> int:
        return sum(
            1 for j in self._jobs.values() if j.state not in TERMINAL_STATES
        )

    def _maybe_stop(self) -> None:
        if (
            self.draining
            and self._active_jobs() == 0
            and self._scheduler.in_flight == 0
            and self._stopped is not None
        ):
            self._stopped.set()

    # -- test/bench hooks (thread-safe) --------------------------------- #

    def pause_dispatch(self) -> None:
        """Hold the dispatcher before its next slab (deterministic tests)."""
        self.loop.call_soon_threadsafe(self._dispatch_enabled.clear)

    def resume_dispatch(self) -> None:
        self.loop.call_soon_threadsafe(self._dispatch_enabled.set)

    # ------------------------------------------------------------------ #
    # connection handling                                                 #
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        default_client = f"conn-{self._conn_seq}"
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError, asyncio.LimitOverrunError):
                    break  # peer gone, or a line beyond MAX_LINE_BYTES
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode_line(line)
                    op, seq = protocol.validate_request(message)
                except protocol.ProtocolError as exc:
                    await self._send(
                        writer, protocol.error(None, exc.code, str(exc))
                    )
                    continue
                try:
                    if op == "stream":
                        await self._op_stream(writer, seq, message)
                    else:
                        response = await self._handle_op(
                            op, seq, message, default_client
                        )
                        await self._send(writer, response)
                except protocol.ProtocolError as exc:
                    await self._send(
                        writer, protocol.error(seq, exc.code, str(exc))
                    )
                except ConnectionError:
                    break
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _handle_op(
        self,
        op: str,
        seq: Optional[int],
        message: Dict[str, Any],
        default_client: str,
    ) -> Dict[str, Any]:
        if op == "ping":
            return protocol.ok(
                seq, version=protocol.PROTOCOL_VERSION, draining=self.draining
            )
        if op == "stats":
            return protocol.ok(seq, stats=self.stats_dict())
        if op == "health":
            return protocol.ok(seq, health=self.health_dict())
        if op == "metrics":
            window = message.get("window")
            if window is not None and not isinstance(window, int):
                raise protocol.ProtocolError("window must be an integer")
            return protocol.ok(seq, metrics=self.telemetry_dict(window))
        if op == "trace":
            limit = message.get("limit")
            if limit is not None and not isinstance(limit, int):
                raise protocol.ProtocolError("limit must be an integer")
            return protocol.ok(seq, trace=self.ring_tracer.export(limit))
        if op == "submit":
            return await self._op_submit(seq, message, default_client)
        if op == "poll":
            return self._op_poll(seq, message)
        if op == "wait":
            return await self._op_wait(seq, message)
        if op == "cancel":
            return self._op_cancel(seq, message)
        if op == "shutdown":
            self.begin_drain()
            return protocol.ok(seq, draining=True)
        raise protocol.ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def _job_or_error(self, message: Dict[str, Any]) -> Job:
        job_id = message.get("job")
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise protocol.ProtocolError(
                f"unknown job {job_id!r}", code=protocol.E_UNKNOWN_JOB
            )
        return job

    # ------------------------------------------------------------------ #
    # ops                                                                 #
    # ------------------------------------------------------------------ #

    async def _op_submit(
        self, seq: Optional[int], message: Dict[str, Any], default_client: str
    ) -> Dict[str, Any]:
        if self.draining:
            return protocol.error(
                seq, protocol.E_DRAINING, "server is draining; not accepting jobs"
            )
        kind, params, priority_name = protocol.validate_submit(message)
        client = message.get("client") or default_client
        if not isinstance(client, str):
            raise protocol.ProtocolError("client must be a string")
        self._job_seq += 1
        job = Job(
            id=f"job-{self._job_seq:06d}",
            kind=kind,
            params=params,
            client=client,
            priority=protocol.PRIORITIES[priority_name],
            priority_name=priority_name,
        )
        try:
            if kind == "figure":
                self._submit_figure(job)
            elif kind == "explore":
                self._submit_explore(job)
            else:
                await self._submit_points(job)
        except KeyError as exc:
            return protocol.error(seq, protocol.E_BAD_REQUEST, str(exc.args[0]))
        except ValueError as exc:
            return protocol.error(seq, protocol.E_BAD_REQUEST, str(exc))
        self._jobs[job.id] = job
        self._done_events[job.id] = asyncio.Event()
        self.counters["jobs_submitted"] += 1
        self._count("serve.jobs_submitted")
        label = self._client_label(client)
        self._count(f"serve.client_jobs_submitted{{client={label}}}")
        self._count(
            f"serve.client_points_requested{{client={label}}}", job.total_points
        )
        self._instant("serve.submit", kind=kind, client=client, job=job.id)
        _LOG.info(
            "serve: job submitted",
            job=job.id,
            kind=kind,
            client=client,
            priority=job.priority_name,
            points=job.total_points,
            coalesced=job.coalesced,
        )
        if job.remaining == 0 and job.kind not in protocol.OPAQUE_KINDS:
            # Every point was already complete (all coalesced onto
            # finished work still in the table): finalize immediately.
            self._finalize_job(job)
        self._work_available.set()
        return protocol.ok(
            seq,
            job=job.id,
            state=job.state,
            total_points=job.total_points,
            coalesced_points=job.coalesced,
        )

    def _op_poll(self, seq: Optional[int], message: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job_or_error(message)
        return protocol.ok(seq, **job.status_dict())

    async def _op_wait(
        self, seq: Optional[int], message: Dict[str, Any]
    ) -> Dict[str, Any]:
        job = self._job_or_error(message)
        timeout = message.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise protocol.ProtocolError("timeout must be a number")
        if job.state not in TERMINAL_STATES:
            try:
                await asyncio.wait_for(
                    self._done_events[job.id].wait(), timeout=timeout
                )
            except asyncio.TimeoutError:
                return protocol.error(
                    seq,
                    protocol.E_TIMEOUT,
                    f"job {job.id} still {job.state} after {timeout}s",
                )
        return protocol.ok(seq, **job.status_dict())

    async def _op_stream(
        self,
        writer: asyncio.StreamWriter,
        seq: Optional[int],
        message: Dict[str, Any],
    ) -> None:
        job = self._job_or_error(message)
        if job.state in TERMINAL_STATES:
            await self._send(writer, self._final_event(job, seq))
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._streams.setdefault(job.id, []).append(queue)
        await self._send(
            writer,
            protocol.ok(
                seq,
                event="progress",
                job=job.id,
                state=job.state,
                done=job.done_points,
                total=job.total_points,
            ),
        )
        try:
            while True:
                event = await queue.get()
                event["seq"] = seq
                await self._send(writer, event)
                if event.get("final"):
                    break
        finally:
            subscribers = self._streams.get(job.id)
            if subscribers and queue in subscribers:
                subscribers.remove(queue)
                if not subscribers:
                    self._streams.pop(job.id, None)

    def _op_cancel(self, seq: Optional[int], message: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job_or_error(message)
        if job.state in TERMINAL_STATES:
            return protocol.ok(seq, job=job.id, state=job.state)
        self._cancel_job(job)
        return protocol.ok(seq, job=job.id, state=job.state)

    # ------------------------------------------------------------------ #
    # job decomposition (coalescing happens here)                         #
    # ------------------------------------------------------------------ #

    def _grid_points(self, job: Job) -> List[Tuple[str, Tuple[str, ...], bool]]:
        """The (design, mix, smt) tuples behind a job, in evaluation order."""
        if job.kind == "point":
            design = job.params["design"]
            self.study.design(design)  # fail fast on unknown designs
            return [
                (design, tuple(job.params["mix"]), bool(job.params.get("smt", True)))
            ]
        designs = job.params["designs"]
        kind = job.params["kind"]
        counts = list(range(1, job.params["max_threads"] + 1))
        smt = bool(job.params.get("smt", True))
        per_count = {n: self.study.mixes(kind, n) for n in counts}
        points: List[Tuple[str, Tuple[str, ...], bool]] = []
        for name in designs:
            self.study.design(name)  # fail fast, same as study.prefetch
            for n in counts:
                for mix in per_count[n]:
                    points.append((name, tuple(mix), smt))
        return points

    async def _submit_points(self, job: Job) -> None:
        """Resolve a job's grid to work units and register its points.

        Key derivation (full-config hashing for potentially thousands of
        points) runs on the prep thread; registration — the coalescing
        step — runs back on the event loop, atomically with respect to
        other submits.
        """
        from repro.engine.tasks import WorkUnit

        points = self._grid_points(job)

        def build_units():
            units = []
            for name, mix, smt in points:
                unit = WorkUnit(
                    design=self.study.design(name),
                    mix=mix,
                    smt=smt,
                    reference_uncore=self.study.reference_uncore,
                )
                units.append((unit.content_key, unit))
            return units

        keyed_units = await self.loop.run_in_executor(self._prep_pool, build_units)
        if job.kind == "sweep":
            job.params["_grid_keys"] = self._sweep_grid_keys(job, keyed_units)
        fresh: List[Tuple[str, Any]] = []
        seen = set()
        for key, unit in keyed_units:
            if key in seen:
                continue
            seen.add(key)
            job.point_keys.append(key)
            self.counters["points_requested"] += 1
            self._count("serve.points_requested")
            state = self._points.get(key)
            if state is None:
                state = PointState(key=key, unit=unit)
                self._points[key] = state
                fresh.append((key, unit))
            else:
                # Coalesced: the point is already queued, running or
                # freshly completed under another job.
                job.coalesced += 1
                self.counters["points_coalesced"] += 1
                self._count("serve.points_coalesced")
            if not state.done:
                state.waiters.add(job.id)
                job.remaining += 1
            else:
                state.waiters.add(job.id)  # keep payload pinned for finalize
        for start in range(0, len(fresh), self.config.slab_size):
            piece = fresh[start : start + self.config.slab_size]
            self._slab_seq += 1
            slab = Slab(
                id=self._slab_seq,
                job_id=job.id,
                client=job.client,
                priority=job.priority,
                point_keys=tuple(key for key, _ in piece),
            )
            self._slabs[slab.id] = slab
            job.open_slabs.add(slab.id)
            self._scheduler.submit(slab)

    def _sweep_grid_keys(self, job: Job, keyed_units) -> Dict[str, Any]:
        """(design, thread count) -> content keys in mix order, for means."""
        grid: Dict[str, Dict[str, List[str]]] = {}
        index = 0
        designs = job.params["designs"]
        counts = list(range(1, job.params["max_threads"] + 1))
        kind = job.params["kind"]
        per_count = {n: self.study.mixes(kind, n) for n in counts}
        for name in designs:
            grid[name] = {}
            for n in counts:
                keys = []
                for _mix in per_count[n]:
                    keys.append(keyed_units[index][0])
                    index += 1
                grid[name][str(n)] = keys
        return grid

    def _submit_figure(self, job: Job) -> None:
        from repro.cli import _figure_registry

        registry = _figure_registry()
        figure_id = job.params["id"]
        if figure_id not in registry:
            raise ValueError(
                f"unknown experiment {figure_id!r}; try: {', '.join(registry)}"
            )
        self._submit_opaque(job, figure=dict(job.params))

    def _submit_explore(self, job: Job) -> None:
        from repro.explore import ExploreConfig

        params = dict(job.params)
        designs = params.get("designs")
        if designs is not None:
            params["designs"] = tuple(designs)
        try:
            ExploreConfig(**params)  # validate field names and values now
        except TypeError as exc:
            raise ValueError(f"bad explore params: {exc}") from None
        self._submit_opaque(job, explore=params)

    def _submit_opaque(self, job: Job, **task: Dict[str, Any]) -> None:
        """Queue a single-task slab (figure/explore) for the dispatcher."""
        self._slab_seq += 1
        slab = Slab(
            id=self._slab_seq,
            job_id=job.id,
            client=job.client,
            priority=job.priority,
            **task,
        )
        self._slabs[slab.id] = slab
        job.open_slabs.add(slab.id)
        job.remaining = 1
        self._scheduler.submit(slab)

    # ------------------------------------------------------------------ #
    # dispatch                                                            #
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        while True:
            await self._work_available.wait()
            await self._dispatch_enabled.wait()
            slab = self._scheduler.next_slab()
            if slab is None:
                self._work_available.clear()
                self._maybe_stop()
                continue
            job = self._jobs.get(slab.job_id)
            if job is not None and job.state == QUEUED:
                job.state = RUNNING
                job.started_at = time.time()
                queue_wait = job.started_at - job.submitted_at
                self._observe_latency(
                    "serve.job_queue_wait_seconds", "queue_wait_seconds", queue_wait
                )
                _LOG.info(
                    "serve: job started",
                    job=job.id,
                    kind=job.kind,
                    client=job.client,
                    queue_wait_seconds=round(queue_wait, 6),
                )
            self.counters["slabs_dispatched"] += 1
            self._count("serve.slabs_dispatched")
            started = time.perf_counter()
            try:
                if slab.figure is not None:
                    outcome = await self.loop.run_in_executor(
                        self._dispatch_pool, self._render_figure, slab.figure
                    )
                    self._complete_opaque_slab(slab, {"tables": outcome}, None)
                elif slab.explore is not None:
                    outcome = await self.loop.run_in_executor(
                        self._dispatch_pool, self._run_explore, slab.explore
                    )
                    self._complete_opaque_slab(slab, {"explore": outcome}, None)
                else:
                    units = [
                        self._points[key].unit for key in slab.point_keys
                    ]
                    results = await self.loop.run_in_executor(
                        self._dispatch_pool, self._evaluate_units, units
                    )
                    self._complete_point_slab(slab, results)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # dispatcher must never die
                _LOG.error(
                    f"serve: slab {slab.id} failed: {type(exc).__name__}: {exc}"
                )
                if slab.opaque:
                    self._complete_opaque_slab(
                        slab, None, f"{type(exc).__name__}: {exc}"
                    )
                else:
                    self._fail_point_slab(slab, f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - started
            self._observe_latency("serve.slab_seconds", "slab_seconds", seconds)
            for promoted in self._scheduler.complete(slab):
                del promoted  # admission only; dispatch picks them up
            self._slabs.pop(slab.id, None)
            emit_started = time.perf_counter()
            self._emit_slab_events(slab, seconds)
            self._observe_latency(
                "serve.stream_emit_seconds",
                "stream_emit_seconds",
                time.perf_counter() - emit_started,
            )
            self._refresh_gauges()
            self._maybe_stop()

    def _evaluate_units(self, units) -> List[Any]:
        """Dispatcher-thread body: one engine call for one slab."""
        with self._span("serve.slab", units=len(units)):
            return self.engine.evaluate(units, on_failure="return")

    def _render_figure(self, params: Dict[str, Any]) -> List[Dict[str, str]]:
        """Dispatcher-thread body: regenerate one figure through the engine."""
        from repro.cli import _figure_registry

        with self._span("serve.figure", figure=params["id"]):
            tables = _figure_registry()[params["id"]]()
        return [
            {"formatted": t.formatted(), "json": t.to_json()} for t in tables
        ]

    def _run_explore(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatcher-thread body: run one adaptive exploration.

        Runs against the server's study, so exploration points land in
        the same memo (and persistent store) that sweeps and point
        queries warm — repeated explorations amortize.  Designs outside
        the study's initial set (e.g. the Section 8.1 alternatives) are
        registered on demand.
        """
        from repro.core.designs import get_design
        from repro.explore import ExploreConfig, run_explore

        config_params = dict(params)
        designs = config_params.get("designs")
        if designs is not None:
            config_params["designs"] = tuple(designs)
        config = ExploreConfig(**config_params)
        for name in config.designs:
            if name not in self.study.designs:
                self.study.add_design(get_design(name))
        with self._span("serve.explore", scenario=config.scenario):
            return run_explore(config, study=self.study)

    # ------------------------------------------------------------------ #
    # completion                                                          #
    # ------------------------------------------------------------------ #

    def _complete_point_slab(self, slab: Slab, results: List[Any]) -> None:
        from repro.engine.tasks import UnitFailure, payload_from_result

        for key, value in zip(slab.point_keys, results):
            state = self._points.get(key)
            if state is None or state.done:
                continue
            state.done = True
            if isinstance(value, UnitFailure):
                state.error = value.as_dict()
            else:
                state.payload = payload_from_result(value)
            self._resolve_point(state)

    def _fail_point_slab(self, slab: Slab, message: str) -> None:
        for key in slab.point_keys:
            state = self._points.get(key)
            if state is None or state.done:
                continue
            state.done = True
            state.error = {"error_type": "DispatchError", "message": message}
            self._resolve_point(state)

    def _resolve_point(self, state: PointState) -> None:
        for job_id in list(state.waiters):
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                state.waiters.discard(job_id)
                continue
            job.remaining -= 1
            if job.remaining == 0:
                self._finalize_job(job)
        if not state.waiters:
            self._points.pop(state.key, None)

    def _complete_opaque_slab(
        self, slab: Slab, result: Optional[Dict[str, Any]], error: Optional[str]
    ) -> None:
        job = self._jobs.get(slab.job_id)
        if job is None or job.state in TERMINAL_STATES:
            return
        job.remaining = 0
        if error is not None:
            job.error = error
        else:
            job.result = result
        self._finalize_job(job)

    def _finalize_job(self, job: Job) -> None:
        """Assemble the job result and mark it terminal."""
        if job.state in TERMINAL_STATES:
            return
        if job.kind not in protocol.OPAQUE_KINDS:
            errors = []
            payloads: Dict[str, Dict[str, Any]] = {}
            for key in job.point_keys:
                state = self._points.get(key)
                if state is None:
                    errors.append({"message": f"point {key[:12]} lost"})
                elif state.error is not None:
                    errors.append(state.error)
                else:
                    payloads[key] = state.payload
            if errors:
                first = errors[0]
                job.error = (
                    f"{len(errors)} point(s) failed; first: "
                    f"{first.get('error_type', '?')}: {first.get('message', '?')}"
                )
            else:
                job.result = self._assemble_result(job, payloads)
        job.finished_at = time.time()
        job.state = FAILED if job.error is not None else DONE
        counter = "jobs_failed" if job.error is not None else "jobs_completed"
        self.counters[counter] += 1
        self._count(f"serve.{counter}")
        label = self._client_label(job.client)
        self._count(f"serve.client_{counter}{{client={label}}}")
        if job.state == DONE:
            self._count("serve.points_completed", job.total_points)
            self._count(
                f"serve.client_points_completed{{client={label}}}",
                job.total_points,
            )
        e2e = job.finished_at - job.submitted_at
        self._observe_latency("serve.job_e2e_seconds", "e2e_seconds", e2e)
        if job.started_at is not None:
            self._observe_latency(
                "serve.job_run_seconds",
                "run_seconds",
                job.finished_at - job.started_at,
            )
        self._instant("serve.finish", job=job.id, state=job.state)
        _LOG.info(
            "serve: job finished",
            job=job.id,
            kind=job.kind,
            client=job.client,
            state=job.state,
            points=job.total_points,
            seconds=round(e2e, 6),
        )
        self._record_finished(job)
        self._release_points(job)
        event = self._done_events.get(job.id)
        if event is not None:
            event.set()
        self._push_stream_event(job, self._final_event(job, None))
        self._maybe_stop()

    def _assemble_result(
        self, job: Job, payloads: Dict[str, Dict[str, Any]]
    ) -> Dict[str, Any]:
        if job.kind == "point":
            return {"point": payloads[job.point_keys[0]]}
        # Sweep: reduce point STPs to the per-(design, count) harmonic
        # means through the same helper the local study uses, in the same
        # order, so the resulting floats are bit-identical.
        from repro.core.metrics import harmonic_mean

        grid_keys = job.params["_grid_keys"]
        mean_stp: Dict[str, Dict[str, float]] = {}
        for design, by_count in grid_keys.items():
            mean_stp[design] = {}
            for count, keys in by_count.items():
                mean_stp[design][count] = harmonic_mean(
                    [payloads[key]["stp"] for key in keys]
                )
        return {
            "designs": job.params["designs"],
            "kind": job.params["kind"],
            "max_threads": job.params["max_threads"],
            "smt": bool(job.params.get("smt", True)),
            "mean_stp": mean_stp,
        }

    def _record_finished(self, job: Job) -> None:
        """Append to the terminal-job history, evicting beyond the cap.

        The daemon runs indefinitely; without eviction ``_jobs`` and
        ``_done_events`` grow without bound.  Only terminal jobs ever
        enter ``finished_order`` and jobs never leave a terminal state,
        so evicting the oldest entries is safe — their final stream
        event was already delivered, and a later poll/wait for an
        evicted id gets a structured ``unknown job`` error.
        """
        self.finished_order.append(job.id)
        limit = self.config.max_finished_jobs
        while len(self.finished_order) > limit > 0:
            old_id = self.finished_order.pop(0)
            self._jobs.pop(old_id, None)
            self._done_events.pop(old_id, None)
            self._streams.pop(old_id, None)

    def _release_points(self, job: Job) -> None:
        for key in job.point_keys:
            state = self._points.get(key)
            if state is None:
                continue
            state.waiters.discard(job.id)
            if state.done and not state.waiters:
                self._points.pop(key, None)

    def _cancel_job(self, job: Job) -> None:
        job.state = CANCELLED
        job.finished_at = time.time()
        self.counters["jobs_cancelled"] += 1
        self._count("serve.jobs_cancelled")
        self._instant("serve.cancel", job=job.id)
        _LOG.info(
            "serve: job cancelled",
            job=job.id,
            kind=job.kind,
            client=job.client,
            seconds=round(job.finished_at - job.submitted_at, 6),
        )
        self._record_finished(job)

        def droppable(slab: Slab) -> bool:
            if slab.job_id != job.id:
                return False
            if slab.opaque:
                return True
            # Keep the slab if any of its points still feeds another job.
            for key in slab.point_keys:
                state = self._points.get(key)
                if state is not None and state.waiters - {job.id}:
                    return False
            return True

        for slab in self._scheduler.discard_queued(droppable):
            job.open_slabs.discard(slab.id)
            self._slabs.pop(slab.id, None)
            for key in slab.point_keys:
                state = self._points.get(key)
                if state is not None and not state.done:
                    self._points.pop(key, None)
        self._release_points(job)
        event = self._done_events.get(job.id)
        if event is not None:
            event.set()
        self._push_stream_event(job, self._final_event(job, None))
        self._maybe_stop()

    # ------------------------------------------------------------------ #
    # streaming                                                           #
    # ------------------------------------------------------------------ #

    def _emit_slab_events(self, slab: Slab, seconds: float) -> None:
        """Per-slab progress events for every job that shares its points."""
        touched = set()
        if not slab.opaque:
            for key in slab.point_keys:
                state = self._points.get(key)
                if state is not None:
                    touched.update(state.waiters)
        touched.add(slab.job_id)
        for job_id in touched:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                continue
            job.open_slabs.discard(slab.id)
            self._push_stream_event(
                job,
                protocol.ok(
                    None,
                    event="slab",
                    job=job.id,
                    state=job.state,
                    done=job.done_points,
                    total=job.total_points,
                    slab_seconds=round(seconds, 6),
                ),
            )

    def _final_event(self, job: Job, seq: Optional[int]) -> Dict[str, Any]:
        event_name = {DONE: "done", FAILED: "failed", CANCELLED: "cancelled"}[
            job.state
        ]
        event = protocol.ok(seq, event=event_name, final=True, **job.status_dict())
        return event

    def _push_stream_event(self, job: Job, event: Dict[str, Any]) -> None:
        for queue in self._streams.get(job.id, []):
            queue.put_nowait(dict(event))

    # ------------------------------------------------------------------ #
    # stats                                                               #
    # ------------------------------------------------------------------ #

    def stats_dict(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        self._refresh_gauges()
        out = {
            "version": protocol.PROTOCOL_VERSION,
            "address": self.bound_address,
            "http_address": self.http_address,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "draining": self.draining,
            "jobs": states,
            "counters": dict(self.counters),
            "queue": self._scheduler.queue_dict(),
            "engine": self.engine.stats.as_dict(),
            "store": (
                self.engine.store.status_dict()
                if self.engine.store is not None
                else None
            ),
            "metrics": self.metrics.snapshot(),
        }
        return out

    def health_dict(self) -> Dict[str, Any]:
        """The ``health`` op / ``/healthz`` body: liveness, readiness,
        drain state and SLO percentiles over the recent window.

        Also runs on the HTTP thread — every read here is a plain
        attribute or small-dict read, safe beside the event loop.
        """
        states: Dict[str, int] = {}
        for job in list(self._jobs.values()):
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "live": True,
            "ready": not self.draining,
            "draining": self.draining,
            "drain_hard": self._drain_hard,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": states,
            "active_jobs": self._active_jobs(),
            "queue": self._scheduler.queue_dict(),
            "slo": {
                name: self.slo[name].snapshot() for name in sorted(self.slo)
            },
            "trace_ring": {
                "events": len(self.ring_tracer.events),
                "cap": self.ring_tracer.cap,
                "dropped": self.ring_tracer.dropped,
            },
            "http_address": self.http_address,
        }

    def telemetry_dict(self, window: Optional[int] = None) -> Dict[str, Any]:
        """The ``metrics`` op body: registry snapshot + recent time series."""
        self._refresh_gauges()
        return {
            "snapshot": self.metrics.snapshot(),
            "series": self.recorder.series(window),
            "record_interval": self.recorder.interval,
            "record_window": self.recorder.capacity,
            "sample_errors": self.recorder.sample_errors,
        }

    def prometheus_text(self) -> str:
        """The ``/metrics`` exposition body (runs on the HTTP thread)."""
        try:
            self._refresh_gauges()
            snapshot = self.metrics.snapshot()
        except RuntimeError:  # tables resized mid-read; expose last-good-ish
            snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        return prometheus_text(
            snapshot,
            extra_gauges={
                "serve.up": 1,
                "serve.ready": 0 if self.draining else 1,
            },
        )

    def flight_dump(self, reason: str = "manual") -> Optional[Dict[str, Any]]:
        """Write the flight record (last spans + time series + metrics)."""
        path = self.config.flight_path
        if not path:
            return None
        self.recorder.sample()
        payload = write_flight_record(
            path,
            tracer=self.ring_tracer,
            recorder=self.recorder,
            registry=self.metrics,
            health=self.health_dict(),
            reason=reason,
        )
        _LOG.info(
            "serve: flight record written",
            path=path,
            reason=reason,
            events=len(self.ring_tracer.events),
            samples=len(self.recorder),
        )
        return payload


class ServerHandle:
    """A server running on a background thread (tests and benchmarks).

    The daemon normally owns the process (``SweepServer.run``); tests and
    the bench harness instead need it beside them.  The handle runs
    ``_main`` on a private thread, waits for the listening socket, and
    exposes thread-safe pause/resume/stop plus direct access to the
    server object for white-box assertions.
    """

    def __init__(self, config: ServeConfig):
        self.server = SweepServer(config, install_signals=False)
        self._thread = threading.Thread(
            target=self.server.run, name="serve-thread", daemon=True
        )

    def __enter__(self) -> "ServerHandle":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        self._thread.start()
        if not self.server.ready.wait(timeout):
            raise RuntimeError("serve thread did not come up in time")
        return self

    @property
    def address(self) -> str:
        return self.server.bound_address

    def pause(self) -> None:
        self.server.pause_dispatch()

    def resume(self) -> None:
        self.server.resume_dispatch()

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread.is_alive():
            try:
                self.server.loop.call_soon_threadsafe(self.server.begin_drain)
            except RuntimeError:
                pass  # loop already closed (server drained on its own)
            self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog path
            raise RuntimeError("serve thread did not drain in time")
