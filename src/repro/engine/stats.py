"""Engine run accounting: phase wall times, utilization, hit rates, faults.

One :class:`EngineStats` instance accumulates over an engine's lifetime
(possibly many ``evaluate`` calls), so a figure regeneration or a benchmark
session reports totals, not just the last batch.  Fault tolerance is part
of the ledger: failed units, retries, serial recoveries and respawned
workers are all counted, and the most recent failures are kept verbatim
for ``last_run.json`` and the CLI failure summary.
"""

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence

from repro.obs.metrics import Histogram
from repro.obs.trace import TRACER

#: How many structured failure records to keep (newest win); the counters
#: keep counting past this cap.
MAX_RECORDED_FAILURES = 20


class EngineStats:
    """Counters and timers for one :class:`~repro.engine.executor.Engine`."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self.phase_seconds: Dict[str, float] = {}
        self.units_total = 0
        self.store_hits = 0
        self.units_computed = 0
        #: Sum of per-unit evaluation times, as measured inside the workers.
        self.compute_seconds = 0.0
        #: Units still failing after every retry and the serial recovery pass.
        self.units_failed = 0
        #: Units that eventually succeeded but needed more than one attempt.
        self.units_retried = 0
        #: Extra attempts spent beyond the first, across all units.
        self.retry_attempts = 0
        #: Units healed by the in-parent serial recovery pass.
        self.units_recovered = 0
        #: Persistent-pool lifecycle: cold pool starts, runs served by an
        #: already-warm pool, and individual workers respawned after dying.
        self.pool_starts = 0
        self.pool_reuses = 0
        self.worker_respawns = 0
        #: Structured details of the most recent failures (capped).
        self.failures: List[Dict[str, Any]] = []
        #: Per-unit evaluation latency distribution (p50/p95 in summaries).
        self.unit_seconds = Histogram()
        #: Records per store write-back flush (batching effectiveness).
        self.writeback_batches = Histogram()

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named engine phase (lookup / compute / recover / write-back).

        When tracing is live, the phase also lands on the timeline as an
        ``engine.<name>`` span.
        """
        start = time.perf_counter()
        try:
            with TRACER.span(f"engine.{name}", cat="engine"):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def record_batch(
        self,
        total: int,
        hits: int,
        computed: int,
        busy: float,
        failed: int = 0,
        retried: int = 0,
        retry_attempts: int = 0,
        recovered: int = 0,
    ) -> None:
        self.units_total += total
        self.store_hits += hits
        self.units_computed += computed
        self.compute_seconds += busy
        self.units_failed += failed
        self.units_retried += retried
        self.retry_attempts += retry_attempts
        self.units_recovered += recovered

    def record_failures(self, failures: Sequence) -> None:
        """Keep the structured details of the newest failures (capped)."""
        for failure in failures:
            self.failures.append(failure.as_dict())
        if len(self.failures) > MAX_RECORDED_FAILURES:
            del self.failures[: len(self.failures) - MAX_RECORDED_FAILURES]

    # ------------------------------------------------------------------ #
    # derived metrics                                                     #
    # ------------------------------------------------------------------ #

    @property
    def wall_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def store_hit_rate(self) -> float:
        return self.store_hits / self.units_total if self.units_total else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker capacity kept busy during the compute phase.

        ``sum(per-unit busy time) / (jobs * compute wall time)``: 1.0 means
        every worker computed the whole time; low values mean dispatch
        overhead or load imbalance dominated.
        """
        wall = self.phase_seconds.get("compute", 0.0)
        if wall <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.compute_seconds / (self.jobs * wall))

    @property
    def phase_shares(self) -> Dict[str, float]:
        """Each phase's fraction of the total engine wall time."""
        wall = self.wall_seconds
        if wall <= 0.0:
            return {name: 0.0 for name in self.phase_seconds}
        return {
            name: seconds / wall for name, seconds in self.phase_seconds.items()
        }

    @property
    def fault_free(self) -> bool:
        """True when nothing went wrong at all this run."""
        return not (
            self.units_failed
            or self.units_retried
            or self.units_recovered
            or self.worker_respawns
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "units_total": self.units_total,
            "store_hits": self.store_hits,
            "units_computed": self.units_computed,
            "store_hit_rate": self.store_hit_rate,
            "wall_seconds": self.wall_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "phase_shares": self.phase_shares,
            "unit_seconds": self.unit_seconds.snapshot(),
            "compute_seconds": self.compute_seconds,
            "worker_utilization": self.worker_utilization,
            "units_failed": self.units_failed,
            "units_retried": self.units_retried,
            "retry_attempts": self.retry_attempts,
            "units_recovered": self.units_recovered,
            "pool_starts": self.pool_starts,
            "pool_reuses": self.pool_reuses,
            "worker_respawns": self.worker_respawns,
            "writeback_batches": self.writeback_batches.snapshot(),
            "failures": list(self.failures),
        }

    def formatted(self) -> str:
        """Human-readable multi-line report."""
        shares = self.phase_shares
        lines = [
            f"engine: jobs={self.jobs}  units={self.units_total}  "
            f"store hits={self.store_hits} ({self.store_hit_rate:.0%})  "
            f"computed={self.units_computed}",
            f"wall: {self.wall_seconds:.3f}s total"
            + "".join(
                f"  {name}={seconds:.3f}s/{shares[name]:.0%}"
                for name, seconds in sorted(self.phase_seconds.items())
            ),
            f"worker utilization: {self.worker_utilization:.0%} "
            f"(busy {self.compute_seconds:.3f}s across {self.jobs} job(s))",
        ]
        if self.unit_seconds.count:
            lines.append(
                f"unit latency: p50 {self.unit_seconds.percentile(50) * 1e3:.1f}ms  "
                f"p95 {self.unit_seconds.percentile(95) * 1e3:.1f}ms  "
                f"over {self.unit_seconds.count} computed unit(s)"
            )
        if self.pool_starts or self.pool_reuses:
            lines.append(
                f"pool: {self.pool_starts} start(s)  "
                f"{self.pool_reuses} warm reuse(s)  "
                f"{self.worker_respawns} worker respawn(s)"
            )
        if not self.fault_free:
            lines.append(
                f"faults: {self.units_failed} failed  "
                f"{self.units_retried} retried "
                f"(+{self.retry_attempts} attempt(s))  "
                f"{self.units_recovered} recovered serially  "
                f"{self.worker_respawns} worker(s) respawned"
            )
        return "\n".join(lines)
