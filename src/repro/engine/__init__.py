"""Parallel evaluation engine with a persistent, content-addressed store.

The design-space grid — 9 chip designs x {homogeneous, heterogeneous} mixes
x 1-24 thread counts x SMT on/off — is embarrassingly parallel, and most of
its points recur across figures and across runs.  This package turns grid
evaluation into explicit work units and makes both kinds of reuse cheap:

* :mod:`repro.engine.tasks` — :class:`WorkUnit`, the unit of evaluation:
  one (design, mix, SMT) point, picklable for worker dispatch;
* :mod:`repro.engine.keys` — deterministic, version-stamped content keys
  derived from the *full* configuration (design, uncore, workload profiles,
  model version), so any config or model change invalidates cleanly;
* :mod:`repro.engine.store` — :class:`ResultStore`, an on-disk
  content-addressed JSON store with atomic writes, schema versioning and
  corruption tolerance, plus :class:`KeyedCache` for in-process memoization
  under the same key scheme;
* :mod:`repro.engine.backends` — the physical record layout behind the
  store: one JSON file per record, in shard directories;
* :mod:`repro.engine.executor` — :class:`ParallelExecutor` (a persistent
  :class:`WorkerPool`, with a bit-identical serial fallback) and
  :class:`Engine`, the facade that checks the store in one batched
  lookup, computes misses in parallel and streams results back in
  deterministic order as workers finish;
* :mod:`repro.engine.stats` — :class:`EngineStats`: per-phase wall time,
  worker utilization, cache hit rates and fault accounting;
* :mod:`repro.engine.faults` — deterministic fault injection
  (``$REPRO_FAULT_SPEC``): unit exceptions, worker kills, slow units and
  store I/O errors, so every failure path above is testable.

The engine is also the observability boundary (:mod:`repro.obs`): when
tracing/metrics are enabled, engine phases and per-unit evaluations become
spans on one Perfetto-loadable timeline — including spans recorded inside
pool workers, which travel back in each :class:`UnitOutcome` — and the
run summary gains a metrics snapshot.  All of it is off by default and
free when off.

Failures are isolated per unit: a crashing unit yields a structured
:class:`UnitFailure` (with configurable retries, exponential backoff and a
per-unit timeout) instead of poisoning its slab, a dead worker is
respawned and its unit re-executed in the parent, and an unwritable cache
directory degrades the store to in-memory caching with a warning instead
of aborting the run.

Typical use::

    from repro.engine import Engine, ResultStore
    from repro.core.study import DesignSpaceStudy

    engine = Engine(jobs=4, store=ResultStore("~/.cache/repro"))
    study = DesignSpaceStudy(engine=engine)
    study.throughput_curve("4B", "heterogeneous")   # parallel + cached
    print(engine.stats.formatted())
"""

from repro.engine.backends import DirectoryBackend
from repro.engine.executor import (
    Engine,
    EngineFailureError,
    ParallelExecutor,
    UnitOutcome,
    UnitTimeoutError,
    WorkerPool,
)
from repro.engine.faults import FAULT_SPEC_ENV, InjectedFault, InjectedStoreError
from repro.engine.keys import MODEL_VERSION, canonicalize, content_key
from repro.engine.stats import EngineStats
from repro.engine.store import KeyedCache, ResultStore, StoreStats
from repro.engine.tasks import (
    SlabUnit,
    UnitFailure,
    WorkUnit,
    evaluate_work_unit,
    payload_from_result,
    result_from_payload,
)

__all__ = [
    "Engine",
    "EngineFailureError",
    "ParallelExecutor",
    "WorkerPool",
    "UnitOutcome",
    "UnitTimeoutError",
    "UnitFailure",
    "EngineStats",
    "ResultStore",
    "StoreStats",
    "KeyedCache",
    "DirectoryBackend",
    "WorkUnit",
    "SlabUnit",
    "evaluate_work_unit",
    "payload_from_result",
    "result_from_payload",
    "content_key",
    "canonicalize",
    "MODEL_VERSION",
    "FAULT_SPEC_ENV",
    "InjectedFault",
    "InjectedStoreError",
]
