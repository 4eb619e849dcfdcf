"""Persistent, content-addressed result store (plus in-process keyed cache).

Record I/O goes through :class:`~repro.engine.backends.DirectoryBackend`:
one JSON record per file, sharded by key prefix to keep directories small::

    <cache-dir>/
        last_run.json              # summary of the most recent engine run
        v<schema>/
            ab/
                ab12...ef.json     # {"schema": .., "key": .., "payload": ..}

Properties:

* **atomic writes** — records are written to a temp file in the same
  directory and ``os.replace``d into place, so readers never observe a
  half-written record, even across concurrent processes;
* **schema versioning** — the record format version is baked into both the
  directory name and each record; a reader that finds a mismatched or
  foreign record treats it as a miss;
* **corruption tolerance** — truncated/garbage/mismatched records are
  counted, deleted and recomputed, never raised;
* **graceful degradation** — a read-only or otherwise unwritable cache
  directory demotes the store to **in-memory caching** with a one-time
  warning instead of aborting the run; disk records that are still
  readable keep serving hits;
* **accounting** — hits, misses, writes, corrupt records, evictions and
  degraded-mode writes are tallied in :class:`StoreStats`.
"""

import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import faults
from repro.engine.backends import DirectoryBackend
from repro.engine.keys import content_key
from repro.obs import METRICS, TRACER
from repro.util.io import atomic_write_json

#: Record format version.  Bump on layout changes; old records become
#: invisible (they live under the previous ``v<N>`` directory).
STORE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback cache location (per the XDG convention).
DEFAULT_CACHE_DIR = "~/.cache/repro"


def default_cache_dir() -> Path:
    """The store location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR).expanduser()


@dataclass
class StoreStats:
    """Session counters for one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    evicted: int = 0
    #: Writes absorbed by the in-memory fallback after degradation.
    memory_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["hit_rate"] = self.hit_rate
        return out


class ResultStore:
    """On-disk content-addressed store of JSON result records.

    If the cache directory turns out to be unwritable or corrupt (a
    read-only mount, a path that is actually a file, an I/O error), the
    store *degrades* rather than raises: subsequent writes land in an
    in-process dictionary, reads fall back to it, and a single
    ``RuntimeWarning`` explains what happened.  The run completes; only
    cross-run persistence is lost.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self.cache_dir = (
            Path(cache_dir).expanduser() if cache_dir is not None else default_cache_dir()
        )
        #: Physical record I/O; the store keeps the policy (validation,
        #: degradation, stats).
        self.backend = DirectoryBackend(self.cache_dir, STORE_SCHEMA_VERSION)
        self.root = self.backend.root
        self.stats = StoreStats()
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._memory_summary: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # degradation                                                         #
    # ------------------------------------------------------------------ #

    def _degrade(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason
        TRACER.instant("store.degraded", cat="store", reason=reason)
        METRICS.inc("store.degradations")
        warnings.warn(
            f"result store degraded to in-memory caching ({reason}); "
            f"results from this run will not persist under {self.cache_dir}",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------ #
    # record I/O                                                          #
    # ------------------------------------------------------------------ #

    def _path(self, key: str) -> Path:
        """Disk path of a record."""
        return self.backend.record_path(key)

    def _decode_record(self, key: str, text: str) -> Optional[Dict[str, Any]]:
        """Validate raw record text; counts a hit, or a corrupt miss."""
        try:
            record = json.loads(text)
            if (
                not isinstance(record, dict)
                or record.get("schema") != STORE_SCHEMA_VERSION
                or record.get("key") != key
                or not isinstance(record.get("payload"), dict)
            ):
                raise ValueError("malformed record")
            payload = record["payload"]
        except (ValueError, KeyError, TypeError):
            # Corrupt/truncated/foreign record: drop it and recompute.
            self.stats.corrupt += 1
            self.stats.misses += 1
            METRICS.inc("store.corrupt")
            METRICS.inc("store.misses")
            TRACER.instant("store.corrupt-record", cat="store", key=key[:12])
            self.backend.delete_record(key)
            return None
        self.stats.hits += 1
        METRICS.inc("store.hits")
        return payload

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or None (miss or bad record)."""
        if key in self._memory:
            self.stats.hits += 1
            METRICS.inc("store.hits")
            return self._memory[key]
        try:
            faults.inject_store_fault("read")
            text = self.backend.read_record(key)
        except OSError:
            text = None
        if text is None:
            self.stats.misses += 1
            METRICS.inc("store.misses")
            return None
        return self._decode_record(key, text)

    def get_many(self, keys: List[str]) -> List[Optional[Dict[str, Any]]]:
        """Batched :meth:`get`: payloads (or None) aligned with ``keys``.

        One backend call for every key not already in the in-memory
        layer.  Injected/real read faults degrade a key to a miss exactly
        like :meth:`get`.
        """
        out: List[Optional[Dict[str, Any]]] = [None] * len(keys)
        pending: List[Tuple[int, str]] = []
        for i, key in enumerate(keys):
            if key in self._memory:
                self.stats.hits += 1
                METRICS.inc("store.hits")
                out[i] = self._memory[key]
            else:
                pending.append((i, key))
        if not pending:
            return out
        readable: List[Tuple[int, str]] = []
        for i, key in pending:
            try:
                faults.inject_store_fault("read")
            except OSError:
                self.stats.misses += 1
                METRICS.inc("store.misses")
                continue
            readable.append((i, key))
        if readable:
            try:
                texts = self.backend.read_records([key for _, key in readable])
            except OSError:
                texts = {}
            for i, key in readable:
                text = texts.get(key)
                if text is None:
                    self.stats.misses += 1
                    METRICS.inc("store.misses")
                else:
                    out[i] = self._decode_record(key, text)
        return out

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Write ``payload`` under ``key``: atomically on disk, or to the
        in-memory fallback once the store has degraded."""
        if self.degraded:
            self._memory[key] = payload
            self.stats.memory_writes += 1
            METRICS.inc("store.memory_writes")
            return
        record = {"schema": STORE_SCHEMA_VERSION, "key": key, "payload": payload}
        try:
            faults.inject_store_fault("write")
            self.backend.write_records([(key, json.dumps(record))])
        except OSError as exc:
            self._degrade(f"write failed: {exc}")
            self._memory[key] = payload
            self.stats.memory_writes += 1
            METRICS.inc("store.memory_writes")
            return
        self.stats.writes += 1
        METRICS.inc("store.writes")

    def write_many(self, items: List[Tuple[str, Dict[str, Any]]]) -> None:
        """Batched :meth:`put`: one backend call for the whole batch.

        The shard directories are pre-created once and each record still
        lands via its own atomic replace.  A write fault (injected or real)
        degrades the store and routes the affected and remaining records to
        the in-memory fallback, same as ``put``.
        """
        staged: List[Tuple[str, Dict[str, Any], str]] = []
        for key, payload in items:
            if self.degraded:
                self._memory[key] = payload
                self.stats.memory_writes += 1
                METRICS.inc("store.memory_writes")
                continue
            try:
                faults.inject_store_fault("write")
            except OSError as exc:
                self._degrade(f"write failed: {exc}")
                self._memory[key] = payload
                self.stats.memory_writes += 1
                METRICS.inc("store.memory_writes")
                continue
            record = {"schema": STORE_SCHEMA_VERSION, "key": key, "payload": payload}
            staged.append((key, payload, json.dumps(record)))
        if not staged:
            return
        try:
            self.backend.write_records([(key, text) for key, _, text in staged])
        except OSError as exc:
            self._degrade(f"write failed: {exc}")
            for key, payload, _ in staged:
                self._memory[key] = payload
                self.stats.memory_writes += 1
                METRICS.inc("store.memory_writes")
            return
        self.stats.writes += len(staged)
        METRICS.inc("store.writes", len(staged))

    def delete(self, key: str) -> bool:
        """Remove the record under ``key`` (memory and disk); True if a
        persisted record was actually removed."""
        self._memory.pop(key, None)
        return self.backend.delete_record(key)

    # ------------------------------------------------------------------ #
    # maintenance                                                         #
    # ------------------------------------------------------------------ #

    def _record_paths(self) -> List[Path]:
        return self.backend.record_paths()

    def sweep_debris(self) -> Dict[str, int]:
        """Remove orphaned temp files and empty shard directories.

        Runs automatically after :meth:`clear` and :meth:`prune`; safe to
        call any time.  Returns what was removed.
        """
        return self.backend.sweep_debris()

    def clear(self) -> int:
        """Delete every record; returns how many were evicted."""
        removed = len(self._memory)
        self._memory.clear()
        removed += self.backend.clear()
        self.stats.evicted += removed
        self.sweep_debris()
        return removed

    def prune(self, max_records: int) -> int:
        """Evict oldest records (by mtime) down to ``max_records``."""
        if max_records < 0:
            raise ValueError("max_records must be >= 0")
        removed = self.backend.prune(max_records)
        self.stats.evicted += removed
        self.sweep_debris()
        return removed

    def content_summary(self) -> Dict[str, Any]:
        """What is persisted right now (for ``repro cache stats``)."""
        records, total_bytes = self.backend.content_counts()
        summary = {
            "cache_dir": str(self.cache_dir),
            "schema_version": STORE_SCHEMA_VERSION,
            "records": records,
            "total_bytes": total_bytes,
            "memory_records": len(self._memory),
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }
        summary.update(self.backend.describe())
        return summary

    def status_dict(self) -> Dict[str, Any]:
        """Session stats plus degradation state (for run summaries)."""
        out = self.stats.as_dict()
        out["degraded"] = self.degraded
        out["degraded_reason"] = self.degraded_reason
        out["memory_records"] = len(self._memory)
        return out

    # ------------------------------------------------------------------ #
    # run summaries                                                       #
    # ------------------------------------------------------------------ #

    @property
    def summary_path(self) -> Path:
        return self.cache_dir / "last_run.json"

    def write_run_summary(self, summary: Dict[str, Any]) -> None:
        """Persist the last engine run's stats (read by ``cache stats``).

        Never raises for an unwritable cache directory: the summary is kept
        in memory instead (and the store degrades, with its warning).  The
        in-memory copy is retained even after a successful write, so a
        later read that finds the on-disk file corrupted can still serve
        this process's last summary.
        """
        self._memory_summary = summary
        if self.degraded:
            return
        try:
            atomic_write_json(self.summary_path, summary)
        except OSError as exc:
            self._degrade(f"run summary write failed: {exc}")

    def read_run_summary(self) -> Optional[Dict[str, Any]]:
        """The last run's summary, or None.

        A missing file is normal (no run yet) and stays silent; a file that
        exists but does not parse to a summary dict — a truncated
        ``last_run.json``, say — degrades with a warning like every other
        store read path instead of crashing ``repro cache stats``.
        """
        try:
            text = self.summary_path.read_text()
        except OSError:
            return self._memory_summary
        try:
            summary = json.loads(text)
            if not isinstance(summary, dict):
                raise ValueError("run summary is not a JSON object")
        except ValueError:
            METRICS.inc("store.corrupt_summaries")
            TRACER.instant("store.corrupt-summary", cat="store")
            warnings.warn(
                f"ignoring corrupt run summary at {self.summary_path}; "
                "it will be overwritten by the next engine run",
                RuntimeWarning,
                stacklevel=3,
            )
            return self._memory_summary
        return summary


class KeyedCache:
    """In-process memo keyed by the engine's content-key scheme.

    This replaces ad-hoc module-level ``lru_cache``s: values are addressed
    by the same deterministic keys the persistent store uses (namespaced so
    different value kinds cannot collide), the cache is observable
    (hit/miss counters, ``len``) and explicitly clearable by tests.  A
    side table memoizes key derivation for hashable argument tuples so the
    hot path stays close to ``lru_cache`` speed.

    Key derivation for frozen-dataclass parts still costs a structural
    hash, which shows up when the same objects are looked up thousands of
    times per sweep (scheduler affinity, study references, solver hints).
    A second side table keyed by the argument *identities* short-circuits
    that: it holds a strong reference to the parts tuple, so the ids stay
    valid for as long as the entry lives, and an identity check on every
    element guards against id reuse after garbage collection.
    """

    _ID_MEMO_LIMIT = 8192

    def __init__(self, namespace: str):
        self.namespace = namespace
        self._values: Dict[str, Any] = {}
        self._key_memo: Dict[Tuple, str] = {}
        self._id_memo: Dict[Tuple[int, ...], Tuple[Tuple, str]] = {}
        self.hits = 0
        self.misses = 0

    def key_for(self, parts: Tuple) -> str:
        ids = tuple(map(id, parts))
        memoized = self._id_memo.get(ids)
        if memoized is not None and all(
            a is b for a, b in zip(memoized[0], parts)
        ):
            return memoized[1]
        try:
            key = self._key_memo[parts]
        except KeyError:
            key = content_key({"namespace": self.namespace, "parts": list(parts)})
            self._key_memo[parts] = key
        except TypeError:  # unhashable parts: derive without memoizing
            return content_key({"namespace": self.namespace, "parts": list(parts)})
        if len(self._id_memo) >= self._ID_MEMO_LIMIT:
            self._id_memo.clear()
        self._id_memo[ids] = (parts, key)
        return key

    def get(self, parts: Tuple, default: Any = None) -> Any:
        """Look up without computing; counts as a hit/miss like the memo."""
        key = self.key_for(parts)
        try:
            value = self._values[key]
        except KeyError:
            self.misses += 1
            if METRICS.enabled:
                METRICS.inc(f"keyed_cache.{self.namespace}.misses")
            return default
        self.hits += 1
        if METRICS.enabled:
            METRICS.inc(f"keyed_cache.{self.namespace}.hits")
        return value

    def put(self, parts: Tuple, value: Any) -> None:
        self._values[self.key_for(parts)] = value

    def get_or_compute(self, parts: Tuple, compute: Callable[[], Any]) -> Any:
        key = self.key_for(parts)
        try:
            value = self._values[key]
        except KeyError:
            self.misses += 1
            if METRICS.enabled:
                METRICS.inc(f"keyed_cache.{self.namespace}.misses")
            value = compute()
            self._values[key] = value
            return value
        self.hits += 1
        if METRICS.enabled:
            METRICS.inc(f"keyed_cache.{self.namespace}.hits")
        return value

    def clear(self) -> None:
        self._values.clear()
        self._key_memo.clear()
        self._id_memo.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._values)
