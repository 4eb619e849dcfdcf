"""Record I/O behind :class:`~repro.engine.store.ResultStore`.

The store facade owns policy — record schema/validation, corruption
handling, degradation to in-memory caching, stats, run summaries — while
:class:`DirectoryBackend` owns the physical record I/O: one JSON file per
record under ``<cache-dir>/v<schema>/<shard>/<key>.json`` with atomic
temp-file writes.  Zero setup and human-greppable.  Failures surface as
``OSError``, which is what the store's degradation logic catches.
"""

import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class DirectoryBackend:
    """One JSON file per record, sharded by key prefix, atomic writes."""

    def __init__(self, cache_dir: Path, schema_version: int):
        self.cache_dir = cache_dir
        self.root = cache_dir / f"v{schema_version}"

    # -- record I/O ---------------------------------------------------- #

    def record_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def read_record(self, key: str) -> Optional[str]:
        """Raw record text, or None when there is no record to read."""
        try:
            return self.record_path(key).read_text()
        except OSError:
            return None

    def read_records(self, keys: List[str]) -> Dict[str, Optional[str]]:
        """Batched :meth:`read_record`: one ``{key: text-or-None}`` map."""
        return {key: self.read_record(key) for key in keys}

    def write_records(self, items: List[Tuple[str, str]]) -> None:
        """Atomic record writes: temp file in the shard directory, then
        replace, so readers never see a torn record.

        The shard directories for the whole batch are created up front so
        each record write is just mkstemp + write + replace.
        """
        for parent in {self.record_path(key).parent for key, _ in items}:
            parent.mkdir(parents=True, exist_ok=True)
        for key, text in items:
            path = self.record_path(key)
            tmp_name = None
            try:
                fd, tmp_name = tempfile.mkstemp(
                    prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
                )
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp_name, path)
                tmp_name = None
            finally:
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass

    def delete_record(self, key: str) -> bool:
        try:
            self.record_path(key).unlink()
            return True
        except OSError:
            return False

    # -- maintenance --------------------------------------------------- #

    def record_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def orphan_tmp_paths(self) -> List[Path]:
        """Leftover ``.tmp`` files from writers that died mid-write."""
        orphans: List[Path] = []
        if self.root.is_dir():
            orphans.extend(self.root.glob("*/.*.tmp"))
        if self.cache_dir.is_dir():
            orphans.extend(self.cache_dir.glob(".last_run*.tmp"))
        return sorted(orphans)

    def empty_shard_dirs(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            child
            for child in self.root.iterdir()
            if child.is_dir() and not any(child.iterdir())
        )

    def sweep_debris(self) -> Dict[str, int]:
        removed_tmp = 0
        for path in self.orphan_tmp_paths():
            try:
                path.unlink()
                removed_tmp += 1
            except OSError:
                pass
        removed_dirs = 0
        for shard in self.empty_shard_dirs():
            try:
                shard.rmdir()
                removed_dirs += 1
            except OSError:
                pass
        return {"tmp_files": removed_tmp, "empty_shards": removed_dirs}

    def clear(self) -> int:
        removed = 0
        for path in self.record_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_records: int) -> int:
        paths = self.record_paths()
        if len(paths) <= max_records:
            return 0

        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        paths.sort(key=mtime)
        removed = 0
        for path in paths[: len(paths) - max_records]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def content_counts(self) -> Tuple[int, int]:
        """(record count, total bytes) currently persisted."""
        paths = self.record_paths()
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return len(paths), total_bytes

    def describe(self) -> Dict[str, int]:
        return {
            "orphan_tmp_files": len(self.orphan_tmp_paths()),
            "empty_shards": len(self.empty_shard_dirs()),
        }

