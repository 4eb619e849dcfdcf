"""The evaluation engine: work units, keys, store, parallel execution."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.designs import get_design
from repro.core.scheduler import (
    _ISOLATED_IPS_CACHE,
    _cached_isolated_ips,
    clear_isolated_ips_cache,
)
from repro.core.study import DesignSpaceStudy
from repro.engine import (
    Engine,
    KeyedCache,
    ParallelExecutor,
    ResultStore,
    SlabUnit,
    WorkUnit,
    content_key,
    evaluate_work_unit,
    payload_from_result,
    result_from_payload,
)
from repro.engine.store import STORE_SCHEMA_VERSION
from repro.microarch.config import BIG, SMALL
from repro.microarch.uncore import HIGH_BANDWIDTH_UNCORE
from repro.workloads.spec import get_profile

MIX = ("mcf", "tonto", "libquantum", "hmmer")


def unit(design="4B", mix=MIX, smt=True, **kwargs):
    return WorkUnit(design=get_design(design), mix=tuple(mix), smt=smt, **kwargs)


class TestWorkUnit:
    def test_requires_benchmarks(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            unit(mix=())

    def test_reference_uncore_defaults_to_design_uncore(self):
        u = unit()
        assert u.reference_uncore == get_design("4B").uncore

    def test_evaluate_matches_study(self, study):
        expected = study.evaluate_mix("4B", list(MIX))
        assert evaluate_work_unit(unit()) == expected


class TestContentKeys:
    def test_key_is_hex_digest(self):
        key = unit().content_key
        assert len(key) == 64
        int(key, 16)

    def test_key_depends_on_design_mix_and_smt(self):
        base = unit()
        assert base.content_key != unit(design="8m").content_key
        assert base.content_key != unit(mix=MIX[:2]).content_key
        assert base.content_key != unit(smt=False).content_key
        assert base.content_key != unit(mix=tuple(reversed(MIX))).content_key

    def test_key_depends_on_uncore(self):
        fast = unit(reference_uncore=HIGH_BANDWIDTH_UNCORE)
        assert unit().content_key != fast.content_key

    def test_key_stable_within_process(self):
        assert unit().content_key == unit().content_key

    def test_key_stable_across_processes(self):
        """The same configuration must hash identically in a fresh interpreter."""
        script = (
            "from repro.core.designs import get_design\n"
            "from repro.engine import WorkUnit\n"
            f"u = WorkUnit(design=get_design('4B'), mix={MIX!r}, smt=True)\n"
            "print(u.content_key)\n"
        )
        src_dir = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == unit().content_key

    def test_numpy_scalars_key_like_python_scalars(self):
        """np.float64 subclasses float, so without an explicit unwrap it
        would canonicalize via ``repr`` to ``np.float64(x)`` — diverging
        the key for identical configs between vector and scalar paths."""
        np = pytest.importorskip("numpy")
        from repro.engine.keys import canonicalize

        assert canonicalize(np.float64(1.5)) == canonicalize(1.5)
        assert canonicalize(np.float32(2.0)) == canonicalize(2.0)
        assert canonicalize(np.int64(3)) == canonicalize(3)
        assert canonicalize(np.bool_(True)) == canonicalize(True)
        assert "np." not in canonicalize({"x": np.float64(0.25)})

    def test_numpy_arrays_key_like_lists(self):
        np = pytest.importorskip("numpy")
        from repro.engine.keys import canonicalize

        assert canonicalize(np.array([1.0, 2.5])) == canonicalize([1.0, 2.5])
        assert canonicalize(np.arange(3)) == canonicalize([0, 1, 2])

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            content_key({"bad": object()})


class TestSerialParallelEquivalence:
    def test_jobs4_bit_identical_to_jobs1(self):
        units = [
            unit(design=name, mix=MIX[: n + 1], smt=smt)
            for name in ("4B", "8m", "3B5s")
            for n in range(3)
            for smt in (True, False)
        ]
        serial = Engine(jobs=1).evaluate(units)
        parallel = Engine(jobs=4).evaluate(units)
        assert serial == parallel  # dataclass equality: exact floats

    def test_study_with_engine_matches_plain_study(self, study):
        engine_study = DesignSpaceStudy(engine=Engine(jobs=2))
        for n in (1, 4, 8):
            mixes = study.mixes("heterogeneous", n)
            assert engine_study.evaluate_mixes("4B", mixes) == [
                study.evaluate_mix("4B", m) for m in mixes
            ]

    def test_executor_preserves_order(self):
        units = [unit(mix=(b,)) for b in ("mcf", "tonto", "hmmer", "libquantum")]
        outcomes = ParallelExecutor(jobs=2).map(units)
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.value.mix for o in outcomes] == [u.mix for u in units]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)


class TestSlabDispatch:
    def _units(self):
        return [
            unit(design=name, mix=MIX[: n + 1], smt=smt)
            for name in ("4B", "8m")
            for n in range(3)
            for smt in (True, False)
        ]

    def test_slab_unit_validates(self):
        with pytest.raises(ValueError, match="non-empty"):
            SlabUnit(design=get_design("4B"), mixes=())
        with pytest.raises(ValueError, match="non-empty"):
            SlabUnit(design=get_design("4B"), mixes=(("mcf",), ()))

    def test_slab_unit_properties(self):
        slab = SlabUnit(
            design=get_design("4B"), mixes=(("mcf", "tonto"), ("mcf",))
        )
        assert slab.mix == ("mcf", "tonto")  # flattened, deduped
        assert slab.n_threads == 2
        assert slab.timeout_scale == 2
        assert slab.content_key != SlabUnit(
            design=get_design("4B"), mixes=(("mcf",),)
        ).content_key

    def test_slab_evaluation_matches_per_point(self):
        units = [unit(mix=MIX[: n + 1]) for n in range(4)]
        slab = SlabUnit(
            design=get_design("4B"), mixes=tuple(u.mix for u in units)
        )
        assert evaluate_work_unit(slab) == [
            evaluate_work_unit(u) for u in units
        ]

    def test_engine_slab_mode_bit_identical(self):
        units = self._units()
        per_point = Engine(jobs=1).evaluate(units)
        slabbed = Engine(jobs=2, slab_size=4).evaluate(units)
        assert per_point == slabbed

    def test_slab_mode_respects_store(self, tmp_path):
        units = self._units()
        store = ResultStore(str(tmp_path / "cache"))
        engine = Engine(jobs=2, slab_size=4, store=store)
        cold = engine.evaluate(units)
        warm_engine = Engine(jobs=1, store=ResultStore(str(tmp_path / "cache")))
        warm = warm_engine.evaluate(units)
        assert cold == warm
        assert warm_engine.stats.store_hits == len(units)

    def test_invalid_slab_size_rejected(self):
        with pytest.raises(ValueError, match="slab_size"):
            Engine(jobs=2, slab_size=0)

    def test_small_batch_shrinks_slabs_to_fill_the_pool(self):
        """A batch far below slab_size x jobs must split across workers
        instead of landing in one giant slab (an adaptive explorer's
        low-fidelity rung is a few dozen points at slab_size=32)."""
        engine = Engine(jobs=2, slab_size=32)
        units = [unit(mix=MIX[:1] * (n % 3 + 1)) for n in range(6)]
        captured = []
        original = engine.executor.map

        def spy(tasks, **kwargs):
            captured.append(len(tasks))
            return original(tasks, **kwargs)

        engine.executor.map = spy
        results = engine.evaluate(units)
        assert captured == [2]  # two slabs of 3, not one slab of 6
        assert results == Engine(jobs=1).evaluate(units)

    def test_shrunk_slabs_bit_identical(self):
        units = self._units()[:5]
        assert Engine(jobs=2, slab_size=32).evaluate(units) == Engine(
            jobs=1
        ).evaluate(units)


class TestResultStore:
    def test_round_trip(self, tmp_path, study):
        store = ResultStore(tmp_path)
        result = study.evaluate_mix("4B", list(MIX))
        key = unit().content_key
        store.put(key, payload_from_result(result))
        assert result_from_payload(store.get(key)) == result
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_miss_on_absent_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_corrupted_record_recovers(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, store=store)
        u = unit()
        (first,) = engine.evaluate([u])
        record_path = store._path(u.content_key)
        record_path.write_text("{ this is not json")
        (again,) = engine.evaluate([u])
        assert again == first  # recomputed, not crashed
        assert store.stats.corrupt == 1
        # and the fresh record was written back
        assert result_from_payload(store.get(u.content_key)) == first

    def test_truncated_record_recovers(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, store=store)
        u = unit()
        (first,) = engine.evaluate([u])
        record_path = store._path(u.content_key)
        record_path.write_text(record_path.read_text()[:25])
        (again,) = engine.evaluate([u])
        assert again == first
        assert store.stats.corrupt == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        u = unit()
        path = store._path(u.content_key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "schema": STORE_SCHEMA_VERSION + 1,
                    "key": u.content_key,
                    "payload": {},
                }
            )
        )
        assert store.get(u.content_key) is None
        assert store.stats.corrupt == 1

    def test_clear_counts_evictions(self, tmp_path):
        store = ResultStore(tmp_path)
        Engine(jobs=1, store=store).evaluate([unit(), unit(smt=False)])
        assert store.clear() == 2
        assert store.stats.evicted == 2
        assert store.content_summary()["records"] == 0

    def test_prune_evicts_down_to_limit(self, tmp_path):
        store = ResultStore(tmp_path)
        units = [unit(mix=(b,)) for b in ("mcf", "tonto", "hmmer")]
        Engine(jobs=1, store=store).evaluate(units)
        assert store.prune(max_records=1) == 2
        assert store.content_summary()["records"] == 1
        assert store.stats.evicted == 2

    def test_run_summary_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, store=store)
        engine.evaluate([unit()])
        engine.write_summary()
        summary = store.read_run_summary()
        assert summary["units_total"] == 1
        assert summary["store"]["writes"] == 1


class TestBatchedStoreIO:
    """``write_many``/``get_many``: one backend call per batch."""

    KEYS = [format(i, "064x") for i in range(1, 4)]
    PAYLOADS = [{"n": i} for i in range(1, 4)]

    def test_write_many_get_many_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_many(list(zip(self.KEYS, self.PAYLOADS)))
        assert store.stats.writes == len(self.KEYS)
        # A fresh store (no memory layer) must read the same bytes back,
        # aligned with the requested key order.
        fresh = ResultStore(tmp_path)
        assert fresh.get_many(list(reversed(self.KEYS))) == list(
            reversed(self.PAYLOADS)
        )
        assert fresh.stats.hits == len(self.KEYS)

    def test_get_many_alignment_with_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_many(list(zip(self.KEYS, self.PAYLOADS)))
        absent = "f" * 64
        got = store.get_many([self.KEYS[0], absent, self.KEYS[2]])
        assert got == [self.PAYLOADS[0], None, self.PAYLOADS[2]]
        assert store.stats.misses == 1

    def test_batched_matches_single_record_ops(self, tmp_path):
        batched = ResultStore(tmp_path / "batched")
        batched.write_many(list(zip(self.KEYS, self.PAYLOADS)))
        singly = ResultStore(tmp_path / "singly")
        for key, payload in zip(self.KEYS, self.PAYLOADS):
            singly.put(key, payload)
        for key in self.KEYS:
            # Batching never changes the stored bytes.
            assert batched._path(key).read_bytes() == singly._path(key).read_bytes()

    def test_write_many_fault_degrades_to_memory(self, tmp_path):
        from repro.engine import faults

        store = ResultStore(tmp_path)
        faults.reset()
        faults.install("store-write:times=1")
        try:
            with pytest.warns(RuntimeWarning):
                store.write_many(list(zip(self.KEYS, self.PAYLOADS)))
            assert store.degraded
            # Every item of the batch survives in the memory layer.
            assert store.get_many(self.KEYS) == self.PAYLOADS
        finally:
            faults.reset()

    def test_get_many_fault_is_a_per_key_miss(self, tmp_path):
        from repro.engine import faults

        store = ResultStore(tmp_path)
        store.write_many(list(zip(self.KEYS, self.PAYLOADS)))
        fresh = ResultStore(tmp_path)
        faults.reset()
        faults.install("store-read:times=1")
        try:
            got = fresh.get_many(self.KEYS)
        finally:
            faults.reset()
        # The injected read error costs exactly one key its hit; the
        # rest of the batch still resolves.
        assert got.count(None) == 1
        assert fresh.stats.misses == 1
        assert fresh.stats.hits == len(self.KEYS) - 1


class TestCorruptRunSummary:
    def test_corrupt_summary_warns_and_degrades(self, tmp_path):
        store = ResultStore(tmp_path)
        store.summary_path.write_text("{ this is not json")
        with pytest.warns(RuntimeWarning, match="corrupt run summary"):
            assert store.read_run_summary() is None

    def test_corrupt_summary_falls_back_to_memory_copy(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, store=store)
        engine.evaluate([unit()])
        engine.write_summary()
        store.summary_path.write_text('["not", "a", "summary"]')
        with pytest.warns(RuntimeWarning):
            summary = store.read_run_summary()
        assert summary is not None and summary["units_total"] == 1

    def test_missing_summary_is_silent(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.read_run_summary() is None  # no warning expected

    def test_cache_stats_survives_corrupt_summary(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = ResultStore(tmp_path)
        store.summary_path.write_text("{ truncated")
        with pytest.warns(RuntimeWarning, match="corrupt run summary"):
            rc = cli_main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "last run        : (none recorded)" in capsys.readouterr().out


class TestRecordLayout:
    def test_one_json_file_per_record_under_schema_and_shard(self, tmp_path):
        """``<cache-dir>/v<schema>/<key[:2]>/<key>.json`` is a published
        layout: tools outside the package glob records by it."""
        u = unit()
        (result,) = Engine(jobs=1, store=ResultStore(tmp_path)).evaluate([u])
        key = u.content_key
        expected = tmp_path / f"v{STORE_SCHEMA_VERSION}" / key[:2] / f"{key}.json"
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files == [expected]
        record = json.loads(expected.read_text())
        assert result_from_payload(record["payload"]) == result


class TestEngineCaching:
    def test_second_run_hits_store(self, tmp_path):
        units = [unit(mix=MIX[: n + 1]) for n in range(4)]
        cold = Engine(jobs=1, store=ResultStore(tmp_path))
        cold_results = cold.evaluate(units)
        assert cold.stats.store_hits == 0

        warm = Engine(jobs=1, store=ResultStore(tmp_path))
        warm_results = warm.evaluate(units)
        assert warm_results == cold_results
        assert warm.stats.store_hits == len(units)
        assert warm.stats.store_hit_rate == 1.0
        assert warm.stats.units_computed == 0

    def test_stats_phases_recorded(self, tmp_path):
        engine = Engine(jobs=1, store=ResultStore(tmp_path))
        engine.evaluate([unit()])
        assert {"lookup", "compute", "write-back"} <= set(engine.stats.phase_seconds)
        assert engine.stats.wall_seconds > 0
        assert 0.0 < engine.stats.worker_utilization <= 1.0
        assert "engine:" in engine.stats.formatted()


class TestKeyedCache:
    def test_get_or_compute_memoizes(self):
        cache = KeyedCache("test")
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute(("a", 1), compute) == 42
        assert cache.get_or_compute(("a", 1), compute) == 42
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_namespaces_do_not_collide(self):
        a, b = KeyedCache("ns-a"), KeyedCache("ns-b")
        assert a.key_for((1,)) != b.key_for((1,))

    def test_clear_resets(self):
        cache = KeyedCache("test")
        cache.get_or_compute((1,), lambda: "x")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_get_and_put(self):
        cache = KeyedCache("test")
        assert cache.get(("k",)) is None
        assert cache.get(("k",), default="d") == "d"
        cache.put(("k",), 7)
        assert cache.get(("k",)) == 7

    def test_identity_fast_path_matches_slow_path(self):
        """Repeated lookups with the same part objects hit the id memo."""
        cache = KeyedCache("test")
        design = get_design("4B")
        parts = (design, True)
        cache.put(parts, "v")
        assert cache.get(parts) == "v"  # id-memo hit
        # An equal-but-distinct key tuple still resolves to the same slot.
        assert cache.get((get_design("4B"), True)) == "v"


class TestSchedulerCache:
    def test_isolated_ips_routed_through_keyed_cache(self):
        clear_isolated_ips_cache()
        profile = get_profile("mcf")
        first = _cached_isolated_ips(profile, BIG)
        assert len(_ISOLATED_IPS_CACHE) == 1
        assert _cached_isolated_ips(profile, BIG) == first
        assert _ISOLATED_IPS_CACHE.hits >= 1
        assert _cached_isolated_ips(profile, SMALL) != first

    def test_explicit_clear(self):
        _cached_isolated_ips(get_profile("mcf"), BIG)
        assert len(_ISOLATED_IPS_CACHE) > 0
        clear_isolated_ips_cache()
        assert len(_ISOLATED_IPS_CACHE) == 0
