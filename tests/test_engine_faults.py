"""Failure paths of the evaluation engine, driven by fault injection.

Every scenario the fault-tolerance layer claims to survive is exercised
here deterministically through :mod:`repro.engine.faults`: raising units,
killed workers (respawned one at a time), retry-then-succeed, per-unit
timeouts, store I/O errors and unwritable cache directories.
"""

import json
import os

import pytest

from repro.core.designs import get_design
from repro.core.study import DesignSpaceStudy
from repro.engine import (
    Engine,
    EngineFailureError,
    ParallelExecutor,
    ResultStore,
    UnitFailure,
    WorkUnit,
    content_key,
    payload_from_result,
)
from repro.engine import faults
from repro.engine.store import STORE_SCHEMA_VERSION
from repro.cli import main

MIX = ("mcf", "tonto", "libquantum", "hmmer")


def unit(design="4B", mix=MIX, smt=True, **kwargs):
    return WorkUnit(design=get_design(design), mix=tuple(mix), smt=smt, **kwargs)


def single_units():
    """Four one-benchmark units; only the mcf one matches mcf faults."""
    return [unit(mix=(b,)) for b in MIX]


@pytest.fixture(autouse=True)
def clean_faults():
    """No fault spec leaks into, or out of, any test."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def no_fault_results():
    """The ground truth: a serial, fault-free evaluation of the test units."""
    return Engine(jobs=1).evaluate(single_units())


class TestSpecParsing:
    def test_full_grammar(self):
        spec = (
            "raise:benchmark=mcf:times=2; kill:design=8m:exit_code=3;"
            "slow:seconds=1.5:smt=false; store-write:times=1; store-read"
        )
        parsed = faults.parse_spec(spec)
        assert [f.kind for f in parsed] == [
            "raise", "kill", "slow", "store-write", "store-read",
        ]
        assert parsed[0].benchmark == "mcf" and parsed[0].times == 2
        assert parsed[1].exit_code == 3
        assert parsed[2].seconds == 1.5 and parsed[2].smt is False
        assert parsed[3].times == 1

    def test_empty_spec(self):
        assert faults.parse_spec("") == []
        assert faults.parse_spec(" ; ") == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_spec("explode:benchmark=mcf")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            faults.parse_spec("raise:when=later")

    def test_malformed_field_rejected(self):
        with pytest.raises(ValueError, match="malformed fault field"):
            faults.parse_spec("raise:benchmark")

    def test_install_validates_before_activating(self):
        with pytest.raises(ValueError):
            faults.install("bogus:x=1")
        assert os.environ.get(faults.FAULT_SPEC_ENV) is None

    def test_matching_fields(self):
        (fault,) = faults.parse_spec("raise:benchmark=mcf:design=4B:smt=true")
        assert fault.matches_unit(unit(mix=("mcf", "tonto")))
        assert not fault.matches_unit(unit(mix=("tonto",)))
        assert not fault.matches_unit(unit(design="8m", mix=("mcf",)))
        assert not fault.matches_unit(unit(mix=("mcf",), smt=False))


class TestRaisingUnit:
    def test_failure_is_isolated(self, no_fault_results):
        """One poisoned unit: every other slot matches the no-fault run."""
        faults.install("raise:benchmark=mcf")
        results = Engine(jobs=1).evaluate(single_units(), on_failure="return")
        assert isinstance(results[0], UnitFailure)
        assert results[0].error_type == "InjectedFault"
        assert results[0].attempts == 1
        assert results[1:] == no_fault_results[1:]

    def test_raise_mode_surfaces_structured_error(self, tmp_path):
        """Default mode raises, but only after successes reach the store."""
        faults.install("raise:benchmark=mcf")
        store = ResultStore(tmp_path)
        units = single_units()
        with pytest.raises(EngineFailureError) as excinfo:
            Engine(jobs=1, store=store).evaluate(units)
        assert len(excinfo.value.failures) == 1
        assert "mcf" in str(excinfo.value)
        # The three healthy units were written back before the raise.
        for u in units[1:]:
            assert store.get(u.content_key) is not None
        assert store.get(units[0].content_key) is None

    def test_attempts_tracks_retry_budget(self):
        faults.install("raise:benchmark=mcf")
        (outcome,) = ParallelExecutor(jobs=1, retries=2, backoff=0.0).map(
            [unit(mix=("mcf",))]
        )
        assert not outcome.ok
        assert outcome.attempts == 3

    def test_failure_tallied_in_stats(self):
        faults.install("raise:benchmark=mcf")
        engine = Engine(jobs=1)
        engine.evaluate(single_units(), on_failure="return")
        assert engine.stats.units_failed == 1
        assert engine.stats.units_computed == 3
        assert len(engine.stats.failures) == 1
        assert engine.stats.failures[0]["error_type"] == "InjectedFault"
        assert "faults:" in engine.stats.formatted()
        assert engine.run_summary()["units_failed"] == 1


class TestRetryThenSucceed:
    def test_serial_retry_heals(self, no_fault_results):
        faults.install("raise:benchmark=mcf:times=1")
        engine = Engine(jobs=1, retries=1, backoff=0.0)
        results = engine.evaluate(single_units())
        assert results == no_fault_results
        assert engine.stats.units_failed == 0
        assert engine.stats.units_retried == 1
        assert engine.stats.retry_attempts == 1

    def test_parallel_retry_heals(self, no_fault_results):
        faults.install("raise:benchmark=mcf:times=1")
        engine = Engine(jobs=2, retries=1, backoff=0.0)
        results = engine.evaluate(single_units())
        assert results == no_fault_results
        assert engine.stats.units_failed == 0

    def test_parallel_failure_recovers_serially_in_parent(self, no_fault_results):
        """Worker-only failures heal in the parent's recovery pass."""
        # kill is worker-only by design; use it with jobs=2 but times
        # bounded so the pool-level recovery is what gets exercised below.
        # Here: a raise fault that exhausts the worker's budget but not the
        # parent's is impossible to express per-process with fork (the
        # child inherits the parent's counters), so instead assert that a
        # persistent failure keeps its UnitFailure through the recovery
        # pass with attempts accumulated.
        faults.install("raise:benchmark=mcf")
        engine = Engine(jobs=2, retries=1, backoff=0.0)
        results = engine.evaluate(single_units(), on_failure="return")
        assert isinstance(results[0], UnitFailure)
        assert results[0].attempts == 3  # 2 worker attempts + 1 recovery
        assert results[1:] == no_fault_results[1:]


class TestKilledWorker:
    def test_kill_fault_never_fires_in_parent(self):
        """The guard that keeps serial re-execution from killing the CLI."""
        faults.install("kill:benchmark=mcf")
        # Serial evaluation happens in this very process; if the fault
        # fired here the test run itself would die with os._exit.
        (outcome,) = ParallelExecutor(jobs=1).map([unit(mix=("mcf",))])
        assert outcome.ok


class TestKilledWorkerPersistent:
    """The persistent pool's answer to worker death: respawn one worker."""

    def test_worker_respawn_recovery(self, no_fault_results):
        faults.install("kill:benchmark=mcf")
        executor = ParallelExecutor(jobs=2)
        try:
            outcomes = executor.map(single_units())
            assert executor.worker_respawns >= 1
            assert all(o.ok for o in outcomes)
            assert [o.value for o in outcomes] == no_fault_results
            # The pool is still fully staffed after the respawn.
            assert len(executor.pool_pids()) == 2
        finally:
            executor.shutdown()

    def test_engine_counts_worker_respawns(self, no_fault_results):
        faults.install("kill:benchmark=mcf")
        engine = Engine(jobs=2)
        try:
            results = engine.evaluate(single_units())
            assert results == no_fault_results
            assert engine.stats.worker_respawns >= 1
            assert engine.stats.units_failed == 0
            assert "respawn" in engine.stats.formatted()
        finally:
            engine.shutdown()

    def test_spec_installed_after_pool_start_still_fires(self, no_fault_results):
        """Workers fork at first use; a spec installed *afterwards* must
        still reach them (it ships with every task)."""
        engine = Engine(jobs=2)
        try:
            assert engine.evaluate(single_units()) == no_fault_results
            faults.install("raise:benchmark=mcf")
            results = engine.evaluate(single_units(), on_failure="return")
            # If the warm workers had missed the spec, the mcf unit would
            # have evaluated cleanly in its worker.
            assert isinstance(results[0], UnitFailure)
            assert results[1:] == no_fault_results[1:]
        finally:
            engine.shutdown()

    def test_sibling_units_survive_a_killed_worker(self, no_fault_results):
        """Only the dying worker's unit re-runs; siblings keep their
        in-flight results (nothing is torn down pool-wide)."""
        faults.install("kill:benchmark=mcf:times=1")
        engine = Engine(jobs=2)
        try:
            results = engine.evaluate(single_units())
            assert results == no_fault_results
            assert engine.stats.worker_respawns == 1
            assert engine.stats.units_failed == 0
        finally:
            engine.shutdown()


class TestUnitTimeout:
    def test_timeout_becomes_structured_failure(self):
        faults.install("slow:benchmark=mcf:seconds=30")
        (outcome,) = ParallelExecutor(jobs=1, unit_timeout=0.2).map(
            [unit(mix=("mcf",))]
        )
        assert not outcome.ok
        assert outcome.value.error_type == "UnitTimeoutError"
        assert "timeout" in outcome.value.message

    def test_timeout_then_retry_succeeds(self, no_fault_results):
        faults.install("slow:benchmark=mcf:seconds=30:times=1")
        engine = Engine(jobs=1, retries=1, backoff=0.0, unit_timeout=0.2)
        results = engine.evaluate(single_units())
        assert results == no_fault_results
        assert engine.stats.units_retried == 1

    def test_timer_disarmed_after_map(self):
        import signal

        faults.install("slow:benchmark=mcf:seconds=30")
        ParallelExecutor(jobs=1, unit_timeout=0.2).map([unit(mix=("mcf",))])
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_off_main_thread_degrades_to_no_timeout(self):
        """SIGALRM can only arm on the main thread; elsewhere the timeout
        must degrade to a structured warning, not crash the dispatch.

        Regression test for the serve daemon, whose dispatcher thread runs
        serial engine evaluation: ``signal.setitimer`` from a non-main
        thread raises ValueError and used to take the whole batch down.
        """
        import threading

        from repro.engine import executor as executor_module
        from repro.obs import METRICS, reset_observability

        executor_module._TIMEOUT_FALLBACK_WARNED = False
        METRICS.reset()
        METRICS.enable()
        outcomes = []
        errors = []

        def run():
            try:
                outcomes.extend(
                    ParallelExecutor(jobs=1, unit_timeout=0.2).map(
                        [unit(mix=("mcf",))]
                    )
                )
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        try:
            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=60)
            assert not errors
            (outcome,) = outcomes
            assert outcome.ok  # ran to completion, just without a budget
            assert METRICS.snapshot()["counters"]["engine.timeout_fallbacks"] == 1
        finally:
            reset_observability()
            executor_module._TIMEOUT_FALLBACK_WARNED = False


class TestStoreDegradation:
    def test_cache_dir_that_is_a_file_degrades(self, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("in the way")
        store = ResultStore(bogus)
        key = "ab" + "0" * 62
        with pytest.warns(RuntimeWarning, match="degraded to in-memory"):
            store.put(key, {"x": 1})
        assert store.degraded
        assert store.get(key) == {"x": 1}  # served from memory
        assert store.stats.memory_writes == 1
        assert store.content_summary()["degraded"] is True

    def test_injected_write_error_degrades(self, tmp_path):
        faults.install("store-write")
        store = ResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="degraded"):
            store.put("cd" + "0" * 62, {"y": 2})
        assert store.degraded
        assert store.get("cd" + "0" * 62) == {"y": 2}

    def test_injected_read_error_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "0" * 62
        store.put(key, {"z": 3})
        faults.install("store-read:times=1")
        assert store.get(key) is None  # injected miss
        assert store.get(key) == {"z": 3}  # next read is clean

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root ignores directory write permissions"
    )
    def test_read_only_cache_dir_degrades(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o555)
        try:
            store = ResultStore(ro)
            engine = Engine(jobs=1, store=store)
            with pytest.warns(RuntimeWarning, match="degraded"):
                results = engine.evaluate([unit(mix=("mcf",))])
            assert not isinstance(results[0], UnitFailure)
            engine.write_summary()  # must not raise
            assert store.read_run_summary()["units_total"] == 1
        finally:
            ro.chmod(0o755)

    def test_degraded_run_completes_end_to_end(self, tmp_path, no_fault_results):
        bogus = tmp_path / "file-as-cache"
        bogus.write_text("")
        store = ResultStore(bogus)
        engine = Engine(jobs=1, store=store)
        with pytest.warns(RuntimeWarning):
            results = engine.evaluate(single_units())
        assert results == no_fault_results
        engine.write_summary()
        summary = store.read_run_summary()
        assert summary["store"]["degraded"] is True
        # Second evaluation hits the in-memory fallback.
        engine.evaluate(single_units())
        assert engine.stats.store_hits == len(single_units())


class TestCorruptRecordDeletion:
    def _plant_bad_payload(self, store, key):
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"schema": STORE_SCHEMA_VERSION, "key": key, "payload": {}}
            )
        )
        return path

    def test_bad_payload_deleted_even_when_recompute_fails(self, tmp_path):
        store = ResultStore(tmp_path)
        u = unit(mix=("mcf",))
        path = self._plant_bad_payload(store, u.content_key)
        faults.install("raise:benchmark=mcf")  # recompute keeps failing
        (result,) = Engine(jobs=1, store=store).evaluate(
            [u], on_failure="return"
        )
        assert isinstance(result, UnitFailure)
        assert not path.exists()  # deleted at detection, not post-recompute
        assert store.stats.corrupt == 1

    def test_bad_payload_recomputed_and_rewritten(self, tmp_path):
        store = ResultStore(tmp_path)
        u = unit(mix=("mcf",))
        self._plant_bad_payload(store, u.content_key)
        (result,) = Engine(jobs=1, store=store).evaluate([u])
        assert not isinstance(result, UnitFailure)
        assert store.get(u.content_key) == payload_from_result(result)


class TestMaintenanceSweep:
    def _populate(self, tmp_path):
        store = ResultStore(tmp_path)
        Engine(jobs=1, store=store).evaluate([unit(mix=("mcf",)), unit(mix=("tonto",))])
        # Debris: a writer that died mid-write, an empty shard, a dead
        # last_run temp file.
        shard = store.root / "zz"
        shard.mkdir(parents=True)
        occupied_shard = store._record_paths()[0].parent
        (occupied_shard / ".deadbeef-x.tmp").write_text("{")
        (store.cache_dir / ".last_run-y.tmp").write_text("{")
        return store

    def test_content_summary_reports_debris(self, tmp_path):
        store = self._populate(tmp_path)
        summary = store.content_summary()
        assert summary["orphan_tmp_files"] == 2
        assert summary["empty_shards"] == 1

    def test_clear_sweeps_debris(self, tmp_path):
        store = self._populate(tmp_path)
        assert store.clear() == 2
        summary = store.content_summary()
        assert summary["records"] == 0
        assert summary["orphan_tmp_files"] == 0
        assert summary["empty_shards"] == 0

    def test_prune_sweeps_debris(self, tmp_path):
        store = self._populate(tmp_path)
        store.prune(max_records=1)
        summary = store.content_summary()
        assert summary["records"] == 1
        assert summary["orphan_tmp_files"] == 0
        assert summary["empty_shards"] == 0

    def test_sweep_is_idempotent(self, tmp_path):
        store = self._populate(tmp_path)
        first = store.sweep_debris()
        assert first == {"tmp_files": 2, "empty_shards": 1}
        assert store.sweep_debris() == {"tmp_files": 0, "empty_shards": 0}


class TestCanonicalizeMixedKeys:
    def test_mixed_type_keys_do_not_crash(self):
        key = content_key({1: "a", "b": 2})
        assert len(key) == 64

    def test_int_and_str_keys_hash_identically(self):
        assert content_key({1: "x", 10: "y"}) == content_key({"1": "x", "10": "y"})

    def test_numeric_order_matches_string_order(self):
        ints = content_key({2: "a", 10: "b", 1: "c"})
        strs = content_key({"10": "b", "1": "c", "2": "a"})
        assert ints == strs


class TestStudyFallback:
    def test_persistent_failure_heals_through_serial_path(self):
        """The study's last resort: engine failure ⇒ plain in-process eval."""
        faults.install("raise:benchmark=mcf")
        plain = DesignSpaceStudy()
        engine_study = DesignSpaceStudy(engine=Engine(jobs=1))
        expected = plain.evaluate_mix("4B", ["mcf", "tonto"])
        # The engine reports a UnitFailure (injection happens only on the
        # engine path); the study then computes the point serially, which
        # matches the engine-less study bit for bit.
        assert engine_study.evaluate_mix("4B", ["mcf", "tonto"]) == expected
        assert engine_study.engine.stats.units_failed == 1


class TestCLIFaultTolerance:
    def test_sweep_retries_injected_crash(self, tmp_path, capsys):
        faults.install("raise:benchmark=mcf:times=1")
        rc = main(
            [
                "sweep", "--design", "4B", "--kind", "heterogeneous",
                "--max-threads", "2", "--jobs", "1", "--retries", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "retried" in err

    def test_sweep_survives_unwritable_cache_dir(self, tmp_path, capsys):
        bogus = tmp_path / "cache-file"
        bogus.write_text("")
        with pytest.warns(RuntimeWarning, match="degraded"):
            rc = main(
                [
                    "sweep", "--design", "4B", "--kind", "heterogeneous",
                    "--max-threads", "2", "--jobs", "1",
                    "--cache-dir", str(bogus),
                ]
            )
        assert rc == 0
        err = capsys.readouterr().err
        assert "DEGRADED" in err

    def test_bad_retry_flags_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "--design", "4B", "--max-threads", "2",
                    "--retries", "-1", "--cache-dir", str(tmp_path),
                ]
            )
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "--design", "4B", "--max-threads", "2",
                    "--unit-timeout", "0", "--cache-dir", str(tmp_path),
                ]
            )

    def test_cache_stats_reports_faults_and_debris(self, tmp_path, capsys):
        faults.install("raise:benchmark=mcf:times=1")
        cache = tmp_path / "cache"
        rc = main(
            [
                "sweep", "--design", "4B", "--kind", "heterogeneous",
                "--max-threads", "2", "--retries", "1",
                "--cache-dir", str(cache),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        faults.reset()
        (ResultStore(cache).root / "empty-shard").mkdir(parents=True)
        rc = main(["cache", "stats", "--cache-dir", str(cache)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "debris" in out


class TestSlabFaults:
    def _units(self):
        return [unit(mix=(b,)) for b in MIX] + [unit(mix=MIX[:2])]

    def test_slab_failure_fans_out_per_point(self, no_fault_results):
        """A poisoned slab yields one UnitFailure per member point."""
        faults.install("raise:benchmark=mcf")
        results = Engine(jobs=1, slab_size=8).evaluate(
            single_units(), on_failure="return"
        )
        # All four single-benchmark units share one 4B/smt slab, so the
        # mcf fault poisons the whole slab; each slot carries its own
        # structured failure with the per-point mix and content key.
        assert all(isinstance(r, UnitFailure) for r in results)
        assert [r.mix for r in results] == [u.mix for u in single_units()]
        keys = [u.content_key for u in single_units()]
        assert [r.content_key for r in results] == keys

    def test_parallel_slab_failure_recovers_clean_points(self, no_fault_results):
        """With workers, clean members heal serially; the poisoned one stays."""
        faults.install("raise:benchmark=mcf")
        results = Engine(jobs=2, slab_size=2).evaluate(
            single_units(), on_failure="return"
        )
        assert isinstance(results[0], UnitFailure)  # the mcf unit itself
        assert results[1:] == no_fault_results[1:]  # healed in the parent

    def test_slab_retry_then_succeed(self, no_fault_results):
        faults.install("raise:benchmark=mcf:times=1")
        results = Engine(jobs=1, slab_size=8, retries=1, backoff=0.0).evaluate(
            single_units()
        )
        assert results == no_fault_results

    def test_slab_timeout_scales_with_size(self):
        """The per-unit budget multiplies by slab size, so slabs don't
        spuriously time out; a slow fault still trips the scaled budget."""
        faults.install("slow:benchmark=mcf:seconds=1.2")
        results = Engine(jobs=1, slab_size=4, unit_timeout=0.25).evaluate(
            single_units(), on_failure="return"
        )
        assert all(isinstance(r, UnitFailure) for r in results)
        assert results[0].error_type == "UnitTimeoutError"
