"""The serve daemon: protocol, scheduler, coalescing, priorities, quotas,
and byte-identity of ``sweep --server`` against local execution.

Server tests run a real :class:`~repro.serve.server.SweepServer` on a
background thread (unix socket in ``tmp_path``) and talk to it through
the blocking :class:`~repro.serve.client.ServeClient`.  Determinism comes
from the server's dispatch pause hook: with dispatch held, submissions
pile up in the scheduler and the tests can assert on coalescing and
ordering without racing the engine.
"""

import pytest

from repro.cli import main as cli_main
from repro.engine import ResultStore
from repro.obs import METRICS, reset_observability
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerHandle,
    parse_address,
)
from repro.serve import protocol
from repro.serve.jobs import Slab, SlabScheduler

DESIGN = "2B4m"
OTHER_DESIGN = "4B"


def make_handle(tmp_path, **overrides):
    config = ServeConfig(
        listen=f"unix:{tmp_path}/serve.sock",
        jobs=overrides.pop("jobs", 1),
        cache_dir=str(tmp_path / "server-cache"),
        slab_size=overrides.pop("slab_size", 8),
        **overrides,
    )
    return ServerHandle(config)


# --------------------------------------------------------------------- #
# protocol unit tests                                                    #
# --------------------------------------------------------------------- #


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "ping", "seq": 7, "value": 0.1 + 0.2}
        assert protocol.decode_line(protocol.encode(message)) == message

    def test_floats_survive_the_wire_exactly(self):
        value = 1.9692405370414199
        decoded = protocol.decode_line(protocol.encode({"v": value}))
        assert decoded["v"] == value  # identical double, not just close

    def test_garbage_line_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"{not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b'"a bare string"\n')

    def test_unknown_op_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "explode", "seq": 1})

    def test_submit_validation(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_submit({"kind": "point", "params": {}})
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_submit(
                {"kind": "sweep", "params": {"designs": [], "kind": "homogeneous"}}
            )
        kind, params, priority = protocol.validate_submit(
            {
                "kind": "sweep",
                "params": {
                    "designs": [DESIGN],
                    "kind": "homogeneous",
                    "max_threads": 2,
                },
            }
        )
        assert (kind, priority) == ("sweep", "bulk")

    def test_point_defaults_to_interactive(self):
        _, _, priority = protocol.validate_submit(
            {"kind": "point", "params": {"design": DESIGN, "mix": ["mcf"]}}
        )
        assert priority == "interactive"

    def test_parse_address_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("./x.sock") == ("unix", "./x.sock")
        assert parse_address("localhost:7777") == ("tcp", ("localhost", 7777))
        assert parse_address(":7777") == ("tcp", ("127.0.0.1", 7777))
        assert parse_address("7777") == ("tcp", ("127.0.0.1", 7777))
        with pytest.raises(ValueError):
            parse_address("not an address")
        with pytest.raises(ValueError):
            parse_address("")


# --------------------------------------------------------------------- #
# scheduler unit tests                                                   #
# --------------------------------------------------------------------- #


def slab(slab_id, client="c", priority=10, job="job-1"):
    return Slab(id=slab_id, job_id=job, client=client, priority=priority)


class TestSlabScheduler:
    def test_priority_order(self):
        scheduler = SlabScheduler(quota=8)
        scheduler.submit(slab(1, priority=10))
        scheduler.submit(slab(2, priority=0))
        scheduler.submit(slab(3, priority=10))
        assert scheduler.next_slab().id == 2  # interactive first
        assert scheduler.next_slab().id == 1  # then bulk, FIFO
        assert scheduler.next_slab().id == 3

    def test_fair_share_alternates_clients(self):
        scheduler = SlabScheduler(quota=8)
        for i in range(1, 4):
            scheduler.submit(slab(i, client="a"))
        scheduler.submit(slab(4, client="b"))
        order = [scheduler.next_slab().id for _ in range(4)]
        # b lands second despite submitting last: a had already consumed
        # an admission slot, so at equal priority b's first slab wins.
        assert order == [1, 4, 2, 3]

    def test_quota_backlogs_instead_of_rejecting(self):
        scheduler = SlabScheduler(quota=2)
        assert scheduler.submit(slab(1)) is True
        assert scheduler.submit(slab(2)) is True
        assert scheduler.submit(slab(3)) is False  # over quota: backlogged
        assert scheduler.ready_count == 2
        assert scheduler.backlog_count == 1
        first = scheduler.next_slab()
        promoted = scheduler.complete(first)
        assert [s.id for s in promoted] == [3]
        assert scheduler.backlog_count == 0

    def test_discard_queued_releases_quota(self):
        scheduler = SlabScheduler(quota=1)
        scheduler.submit(slab(1))
        scheduler.submit(slab(2))  # backlogged
        dropped = scheduler.discard_queued(lambda s: True)
        assert sorted(s.id for s in dropped) == [1, 2]
        assert scheduler.ready_count == 0 and scheduler.backlog_count == 0
        # quota slot was released: a new slab is admitted immediately
        assert scheduler.submit(slab(3)) is True

    def test_discard_with_backlog_does_not_corrupt_ready_heap(self):
        """Regression: dropping an admitted slab used to _release (and
        possibly promote a backlog slab onto the heap) while iterating
        the heap — the sift-up could swap a dropped client's promoted
        slab into an already-visited index, double-releasing one slab
        and silently losing another.  The backlogged slab here is
        *interactive* so its promotion sifts to the heap root."""
        scheduler = SlabScheduler(quota=1)
        scheduler.submit(slab(1, client="a", priority=10))
        scheduler.submit(slab(2, client="a", priority=0))  # backlogged
        scheduler.submit(slab(3, client="b", priority=10))
        scheduler.submit(slab(4, client="c", priority=10))
        dropped = scheduler.discard_queued(lambda s: s.client == "a")
        # Exactly a's two slabs dropped — each once, none lost.
        assert sorted(s.id for s in dropped) == [1, 2]
        assert scheduler.backlog_count == 0
        survivors = []
        while (nxt := scheduler.next_slab()) is not None:
            survivors.append(nxt.id)
        assert sorted(survivors) == [3, 4]
        # a's quota slot was released exactly once: admitted again now.
        assert scheduler.submit(slab(5, client="a")) is True
        assert scheduler.queue_dict()["admitted"] == {"a": 1, "b": 1, "c": 1}

    def test_discard_promotes_surviving_backlog_slab(self):
        """Cancelling one job must still promote the same client's
        backlogged slabs that belong to other jobs."""
        scheduler = SlabScheduler(quota=1)
        scheduler.submit(slab(1, client="a", job="job-1"))
        scheduler.submit(slab(2, client="a", job="job-2"))  # backlogged
        dropped = scheduler.discard_queued(lambda s: s.job_id == "job-1")
        assert [s.id for s in dropped] == [1]
        assert scheduler.ready_count == 1 and scheduler.backlog_count == 0
        assert scheduler.next_slab().id == 2

    def test_rejects_nonpositive_quota(self):
        with pytest.raises(ValueError):
            SlabScheduler(quota=0)


# --------------------------------------------------------------------- #
# server behaviour                                                       #
# --------------------------------------------------------------------- #


class TestServeDaemon:
    def test_point_round_trip_and_stats(self, tmp_path):
        with make_handle(tmp_path) as handle:
            with ServeClient(handle.address) as client:
                assert client.ping()["version"] == protocol.PROTOCOL_VERSION
                payload = client.point(DESIGN, ["mcf", "mcf"])
                assert payload["design_name"] == DESIGN
                assert payload["stp"] > 0
                stats = client.stats()
                assert stats["counters"]["jobs_completed"] == 1
                assert stats["queue"]["quota"] == 4

    def test_concurrent_identical_submits_coalesce_to_one_evaluation(
        self, tmp_path
    ):
        """The tentpole acceptance check: two identical in-flight submits
        share one engine evaluation, observed via the obs counters."""
        METRICS.reset()
        METRICS.enable()
        try:
            with make_handle(tmp_path) as handle:
                handle.pause()
                with ServeClient(handle.address, client_name="a") as ca, \
                        ServeClient(handle.address, client_name="b") as cb:
                    params = {
                        "designs": [DESIGN],
                        "kind": "homogeneous",
                        "max_threads": 2,
                    }
                    job_a = ca.submit("sweep", params)
                    job_b = cb.submit("sweep", params)
                    n_points = ca.poll(job_a)["total_points"]
                    assert cb.poll(job_b)["coalesced_points"] == n_points
                    handle.resume()
                    result_a = ca.wait(job_a)["result"]
                    result_b = cb.wait(job_b)["result"]
                assert result_a == result_b
                server = handle.server
                assert server.counters["points_coalesced"] == n_points
                assert server.counters["points_requested"] == 2 * n_points
                # The engine saw every grid point exactly once.
                assert server.engine.stats.units_total == n_points
                assert server.engine.stats.units_computed == n_points
            assert (
                METRICS.snapshot()["counters"]["serve.points_coalesced"]
                == n_points
            )
        finally:
            reset_observability()

    def test_interactive_point_overtakes_queued_bulk_sweep(self, tmp_path):
        with make_handle(tmp_path, slab_size=4) as handle:
            handle.pause()
            with ServeClient(handle.address, client_name="bulk") as bulk, \
                    ServeClient(handle.address, client_name="fast") as fast:
                sweep_job = bulk.submit(
                    "sweep",
                    {
                        "designs": [DESIGN],
                        "kind": "homogeneous",
                        "max_threads": 2,
                    },
                )
                # A point outside the sweep grid, so it cannot coalesce.
                point_job = fast.submit(
                    "point",
                    {"design": OTHER_DESIGN, "mix": ["mcf"], "smt": False},
                )
                handle.resume()
                fast.wait(point_job)
                bulk.wait(sweep_job)
            # The point finished before the earlier-submitted bulk sweep:
            # its slab jumped the queue at slab granularity.
            order = handle.server.finished_order
            assert order.index(point_job) < order.index(sweep_job)

    def test_client_over_quota_is_queued_not_errored(self, tmp_path):
        with make_handle(tmp_path, slab_size=4, quota=1) as handle:
            handle.pause()
            with ServeClient(handle.address, client_name="greedy") as client:
                job = client.submit(
                    "sweep",
                    {
                        "designs": [DESIGN],
                        "kind": "homogeneous",
                        "max_threads": 2,
                    },
                )
                scheduler = handle.server._scheduler
                # More slabs than the quota admits: the rest are queued in
                # the client's backlog, and nothing was rejected.
                assert scheduler.ready_count == 1
                assert scheduler.backlog_count >= 1
                handle.resume()
                status = client.wait(job)
                assert status["state"] == "done"
                assert status["done_points"] == status["total_points"]

    def test_terminal_jobs_are_evicted_beyond_cap(self, tmp_path):
        """Regression: a long-lived daemon must not retain every finished
        job — _jobs/_done_events/finished_order are capped."""
        with make_handle(tmp_path, max_finished_jobs=2) as handle:
            with ServeClient(handle.address) as client:
                jobs = []
                for mix in (["mcf"], ["tonto"], ["mcf", "mcf"]):
                    job = client.submit("point", {"design": DESIGN, "mix": mix})
                    client.wait(job)
                    jobs.append(job)
                server = handle.server
                assert server.finished_order == jobs[1:]
                assert jobs[0] not in server._jobs
                assert jobs[0] not in server._done_events
                # The evicted job polls as a structured unknown-job error;
                # recent ones still answer.
                with pytest.raises(ServeError) as excinfo:
                    client.poll(jobs[0])
                assert excinfo.value.code == protocol.E_UNKNOWN_JOB
                assert client.poll(jobs[2])["state"] == "done"

    def test_running_figure_reports_zero_of_one_points(self, tmp_path):
        """Regression: a queued/running figure job used to report
        done_points == -1 (remaining=1 with no point keys)."""
        with make_handle(tmp_path) as handle:
            handle.pause()
            with ServeClient(handle.address) as client:
                job = client.submit("figure", {"id": "fig03"})
                status = client.poll(job)
                assert status["total_points"] == 1
                assert status["done_points"] == 0
                handle.resume()
                done = client.wait(job)
                assert done["done_points"] == done["total_points"] == 1

    def test_stream_emits_slab_progress_then_final(self, tmp_path):
        with make_handle(tmp_path, slab_size=4) as handle:
            with ServeClient(handle.address) as client:
                job = client.submit(
                    "sweep",
                    {
                        "designs": [DESIGN],
                        "kind": "homogeneous",
                        "max_threads": 1,
                    },
                )
                events = list(client.stream(job))
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "done"
        assert events[-1]["final"] is True
        assert "slab" in kinds or kinds[0] == "done"
        assert events[-1]["result"]["mean_stp"][DESIGN]["1"] > 0

    def test_cancel_queued_job(self, tmp_path):
        with make_handle(tmp_path) as handle:
            handle.pause()
            with ServeClient(handle.address) as client:
                job = client.submit(
                    "sweep",
                    {
                        "designs": [DESIGN],
                        "kind": "homogeneous",
                        "max_threads": 1,
                    },
                )
                assert client.cancel(job)["state"] == "cancelled"
                assert client.poll(job)["state"] == "cancelled"
                handle.resume()
                # The server stays healthy and can run new work.
                assert client.point(DESIGN, ["mcf"])["stp"] > 0

    def test_wait_timeout_is_an_error_response(self, tmp_path):
        with make_handle(tmp_path) as handle:
            handle.pause()
            with ServeClient(handle.address) as client:
                job = client.submit(
                    "point", {"design": DESIGN, "mix": ["mcf"]}
                )
                with pytest.raises(ServeError) as excinfo:
                    client.wait(job, timeout=0.05)
                assert excinfo.value.code == protocol.E_TIMEOUT
                handle.resume()
                assert client.wait(job)["state"] == "done"

    def test_unknown_job_and_design_are_structured_errors(self, tmp_path):
        with make_handle(tmp_path) as handle:
            with ServeClient(handle.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.poll("job-999999")
                assert excinfo.value.code == protocol.E_UNKNOWN_JOB
                with pytest.raises(ServeError) as excinfo:
                    client.submit(
                        "point", {"design": "no-such-design", "mix": ["mcf"]}
                    )
                assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_drain_finishes_accepted_jobs_and_refuses_new_ones(self, tmp_path):
        handle = make_handle(tmp_path)
        handle.start()
        try:
            with ServeClient(handle.address) as client:
                # A queued job keeps the drain open deterministically.
                handle.pause()
                accepted = client.submit(
                    "point", {"design": DESIGN, "mix": ["mcf"]}
                )
                assert client.shutdown()["draining"] is True
                with pytest.raises(ServeError) as excinfo:
                    client.submit(
                        "point", {"design": DESIGN, "mix": ["tonto"]}
                    )
                assert excinfo.value.code == protocol.E_DRAINING
                # The accepted job still completes before the exit.
                handle.resume()
                assert client.wait(accepted)["state"] == "done"
        finally:
            handle.stop()
        assert not handle._thread.is_alive()

    def test_injected_worker_crash_survives_through_server(self, tmp_path):
        """A killed pool worker inside the daemon heals like in the CLI."""
        from repro.engine import faults

        faults.reset()
        faults.install("kill:benchmark=mcf")
        try:
            # slab_size 4 with jobs 2 → two slab-units per dispatch, so
            # the batch always reaches the worker pool (a single-unit
            # batch would run serially in-parent, where kill faults are
            # suppressed by design).
            with make_handle(tmp_path, jobs=2, slab_size=4) as handle:
                with ServeClient(handle.address) as client:
                    result = client.sweep([DESIGN], "homogeneous", 1)
                assert result["mean_stp"][DESIGN]["1"] > 0
                # The mcf-bearing units killed at least one worker; the
                # engine respawned it individually (no whole-pool
                # teardown) and recovered every point.
                assert handle.server.engine.stats.worker_respawns >= 1
                assert handle.server.engine.stats.units_failed == 0
        finally:
            faults.reset()

    def test_warm_pool_is_reused_across_jobs(self, tmp_path):
        """Two back-to-back jobs run on the same worker pids: the pool is
        an engine property, not a per-call accident."""
        with make_handle(tmp_path, jobs=2, slab_size=4) as handle:
            with ServeClient(handle.address) as client:
                client.sweep([DESIGN], "homogeneous", 2)
                first_pids = set(handle.server.engine.executor.pool_pids())
                client.sweep([OTHER_DESIGN], "homogeneous", 2)
                second_pids = set(handle.server.engine.executor.pool_pids())
            assert len(first_pids) == 2
            assert second_pids == first_pids
            assert handle.server.engine.stats.pool_starts == 1
            assert handle.server.engine.stats.pool_reuses >= 1

    def test_respawn_preserves_sibling_workers_and_results(self, tmp_path):
        """A single killed worker is replaced without tearing down its
        siblings, and the daemon's answer matches a fault-free run."""
        from repro.engine import faults

        faults.reset()
        try:
            with make_handle(tmp_path, jobs=2, slab_size=4) as handle:
                with ServeClient(handle.address) as client:
                    clean = client.sweep([DESIGN], "homogeneous", 1)
                    before = set(handle.server.engine.executor.pool_pids())
                    faults.install("kill:benchmark=mcf:times=1")
                    faulted = client.sweep([OTHER_DESIGN], "homogeneous", 1)
                    after = set(handle.server.engine.executor.pool_pids())
                stats = handle.server.engine.stats
                assert stats.worker_respawns == 1
                assert stats.units_failed == 0
                assert faulted["mean_stp"][OTHER_DESIGN]["1"] > 0
                assert clean["mean_stp"][DESIGN]["1"] > 0
                # Exactly one pid changed: the victim; the sibling kept
                # its seat (and its warm caches).
                assert len(after) == 2
                assert len(before & after) == 1
        finally:
            faults.reset()


# --------------------------------------------------------------------- #
# byte-identity against local execution                                  #
# --------------------------------------------------------------------- #

SWEEP_ARGS = [
    "sweep",
    "--design",
    f"{DESIGN},{OTHER_DESIGN}",
    "--kind",
    "homogeneous",
    "--max-threads",
    "2",
]


class TestServerByteIdentity:
    @pytest.fixture()
    def handle(self, tmp_path):
        with make_handle(tmp_path, slab_size=32) as handle:
            yield handle

    def _local(self, capsys, tmp_path, extra=()):
        rc = cli_main(
            SWEEP_ARGS
            + ["--cache-dir", str(tmp_path / "local-cache")]
            + list(extra)
        )
        assert rc == 0
        return capsys.readouterr().out

    def _remote(self, capsys, handle, extra=()):
        rc = cli_main(SWEEP_ARGS + ["--server", handle.address] + list(extra))
        assert rc == 0
        return capsys.readouterr().out

    def test_formatted_output_is_byte_identical(self, capsys, tmp_path, handle):
        local = self._local(capsys, tmp_path)
        remote = self._remote(capsys, handle)
        assert remote == local

    def test_json_output_is_byte_identical(self, capsys, tmp_path, handle):
        local = self._local(capsys, tmp_path, extra=["--json"])
        remote = self._remote(capsys, handle, extra=["--json"])
        assert remote == local

    def test_store_contents_are_identical(self, capsys, tmp_path, handle):
        self._local(capsys, tmp_path)
        self._remote(capsys, handle)
        local_store = ResultStore(tmp_path / "local-cache")
        server_store = handle.server.engine.store
        local_keys = {p.stem for p in local_store.backend.record_paths()}
        server_keys = {p.stem for p in server_store.backend.record_paths()}
        assert local_keys == server_keys and local_keys
        for key in sorted(local_keys):
            assert server_store.get(key) == local_store.get(key)

    def test_progress_stream_path_matches_plain_output(
        self, capsys, tmp_path, handle
    ):
        """``--progress`` rides the stream op (not wait); the final event
        carries done_points, not done — it must not disturb the result
        or the progress state (regression)."""
        local = self._local(capsys, tmp_path)
        remote = self._remote(capsys, handle, extra=["--progress"])
        assert remote == local

    def test_figure_output_is_byte_identical(self, capsys, handle):
        assert cli_main(["figure", "fig03"]) == 0
        local = capsys.readouterr().out
        assert cli_main(["figure", "fig03", "--server", handle.address]) == 0
        remote = capsys.readouterr().out
        assert remote == local

    def test_server_error_paths_exit_2(self, capsys, tmp_path):
        # no daemon listening
        rc = cli_main(
            SWEEP_ARGS + ["--server", f"unix:{tmp_path}/nowhere.sock"]
        )
        assert rc == 2
        assert capsys.readouterr().out == ""


# --------------------------------------------------------------------- #
# explore jobs                                                           #
# --------------------------------------------------------------------- #

EXPLORE_PARAMS = {
    "scenario": "flash-crowd",
    "designs": [DESIGN, OTHER_DESIGN],
    "max_threads": 4,
}

EXPLORE_ARGS = [
    "explore",
    "--scenario",
    "flash-crowd",
    "--design",
    f"{DESIGN},{OTHER_DESIGN}",
    "--max-threads",
    "4",
]


class TestExploreJobs:
    def test_submit_validation(self):
        kind, params, priority = protocol.validate_submit(
            {"kind": "explore", "params": dict(EXPLORE_PARAMS)}
        )
        assert (kind, priority) == ("explore", "bulk")
        with pytest.raises(protocol.ProtocolError, match="scenario"):
            protocol.validate_submit({"kind": "explore", "params": {}})
        with pytest.raises(protocol.ProtocolError, match="designs"):
            protocol.validate_submit(
                {
                    "kind": "explore",
                    "params": {"scenario": "steady", "designs": []},
                }
            )

    def test_explore_round_trip(self, tmp_path):
        with make_handle(tmp_path) as handle:
            with ServeClient(handle.address) as client:
                out = client.explore(dict(EXPLORE_PARAMS))
        assert out["scenario"] == "flash-crowd"
        assert out["winner"] in (DESIGN, OTHER_DESIGN)
        assert out["evaluations"] <= out["full_grid_points"]

    def test_explore_counts_as_one_opaque_point(self, tmp_path):
        with make_handle(tmp_path) as handle:
            with ServeClient(handle.address) as client:
                job = client.submit("explore", dict(EXPLORE_PARAMS))
                status = client.wait(job)
        assert status["total_points"] == 1
        assert status["done_points"] == 1

    def test_bad_explore_params_fail_job(self, tmp_path):
        with make_handle(tmp_path) as handle:
            with ServeClient(handle.address) as client:
                with pytest.raises(ServeError, match="scenario"):
                    client.explore({"scenario": "not-a-scenario"})

    def test_repeat_explore_on_warm_server_is_identical(self, tmp_path):
        """The daemon's long-lived study memoizes points across jobs; the
        second run must still report the same evaluation counts (the
        ledger counts what the search requested, not what was fresh)."""
        with make_handle(tmp_path) as handle:
            with ServeClient(handle.address) as client:
                first = client.explore(dict(EXPLORE_PARAMS))
                second = client.explore(dict(EXPLORE_PARAMS))
        assert first == second

    def test_explore_cli_output_is_byte_identical(
        self, capsys, tmp_path
    ):
        with make_handle(tmp_path) as handle:
            for extra in ([], ["--json"]):
                rc = cli_main(
                    EXPLORE_ARGS
                    + ["--cache-dir", str(tmp_path / "local-cache")]
                    + extra
                )
                assert rc == 0
                local = capsys.readouterr().out
                rc = cli_main(
                    EXPLORE_ARGS + ["--server", handle.address] + extra
                )
                assert rc == 0
                remote = capsys.readouterr().out
                assert remote == local

    def test_unknown_scenario_exits_2_before_submission(self, capsys, tmp_path):
        rc = cli_main(
            [
                "explore",
                "--scenario",
                "not-a-scenario",
                "--server",
                f"unix:{tmp_path}/nowhere.sock",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().out == ""
