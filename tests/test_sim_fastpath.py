"""Fast-path correctness: the event-driven cycle tier reproduces committed
golden fingerprints, and the fetch/issue micro-optimizations preserve the
modelled semantics."""

import gc
import hashlib
import weakref
from dataclasses import replace

import pytest

from repro.core.designs import ChipDesign, get_design
from repro.core.scheduler import Scheduler
from repro.memory.hierarchy import MemoryHierarchy
from repro.microarch.config import BIG, MEDIUM, SMALL, CacheConfig
from repro.microarch.uncore import DEFAULT_UNCORE, InterconnectConfig
from repro.sim.core import PipelineCore, _spill_forward
from repro.sim.kernel import FU_CLASSES
from repro.sim.multicore import MulticoreSimulator, ThreadSim
from repro.workloads.spec import get_profile
from repro.workloads.tracegen import TraceGenerator


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _fingerprint(result):
    """Every reported statistic of a run, for exact comparison."""
    return {
        "total_cycles": result.total_cycles,
        "dram_mean_latency_ns": result.dram_mean_latency_ns,
        "dram_requests": result.dram_requests,
        "threads": [
            (
                core_index,
                stats.instructions,
                stats.cycles,
                stats.branch_mispredicts,
                dict(stats.level_hits),
            )
            for core_index, stats in result.thread_stats
        ],
    }


GOLDEN_CONFIGS = [
    # (id, design, thread specs [(profile, core_index)], fetch_policy)
    ("ooo-single", ChipDesign(name="g-1B", cores=(BIG,)), [("tonto", 0)], "roundrobin"),
    (
        "ooo-smt3-rr",
        ChipDesign(name="g-1B", cores=(BIG,)),
        [("mcf", 0), ("libquantum", 0), ("hmmer", 0)],
        "roundrobin",
    ),
    (
        "ooo-smt3-icount",
        ChipDesign(name="g-1B", cores=(BIG,)),
        [("mcf", 0), ("libquantum", 0), ("hmmer", 0)],
        "icount",
    ),
    (
        "inorder-smt2-rr",
        ChipDesign(name="g-1s", cores=(SMALL,)),
        [("mcf", 0), ("tonto", 0)],
        "roundrobin",
    ),
    (
        "inorder-smt2-icount",
        ChipDesign(name="g-1s", cores=(SMALL,)),
        [("milc", 0), ("gobmk", 0)],
        "icount",
    ),
    (
        "multicore-mixed",
        ChipDesign(name="g-2m", cores=(MEDIUM, MEDIUM)),
        [("mcf", 0), ("lbm", 1)],
        "roundrobin",
    ),
    (
        "bus-interconnect",
        ChipDesign(
            name="g-2m-bus",
            cores=(MEDIUM, MEDIUM),
            uncore=replace(
                DEFAULT_UNCORE, interconnect=InterconnectConfig(kind="bus")
            ),
        ),
        [("mcf", 0), ("milc", 1)],
        "roundrobin",
    ),
]


#: sha256 of ``repr`` of each golden run's fingerprint, recorded under all
#: four combinations of a per-cycle lockstep loop (every unfinished core
#: stepped every cycle) or the event-driven one, and an
#: object-per-instruction scalar stepper or the batched one; all four
#: agreed on every entry.  Those reference implementations are gone; these
#: digests stand in for them.
GOLDEN_DIGESTS = {
    "ooo-single": "a2d2602329ecbce088c4bb0e2ba72fe44632531871f22e1a6770b759ced16c3b",
    "ooo-smt3-rr": "eca1c6f0f4f4f8be35c65dae6e8f0e0d1c3010da7fa7c12791ac6aacffe4983b",
    "ooo-smt3-icount": "9315eead3eaf63b3219a56500e9e1d7fdd83063dceb8ce09c4403ad233d8cb8a",
    "inorder-smt2-rr": "9c51421bbeb8f6b154d14467db2b7b3cb614392d2c6226cdcb727a2cb9a3756e",
    "inorder-smt2-icount": "e0f434675ce670cde5ea90868629a1b9f84e235ca1e96fc1a564898d6796e6a0",
    "multicore-mixed": "c62de4219eeb973d9fb5a0c17ae828043373291b31b96a1bae81fa85216ffe22",
    "bus-interconnect": "ca1bcb0a5e6a8de46fc8135477c1d55ce9560a45e4c5024fb226b33854423215",
    "shared-llc-8m": "0246c4aca9641d2f162765760394a6639a562a809328cffac99cce0fa5cd5070",
    "prefetch-stride-2B4m": "f5344e2fdbc9fe0c6beebdf924eaee0f1d3f84070261ea3b93abf44c45d9c840",
    "pipeline-run": "22ecb3a5bbabec3ab9f1fc9e2ad4945fa7578eabe1b31e9fd52fd756bd6743f8",
    "live-4B-smt": "0911862c4984ec9e7b00c1c3759657af531f34a7ed2ae6154952cfe835be5798",
}

#: The 4B chip's canonical SMT mix (two threads per core after placement).
SMT_MIX = (
    "mcf", "tonto", "hmmer", "libquantum", "omnetpp", "calculix", "astar", "gobmk",
)


def _execute(sim, specs, instructions):
    threads = [ThreadSim(get_profile(name), core_index=idx) for name, idx in specs]
    hierarchy, cores = sim.prepare(threads, instructions_per_thread=instructions)
    return sim.execute(hierarchy, cores)


def _smt_chip_threads(design):
    placement = Scheduler(design, smt=True).place(
        [get_profile(name) for name in SMT_MIX]
    )
    return [
        ThreadSim(spec.profile, core_index=core_index, seed=11 + slot)
        for core_index, specs in enumerate(placement.core_threads)
        for slot, spec in enumerate(specs)
    ]


class TestIdleSkipGolden:
    """Event-driven runs must reproduce the per-cycle reference bit for bit
    (through the digests it recorded, :data:`GOLDEN_DIGESTS`)."""

    @pytest.mark.parametrize(
        "golden_id,design,specs,policy",
        GOLDEN_CONFIGS,
        ids=[c[0] for c in GOLDEN_CONFIGS],
    )
    def test_fast_forward_matches_naive(self, golden_id, design, specs, policy):
        sim = MulticoreSimulator(design, fetch_policy=policy)
        result = _execute(sim, specs, 2500)
        assert _digest(_fingerprint(result)) == GOLDEN_DIGESTS[golden_id]

    def test_shared_llc_design_matches_naive(self):
        """Contention through the shared LLC/DRAM with 8 cores stays exact."""
        mix = ("mcf", "libquantum", "milc", "lbm")
        result = _execute(
            MulticoreSimulator(get_design("8m")),
            [(name, i) for i, name in enumerate(mix)],
            1500,
        )
        assert _digest(_fingerprint(result)) == GOLDEN_DIGESTS["shared-llc-8m"]

    def test_prefetcher_design_matches_naive(self):
        """The inlined L1D probe must defer to the full data path when a
        prefetcher needs to observe every access."""
        sim = MulticoreSimulator(get_design("2B4m"), prefetcher="stride")
        result = _execute(sim, [("mcf", 0), ("milc", 2)], 2000)
        assert (
            _digest(_fingerprint(result)) == GOLDEN_DIGESTS["prefetch-stride-2B4m"]
        )

    def test_pipeline_run_fast_forward_matches_naive(self):
        """The single-core run loop honours the same equivalence."""
        hierarchy = MemoryHierarchy((SMALL,), DEFAULT_UNCORE)
        gen = TraceGenerator(get_profile("mcf"), seed=11)
        hierarchy.warm(0, gen.warm_addresses())
        core = PipelineCore(SMALL, 0, hierarchy, [gen.generate(3000)])
        core.run()
        th = core.threads[0]
        stats = (
            core.cycle,
            th.stats.instructions,
            th.stats.cycles,
            th.stats.branch_mispredicts,
            dict(th.stats.level_hits),
        )
        assert _digest(stats) == GOLDEN_DIGESTS["pipeline-run"]

    def test_live_sampling_matches_reference(self):
        """Sampled windows run through the same lockstep driver, stopped at
        each window's bell; the 4B SMT chip covers cores of two threads."""
        design = get_design("4B")
        result = MulticoreSimulator(design).run(
            _smt_chip_threads(design), 4000, sampling="live"
        )
        assert _digest(_fingerprint(result)) == GOLDEN_DIGESTS["live-4B-smt"]

    def test_max_cycles_still_enforced_when_skipping(self):
        hierarchy = MemoryHierarchy((BIG,), DEFAULT_UNCORE)
        gen = TraceGenerator(get_profile("mcf"), seed=3)
        core = PipelineCore(BIG, 0, hierarchy, [gen.generate(5000)])
        with pytest.raises(RuntimeError, match="cycles"):
            core.run(max_cycles=10)

    @pytest.mark.parametrize("sampling", [None, "live"])
    def test_max_cycles_enforced_on_a_multicore_chip(self, sampling):
        sim = MulticoreSimulator(get_design("2B4m"))
        threads = [
            ThreadSim(get_profile("mcf"), core_index=0),
            ThreadSim(get_profile("lbm"), core_index=0),
            ThreadSim(get_profile("milc"), core_index=2),
        ]
        with pytest.raises(RuntimeError, match="200 cycles"):
            sim.run(threads, 2000, max_cycles=200, sampling=sampling)


#: sha256 of ``repr`` of :func:`_end_state` after each golden run, recorded
#: under the object-per-instruction scalar stepper and the batched one, each
#: with the per-cycle and the event-driven lockstep loop; all four agreed on
#: every entry.  The scalar stepper is gone; these digests stand in for it.
SCALAR_END_STATE_DIGESTS = {
    "ooo-single": "15ee19c81bcc901e7d3e2ae217bf934b4aca77329bf23f3a2b646b58e656543a",
    "ooo-smt3-rr": "a4468003b079e8dba38d0a632b9617e153d2053c60b7edff658afaa8275bff09",
    "ooo-smt3-icount": "9ed99f4e2483615db7c63743d6e2ab99ac0d7c7faa17c3b7a40f1c1ff0aeaccc",
    "inorder-smt2-rr": "461e46e889e09e05ba47eae97a9b2f3105d241a6f2e2c50f94f36883c3ef3d83",
    "inorder-smt2-icount": "c3a8b85a3424f53f32989c854e006208e2b16c71bbfce18ff7af3feadc84fd55",
    "multicore-mixed": "f13b2446e7e4855385cd1b28edf955ae7061669618a069f61697386999b59a87",
    "bus-interconnect": "2561336937ef4ede193e32c6df146acf4466eed3d2bc7515f2581ca53bdbc9f2",
}


def _end_state(hierarchy, cores):
    """The machine state a run leaves behind, beyond its reported
    statistics: every cache's LRU-ordered contents and counters, DRAM bank
    and bus timing, the shared-bus clock, the demand counters, and per core
    its clock and each thread's cursor, dependence ring, ROB, fetch
    registers and branch-predictor table."""
    caches = [hierarchy.llc] + [
        cache for cc in hierarchy.core_caches for cache in (cc.l1i, cc.l1d, cc.l2)
    ]
    dram = hierarchy.dram
    return (
        [(c.name, [list(s.items()) for s in c._sets], vars(c.stats)) for c in caches],
        (dram._bank_free_ns, dram._bus_free_ns, vars(dram.stats)),
        hierarchy._llc_bus_free_ns,
        dict(hierarchy.demand_counts),
        [
            (
                core.cycle,
                [
                    (
                        t.cursor,
                        t.done_cycle,
                        t._comp_count,
                        t._comp_ring,
                        list(t.rob),
                        t.fetch_stalled_until,
                        t.last_fetch_line,
                        t.predictor._table,
                        getattr(t.predictor, "_history", None),
                        t.predictor.predictions,
                        t.predictor.mispredictions,
                    )
                    for t in core.threads
                ],
            )
            for core in cores
        ],
    )


class TestKernelEquivalence:
    """The batched kernel must leave the machine in exactly the state the
    scalar stepper left it in (through the digests it recorded,
    :data:`SCALAR_END_STATE_DIGESTS`): same cache contents in the same LRU
    order, same predictor tables, same clocks."""

    @pytest.mark.parametrize(
        "golden_id,design,specs,policy",
        GOLDEN_CONFIGS,
        ids=[c[0] for c in GOLDEN_CONFIGS],
    )
    def test_numpy_matches_scalar(self, golden_id, design, specs, policy):
        sim = MulticoreSimulator(design, fetch_policy=policy)
        threads = [ThreadSim(get_profile(name), core_index=idx) for name, idx in specs]
        hierarchy, cores = sim.prepare(threads, instructions_per_thread=2500)
        sim.execute(hierarchy, cores)
        assert (
            _digest(_end_state(hierarchy, cores))
            == SCALAR_END_STATE_DIGESTS[golden_id]
        )


class TestNoReferenceCycles:
    """A finished simulation must be freed by reference counting alone."""

    def test_cores_and_hierarchy_die_without_the_cyclic_gc(self):
        sim = MulticoreSimulator(get_design("2B4m"))
        threads = [
            ThreadSim(get_profile("mcf"), core_index=0),
            ThreadSim(get_profile("tonto"), core_index=0),
            ThreadSim(get_profile("milc"), core_index=2),
        ]
        gc.disable()
        try:
            hierarchy, cores = sim.prepare(threads, instructions_per_thread=500)
            sim.execute(hierarchy, cores)
            refs = [weakref.ref(core) for core in cores]
            refs += [weakref.ref(t) for core in cores for t in core.threads]
            refs.append(weakref.ref(hierarchy))
            del hierarchy, cores
            assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()


class TestFetchLineGranularity:
    """Regression: i-fetch dedup must use the core's own L1I line size."""

    def _count_ifetches(self, l1i_line, llc_line):
        core = replace(
            BIG,
            l1i=CacheConfig(
                size_bytes=32 * 1024,
                associativity=4,
                latency_cycles=2,
                line_bytes=l1i_line,
            ),
        )
        uncore = replace(
            DEFAULT_UNCORE,
            llc=replace(DEFAULT_UNCORE.llc, line_bytes=llc_line),
        )
        hierarchy = MemoryHierarchy((core,), uncore)
        gen = TraceGenerator(get_profile("gamess"), seed=5)
        hierarchy.warm(0, gen.warm_addresses())
        pipeline = PipelineCore(core, 0, hierarchy, [gen.generate(2000)])
        pipeline.run()
        counts = hierarchy.demand_counts
        return sum(counts[k] for k in ("inst.l1", "inst.l2", "inst.llc", "inst.dram"))

    def test_smaller_l1i_lines_fetch_more_often_than_llc_lines(self):
        # With 32-byte L1I lines and 128-byte LLC lines, dedup at LLC
        # granularity (the old bug) would roughly quarter the fetch count;
        # dedup at L1I granularity must *increase* it vs 128-byte L1I lines.
        small_lines = self._count_ifetches(l1i_line=32, llc_line=128)
        large_lines = self._count_ifetches(l1i_line=128, llc_line=128)
        assert small_lines > large_lines * 2


class TestFunctionalUnitSkipList:
    """The next-free-cycle skip list must behave like a linear probe."""

    def _tables(self, fu_class):
        hierarchy = MemoryHierarchy((BIG,), DEFAULT_UNCORE)
        gen = TraceGenerator(get_profile("tonto"), seed=9)
        core = PipelineCore(BIG, 0, hierarchy, [gen.generate(10)])
        code = FU_CLASSES.index(fu_class)
        return core, core._fu_busy[code], core._fu_next[code], core._fu_units[code]

    def test_saturated_cycles_spill_forward(self):
        _core, busy, nxt, units = self._tables("ldst")
        busy[100] = units
        got = [_spill_forward(busy, nxt, units, 100) for _ in range(2 * units)]
        assert got == [101] * units + [102] * units
        assert busy == {100: units, 101: units, 102: units}

    def test_hole_filling_before_reserved_cycles(self):
        _core, busy, nxt, units = self._tables("int")
        for c in (100, 101, 103):
            busy[c] = units
        # The free cycle between reservations is used before any cycle
        # past the later reservation.
        got = [_spill_forward(busy, nxt, units, 100) for _ in range(units)]
        assert got == [102] * units
        # Once the hole is full the walk hops the later reservation too,
        # and compresses the path it took.
        assert _spill_forward(busy, nxt, units, 100) == 104
        assert nxt[100] == nxt[102] == nxt[103] == 104

    def test_prune_preserves_future_reservations(self):
        core, busy, nxt, units = self._tables("muldiv")
        busy[5000] = units  # future reservation
        core.cycle = 4000
        for c in range(3000):  # stale past-cycle entries
            busy[c] = units
            nxt[c] = c + 1
        core._prune_fu_state()
        assert all(c >= 4000 for c in busy)
        assert not nxt
        assert busy[5000] == units
        # The surviving reservation still forces a spill to the next cycle.
        assert _spill_forward(busy, nxt, units, 5000) == 5001
