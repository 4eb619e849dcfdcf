"""Multi-core cycle-level simulator.

Composes :class:`~repro.sim.core.PipelineCore` instances with one shared
:class:`~repro.memory.hierarchy.MemoryHierarchy` and steps all cores in
lockstep cycles, so LLC capacity, DRAM banks and the off-chip bus are
contended with real state and real timing.

This is the detailed tier: use it for validation, microbenchmarks and unit
tests.  The design-space study (Figures 3-17) runs on the interval tier,
exactly as the paper ran Sniper rather than a cycle-accurate RTL model.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.designs import ChipDesign
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.core import _NEVER, PipelineCore
from repro.sim.results import CoreSimStats
from repro.util import check_positive
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.tracegen import TraceGenerator, TraceInstruction


@dataclass(frozen=True)
class ThreadSim:
    """One software thread to simulate: a profile pinned to a core."""

    profile: BenchmarkProfile
    core_index: int
    seed: int = 7


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a cycle-level multi-core run."""

    design_name: str
    #: Per (core_index, thread slot) statistics, flattened in core order.
    thread_stats: Tuple[Tuple[int, CoreSimStats], ...]
    total_cycles: int
    dram_mean_latency_ns: float
    dram_requests: int

    def ipc_of(self, flat_index: int) -> float:
        return self.thread_stats[flat_index][1].ipc

    @property
    def total_ipc(self) -> float:
        return sum(stats.ipc for _idx, stats in self.thread_stats)


class MulticoreSimulator:
    """Trace-driven cycle-level simulation of a full chip design.

    ``fetch_policy`` ("roundrobin"/"icount") selects SMT dispatch priority;
    ``prefetcher`` (None/"nextline"/"stride") installs per-core data
    prefetchers.  Defaults match the paper's configuration.

    ``kernel`` picks the stepping implementation ("numpy"/"scalar", both
    bit-identical; default resolves ``$REPRO_SIM_KERNEL``) — see
    :mod:`repro.sim.kernel`.
    """

    def __init__(
        self,
        design: ChipDesign,
        fetch_policy: str = "roundrobin",
        prefetcher: Optional[str] = None,
        kernel: Optional[str] = None,
    ):
        self.design = design
        self.fetch_policy = fetch_policy
        self.prefetcher = prefetcher
        self.kernel = kernel

    def prepare(
        self,
        threads: Sequence[ThreadSim],
        instructions_per_thread: int = 20_000,
        warmup_instructions: Optional[int] = None,
    ) -> Tuple[MemoryHierarchy, List[PipelineCore]]:
        """Build the hierarchy and cores for a run (traces generated, caches
        warmed) without executing a single cycle.

        Split out of :meth:`run` so callers that time the simulation loop
        (``python -m repro bench``) or drive it in phases (sampled
        simulation) can reuse the exact same setup.
        """
        check_positive("instructions_per_thread", instructions_per_thread)
        if warmup_instructions is None:
            warmup_instructions = instructions_per_thread // 2
        if not threads:
            raise ValueError("need at least one thread")
        by_core: Dict[int, List[ThreadSim]] = {}
        for t in threads:
            if not 0 <= t.core_index < self.design.num_cores:
                raise ValueError(
                    f"core_index {t.core_index} out of range for design "
                    f"{self.design.name} ({self.design.num_cores} cores)"
                )
            by_core.setdefault(t.core_index, []).append(t)

        hierarchy = MemoryHierarchy(
            self.design.cores, self.design.uncore, prefetcher=self.prefetcher
        )
        cores: List[PipelineCore] = []
        flat_index = 0
        for core_index, specs in sorted(by_core.items()):
            traces = []
            for i, s in enumerate(specs):
                # Distinct address spaces per thread, like separate
                # processes (so co-runners contend rather than share data).
                gen = TraceGenerator(
                    s.profile,
                    seed=s.seed + 101 * i,
                    address_offset=flat_index << 40,
                )
                flat_index += 1
                hierarchy.warm(core_index, gen.warm_addresses())
                traces.append(
                    gen.generate(warmup_instructions + instructions_per_thread)
                )
            cores.append(
                PipelineCore(
                    self.design.cores[core_index],
                    core_index,
                    hierarchy,
                    traces,
                    warmup_instructions=warmup_instructions,
                    fetch_policy=self.fetch_policy,
                    kernel=self.kernel,
                )
            )
        return hierarchy, cores

    def execute(
        self,
        hierarchy: MemoryHierarchy,
        cores: List[PipelineCore],
        max_cycles: int = 50_000_000,
        fast_forward: bool = True,
    ) -> SimulationResult:
        """Step prepared ``cores`` in lockstep until every trace drains.

        ``fast_forward`` enables exact idle-cycle skipping: the clock jumps
        straight to the earliest cycle at which *any* core can commit,
        dispatch or finish, and only cores with an event due are stepped
        (in list order, exactly as the naive loop would reach them).  A
        core with no event due would execute a no-op step — commit finds
        nothing retirable, dispatch nothing eligible, and no shared
        (hierarchy/DRAM/bus) state is touched — so skipping it is
        bit-identical to the naive lockstep loop; a golden test asserts
        equality of every reported statistic between both modes.
        """
        if fast_forward:
            self._execute_fast(cores, max_cycles)
        else:
            self._execute_naive(cores, max_cycles)
        hierarchy.publish_metrics()

        flat: List[Tuple[int, CoreSimStats]] = []
        for core in cores:
            for thread in core.threads:
                flat.append((core.core_index, thread.stats))
        return SimulationResult(
            design_name=self.design.name,
            thread_stats=tuple(flat),
            # The naive loop's cycle counter equals the last-finishing
            # core's clock, which both modes leave at the same value.
            total_cycles=max(c.cycle for c in cores),
            dram_mean_latency_ns=hierarchy.dram.stats.mean_latency_ns,
            dram_requests=hierarchy.dram.stats.requests,
        )

    @staticmethod
    def _execute_naive(cores: List[PipelineCore], max_cycles: int) -> None:
        """Reference lockstep loop: every unfinished core steps every cycle."""
        cycle = 0
        while any(not c.finished for c in cores):
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles without draining"
                )
            for core in cores:
                if not core.finished:
                    core.step()
            cycle += 1

    @staticmethod
    def _execute_fast(cores: List[PipelineCore], max_cycles: int) -> None:
        """Event-driven lockstep: jump the clock between per-core events.

        Each core's next event depends only on its own state (ROB heads,
        fetch-stall deadlines, producer readiness), and that state only
        changes when the core itself steps — so events stay valid while a
        core waits, and stepping due cores in list order reproduces the
        naive interleaving of shared-hierarchy accesses exactly.

        Two span batchings on top of the event skip (both still exact):
        when a *single* core is due before every other core's event, it
        runs all its cycles up to that event in one
        :meth:`~repro.sim.core.PipelineCore.run_until` call (no other core
        would act in between); and a drained core is recognised by its
        event reaching the drain sentinel, so the loop never scans thread
        states to detect completion.
        """
        active = list(cores)
        events = [c.next_event_cycle() for c in active]
        while active:
            if len(active) == 1:
                # Solo core: run it to drain (or the cycle cap) directly.
                core = active[0]
                if events[0] >= max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles without draining"
                    )
                core.cycle = events[0]
                if core.run_until(max_cycles) != _NEVER:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles without draining"
                    )
                return
            # Earliest event, second-earliest, and whether the earliest is
            # unique (one scan; core counts are small).
            target = _NEVER
            second = _NEVER
            for ev in events:
                if ev < target:
                    second = target
                    target = ev
                elif ev < second:
                    second = ev
            if target >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles without draining"
                )
            if second > target:
                # Exactly one core due: batch its whole span up to the next
                # other-core event into one call.
                i = events.index(target)
                core = active[i]
                core.cycle = target
                ev = core.run_until(second if second < max_cycles else max_cycles)
                if ev == _NEVER:
                    del active[i]
                    del events[i]
                else:
                    events[i] = ev
                continue
            # Several cores due at `target`: step them in list order.
            i = 0
            while i < len(active):
                if events[i] <= target:
                    core = active[i]
                    core.cycle = target
                    core.step()
                    ev = core.next_event_cycle()
                    if ev == _NEVER:
                        del active[i]
                        del events[i]
                        continue
                    events[i] = ev
                i += 1

    def run(
        self,
        threads: Sequence[ThreadSim],
        instructions_per_thread: int = 20_000,
        warmup_instructions: Optional[int] = None,
        max_cycles: int = 50_000_000,
        sampling=None,
    ) -> SimulationResult:
        """Simulate ``threads`` for a fixed instruction budget each.

        Each thread's trace is generated deterministically from its profile
        and seed, prefixed with ``warmup_instructions`` (default: half the
        measured budget) whose cold misses are excluded from the reported
        statistics — the trace-driven analogue of the paper's SimPoint
        fast-forwarding.  Cores advance in lockstep; a core whose threads
        finish early simply idles (its caches stay warm, matching the
        paper's methodology of restarting finished programs only for
        throughput runs — rate metrics use per-thread IPC, so idling is
        equivalent and cheaper).

        ``sampling="live"`` (or a
        :class:`~repro.sim.sampling.LiveSamplingConfig`) switches to
        adaptive live sampling (see :mod:`repro.sim.sampling`): an online
        phase detector and error controller size the detailed windows and
        the functionally-warmed fast-forward spans, whose cycles are
        reconstructed by an event-priced model.  Reported CPI/IPC become
        estimates.
        """
        live_config = None
        if sampling is not None:
            from repro.sim.sampling import LiveSamplingConfig

            if isinstance(sampling, LiveSamplingConfig):
                live_config = sampling
            elif sampling == "live":
                live_config = LiveSamplingConfig()
            else:
                raise ValueError(
                    f'sampling must be None, "live" or a LiveSamplingConfig, '
                    f"got {sampling!r}"
                )
        hierarchy, cores = self.prepare(
            threads, instructions_per_thread, warmup_instructions
        )
        if live_config is None:
            return self.execute(hierarchy, cores, max_cycles)
        # Imported at call time: replacing the module attribute (as a
        # profiler's wrapper does) then covers this call too.
        from repro.sim.sampling import execute_sampled_live

        sampled, total_cycles, _diag = execute_sampled_live(
            hierarchy, cores, live_config, max_cycles
        )
        hierarchy.publish_metrics()
        return SimulationResult(
            design_name=self.design.name,
            thread_stats=tuple(
                (core_index, thread.stats) for core_index, thread in sampled
            ),
            total_cycles=total_cycles,
            dram_mean_latency_ns=hierarchy.dram.stats.mean_latency_ns,
            dram_requests=hierarchy.dram.stats.requests,
        )
