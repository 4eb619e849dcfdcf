"""Thread-to-core scheduling policies (Section 3.2 of the paper).

The paper's scheduling principles, reproduced here:

1. **Big cores first** — in a heterogeneous design, threads are scheduled on
   the big core(s) before any small core is used.
2. **Spread before SMT** — threads are distributed one per core before any
   core runs two threads; SMT contexts are engaged only once every core is
   occupied (and then the biggest cores stack first, since their SMT
   capacity is largest).
3. **Offline best schedule** — the paper runs every benchmark on every core
   type (and every SMT co-run combination) in isolation offline, then picks
   the best thread-to-core mapping and co-schedule.  We reproduce this with
   (a) a *big-core-affinity* ranking deciding which threads get the big
   cores, computed from isolated per-core-type performance exactly as the
   paper does, and (b) a pressure-balancing snake deal deciding which
   threads co-run on a core, which mixes memory-intensive with
   compute-intensive threads (the symbiosis the paper credits for 4B's good
   cache usage).  An optional local-search refinement
   (:func:`optimize_coschedule`) evaluates pairwise swaps with the full chip
   model, for the ablation study.
4. **No-SMT time-sharing** — without SMT, when there are more active
   threads than cores, the extra threads time-share a core round-robin
   (equal duty cycles).
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.designs import ChipDesign
from repro.engine.store import KeyedCache
from repro.interval.contention import (
    ChipModel,
    Placement,
    ThreadSpec,
    isolated_ips,
)
from repro.microarch.config import BIG, CoreConfig
from repro.obs import METRICS, TRACER
from repro.util import check_positive
from repro.workloads.profiles import BenchmarkProfile

#: Isolated per-core-type performance, memoized under the engine's keyed
#: content-key scheme (a pure function of (profile, core), so a
#: process-wide cache is sound).  Unlike the former module-level
#: ``lru_cache``, it is observable (hit/miss counters) and explicitly
#: clearable via :func:`clear_isolated_ips_cache`.
_ISOLATED_IPS_CACHE = KeyedCache("scheduler-isolated-ips")


def _cached_isolated_ips(profile: BenchmarkProfile, core: CoreConfig) -> float:
    return _ISOLATED_IPS_CACHE.get_or_compute(
        (profile, core), lambda: isolated_ips(profile, core)
    )


#: Per-core thread counts by (design, smt) -> {n_threads: counts}.  A pure
#: function of the key that every grid point would otherwise recompute (a
#: Scheduler is built per point); bounded by designs x 2 x thread counts.
_SLOT_COUNTS_CACHE = KeyedCache("scheduler-slot-counts")


def clear_isolated_ips_cache() -> None:
    """Drop the memoized isolated-IPS values (tests that tweak model globals)."""
    _ISOLATED_IPS_CACHE.clear()


def big_core_affinity(profile: BenchmarkProfile, weakest: CoreConfig) -> float:
    """How much ``profile`` gains from a big core vs the design's weakest core.

    This is the paper's offline analysis: run each benchmark on each core
    type in isolation, and steer the highest-ratio benchmarks to the big
    cores.
    """
    strong = _cached_isolated_ips(profile, BIG)
    weak = _cached_isolated_ips(profile, weakest)
    return strong / weak


class Scheduler:
    """Places active threads onto a chip design per the paper's policy."""

    def __init__(self, design: ChipDesign, smt: bool = True):
        self.design = design
        self.smt = smt

    # ------------------------------------------------------------------ #
    # slot counting                                                       #
    # ------------------------------------------------------------------ #

    def slot_counts(self, n_threads: int) -> List[int]:
        """Number of threads each core receives (index-aligned with cores).

        With SMT, threads spread one-per-core first, then stack onto the
        cores with the lowest occupancy ratio (threads / contexts) — which
        fills the big cores' extra contexts first.  Without SMT each core
        takes one running thread; extras time-share big cores first.
        """
        check_positive("n_threads", n_threads)
        by_count = _SLOT_COUNTS_CACHE.get_or_compute((self.design, self.smt), dict)
        try:
            counts = by_count[n_threads]
        except KeyError:
            counts = by_count[n_threads] = tuple(self._count_slots(n_threads))
        return list(counts)  # a fresh list: callers may mutate it

    def _count_slots(self, n_threads: int) -> List[int]:
        cores = self.design.cores
        counts = [0] * len(cores)
        caps = [c.max_smt_contexts if self.smt else 1 for c in cores]

        for _ in range(n_threads):
            open_cores = [i for i in range(len(cores)) if counts[i] < caps[i]]
            if open_cores:
                # Lowest occupancy ratio wins; ties go to the stronger
                # (earlier) core, implementing both spread-first and
                # big-first.
                best = min(open_cores, key=lambda i: (counts[i] / caps[i], i))
            else:
                # Hardware contexts exhausted: time-share, big cores first.
                best = min(range(len(cores)), key=lambda i: (counts[i] / caps[i], i))
            counts[best] += 1
        return counts

    # ------------------------------------------------------------------ #
    # placement                                                           #
    # ------------------------------------------------------------------ #

    def place(self, profiles: Sequence[BenchmarkProfile]) -> Placement:
        """Produce a :class:`Placement` for the given active threads."""
        if not profiles:
            raise ValueError("need at least one active thread")
        if METRICS.enabled:
            METRICS.inc("schedule.placements")
        with TRACER.span(
            "schedule.place",
            cat="schedule",
            design=self.design.name,
            threads=len(profiles),
            smt=self.smt,
        ):
            counts = self.slot_counts(len(profiles))
            assignment = self._deal_threads(list(profiles), counts)

            core_threads: List[List[ThreadSpec]] = []
            for core, threads in zip(self.design.cores, assignment):
                cap = core.max_smt_contexts if self.smt else 1
                duty = 1.0 if len(threads) <= cap else cap / len(threads)
                core_threads.append(
                    [ThreadSpec(p, duty_cycle=duty) for p in threads]
                )
            placement = Placement.from_lists(core_threads)
            if len(profiles) <= sum(
                (c.max_smt_contexts if self.smt else 1) for c in self.design.cores
            ):
                placement.validate_against(self.design, self.smt)
        return placement

    def _deal_threads(
        self, profiles: List[BenchmarkProfile], counts: List[int]
    ) -> List[List[BenchmarkProfile]]:
        """Decide which thread goes to which core, given per-core counts."""
        weakest = self.design.cores[-1]
        smt_engaged = any(c > 1 for c in counts)
        if not smt_engaged:
            # One thread per active core: highest big-core affinity first.
            order = sorted(
                profiles,
                key=lambda p: big_core_affinity(p, weakest),
                reverse=True,
            )
            assignment: List[List[BenchmarkProfile]] = [[] for _ in counts]
            it = iter(order)
            for i, c in enumerate(counts):
                for _ in range(c):
                    assignment[i].append(next(it))
            return assignment

        # SMT engaged: snake-deal by cache pressure so each core co-runs a
        # mix of memory- and compute-intensive threads (symbiotic
        # co-scheduling).
        order = sorted(profiles, key=lambda p: p.cache_pressure(), reverse=True)
        assignment = [[] for _ in counts]
        remaining = list(counts)
        direction = 1
        idx = 0
        core_order = list(range(len(counts)))
        while idx < len(order):
            progressed = False
            cores_in_round = core_order if direction == 1 else core_order[::-1]
            for core_idx in cores_in_round:
                if idx >= len(order):
                    break
                if remaining[core_idx] > 0:
                    assignment[core_idx].append(order[idx])
                    remaining[core_idx] -= 1
                    idx += 1
                    progressed = True
            direction = -direction
            if not progressed:
                raise AssertionError("slot counts inconsistent with thread count")
        return assignment


def optimize_coschedule(
    design: ChipDesign,
    placement: Placement,
    smt: bool = True,
    max_rounds: int = 2,
) -> Placement:
    """Local-search refinement of a placement (offline best co-schedule).

    Evaluates pairwise swaps of threads between cores with the full chip
    model and keeps any swap that improves STP, emulating the paper's
    exhaustive offline co-schedule search at tractable cost.  Each thread is
    normalized against its own isolated-on-big performance, so swaps cannot
    game the metric.

    Used by the scheduling ablation; the default heuristic schedule is
    typically within a few percent.
    """
    from repro.core.metrics import stp  # local import to avoid a cycle

    model = ChipModel(design)

    def score(p: Placement) -> float:
        # Result threads are flattened in placement order (core by core),
        # so references can be derived from the placement itself.
        result = model.evaluate(p, smt=smt)
        specs = [spec for threads in p.core_threads for spec in threads]
        refs = [_cached_isolated_ips(spec.profile, BIG) for spec in specs]
        return stp([t.ips for t in result.threads], refs)

    def flat_slots(p: Placement) -> List[Tuple[int, int]]:
        return [
            (ci, ti)
            for ci, threads in enumerate(p.core_threads)
            for ti in range(len(threads))
        ]

    best = placement
    best_score = score(best)
    for _ in range(max_rounds):
        improved = False
        slots = flat_slots(best)
        for a in range(len(slots)):
            for b in range(a + 1, len(slots)):
                ca, ta = slots[a]
                cb, tb = slots[b]
                if ca == cb:
                    continue
                lists = [list(ts) for ts in best.core_threads]
                lists[ca][ta], lists[cb][tb] = lists[cb][tb], lists[ca][ta]
                candidate = Placement.from_lists(lists)
                candidate_score = score(candidate)
                if candidate_score > best_score * (1 + 1e-9):
                    best, best_score = candidate, candidate_score
                    improved = True
        if not improved:
            break
    return best
