"""Interval-analysis core performance model (the Sniper-style fast path).

The paper's simulator, Sniper [5], is an *interval simulator*: instead of
tracking every pipeline stage cycle-by-cycle, it models an out-of-order core
as issuing at a steady rate between *miss events* (branch mispredictions and
cache misses), each of which ends an interval and charges a penalty.  This
module implements that class of model for the three core types of Table 1,
including SMT resource sharing:

* **dispatch** — a thread's steady-state issue rate is
  ``min(ILP, width, window_limited_ilp(ROB_share))`` (the sub-linear
  ILP-vs-window law caps what a small reorder buffer can expose);
* **branch mispredictions** — charge a front-end refill penalty;
* **short (L2/LLC-hit) misses** — partially hidden by the reorder buffer:
  the visible fraction is ``max(0, 1 - ROB_share / (dispatch_rate x latency))``
  (an isolated miss is fully hidden if the ROB does not fill while it is
  outstanding);
* **long (DRAM) misses** — exposed, but overlapped with each other up to the
  memory-level parallelism the window can hold:
  ``MLP_eff = clamp(ROB_share x misses_per_instr x burst_factor, 1, MLP_app)``;
* **SMT** — the ROB is statically partitioned among the active hardware
  threads (Raasch & Reinhardt [24]) which shrinks per-thread MLP and
  latency-hiding, and threads then share pipeline bandwidth.  Bandwidth
  sharing is solved as a capacity constraint: each thread's unconstrained
  rate is scaled down proportionally when the sum of demands exceeds the
  core's issue width (round-robin fetch approximates proportional sharing).
* **in-order cores** — expose all miss latencies (no ROB), and implement
  fine-grained multithreading: a co-resident thread's busy cycles hide the
  other thread's stall cycles, subject to total pipeline occupancy <= 1.

The environment a core sees (cache shares, loaded memory latency) is
computed by the chip-level solver in :mod:`repro.interval.contention`.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.microarch.config import CoreConfig
from repro.obs import METRICS
from repro.util import check_fraction, check_positive
from repro.workloads.profiles import BenchmarkProfile

#: Issue-bandwidth efficiency loss per additional SMT thread sharing a
#: pipeline (fetch competition, inter-thread hazards, partition fragmentation).
#: Efficiency is ``1 - SMT_EFFICIENCY_LOSS_PER_THREAD * (n - 1)``, floored at
#: :data:`SMT_MIN_EFFICIENCY`; a single thread runs at 1.0.  Stacking six
#: threads on a big core therefore costs more issue bandwidth than running
#: three on a medium core — the effect that puts the many-core designs ahead
#: of 4B at full utilization for compute-bound workloads (Figure 4a).
SMT_EFFICIENCY_LOSS_PER_THREAD = 0.025
SMT_MIN_EFFICIENCY = 0.8


def smt_issue_efficiency(n_threads: int) -> float:
    """Shared-pipeline issue efficiency with ``n_threads`` resident threads."""
    if n_threads <= 1:
        return 1.0
    return max(
        SMT_MIN_EFFICIENCY,
        1.0 - SMT_EFFICIENCY_LOSS_PER_THREAD * (n_threads - 1),
    )

#: Execution ports cannot be used every single cycle (bank conflicts,
#: writeback contention); cap sustained port utilization at this level.
PORT_EFFICIENCY = 0.95

#: Extra pipeline cycles charged per branch misprediction on top of the
#: front-end depth (dispatch ramp-up after the flush).
BRANCH_RAMP_CYCLES = 3.0

#: Long-latency misses cluster in bursts (pointer-chasing phases, streaming
#: loops), so the local miss density inside the reorder window is higher
#: than the program-average misses-per-instruction.  The window-limited MLP
#: therefore uses ``ROB_share * misses_per_instr * burst_factor`` — which is
#: what lets a 128-entry window extract real memory parallelism even from
#: programs averaging only a few misses per kilo-instruction.
MLP_BURST_FACTOR = 5.0

#: Window-limited ILP: a reorder window of W entries can expose roughly
#: ``WINDOW_ILP_FACTOR * W ** WINDOW_ILP_EXPONENT`` independent instructions
#: per cycle (the classic sub-linear ILP-vs-window law).  A 128-entry big
#: core is effectively unconstrained (cap ~4.9), while the 32-entry medium
#: core is capped near 1.7 — it cannot keep its 2-wide pipeline saturated on
#: high-ILP code the way a large window can.
WINDOW_ILP_FACTOR = 0.115
WINDOW_ILP_EXPONENT = 0.75


def window_limited_ilp(rob_share: float) -> float:
    """Issue parallelism sustainable by a reorder window of ``rob_share`` entries."""
    if rob_share <= 0:
        return float("inf")  # in-order cores are limited elsewhere
    return WINDOW_ILP_FACTOR * rob_share**WINDOW_ILP_EXPONENT


@dataclass(frozen=True)
class CoreEnvironment:
    """Latency/capacity conditions a core sees, set by the chip solver.

    Per-thread sequences are aligned with the thread list passed to
    :meth:`IntervalCoreModel.evaluate`.

    Attributes
    ----------
    l1i_share_bytes / l1d_share_bytes / l2_share_bytes:
        Effective private-cache capacity available to each thread once SMT
        co-residents are accounted for.
    llc_share_bytes:
        Effective share of the chip-wide shared LLC for each thread.
    llc_latency_cycles:
        Load-to-use latency of an LLC hit (including interconnect hops).
    mem_latency_cycles:
        *Loaded* DRAM access latency (including queueing delay on the
        off-chip bus and DRAM banks).
    """

    l1i_share_bytes: Tuple[float, ...]
    l1d_share_bytes: Tuple[float, ...]
    l2_share_bytes: Tuple[float, ...]
    llc_share_bytes: Tuple[float, ...]
    llc_latency_cycles: float
    mem_latency_cycles: float

    @classmethod
    def unloaded(
        cls, core: CoreConfig, n_threads: int, llc_bytes: float,
        llc_latency_cycles: float, mem_latency_cycles: float,
    ) -> "CoreEnvironment":
        """An environment with caches split evenly and no bus queueing.

        Useful for isolated-thread evaluation and as a solver starting point.
        """
        check_positive("n_threads", n_threads)
        even = lambda total: tuple([total / n_threads] * n_threads)  # noqa: E731
        return cls(
            l1i_share_bytes=even(core.l1i.size_bytes),
            l1d_share_bytes=even(core.l1d.size_bytes),
            l2_share_bytes=even(core.l2.size_bytes),
            llc_share_bytes=even(llc_bytes),
            llc_latency_cycles=llc_latency_cycles,
            mem_latency_cycles=mem_latency_cycles,
        )


@dataclass(frozen=True)
class ThreadPerformance:
    """Per-thread outcome of a core-model evaluation.

    ``ipc`` is instructions per core cycle *while scheduled*, already scaled
    by the thread's duty cycle when time-sharing; ``cpi_breakdown`` maps
    component names (base, branch, l1i, l2hit, llchit, dram) to CPI adders
    for the unconstrained, full-duty execution.
    """

    ipc: float
    unconstrained_ipc: float
    mem_misses_per_instr: float
    mlp: float
    cpi_breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return 1.0 / self.ipc if self.ipc > 0 else float("inf")


@dataclass(frozen=True)
class CoreResult:
    """Outcome of evaluating one core with its resident threads."""

    threads: Tuple[ThreadPerformance, ...]
    utilization: float  # fraction of peak issue bandwidth in use

    @property
    def total_ipc(self) -> float:
        return sum(t.ipc for t in self.threads)



class IntervalCoreModel:
    """Analytical performance model of a single core (any of the three types).

    ``rob_partitioning`` selects the SMT window policy: ``"static"`` (the
    paper's baseline, Raasch & Reinhardt [24]) gives each of n threads
    ``ROB/n`` entries; ``"shared"`` models a dynamically shared window where
    a thread can opportunistically grow into co-residents' idle entries —
    approximated as twice the static share, capped at the full ROB.  Used by
    the ROB-partitioning ablation.

    ``fetch_policy`` selects how SMT threads share issue bandwidth when
    demand exceeds capacity: ``"roundrobin"`` (the paper's baseline [24])
    grants slots in strict rotation, which shares bandwidth roughly in
    proportion to each thread's demand; ``"icount"`` (Tullsen et al. [31])
    favours the threads with the fewest instructions in flight, which
    *equalizes* per-thread rates — modelled as water-filling the capacity
    across threads.

    Evaluation is split in two: :meth:`batch_statics` computes everything
    that does not depend on the memory latency once per core and solve,
    and :meth:`results_at` derives the per-thread results at one latency
    from those statics.  The model keeps no state between calls.
    """

    def __init__(
        self,
        core: CoreConfig,
        rob_partitioning: str = "static",
        fetch_policy: str = "roundrobin",
    ):
        if rob_partitioning not in ("static", "shared"):
            raise ValueError(
                f"rob_partitioning must be 'static' or 'shared', "
                f"got {rob_partitioning!r}"
            )
        if fetch_policy not in ("roundrobin", "icount"):
            raise ValueError(
                f"fetch_policy must be 'roundrobin' or 'icount', "
                f"got {fetch_policy!r}"
            )
        self.core = core
        self.rob_partitioning = rob_partitioning
        self.fetch_policy = fetch_policy
        self._width_f = float(core.width)
        self._l2_lat = float(core.l2.latency_cycles)
        self._branch_penalty = core.frontend_depth + BRANCH_RAMP_CYCLES

    def _rob_share(self, n_threads: int) -> int:
        static = self.core.rob_share(n_threads)
        if self.rob_partitioning == "static" or n_threads == 1:
            return static
        return min(self.core.rob_size, 2 * static)

    # ------------------------------------------------------------------ #
    # latency-independent per-thread terms                                #
    # ------------------------------------------------------------------ #

    def _miss_rates(
        self, profile: BenchmarkProfile, env: CoreEnvironment, idx: int
    ) -> Tuple[float, float, float, float]:
        """Per-instruction miss rates (l1i, l1d->L2, L2->LLC, LLC->mem).

        The single stack-distance-style curve is evaluated at successive
        capacities; level-to-level rates are hierarchical differences,
        clamped to be non-negative.
        """
        l1i = profile.icurve.misses_per_instruction(env.l1i_share_bytes[idx])
        l1d = profile.dcurve.misses_per_instruction(env.l1d_share_bytes[idx])
        l2 = profile.dcurve.misses_per_instruction(env.l2_share_bytes[idx])
        mem = profile.dcurve.misses_per_instruction(
            env.l2_share_bytes[idx] + env.llc_share_bytes[idx]
        )
        # Monotonicity along the hierarchy.
        l2 = min(l2, l1d)
        mem = min(mem, l2)
        return l1i, l1d, l2, mem

    def _visible_fraction(self, latency: float, rob_share: float) -> float:
        """Fraction of a short-miss latency the OoO window cannot hide."""
        if latency <= 0:
            return 0.0
        dispatch_rate = float(self.core.width)
        return min(1.0, max(0.0, 1.0 - rob_share / (dispatch_rate * latency)))

    def batch_statics(
        self,
        profiles: Sequence[BenchmarkProfile],
        env: CoreEnvironment,
        duty_cycles: Sequence[float],
    ) -> "CoreBatchStatics":
        """Latency-independent per-thread terms of ``profiles`` on this core.

        Everything a thread's CPI stack needs except the DRAM term: the
        base, branch, l1i, l2hit and llchit CPI adders, the memory misses
        per instruction and the effective MLP.  The core-wide pieces (ROB
        share, window-limited ILP, short-miss visibility) depend only on
        the resident context count, so they are computed once per call.
        ``env.mem_latency_cycles`` is ignored; :meth:`results_at` supplies
        the latency.

        Cores that need ICOUNT water-filling (fetch policy ``"icount"``
        with more than one resident context) get statics too, flagged
        ``water_fill``: the chip solver's batch kernel cannot reproduce
        the water-fill and solves such chips with the scalar bisection.
        """
        n = len(profiles)
        if len(duty_cycles) != n:
            raise ValueError("duty_cycles must align with profiles")
        for d in duty_cycles:
            check_fraction("duty_cycle", d)
        if sum(duty_cycles) > self.core.max_smt_contexts + 1e-9:
            raise ValueError(
                f"{self.core.name} core supports at most "
                f"{self.core.max_smt_contexts} concurrent contexts; summed "
                f"duty cycles give {sum(duty_cycles):.2f}"
            )
        # The ROB is statically partitioned across the *concurrently resident*
        # hardware contexts, not across every thread time-sharing the core:
        # six threads round-robining a non-SMT core each see the full window
        # while scheduled.  The expected concurrency is the summed duty.
        n_ctx = min(self.core.max_smt_contexts, max(1, round(sum(duty_cycles))))
        core = self.core
        ooo = core.is_out_of_order
        width = self._width_f
        l2_lat = self._l2_lat
        llc_lat = env.llc_latency_cycles
        issue_eff = smt_issue_efficiency(n_ctx)
        if ooo:
            rob_share = float(self._rob_share(n_ctx))
            window_ilp = window_limited_ilp(rob_share)
            # Short misses: partially hidden by the window.
            vis_l2 = self._visible_fraction(l2_lat, rob_share)
            vis_llc = self._visible_fraction(llc_lat, rob_share)
            pipe_denominator = core.width * issue_eff
        else:
            pipe_denominator = issue_eff
        terms = []
        static_cpi = []
        busy_cpi = []
        dram_mpi = []
        mlp_l = []
        mem_frac = []
        nonmem_frac = []
        for i, p in enumerate(profiles):
            l1i_mpi, l1d_mpi, l2_mpi, mem_mpi = self._miss_rates(p, env, i)
            branch = p.branch_mpki / 1000.0 * self._branch_penalty
            if ooo:
                base = 1.0 / min(p.ilp, width, window_ilp)
                l1i = l1i_mpi * l2_lat * 0.8  # front-end misses hide poorly
                l2hit = max(0.0, l1d_mpi - l2_mpi) * l2_lat * vis_l2
                llchit = max(0.0, l2_mpi - mem_mpi) * llc_lat * vis_llc
                # Long misses: overlapped up to the window-limited MLP.
                mlp = max(1.0, min(p.mlp, rob_share * mem_mpi * MLP_BURST_FACTOR))
            else:
                base = 1.0 / min(p.ilp_inorder, width)
                # Stall-on-use: every miss latency is fully exposed, serially.
                l1i = l1i_mpi * l2_lat
                l2hit = max(0.0, l1d_mpi - l2_mpi) * l2_lat
                llchit = max(0.0, l2_mpi - mem_mpi) * llc_lat
                mlp = 1.0
            terms.append((base, branch, l1i, l2hit, llchit))
            # Left to right, as sum() over the CPI breakdown adds them.
            static_cpi.append((((base + branch) + l1i) + l2hit) + llchit)
            busy_cpi.append(base + branch)
            dram_mpi.append(mem_mpi)
            mlp_l.append(mlp)
            mem_frac.append(p.mem_frac)
            nonmem_frac.append(1.0 - p.mem_frac)
        fu = core.functional_units
        alu_ports = fu.int_alu + fu.mul_div + fu.fp
        return CoreBatchStatics(
            is_out_of_order=ooo,
            frequency_ghz=core.frequency_ghz,
            n_contexts=n_ctx,
            water_fill=self.fetch_policy == "icount" and n_ctx > 1,
            pipe_denominator=pipe_denominator,
            ldst_denominator=fu.load_store * PORT_EFFICIENCY,
            alu_denominator=alu_ports * PORT_EFFICIENCY,
            terms=terms,
            static_cpi=static_cpi,
            dram_mpi=dram_mpi,
            mlp=mlp_l,
            duty_cycle=list(duty_cycles),
            mem_frac=mem_frac,
            nonmem_frac=nonmem_frac,
            busy_cpi=busy_cpi,
        )

    # ------------------------------------------------------------------ #
    # core-level evaluation with bandwidth sharing                        #
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        profiles: Sequence[BenchmarkProfile],
        env: CoreEnvironment,
        duty_cycles: Optional[Sequence[float]] = None,
    ) -> CoreResult:
        """Evaluate ``profiles`` co-running on this core.

        Parameters
        ----------
        profiles:
            Profiles of the threads resident on this core (one per hardware
            context in use; at most ``core.max_smt_contexts``).
        env:
            Cache shares and loaded latencies, aligned with ``profiles``.
        duty_cycles:
            Fraction of time each thread is scheduled on its context; 1.0
            unless the scheduler is time-sharing (no-SMT mode with more
            threads than cores).

        Returns
        -------
        CoreResult
            Per-thread IPC (duty-scaled) and core utilization.
        """
        n = len(profiles)
        if n == 0:
            return CoreResult(threads=(), utilization=0.0)
        if duty_cycles is None:
            duty_cycles = [1.0] * n
        statics = self.batch_statics(profiles, env, duty_cycles)
        return self.results_at(statics, env.mem_latency_cycles)

    def results_at(
        self, statics: "CoreBatchStatics", mem_latency_cycles: float
    ) -> CoreResult:
        """Per-thread results of this core's ``statics`` at one DRAM latency.

        ``statics`` must come from this model's :meth:`batch_statics`.  The
        CPI is ``static_cpi + dram``, the same left-to-right order as
        ``sum()`` over the CPI breakdown, so the chip solver's batch kernel
        computes the same rates bit for bit.
        """
        # Hot path (~40 calls per chip solve): a single guard keeps the
        # disabled cost to one attribute check.
        if METRICS.enabled:
            METRICS.inc("interval.core_evals")
            if statics.n_contexts > 1:
                METRICS.inc("interval.core_evals_smt")
        breakdowns = []
        solo_ipc = []
        rates = []
        for (base, branch, l1i, l2hit, llchit), static, mpi, mlp, duty in zip(
            statics.terms, statics.static_cpi, statics.dram_mpi,
            statics.mlp, statics.duty_cycle,
        ):
            dram = mpi * mem_latency_cycles / mlp  # mlp is 1.0 in-order
            breakdowns.append({
                "base": base,
                "branch": branch,
                "l1i": l1i,
                "l2hit": l2hit,
                "llchit": llchit,
                "dram": dram,
            })
            ipc = 1.0 / (static + dram)
            solo_ipc.append(ipc)
            rates.append(ipc * duty)

        if statics.water_fill:
            final_rates = _icount_rates(statics, rates)
        else:
            scale = _bandwidth_scale(statics, rates)
            final_rates = [r * scale for r in rates]
        threads = tuple(
            ThreadPerformance(
                ipc=r,
                unconstrained_ipc=ipc,
                mem_misses_per_instr=mpi,
                mlp=mlp,
                cpi_breakdown=breakdown,
            )
            for r, ipc, mpi, mlp, breakdown in zip(
                final_rates, solo_ipc, statics.dram_mpi, statics.mlp, breakdowns
            )
        )
        utilization = min(
            1.0, sum(t.ipc for t in threads) / float(self.core.width)
        )
        return CoreResult(threads=threads, utilization=utilization)


def _bandwidth_scale(statics: "CoreBatchStatics", rates: Sequence[float]) -> float:
    """Proportional scale factor from shared-pipeline capacity limits."""
    if statics.is_out_of_order:
        # Issue slots are truly shared: one instruction consumes
        # 1/width cycles of dispatch bandwidth regardless of its thread.
        pipe_demand = sum(rates) / statics.pipe_denominator
    else:
        # Fine-grained MT: a thread's busy cycles (dependence-limited
        # issue plus branch flushes) occupy the pipeline exclusively;
        # only its stall cycles can be filled by the co-resident thread.
        pipe_demand = 0.0
        for r, busy_cpi in zip(rates, statics.busy_cpi):
            pipe_demand += r * busy_cpi
        pipe_demand /= statics.pipe_denominator
    ldst_demand = sum(
        r * f for r, f in zip(rates, statics.mem_frac)
    ) / statics.ldst_denominator
    alu_demand = sum(
        r * f for r, f in zip(rates, statics.nonmem_frac)
    ) / statics.alu_denominator
    worst = max(pipe_demand, ldst_demand, alu_demand)
    return 1.0 if worst <= 1.0 else 1.0 / worst


def _icount_rates(statics: "CoreBatchStatics", rates: Sequence[float]) -> List[float]:
    """ICOUNT bandwidth sharing: water-fill capacity across threads.

    ICOUNT fetches for the least-occupying threads first, which drives
    per-thread throughput towards equality: every thread gets
    ``min(unconstrained_rate, level)`` with the level chosen so the
    binding capacity constraint is just met.
    """
    if _bandwidth_scale(statics, rates) >= 1.0:
        return list(rates)
    lo, hi = 0.0, max(rates)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _bandwidth_scale(statics, [min(r, mid) for r in rates]) >= 1.0:
            lo = mid
        else:
            hi = mid
    return [min(r, lo) for r in rates]


@dataclass(frozen=True)
class CoreBatchStatics:
    """Latency-independent terms for one core's resident threads.

    Produced by :meth:`IntervalCoreModel.batch_statics` once per core and
    chip solve.  :meth:`IntervalCoreModel.results_at` turns them into the
    per-thread results at one latency; the chip solver's batch kernel
    (:mod:`repro.interval.contention`) computes only chip traffic from them
    per bisection step:

    ``cpi(L) = static_cpi + dram_mpi * L_cycles / mlp`` and
    ``rate = (1 / cpi) * duty_cycle``, followed by the per-core bandwidth
    scale built from ``pipe/ldst/alu`` demands over these vectors.

    Per-thread fields are plain Python lists (exact float64 values); the
    kernel concatenates the lists of every core in a batch and builds one
    NumPy array per field, so array-construction cost is paid once per
    batch rather than once per core.  All reductions over the arrays must
    run sequentially in thread order (NumPy's pairwise summation is not
    bit-identical to Python's ``sum``).
    """

    is_out_of_order: bool
    frequency_ghz: float
    n_contexts: int  # concurrently resident contexts (summed duty, rounded)
    water_fill: bool  # ICOUNT SMT: rates need the water-fill, not the kernel
    pipe_denominator: float  # width*issue_eff (OoO) or issue_eff (in-order)
    ldst_denominator: float
    alu_denominator: float
    terms: List[Tuple[float, float, float, float, float]]  # base..llchit CPI
    static_cpi: List[float]  # base+branch+l1i+l2hit+llchit, scalar sum order
    dram_mpi: List[float]  # memory misses per instruction (clamped)
    mlp: List[float]  # effective memory-level parallelism (1.0 in-order)
    duty_cycle: List[float]
    mem_frac: List[float]
    nonmem_frac: List[float]
    busy_cpi: List[float]  # base+branch: in-order pipeline occupancy

    @property
    def n_threads(self) -> int:
        return len(self.static_cpi)
