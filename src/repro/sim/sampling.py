"""Live (adaptive) sampled cycle-level simulation, Pac-Sim style.

Full cycle-level runs simulate every instruction in detail.  Sampled runs
alternate a **detailed window**, simulated cycle by cycle on the real
pipeline, with a span that is **fast-forwarded with functional warming** —
caches and branch predictors see every reference through the real access
paths, but no cycles elapse and no timing state is touched.

Two properties make the estimate sharp:

* **Detailed windows are exact, not extrapolated.**  The clock does not
  advance while fast-forwarding, so the pipeline continues seamlessly from
  one window into the next — in-flight completion times stay valid, there
  is no drain/refill transient to discard, and every cycle spent inside a
  window is *measured*, not modelled.  Only the fast-forwarded spans are
  estimated.
* **Skipped spans are event-priced, not flat-rated.**  The synthetic
  traces have large short-range CPI variance, mostly driven by memory
  misses and branch-mispredict clusters — and functional warming *counts
  those events exactly* in the skipped spans (it runs the real cache and
  predictor state machines).  Span cycles are reconstructed with a
  per-thread model::

      cycles  ≈  a · instructions  +  s · stall_score

  where ``stall_score`` weighs each counted event (L2/LLC/DRAM data
  access, branch mispredict) by its *architectural* latency, and only the
  two scalars ``a`` (base CPI) and ``s`` (effective stall exposure, which
  absorbs memory-level parallelism and overlap) are fitted to the measured
  windows.  Fixing the event-cost ratios to the architecture keeps the fit
  stable with a handful of windows — fitting a free slope per event would
  chase burst noise.  The fit is rescaled so the model reproduces the
  measured window totals exactly, and degrades gracefully to whole-window
  CPI extrapolation when a thread shows no stall-score variance.

The initial trace warm-up prefix (cold-cache exclusion in full runs)
participates in the sampling loop at its natural rate, preserving the
wall-clock staggering with which threads enter their measured regions (an
accounting boundary keeps prefix cycles and events out of the estimate).
``warmup`` sizes the minimum detailed window (``max(2 * warmup,
min_window)``) so the fast-forward boundary (stale dependence ring,
leftover in-flight ROB entries) is amortized over a long measured region.

The policy (:class:`LiveSamplingConfig`, :func:`execute_sampled_live`) is
adaptive: an online *phase detector* compares each detailed window's
architectural signature (CPI plus L2/LLC/DRAM and mispredict rates per
instruction) against a smoothed reference, and a per-window *error
controller* tracks how well the span model would have predicted the
window it just measured.  Stable phase and low model error grow the
fast-forward span geometrically; a phase change or rising error collapses
it, re-sampling the new behaviour immediately.  There are no
interval/warmup knobs to tune per workload — the run spends detail where
the trace actually changes.

Sampling is an *approximation*: reported per-thread cycle counts are
estimates (``tests/test_live_sampling.py`` holds chip IPC error against
full simulation on the validation mixes), and cache/mispredict counters
cover only the detailed windows.  Use full runs when exact statistics
matter.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.core import PipelineCore, SimThread


@dataclass(frozen=True)
class LiveSamplingConfig:
    """Knobs for live (adaptive) sampled simulation.

    There is no per-workload interval to tune: the controller starts
    cautious (``min_span``) and lets stable, well-predicted behaviour earn
    longer fast-forwards.

    Parameters
    ----------
    target_error:
        Smoothed per-window model-error budget.  While the exponentially
        weighted error stays below this, spans may grow; above it they
        shrink.
    warmup / min_window / max_window:
        ``max(2 * warmup, min_window)`` sizes the *base* detailed
        window; unstable or poorly-predicted behaviour grows the window
        up to ``max_window`` (longer measurements stabilize both the
        signature and the span model).
    min_span / max_span:
        Bounds on one fast-forwarded span (instructions per thread).
    phase_threshold:
        Relative signature distance that declares a phase change
        (0.25 = a 25 % shift in CPI or any event rate).
    grow / shrink:
        Geometric span factors: multiply by ``grow`` while stable, divide
        by ``shrink`` on a phase change or error overrun (shrinking
        faster than growing keeps mispredicted phases cheap).
    error_smoothing:
        EWMA weight of the newest window's model error.
    jitter_seed:
        Seed of the deterministic span jitter (runs are reproducible;
        vary the seed to probe estimator variance).
    max_skip:
        Hard cap on the warmed fraction of the measured region,
        regardless of how well the span model scores.  Two error modes
        are invisible to the model's own generalization estimate: *span
        mispricing* (windows predicting windows says nothing about
        regions that were never measured) and, on multi-thread chips,
        *alignment drift* (mispriced skips slide cursors out of step, so
        later windows co-run regions that never coexist and shared-cache
        contention lands in the wrong place).  Both scale with the
        skipped fraction, so bounding it bounds them.  Most of live
        sampling's speed comes from skipping the warm-up prefix — which
        does not count against this cap — so the cap costs little
        (``>= 1`` disables it).
    """

    target_error: float = 0.02
    warmup: int = 250
    min_window: int = 500
    max_window: int = 2_000
    min_span: int = 500
    max_span: int = 8_000
    phase_threshold: float = 0.25
    grow: float = 2.0
    shrink: float = 4.0
    error_smoothing: float = 0.4
    jitter_seed: int = 0x5EED
    max_skip: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 < self.target_error < 1.0:
            raise ValueError(
                f"target_error must be in (0, 1), got {self.target_error}"
            )
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.min_window < 1:
            raise ValueError(
                f"min_window must be >= 1, got {self.min_window}"
            )
        if self.min_span < 1:
            raise ValueError(f"min_span must be >= 1, got {self.min_span}")
        if self.max_span < self.min_span:
            raise ValueError(
                f"max_span ({self.max_span}) must be >= min_span "
                f"({self.min_span})"
            )
        if self.max_window < self.window:
            raise ValueError(
                f"max_window ({self.max_window}) must be >= the base "
                f"window ({self.window})"
            )
        if self.phase_threshold <= 0.0:
            raise ValueError(
                f"phase_threshold must be > 0, got {self.phase_threshold}"
            )
        if self.grow < 1.0 or self.shrink < 1.0:
            raise ValueError(
                f"grow and shrink must be >= 1, got {self.grow}/{self.shrink}"
            )
        if not 0.0 < self.error_smoothing <= 1.0:
            raise ValueError(
                f"error_smoothing must be in (0, 1], got "
                f"{self.error_smoothing}"
            )
        if self.max_skip <= 0.0:
            raise ValueError(
                f"max_skip must be > 0, got {self.max_skip}"
            )

    @property
    def window(self) -> int:
        """Base detailed-window length."""
        return max(2 * self.warmup, self.min_window, 1)


@dataclass(frozen=True)
class LiveSamplingDiagnostics:
    """What the live controller actually did during one run."""

    #: Detailed-window rounds executed (lockstep across the chip).
    windows: int
    #: Instructions simulated in detail vs. functionally warmed, counting
    #: only each thread's measured region — the warm-up prefix rides
    #: along in the live loop (detailed or warmed as the controller
    #: decides) but its instructions appear in neither figure.
    detailed_instructions: int
    warmed_instructions: int
    #: Phase changes declared across all threads.
    phase_changes: int
    #: Worst per-thread smoothed model error at the end of the run.
    max_model_error: float

    @property
    def detailed_fraction(self) -> float:
        total = self.detailed_instructions + self.warmed_instructions
        return self.detailed_instructions / total if total else 1.0


def _event_weights(core: PipelineCore) -> Tuple[float, float, float, float]:
    """Architectural cycle costs of (l2, llc, dram, mispredict) events.

    These fix the *ratios* between event costs in the extrapolation model;
    the fitted exposure scalar absorbs overlap, queueing and MLP, so only
    the relative magnitudes need to be right.
    """
    cfg = core.core
    freq = cfg.frequency_ghz
    hierarchy = core.hierarchy
    w_l2 = float(cfg.l2.latency_cycles)
    w_llc = hierarchy._llc_hit_ns() * freq
    dram = hierarchy.dram
    w_dram = w_llc + (
        dram.config.access_latency_ns + dram.transfer_ns
    ) * freq
    w_mp = float(cfg.frontend_depth + 2)
    return (w_l2, w_llc, w_dram, w_mp)


class _ThreadSampleState:
    """Measurement bookkeeping for one hardware thread."""

    __slots__ = (
        "budget",
        "width",
        "weights",
        "boundary",
        "window_start",
        "win_cycle0",
        "win_levels0",
        "win_mispred0",
        "win_active",
        "windows",
        "spans",
        "detailed_cycles",
        "last_window_events",
        "span_anchors",
    )

    def __init__(
        self,
        budget: int,
        width: int,
        weights: Tuple[float, float, float, float],
        boundary: int,
    ):
        self.budget = budget  # post-prefix instructions to account for
        self.width = width
        self.weights = weights
        #: Absolute cursor where accounting starts (end of the warm-up
        #: prefix).  Windows and spans before it still train the model and
        #: the controller, but contribute nothing to the cycle estimate —
        #: matching a full run, which simulates the prefix in detail and
        #: subtracts its statistics.
        self.boundary = boundary
        self.window_start = 0
        self.win_cycle0 = 0
        self.win_levels0 = (0, 0, 0)
        self.win_mispred0 = 0
        self.win_active = True
        #: Per detailed window: (instructions, cycles, stall_score) — the
        #: fitting data for the event-cost model.
        self.windows: List[Tuple[int, int, float]] = []
        #: Per fast-forwarded span: (instructions, stall_score) — the
        #: regions whose cycles the model reconstructs.
        self.spans: List[Tuple[int, float]] = []
        #: Measured-region cycles spent in detailed windows — *exact*,
        #: not estimated (the pipeline runs continuously through them);
        #: fractional at the boundary window.
        self.detailed_cycles = 0.0
        #: For live sampling: how many windows had closed when each span
        #: was warmed (parallel to ``spans``) — anchors spans to the
        #: windows measured around them for phase-local pricing.
        self.span_anchors: List[int] = []
        #: Raw counters of the most recently closed window —
        #: ``(instructions, cycles, l2, llc, dram, mispredicts)`` — for
        #: the live controller's phase signature; ``None`` until a window
        #: with instructions closes (cleared when the next one opens).
        self.last_window_events: Optional[
            Tuple[int, int, int, int, int, int]
        ] = None

    def stall_score(self, l2: int, llc: int, dram: int, mispred: int) -> float:
        w_l2, w_llc, w_dram, w_mp = self.weights
        return w_l2 * l2 + w_llc * llc + w_dram * dram + w_mp * mispred

    # -- window edges ------------------------------------------------------ #

    def _levels(self, thread: SimThread) -> Tuple[int, int, int]:
        hits = thread.stats.level_hits
        return (hits.get("l2", 0), hits.get("llc", 0), hits.get("dram", 0))

    def open_window(self, thread: SimThread, cycle: int) -> None:
        self.window_start = thread.cursor
        self.win_cycle0 = cycle
        self.win_levels0 = self._levels(thread)
        self.win_mispred0 = thread.stats.branch_mispredicts
        self.win_active = thread.done_cycle is None
        self.last_window_events = None

    def close_window(self, thread: SimThread, cycle: int) -> None:
        if not self.win_active:
            return
        end = thread.done_cycle if thread.done_cycle is not None else cycle
        cycles = max(0, end - self.win_cycle0)
        instr = thread.cursor - self.window_start
        snap = thread._warm_snapshot
        if thread.cursor > self.boundary:
            if self.window_start < self.boundary:
                # The accounting boundary was crossed inside this window.
                # The dispatch path snapshots the exact crossing cycle
                # (:meth:`SimThread.maybe_snapshot`); interpolation is
                # only a fallback.
                if snap is not None:
                    self.detailed_cycles += max(0, end - snap[1])
                elif instr > 0:
                    frac = (thread.cursor - self.boundary) / instr
                    self.detailed_cycles += cycles * frac
            else:
                self.detailed_cycles += cycles
        if instr > 0:
            l2, llc, dram = self._levels(thread)
            mispred = thread.stats.branch_mispredicts - self.win_mispred0
            if thread.done_cycle is not None and snap is not None:
                # The thread drained inside this window, so
                # ``finalize_stats`` already subtracted the pre-boundary
                # counters from the cumulative stats; undo that for the
                # in-window deltas.
                levels0 = snap[3]
                l2 += levels0.get("l2", 0)
                llc += levels0.get("llc", 0)
                dram += levels0.get("dram", 0)
                mispred += snap[2]
            l20, llc0, dram0 = self.win_levels0
            d_l2, d_llc, d_dram = l2 - l20, llc - llc0, dram - dram0
            score = self.stall_score(d_l2, d_llc, d_dram, mispred)
            self.windows.append((instr, cycles, score))
            self.last_window_events = (
                instr, cycles, d_l2, d_llc, d_dram, mispred
            )
        if thread.done_cycle is not None:
            self.win_active = False

    def record_span(
        self,
        thread: SimThread,
        warmed: int,
        l2: int,
        llc: int,
        dram: int,
        mispred: int,
    ) -> None:
        """Account one just-warmed span, clipped to the measured region.

        A span entirely inside the warm-up prefix costs nothing (the full
        run subtracts the prefix too); a straddling span contributes its
        post-boundary portion with the stall score scaled pro rata.
        """
        end = thread.cursor
        if end <= self.boundary:
            return
        score = self.stall_score(l2, llc, dram, mispred)
        start = end - warmed
        if start < self.boundary:
            frac = (end - self.boundary) / warmed
            self.spans.append((end - self.boundary, score * frac))
        else:
            self.spans.append((warmed, score))
        self.span_anchors.append(len(self.windows))

    # -- extrapolation ---------------------------------------------------- #

    def span_pricer(self) -> Optional[Tuple[float, float]]:
        """The rescaled global ``(base, exposure)`` span-pricing model.

        ``None`` until at least three windows have been measured — the
        same fit :meth:`estimated_cycles` uses, exposed so the live loop
        can *pace* functional warming with the model that will later
        price it (see the model-guided warming note in
        :func:`execute_sampled_live`).
        """
        if len(self.windows) < 3:
            return None
        measured_instr = sum(w[0] for w in self.windows)
        measured_cycles = sum(w[1] for w in self.windows)
        measured_score = sum(w[2] for w in self.windows)
        if measured_instr <= 0:
            return None
        base, exposure = _fit_model(self.windows, floor=0.5 / self.width)
        predicted = base * measured_instr + exposure * measured_score
        if predicted > 0.0:
            k = measured_cycles / predicted
            base *= k
            exposure *= k
        return base, exposure

    def estimated_cycles(self) -> int:
        """Exact detailed-window cycles plus event-priced span estimates."""
        span_instr = sum(s[0] for s in self.spans)
        if span_instr <= 0:
            # Everything in the measured region was detailed.
            return max(1, int(round(self.detailed_cycles)))
        measured_instr = sum(w[0] for w in self.windows)
        measured_cycles = sum(w[1] for w in self.windows)
        measured_score = sum(w[2] for w in self.windows)
        if measured_instr <= 0:
            # Degenerate: no window recorded any instructions; assume one
            # cycle per skipped instruction.
            return max(1, int(round(self.detailed_cycles + span_instr)))
        base, exposure = _fit_model(self.windows, floor=0.5 / self.width)
        # Rescale so the model reproduces the measured totals exactly: any
        # systematic misfit then cancels between windows and spans.
        predicted = base * measured_instr + exposure * measured_score
        if predicted > 0.0:
            k = measured_cycles / predicted
            base *= k
            exposure *= k
        estimate = float(self.detailed_cycles)
        for instr, score in self.spans:
            estimate += base * instr + exposure * score
        return max(1, int(round(estimate)))

    def estimated_cycles_local(self) -> int:
        """Like :meth:`estimated_cycles`, but each span is priced by the
        windows measured just around it rather than one global fit.

        Live sampling's estimator: when the phase detector has seen the
        behaviour change across the run, a single global model misprices
        the spans inside each phase (it blends phases that never coexist);
        the windows bracketing a span were measured in the *same* phase,
        so a local fit — degrading to plain local CPI when too few
        windows are in reach — prices it far more faithfully.
        """
        if not self.spans or len(self.span_anchors) != len(self.spans):
            return self.estimated_cycles()
        measured_instr = sum(w[0] for w in self.windows)
        if measured_instr <= 0:
            return max(
                1,
                int(round(self.detailed_cycles + sum(s[0] for s in self.spans))),
            )
        estimate = float(self.detailed_cycles)
        for (instr, score), anchor in zip(self.spans, self.span_anchors):
            lo = max(0, anchor - 2)
            local = self.windows[lo : anchor + 2]
            if not local or sum(w[0] for w in local) <= 0:
                local = self.windows
            base, exposure = _fit_model(local, floor=0.5 / self.width)
            local_i = sum(w[0] for w in local)
            local_c = sum(w[1] for w in local)
            local_s = sum(w[2] for w in local)
            predicted = base * local_i + exposure * local_s
            if predicted > 0.0:
                k = local_c / predicted
                base *= k
                exposure *= k
            estimate += base * instr + exposure * score
        return max(1, int(round(estimate)))


def _solve(
    windows: List[Tuple[int, int, float]], floor: float
) -> Tuple[float, float]:
    """Closed-form ``cycles ≈ base·instructions + exposure·stall_score``.

    A through-origin two-parameter least-squares.  With too few windows,
    no stall-score variance, or a sign-violating solution, it degrades to
    plain CPI (exposure 0).
    """
    total_i = sum(w[0] for w in windows)
    total_c = sum(w[1] for w in windows)
    plain = (total_c / total_i if total_i else 1.0, 0.0)
    if len(windows) < 3:
        return plain
    sii = sxx = six = sic = sxc = 0.0
    for instr, cycles, score in windows:
        sii += instr * instr
        sxx += score * score
        six += instr * score
        sic += instr * cycles
        sxc += score * cycles
    det = sii * sxx - six * six
    if det <= 1e-9 or sxx <= 1e-9:
        return plain
    base = (sxx * sic - six * sxc) / det
    exposure = (sii * sxc - six * sic) / det
    if exposure < 0.0:
        return plain
    if base < floor:
        # Clamp the base CPI and re-fit the exposure alone.
        base = floor
        exposure = max(0.0, (sxc - base * six) / sxx)
    return base, exposure


def _fit_model(
    windows: List[Tuple[int, int, float]], floor: float
) -> Tuple[float, float]:
    """Pick the better extrapolation model by leave-one-out error.

    Candidates: plain whole-window CPI, and the two-parameter stall-score
    model.  For compute-bound threads the stall score is sparse noise and
    plain CPI wins; for memory-bound threads the score explains most of
    the window variance.  Leave-one-out prediction error on the measured
    windows decides per thread, which keeps either failure mode from
    leaking into the estimate.
    """
    if len(windows) < 4:
        return _solve(windows, floor)
    err_plain = 0.0
    err_model = 0.0
    for i, (instr, cycles, score) in enumerate(windows):
        rest = windows[:i] + windows[i + 1 :]
        rest_i = sum(w[0] for w in rest)
        rest_c = sum(w[1] for w in rest)
        cpi = rest_c / rest_i if rest_i else 1.0
        err_plain += (cycles - cpi * instr) ** 2
        base, exposure = _solve(rest, floor)
        err_model += (cycles - base * instr - exposure * score) ** 2
    if err_plain <= err_model:
        total_i = sum(w[0] for w in windows)
        total_c = sum(w[1] for w in windows)
        return (total_c / total_i if total_i else 1.0, 0.0)
    return _solve(windows, floor)


#: Relative-difference floors per signature component — CPI first, then
#: L2/LLC/DRAM/mispredict rates per instruction.  A reference component
#: below its floor is compared *at* the floor, so sparse-event shot noise
#: (one extra DRAM miss in a compute window) cannot declare a phase.
_SIG_FLOORS = (0.25, 0.02, 0.01, 0.005, 0.01)


def _signature_distance(
    a: Tuple[float, ...], b: Tuple[float, ...]
) -> float:
    """Largest relative component difference between two window signatures."""
    return max(
        abs(x - y) / max(abs(y), floor)
        for x, y, floor in zip(a, b, _SIG_FLOORS)
    )


class LiveController:
    """Per-thread online phase detector plus span error controller.

    Feed it each closed detailed window (raw counters and the span
    model's prediction error on that window); read ``span`` for how far
    the thread may fast-forward next.  Stable, well-predicted execution
    grows the span geometrically toward ``max_span``; a phase change or
    an error-budget overrun collapses it so the new behaviour is
    re-sampled immediately.
    """

    __slots__ = (
        "config",
        "span",
        "window",
        "ref_sig",
        "err_ewma",
        "phase_changes",
        "windows_seen",
    )

    def __init__(self, config: LiveSamplingConfig):
        self.config = config
        self.span = config.min_span
        self.window = config.window
        self.ref_sig: Optional[Tuple[float, ...]] = None
        #: Smoothed span-model generalization error — ``None`` until the
        #: model has enough windows to measure it.  While unknown, the
        #: controller refuses to fast-forward at all (the model has not
        #: yet proven it can price a skipped span).
        self.err_ewma: Optional[float] = None
        self.phase_changes = 0
        self.windows_seen = 0

    def observe_window(
        self,
        instructions: int,
        cycles: int,
        l2: int,
        llc: int,
        dram: int,
        mispredicts: int,
        model_error: Optional[float] = None,
    ) -> None:
        """Digest one closed detailed window and adapt the next span."""
        if instructions <= 0:
            return
        cfg = self.config
        inv = 1.0 / instructions
        sig = (
            cycles * inv,
            l2 * inv,
            llc * inv,
            dram * inv,
            mispredicts * inv,
        )
        phase_change = False
        if self.ref_sig is None:
            self.ref_sig = sig
        elif _signature_distance(sig, self.ref_sig) > cfg.phase_threshold:
            phase_change = True
            self.phase_changes += 1
            self.ref_sig = sig  # the new phase becomes the reference
        else:
            self.ref_sig = tuple(
                0.5 * r + 0.5 * s for r, s in zip(self.ref_sig, sig)
            )
        if model_error is not None:
            if self.err_ewma is None:
                self.err_ewma = model_error
            else:
                a = cfg.error_smoothing
                self.err_ewma = (1.0 - a) * self.err_ewma + a * model_error
        self.windows_seen += 1
        if phase_change:
            # Shrink the span; once the span is already floored, the
            # remaining lever is a longer window — measure more, price
            # less (and feed the model/signature steadier data).
            if self.span <= cfg.min_span:
                self.window = min(
                    cfg.max_window, int(self.window * cfg.grow)
                )
            self.span = max(cfg.min_span, int(self.span / cfg.shrink))
        else:
            self.span = min(cfg.max_span, int(self.span * cfg.grow))
            self.window = max(cfg.window, int(self.window / cfg.grow))

    def warm_budget(
        self, detailed: int, warmed: int, max_fraction: float = 1.0
    ) -> int:
        """How many instructions this thread may fast-forward next round.

        The estimator's total CPI error is roughly the warmed fraction
        times the span model's pricing error, so holding
        ``warmed / total <= target_error / model_error`` keeps the
        *run-level* error inside the budget no matter how noisy the model
        is: a model that cannot generalize (or has not yet measured
        whether it can) simply earns no fast-forward, and the run
        degrades gracefully toward full detail.

        ``max_fraction`` additionally caps the warmed fraction outright —
        the live loop passes :attr:`LiveSamplingConfig.max_skip`, since
        span mispricing and (on multi-thread chips) alignment drift are
        invisible to the span model yet also scale with how much is
        skipped.
        """
        if self.err_ewma is None:
            return 0  # unproven model: stay in detail
        cfg = self.config
        f = cfg.target_error / max(self.err_ewma, 1e-9)
        f = min(f, max_fraction)
        if f >= 1.0:
            return self.span
        total = detailed + warmed + self.window
        allowed = (f * total - warmed) / (1.0 - f)
        if allowed <= 0.0:
            return 0
        return min(self.span, int(allowed))


def _recent_cpi(
    state: _ThreadSampleState, controller: LiveController
) -> float:
    """A thread's current CPI estimate, for cycle-proportional warming.

    Prefers the phase detector's smoothed reference signature (it tracks
    the *recent* phase); falls back to the whole-run measured window CPI,
    then to 1.0 before any window has closed.
    """
    if controller.ref_sig is not None:
        return max(controller.ref_sig[0], 1e-6)
    instr = sum(w[0] for w in state.windows)
    cycles = sum(w[1] for w in state.windows)
    if instr > 0:
        return max(cycles / instr, 1e-6)
    return 1.0


def _predict_total(
    fit: List[Tuple[int, int, float]],
    hold: List[Tuple[int, int, float]],
    width: int,
) -> float:
    """Fit the span model on ``fit`` windows (rescaled to their totals,
    exactly like the estimator) and predict ``hold``'s total cycles."""
    base, exposure = _fit_model(fit, floor=0.5 / width)
    fit_i = sum(w[0] for w in fit)
    fit_c = sum(w[1] for w in fit)
    fit_s = sum(w[2] for w in fit)
    predicted = base * fit_i + exposure * fit_s
    if predicted > 0.0:
        k = fit_c / predicted
        base *= k
        exposure *= k
    return base * sum(w[0] for w in hold) + exposure * sum(w[2] for w in hold)


def _model_generalization_error(state: _ThreadSampleState) -> Optional[float]:
    """Split-half generalization error of the span model.

    Fits the event-cost model on the even-indexed windows and scores its
    prediction of the odd-indexed windows' *aggregate* cycles (and vice
    versa, averaged).  The aggregate is the right scale to test at:
    individual windows have large intrinsic CPI variance that cancels
    across spans, so per-window prediction error would keep the
    controller permanently alarmed, while the aggregate error tracks the
    bias that actually survives into the estimate.
    """
    windows = state.windows
    if len(windows) < 4:
        return None
    total = 0.0
    for parity in (0, 1):
        fit = windows[parity::2]
        hold = windows[1 - parity::2]
        hold_c = sum(w[1] for w in hold)
        prediction = _predict_total(fit, hold, state.width)
        total += abs(prediction - hold_c) / max(float(hold_c), 1.0)
    return 0.5 * total


def execute_sampled_live(
    hierarchy: MemoryHierarchy,
    cores: List[PipelineCore],
    config: Optional[LiveSamplingConfig] = None,
    max_cycles: int = 50_000_000,
) -> Tuple[List[Tuple[int, SimThread]], int, LiveSamplingDiagnostics]:
    """Run prepared cores in live (adaptive) sampled mode.

    Returns ``(threads, total_cycles, diagnostics)``: ``threads``
    flattens ``(core_index, SimThread)`` in core order with each thread's
    ``stats`` rewritten to the sampled estimate (``instructions`` is the
    full post-prefix budget and ``cycles`` the estimated total, so
    ``stats.ipc``/``stats.cpi`` are directly comparable to a full run),
    and ``diagnostics`` is a :class:`LiveSamplingDiagnostics` describing
    what the controller did.  Cores stay in lockstep: every round runs one
    detailed window on all unfinished cores, then fast-forwards the whole
    chip by the *most cautious* thread's span (a thread entering a new
    phase pulls the chip back to detail with it, so cross-core contention
    is re-measured too).
    """
    if config is None:
        config = LiveSamplingConfig()
    window = config.window
    states: Dict[int, _ThreadSampleState] = {}
    controllers: Dict[int, LiveController] = {}

    # The warm-up prefix is *not* skipped up front: each thread crosses
    # into its measured region at a different wall-clock time in a full
    # run — fast threads drain entirely before slow threads' measured
    # regions begin — and that staggering shapes
    # every shared-resource interaction.  The prefix simply participates
    # in the live loop at its natural rate (windows train the model and
    # controller; spans may skip it once the model has earned trust), and
    # the accounting boundary keeps its cycles out of the estimate.
    for core in cores:
        weights = _event_weights(core)
        for thread in core.threads:
            states[id(thread)] = _ThreadSampleState(
                budget=thread.trace_len - thread.warmup_instructions,
                width=core.core.width,
                weights=weights,
                boundary=thread.warmup_instructions,
            )
            controllers[id(thread)] = LiveController(config)
            # The snapshot machinery stays live: it records the exact
            # cycle each thread crosses its accounting boundary mid-window.

    rng = random.Random(config.jitter_seed)  # deterministic, reproducible
    n_threads = sum(len(core.threads) for core in cores)
    windows_run = 0
    window_cycles = window  # first round: no CPI measured yet, assume 1.0
    while True:
        _run_window_cycles(cores, states, window_cycles, max_cycles)
        windows_run += 1
        clock = max(core.cycle for core in cores)
        for core in cores:
            core.cycle = clock
        # Digest the closed windows, then pick the chip-wide span and the
        # next window: the most cautious thread wins both (shortest span,
        # longest window) since fast-forward and windows are lockstep.
        # Both are chosen in *cycles* — each thread's proposal is its
        # controller's instruction count times its measured CPI — and
        # warming then advances each thread by ``span_cycles / its CPI``
        # instructions.  Equal-instruction treatment would distort
        # relative progress: a fast thread would stay artificially
        # co-resident with a slow SMT sibling for the whole run, when in
        # a full run it drains its budget early and leaves the sibling
        # running solo (and, across cores, a paused fast core would stop
        # competing for the LLC, DRAM banks and the bus).
        span_cycles = None
        cpis: Dict[int, float] = {}
        window_cycles = window
        for core in cores:
            for thread in core.threads:
                state = states[id(thread)]
                controller = controllers[id(thread)]
                events = state.last_window_events
                if events is not None:
                    controller.observe_window(
                        *events,
                        model_error=_model_generalization_error(state),
                    )
                if thread.cursor < thread.trace_len:
                    cpi = _recent_cpi(state, controller)
                    cpis[id(thread)] = cpi
                    proposal = cpi * controller.warm_budget(
                        sum(w[0] for w in state.windows),
                        sum(s[0] for s in state.spans),
                        max_fraction=config.max_skip,
                    )
                    span_cycles = (
                        proposal
                        if span_cycles is None
                        else min(span_cycles, proposal)
                    )
                    wc = int(controller.window * cpi + 0.5)
                    if wc > window_cycles:
                        window_cycles = wc
        if span_cycles is None:
            break  # every trace drained (and every ROB with it)
        # Jitter the span (deterministically) so the round length cannot
        # alias with periodic structure in the traces — fixed-period
        # sampling would keep landing windows on the same trace phase.
        span_cycles *= rng.uniform(0.7, 1.3)
        if span_cycles < 1.0:
            continue  # no thread has earned a fast-forward: stay detailed
        quotas = {
            id(t): int(span_cycles / cpis[id(t)] + 0.5) if id(t) in cpis else 0
            for core in cores
            for t in core.threads
        }
        # Model-guided warming, in small interleaved slices.
        #
        # Two distortions have to be avoided here.  First, replaying one
        # thread's full span at a time sweeps the shared LLC with each
        # span in turn, mass-evicting its neighbours' resident lines — a
        # contention pattern no real interleaving produces — so every
        # thread advances at most ~32 instructions per slice, keeping the
        # replay order close to the fine-grained execution interleaving
        # it stands in for.  Second, and subtler: every thread must skip
        # the SAME amount of virtual time (``span_cycles``), or their
        # cursors drift out of alignment and later windows co-run trace
        # regions that never actually coexist — shared-cache contention
        # then lands on the wrong regions, and the error compounds round
        # over round (on memory-bound mixes this reached several percent
        # of chip IPC, with large seed-to-seed variance).  A fixed
        # instruction quota from the EWMA CPI estimate is too blunt: the
        # estimate lags exactly where behaviour shifts.  Instead each
        # thread warms until the *priced* cost of what it has warmed —
        # the same ``base·instr + exposure·score`` model that will later
        # price the span — reaches ``span_cycles``.  Pacing and pricing
        # then agree by construction: whatever cycles the estimator will
        # charge for the span is exactly the virtual time the thread
        # skipped.  Threads too young for a model fit (fewer than three
        # windows) fall back to the CPI quota; a 4× cap bounds the
        # fast-forward when the model prices a region as nearly free.
        tallies = {
            id(t): [0, 0, 0, 0, 0] for core in cores for t in core.threads
        }
        virt = dict.fromkeys(tallies, 0.0)
        pricers = {
            id(t): states[id(t)].span_pricer()
            for core in cores
            for t in core.threads
        }
        while True:
            progressed = False
            for core in cores:
                slice_quotas = []
                for t in core.threads:
                    tid = id(t)
                    if quotas[tid] <= 0 or t.cursor >= t.trace_len:
                        slice_quotas.append(0)
                        continue
                    pricer = pricers[tid]
                    if pricer is None:
                        remaining = quotas[tid] - tallies[tid][0]
                    elif virt[tid] < span_cycles:
                        remaining = 4 * quotas[tid] - tallies[tid][0]
                    else:
                        remaining = 0
                    slice_quotas.append(max(0, min(32, remaining)))
                if not any(slice_quotas):
                    continue
                counts = core.functional_warm(slice_quotas)
                for t, c in zip(core.threads, counts):
                    if not c[0]:
                        continue
                    progressed = True
                    tid = id(t)
                    acc = tallies[tid]
                    for j in range(5):
                        acc[j] += c[j]
                    pricer = pricers[tid]
                    if pricer is not None:
                        base, exposure = pricer
                        virt[tid] += base * c[0] + exposure * states[
                            tid
                        ].stall_score(c[1], c[2], c[3], c[4])
            if not progressed:
                break
        for core in cores:
            for thread in core.threads:
                warmed, l2, llc, dram, mispred = tallies[id(thread)]
                if warmed:
                    states[id(thread)].record_span(
                        thread, warmed, l2, llc, dram, mispred
                    )

    flat: List[Tuple[int, SimThread]] = []
    total_cycles = 1
    detailed_instr = 0
    warmed_instr = 0
    phase_changes = 0
    max_err = 0.0
    for core in cores:
        for thread in core.threads:
            state = states[id(thread)]
            controller = controllers[id(thread)]
            detailed_instr += sum(w[0] for w in state.windows)
            warmed_instr += sum(s[0] for s in state.spans)
            phase_changes += controller.phase_changes
            if controller.err_ewma is not None and controller.err_ewma > max_err:
                max_err = controller.err_ewma
            stats = thread.stats
            stats.instructions = state.budget
            stats.cycles = state.estimated_cycles_local()
            if stats.cycles > total_cycles:
                total_cycles = stats.cycles
            flat.append((core.core_index, thread))
    diagnostics = LiveSamplingDiagnostics(
        windows=windows_run,
        detailed_instructions=detailed_instr,
        warmed_instructions=warmed_instr,
        phase_changes=phase_changes,
        max_model_error=max_err,
    )
    return flat, total_cycles, diagnostics


def _run_window_cycles(
    cores: List[PipelineCore],
    states: Dict[int, _ThreadSampleState],
    span_cycles: int,
    max_cycles: int,
) -> None:
    """Simulate one detailed window of ``span_cycles`` *cycles* on every
    core.

    Every core runs until the same bell rings — not to a per-thread
    instruction quota — so no core ever freezes while another finishes
    its quota.  Heterogeneous chips make this matter: a
    solo thread on a medium core clears an instruction quota several
    times faster than an SMT pair on a big core, and pausing it would
    distort every shared resource it competes for (LLC capacity, DRAM
    banks, the off-chip bus) — each thread must stay co-resident for the
    same wall-clock interval it would share in a full run.  Threads whose
    traces drain mid-window stop naturally, exactly as in a full run.
    """
    active: List[PipelineCore] = []
    for core in cores:
        pending = False
        for thread in core.threads:
            states[id(thread)].open_window(thread, core.cycle)
            if thread.cursor < thread.trace_len or thread.rob:
                pending = True
        if pending:
            active.append(core)
    if active:
        end = max(core.cycle for core in active) + span_cycles
        events = [c.next_event_cycle() for c in active]
        while active:
            target = min(events)
            if target >= max_cycles:
                raise RuntimeError(
                    f"sampled simulation exceeded {max_cycles} cycles "
                    "without draining"
                )
            if target >= end:
                break  # no event left before the bell
            next_active: List[PipelineCore] = []
            next_events: List[int] = []
            for i, core in enumerate(active):
                if events[i] > target:
                    next_active.append(core)
                    next_events.append(events[i])
                    continue
                core.cycle = target
                core.step()
                if any(
                    t.cursor < t.trace_len or t.rob for t in core.threads
                ):
                    next_active.append(core)
                    next_events.append(core.next_event_cycle())
            active = next_active
            events = next_events
        for core in active:
            core.cycle = end  # pause in-flight work at the bell
    for core in cores:
        for thread in core.threads:
            states[id(thread)].close_window(thread, core.cycle)
