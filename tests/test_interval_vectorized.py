"""Scalar-vs-vectorized equivalence for the interval tier.

The vectorized chip solver (batch traffic kernel, lockstep bisection,
warm-started brackets) must be *bit-identical* to the golden scalar
reference (`ChipModel._solve`) — not merely close.  These tests pin that
contract over the tier-1 figure grid, randomized placements (hypothesis),
warm-start hints good and garbage, the batched entry point, and the
study-level slab path.
"""

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.study as stmod
from repro.core.designs import ChipDesign, DESIGN_ORDER, all_designs, get_design
from repro.core.scheduler import Scheduler
from repro.interval.contention import (
    SOLVER_ENV,
    ChipModel,
    evaluate_batch,
)
from repro.microarch.config import BIG, MEDIUM, SMALL
from repro.obs import METRICS, reset_observability
from repro.workloads.multiprogram import heterogeneous_mixes, profiles_for
from repro.workloads.profiles import MissRateCurve
from repro.workloads.spec import SPEC_ORDER


def _placement(design, mix, smt=True):
    return Scheduler(design, smt=smt).place(profiles_for(list(mix)))


def _grid_points(designs, counts, mixes_per_count=None):
    for name in designs:
        design = get_design(name)
        model = ChipModel(design)
        for n in counts:
            mixes = heterogeneous_mixes(n)
            if mixes_per_count is not None:
                mixes = mixes[:mixes_per_count]
            for mix in mixes:
                yield model, _placement(design, mix)


class TestGoldenEquivalence:
    def test_fast_grid_subset(self):
        """Three designs x four counts x two mixes: exact equality."""
        for model, placement in _grid_points(
            DESIGN_ORDER[:3], (1, 2, 4, 8), mixes_per_count=2
        ):
            vector = model._solve_vectorized(placement, True, None)
            assert vector == model._solve(placement, True)

    @pytest.mark.slow
    def test_full_tier1_grid(self):
        """Every figure-grid point (9 designs x counts 1..9, all mixes)."""
        checked = 0
        for model, placement in _grid_points(
            [d.name for d in all_designs()], range(1, 10)
        ):
            vector = model._solve_vectorized(placement, True, None)
            assert vector == model._solve(placement, True)
            checked += 1
        assert checked > 900  # the full 963-point slab actually ran

    def test_smt_off_and_no_smt_designs(self):
        for name in ("4B", DESIGN_ORDER[-1]):
            design = get_design(name)
            model = ChipModel(design)
            placement = _placement(design, heterogeneous_mixes(4)[0], smt=False)
            vector = model._solve_vectorized(placement, False, None)
            assert vector == model._solve(placement, False)

    def test_icount_fetch_policy_falls_back_bit_identically(self):
        """ICOUNT SMT has no batch statics; the scalar fallback must match."""
        design = get_design("4B")
        model = ChipModel(design, fetch_policy="icount")
        placement = _placement(design, heterogeneous_mixes(8)[0])
        vector = model._solve_vectorized(placement, True, None)
        assert vector == model._solve(placement, True)

    _CORES = {"big": BIG, "medium": MEDIUM, "small": SMALL}

    @settings(max_examples=25, deadline=None)
    @given(
        core_names=st.lists(
            st.sampled_from(["big", "medium", "small"]), min_size=1, max_size=3
        ),
        mix=st.lists(st.sampled_from(SPEC_ORDER), min_size=1, max_size=6),
        smt=st.booleans(),
    )
    def test_property_random_placements(self, core_names, mix, smt):
        design = ChipDesign(
            name="prop-" + "-".join(core_names),
            cores=tuple(self._CORES[c] for c in core_names),
        )
        # Placements beyond the chip's hardware contexts fail validation in
        # SMT mode (pre-existing contract); only feasible ones are compared.
        assume(
            not smt
            or len(mix) <= sum(c.max_smt_contexts for c in design.cores)
        )
        model = ChipModel(design)
        placement = _placement(design, mix, smt=smt)
        vector = model._solve_vectorized(placement, smt, None)
        assert vector == model._solve(placement, smt)


class TestStaticsBranches:
    """Deterministic coverage of the branches ``results_at`` reproduces.

    Each case pins a placement shape the random placements above reach
    only by chance, checks that the shape really occurs, and requires the
    vectorized solver and ``evaluate_batch`` to match the scalar reference.
    The digest of the reference result's repr pins the values themselves,
    so a change that moved both solvers in step would still fail here.
    """

    CASES = [
        # (design, threads, smt, fetch policy, repr digest)
        ("4B", 12, False, "roundrobin", "57baf3bcbfc2600d"),  # duty 1/3
        ("4B", 24, False, "roundrobin", "3b5dede87fd09dcd"),  # duty 1/6
        ("20s", 24, True, "roundrobin", "cfd1b3481e00e9e3"),  # in-order SMT
        ("4B", 24, True, "icount", "231a94d5c20b8c48"),  # ICOUNT, 6 per core
    ]

    @pytest.mark.parametrize("name,n,smt,policy,digest", CASES)
    def test_vector_and_batch_match_reference(
        self, monkeypatch, name, n, smt, policy, digest
    ):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        design = get_design(name)
        model = ChipModel(design, fetch_policy=policy)
        placement = _placement(design, heterogeneous_mixes(n)[0], smt=smt)
        cores = list(zip(design.cores, placement.core_threads))
        if not smt:
            assert any(t.duty_cycle < 1.0 for _c, ts in cores for t in ts)
        elif policy == "icount":
            assert any(len(ts) > 1 for _c, ts in cores)
        else:
            assert any(
                len(ts) > 1 and not c.is_out_of_order for c, ts in cores
            )
        reference = model._solve(placement, smt)
        assert hashlib.sha256(repr(reference).encode()).hexdigest()[:16] == digest
        assert model._solve_vectorized(placement, smt, None) == reference
        assert evaluate_batch([(model, placement, smt, None)]) == [reference]


class TestBoundedState:
    def test_model_state_does_not_grow_with_points(self):
        """A second slab of new points leaves no solver state behind.

        The first slab warms every cache; only the second runs under
        tracemalloc, and what its allocations from the interval package
        still hold afterwards is the growth.  The profiles' miss-curve
        memos are cleared before the snapshot: they are bounded per curve
        by design, and their float keys come from the share arithmetic in
        this package.
        """
        design = get_design("4B")
        model = ChipModel(design)
        slabs = ([], [])  # odd and even thread counts: disjoint placements
        for n in range(1, 25):
            for smt in (True, False):
                if not smt and n <= design.num_cores:
                    continue  # same placement as with SMT
                for mix in heterogeneous_mixes(n)[:9]:
                    slabs[n % 2 == 0].append(
                        (model, _placement(design, mix, smt), smt, None)
                    )
        assert len(slabs[0]) > 150 and len(slabs[1]) > 150
        evaluate_batch(slabs[0])
        tracemalloc.start()
        try:
            evaluate_batch(slabs[1])
            for _model, placement, _smt, _hint in slabs[1]:
                for threads in placement.core_threads:
                    for t in threads:
                        for curve in (t.profile.icurve, t.profile.dcurve):
                            getattr(curve, "_mpki_memo", {}).clear()
            gc.collect()
            snap = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, "*/repro/interval/*")]
            )
        finally:
            tracemalloc.stop()
        grown = sum(stat.size for stat in snap.statistics("filename"))
        assert grown <= 16 * 1024


class TestWarmStart:
    def _cold_and_model(self):
        design = get_design("4B")
        model = ChipModel(design)
        placement = _placement(design, heterogeneous_mixes(12)[0])
        return model, placement, model._solve_vectorized(placement, True, None)

    def test_exact_root_hint_is_bit_identical(self):
        model, placement, cold = self._cold_and_model()
        warm = model._solve_vectorized(placement, True, cold.mem_latency_ns)
        assert warm == cold

    @pytest.mark.parametrize("hint", [-5.0, 0.0, 700.0, 1e6])
    def test_garbage_hints_are_bit_identical(self, hint):
        """A wrong or absurd hint may cost evaluations, never correctness."""
        model, placement, cold = self._cold_and_model()
        warm = model._solve_vectorized(placement, True, hint)
        assert warm == cold

    def test_unloaded_latency_hint(self):
        model, placement, cold = self._cold_and_model()
        warm = model._solve_vectorized(
            placement, True, model.unloaded_mem_latency_ns
        )
        assert warm == cold

    def test_warm_grid_matches_cold_and_scalar(self):
        """Chained hints (each point hinted by the previous root) stay exact."""
        design = get_design("8m")
        model = ChipModel(design)
        hint = None
        for n in (2, 3, 4, 6, 8):
            placement = _placement(design, heterogeneous_mixes(n)[0])
            warm = model._solve_vectorized(placement, True, hint)
            assert warm == model._solve(placement, True)
            hint = warm.mem_latency_ns


class TestEvaluateBatch:
    def test_batch_matches_per_point(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        requests = []
        for name in DESIGN_ORDER[:3]:
            design = get_design(name)
            model = ChipModel(design)
            for n in (1, 3, 6):
                placement = _placement(design, heterogeneous_mixes(n)[0])
                requests.append((model, placement, True, None))
        batch = evaluate_batch(requests)
        for (model, placement, smt, _hint), result in zip(requests, batch):
            assert result == model.evaluate(placement, smt)

    def test_scalar_env_mode(self, monkeypatch):
        design = get_design("4B")
        model = ChipModel(design)
        placement = _placement(design, heterogeneous_mixes(4)[0])
        monkeypatch.setenv(SOLVER_ENV, "scalar")
        scalar = model.evaluate(placement)
        monkeypatch.delenv(SOLVER_ENV)
        assert model.evaluate(placement) == scalar

    def test_verify_env_mode_smoke(self, monkeypatch):
        """verify mode runs both solvers and asserts parity internally."""
        monkeypatch.setenv(SOLVER_ENV, "verify")
        design = get_design("4B")
        placement = _placement(design, heterogeneous_mixes(6)[0])
        ChipModel(design).evaluate(placement)

    def test_solver_metrics_observed(self):
        reset_observability()
        METRICS.enable()
        try:
            design = get_design("4B")
            model = ChipModel(design)
            placement = _placement(design, heterogeneous_mixes(8)[0])
            evaluate_batch([(model, placement, True, None)])
            snap = METRICS.snapshot()
            assert "interval.solver.iterations" in snap["histograms"]
            assert "interval.solver.evals" in snap["histograms"]
        finally:
            reset_observability()


class TestStudySlabPath:
    def _grid(self, study, solver_env=None):
        results = {}
        for name in DESIGN_ORDER[:3]:
            for n in (1, 2, 4):
                for mix in study.mixes("heterogeneous", n)[:3]:
                    results[(name, tuple(mix))] = study.evaluate_mix(
                        name, list(mix)
                    )
        return results

    def test_batch_prefetch_matches_scalar_per_point(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "scalar")
        stmod.clear_latency_hint_cache()
        scalar = self._grid(stmod.DesignSpaceStudy())
        monkeypatch.delenv(SOLVER_ENV)
        stmod.clear_latency_hint_cache()
        study = stmod.DesignSpaceStudy()
        study.prefetch(DESIGN_ORDER[:3], "heterogeneous", (1, 2, 4))
        vector = self._grid(study)
        assert vector == scalar

    def test_nearest_hint_selection(self):
        assert stmod._nearest_hint({}, 4) is None
        assert stmod._nearest_hint({2: 100.0}, 8) == 100.0
        # Ties resolve toward fewer threads.
        assert stmod._nearest_hint({2: 100.0, 4: 200.0}, 3) == 100.0
        assert stmod._nearest_hint({2: 100.0, 4: 200.0}, 4) == 200.0

    def test_hint_cache_clear(self):
        hints = stmod._latency_hints(get_design("4B"), True)
        hints[4] = 123.0
        stmod.clear_latency_hint_cache()
        assert stmod._latency_hints(get_design("4B"), True) == {}


class TestMpkiMemo:
    def test_memoized_values_match_fresh_curve(self):
        a = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        b = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        capacities = [0.0, 1024.0, 32 * 1024.0, 1e6, 64e6]
        first = [a.mpki(c) for c in capacities]
        again = [a.mpki(c) for c in capacities]  # memo hits
        fresh = [b.mpki(c) for c in capacities]
        assert first == again == fresh

    def test_memo_does_not_affect_hash_equality_or_key(self):
        from repro.engine import content_key

        a = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        b = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        a.mpki(4096.0)  # populate a's memo only
        assert a == b
        assert hash(a) == hash(b)
        assert content_key(a) == content_key(b)

    def test_misses_per_instruction_uses_memo(self):
        curve = MissRateCurve(mpki_ref=10.0, alpha=0.7)
        assert curve.misses_per_instruction(8192.0) == curve.mpki(8192.0) / 1000.0
