"""Batched miss retirement: element-wise and end-to-end equivalence.

The contract (docs/PERFORMANCE.md, miss-stream batching): with
``SimConfig.batch_miss=True`` the simulator may retire runs *containing
misses* closed-form, and every semantic observable is bit-identical to
the event engine.  Exercised four ways:

* element-wise unit properties of the new vectorized surfaces against
  scalar sequences — ``MshrFile.allocate_batch``/``release_batch``
  (including aliasing rejection and full-file back-pressure),
  ``MemoryController.plan_batch``/``commit_batch`` (including zero-gap
  bursts), ``CacheArray.fill_batch``, and the latency models'
  ``latency_ns_batch``;
* end-to-end fingerprint equivalence and full engagement on the cold
  scatter workload (the regime the fast path targets);
* fallback diagnosability: the ``batch_fallbacks`` reason counters for
  SMT, L3, and non-drainable handoffs;
* config plumbing: ``batch_miss=False`` restricts batching to all-hit
  runs without changing results;
* pinned engagement: exact ``(events_fired, batch_accesses,
  batch_miss_accesses)`` on resident, scatter and mixed traces, so a
  planner change that batches more or less than before is caught.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ProfileDomainError, SimulationError
from repro.machines import get_machine
from repro.machines.spec import CacheSpec
from repro.memory.latency_model import (
    QueueingLatencyModel,
    TabulatedLatencyModel,
)
from repro.sim import ColumnarTrace, SimConfig, run_trace
from repro.sim.cache import CacheArray
from repro.sim.engine import Engine
from repro.sim.memctrl import MemoryController
from repro.sim.mshr import MshrFile
from repro.sim.stats import MemoryStats
from repro.xmem.kernels import pointer_chase_trace, resident_trace, scatter_trace

from .test_sim_batch import _mixed_trace


# -- MshrFile batch surface ------------------------------------------------------


def _interval_batch(draw_seed: int, n: int, capacity: int):
    """Alloc/release interval arrays with the batch-path preconditions."""
    rng = np.random.default_rng(draw_seed)
    alloc = 1.0 + np.cumsum(rng.uniform(0.5, 50.0, n))
    release = alloc + rng.uniform(0.25, 200.0, n)
    return alloc, release


def _sweep_max_occupancy(alloc: np.ndarray, release: np.ndarray) -> int:
    times = np.concatenate([alloc, release])
    deltas = np.concatenate([np.ones(len(alloc)), -np.ones(len(release))])
    order = np.argsort(times, kind="stable")
    return int(np.cumsum(deltas[order]).max())


class TestMshrBatchEquivalence:
    """allocate_batch/release_batch == scalar allocate/release sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 24),
        capacity=st.integers(1, 6),
    )
    def test_matches_scalar_interval_replay(self, seed, n, capacity):
        alloc, release = _interval_batch(seed, n, capacity)
        assume(_sweep_max_occupancy(alloc, release) <= capacity)
        assume(not len(np.intersect1d(alloc, release)))
        lines = (np.arange(n, dtype=np.uint64) + 1) * 64

        batch = MshrFile("batch", capacity)
        batch.allocate_batch(alloc, lines)
        batch.release_batch(release)

        scalar = MshrFile("scalar", capacity)
        events = sorted(
            [(t, 0, i) for i, t in enumerate(alloc.tolist())]
            + [(t, 1, i) for i, t in enumerate(release.tolist())],
            key=lambda e: (e[0], e[2]),
        )
        for t, kind, i in events:
            if kind == 0:
                scalar.allocate(t, int(lines[i]), is_prefetch=False)
            else:
                scalar.release(t, int(lines[i]))

        assert batch.allocations == scalar.allocations
        assert not batch.entries and not scalar.entries
        bt, sct = batch.tracker, scalar.tracker
        assert bt.occupancy == sct.occupancy == 0
        assert bt.integral_ns == sct.integral_ns
        assert bt.full_time_ns == sct.full_time_ns
        assert bt.peak == sct.peak
        assert bt.last_update_ns == sct.last_update_ns

    def test_aliasing_within_batch_rejected(self):
        """A repeated line must merge on the event path, never batch."""
        mshr = MshrFile("alias", 8)
        times = np.array([1.0, 2.0])
        lines = np.array([64, 64], dtype=np.uint64)
        with pytest.raises(SimulationError, match="duplicate line"):
            mshr.allocate_batch(times, lines)

    def test_collision_with_live_entry_rejected(self):
        mshr = MshrFile("live", 8)
        mshr.allocate(0.5, 64, is_prefetch=False)
        with pytest.raises(SimulationError, match="collides"):
            mshr.allocate_batch(
                np.array([1.0]), np.array([64], dtype=np.uint64)
            )

    def test_full_file_back_pressure_rejected(self):
        """Occupancy above capacity (a would-be stall) must raise."""
        mshr = MshrFile("full", 1)
        alloc = np.array([1.0, 2.0])
        release = np.array([10.0, 11.0])  # both in flight at t=2
        mshr.allocate_batch(alloc, np.array([64, 128], dtype=np.uint64))
        with pytest.raises(ValueError, match="exceeds capacity"):
            mshr.release_batch(release)

    def test_release_at_allocation_time_rejected(self):
        mshr = MshrFile("tie", 4)
        mshr.allocate_batch(
            np.array([1.0, 2.0]), np.array([64, 128], dtype=np.uint64)
        )
        with pytest.raises(SimulationError, match="collision"):
            mshr.release_batch(np.array([2.0, 3.0]))


# -- MemoryController batch service ---------------------------------------------


def _controllers(latency_model):
    def make():
        engine = Engine()
        ctrl = MemoryController(
            engine,
            latency_model,
            peak_bw_bytes=100e9,
            achievable_fraction=0.8,
            line_bytes=64,
            stats=MemoryStats(),
            window_ns=500.0,
        )
        return engine, ctrl

    return make(), make()


_TABULATED = TabulatedLatencyModel(
    [(0.0, 80.0), (0.3, 95.0), (0.7, 160.0), (1.0, 310.0)]
)
_QUEUEING = QueueingLatencyModel(idle_ns=90.0)


class TestMemctrlBatchEquivalence:
    """plan_batch/commit_batch == scheduled scalar request() sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        burst=st.booleans(),
        model=st.sampled_from([_TABULATED, _QUEUEING]),
    )
    def test_matches_scalar_requests(self, seed, n, burst, model):
        rng = np.random.default_rng(seed)
        if burst:
            # Zero-gap bursts: several requests share each issue instant.
            gaps = rng.uniform(0.0, 40.0, n) * (rng.random(n) < 0.4)
        else:
            gaps = rng.uniform(0.0, 400.0, n)
        issue = 1.0 + np.cumsum(gaps)

        (scalar_engine, scalar), (_, batch) = _controllers(model)
        completions = []
        for t in issue.tolist():
            def _request():
                scalar.request(
                    is_write=False,
                    is_prefetch=False,
                    on_complete=lambda: completions.append(scalar_engine.now),
                )

            scalar_engine.schedule_at(t, _request)
        scalar_engine.run()

        admit, latency = batch.plan_batch(issue)
        batch.commit_batch(issue, admit, latency)

        assert scalar.stats.requests == batch.stats.requests == n
        assert scalar.stats.demand_read_bytes == batch.stats.demand_read_bytes
        assert scalar.stats.latency_sum_ns == batch.stats.latency_sum_ns
        assert scalar.stats.latency_count == batch.stats.latency_count
        assert scalar._next_free_ns == batch._next_free_ns
        assert list(scalar._recent) == list(batch._recent)
        assert scalar._recent_bytes == batch._recent_bytes
        got = np.sort(admit + latency)
        want = np.sort(np.asarray(completions))
        assert got.tolist() == want.tolist()

    def test_plan_batch_does_not_mutate(self):
        _, (engine, ctrl) = _controllers(_TABULATED)
        issue = 1.0 + np.cumsum(np.full(8, 3.0))
        before = (ctrl._next_free_ns, list(ctrl._recent), ctrl._recent_bytes)
        first = ctrl.plan_batch(issue)
        after = (ctrl._next_free_ns, list(ctrl._recent), ctrl._recent_bytes)
        second = ctrl.plan_batch(issue)
        assert before == after
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()


class TestLatencyModelBatch:
    """latency_ns_batch is elementwise bit-identical to latency_ns."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 64),
        model=st.sampled_from([_TABULATED, _QUEUEING]),
    )
    def test_elementwise_identical(self, seed, n, model):
        rng = np.random.default_rng(seed)
        utils = rng.uniform(0.0, 1.05, n)
        got = model.latency_ns_batch(utils)
        want = [model.latency_ns(float(u)) for u in utils.tolist()]
        assert got.tolist() == want

    def test_domain_errors_match_scalar(self):
        for model in (_TABULATED, _QUEUEING):
            with pytest.raises(ProfileDomainError):
                model.latency_ns_batch(np.array([0.2, 1.2]))
            with pytest.raises(ProfileDomainError):
                model.latency_ns_batch(np.array([-0.1]))
            with pytest.raises(ProfileDomainError):
                model.latency_ns_batch(np.array([np.nan]))


# -- CacheArray.fill_batch -------------------------------------------------------


def _fresh_cache(name="fill-test"):
    spec = CacheSpec(
        level=1, size_bytes=8192, line_bytes=64, mshrs=8, associativity=4
    )
    return CacheArray(spec, name)


class TestFillBatch:
    """fill_batch == sequential fill() under the miss-path preconditions."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 200))
    def test_matches_sequential_fill(self, seed, n):
        rng = np.random.default_rng(seed)
        # Unique absent lines (preconditions the planner guarantees).
        lines = (
            rng.choice(np.arange(1, 4096), size=min(n, 512), replace=False)
            * 64
        ).astype(np.uint64)
        batch_cache, scalar_cache = _fresh_cache("batch"), _fresh_cache("scalar")
        batch_cache.fill_batch(lines)
        for line in lines.tolist():
            assert scalar_cache.fill(int(line)) is None
        assert batch_cache._sets == scalar_cache._sets
        assert batch_cache.fills == scalar_cache.fills
        assert batch_cache.evictions == scalar_cache.evictions
        assert batch_cache.dirty_evictions == scalar_cache.dirty_evictions == 0

    def test_dirty_victim_raises(self):
        cache = _fresh_cache()
        set_lines = [(1 + i * cache.num_sets) * 64 for i in range(cache.ways)]
        for line in set_lines:
            cache.fill(line, dirty=(line == set_lines[0]))
        overflow = np.array(
            [(1 + cache.ways * cache.num_sets) * 64], dtype=np.uint64
        )
        with pytest.raises(SimulationError, match="dirty"):
            cache.fill_batch(overflow)


# -- end-to-end: engagement, fingerprints, fallback reasons ----------------------


def _scatter(machine, accesses=4000, gap_cycles=400.0):
    return scatter_trace(
        threads=1,
        accesses_per_thread=accesses,
        line_bytes=machine.line_bytes,
        gap_cycles=gap_cycles,
    )


class TestMissBatchEndToEnd:
    @pytest.mark.parametrize("machine_name", ["skl", "knl", "a64fx"])
    @pytest.mark.parametrize("hw_prefetch", [False, True])
    def test_scatter_engages_and_matches(self, machine_name, hw_prefetch):
        machine = get_machine(machine_name)
        common = dict(
            machine=machine,
            sim_cores=1,
            window_per_core=12,
            tlb_entries=0,
            hw_prefetch=hw_prefetch,
        )
        trace = _scatter(machine)
        event = run_trace(trace, SimConfig(batch=False, **common))
        batch = run_trace(trace, SimConfig(batch=True, **common))
        assert event.fingerprint() == batch.fingerprint()
        assert batch.batch_miss_accesses > 0.9 * batch.issued_total()
        assert batch.events_fired < event.events_fired / 10

    def test_batch_miss_off_restricts_to_hit_runs(self):
        machine = get_machine("knl")
        common = dict(machine=machine, sim_cores=1, window_per_core=12, tlb_entries=0)
        trace = _scatter(machine, accesses=1500)
        event = run_trace(trace, SimConfig(batch=False, **common))
        off = run_trace(trace, SimConfig(batch=True, batch_miss=False, **common))
        assert event.fingerprint() == off.fingerprint()
        assert off.batch_miss_accesses == 0

    def test_non_drainable_gap_falls_back_with_reason(self):
        """Continuous high-MLP streams replay through the event engine."""
        machine = get_machine("skl")
        trace = ColumnarTrace(
            threads=(pointer_chase_trace(1500, machine.line_bytes),),
            routine="chase",
            line_bytes=machine.line_bytes,
        )
        common = dict(machine=machine, sim_cores=1, window_per_core=12, tlb_entries=0)
        event = run_trace(trace, SimConfig(batch=False, **common))
        batch = run_trace(trace, SimConfig(batch=True, **common))
        assert event.fingerprint() == batch.fingerprint()
        assert batch.batch_miss_accesses == 0
        assert "handoff" in batch.batch_fallbacks

    def test_smt_fallback_reason_recorded(self):
        """The silently-inert-under-SMT case is now diagnosable."""
        machine = get_machine("knl")  # 4-way SMT
        trace = scatter_trace(
            threads=2,
            accesses_per_thread=600,
            line_bytes=machine.line_bytes,
        )
        stats = run_trace(
            trace,
            SimConfig(
                machine=machine,
                sim_cores=1,
                threads_per_core=2,
                window_per_core=12,
                batch=True,
            ),
        )
        assert stats.batch_accesses == 0
        assert stats.batch_fallbacks.get("smt") == 1

    def test_l3_fallback_reason_recorded(self):
        machine = get_machine("skl")
        trace = _scatter(machine, accesses=600)
        stats = run_trace(
            trace,
            SimConfig(
                machine=machine,
                sim_cores=1,
                window_per_core=12,
                batch=True,
                l3_enabled=True,
            ),
        )
        assert stats.batch_fallbacks.get("l3") == 1

    def test_fallback_counters_are_not_semantic(self):
        machine = get_machine("skl")
        trace = _scatter(machine, accesses=600)
        stats = run_trace(
            trace,
            SimConfig(machine=machine, sim_cores=1, window_per_core=12, batch=True),
        )
        doc = stats.to_dict()
        assert "batch_fallbacks" in doc and "batch_miss_accesses" in doc
        fp = stats.fingerprint()
        stats.batch_miss_accesses = 0
        stats.batch_fallbacks = {"synthetic": 3}
        assert stats.fingerprint() == fp


# -- pinned engagement -------------------------------------------------------------


def _pin_cases():
    skl, knl = get_machine("skl"), get_machine("knl")
    yield pytest.param(
        lambda: resident_trace(
            threads=4, accesses_per_thread=2000, line_bytes=skl.line_bytes
        ),
        dict(machine=skl, sim_cores=4),
        (8416, 6203, 0),
        id="resident-skl-4core",
    )
    for hw_prefetch in (False, True):
        yield pytest.param(
            lambda: scatter_trace(
                threads=1, accesses_per_thread=1500, line_bytes=knl.line_bytes
            ),
            dict(
                machine=knl,
                sim_cores=1,
                window_per_core=12,
                tlb_entries=0,
                hw_prefetch=hw_prefetch,
            ),
            (3, 1500, 1500),
            id=f"scatter-knl-prefetch{int(hw_prefetch)}",
        )
    for miss_rate, store_rate, expected in (
        (0.3, 0.2, (6532, 0, 0)),
        (0.02, 0.2, (3572, 569, 0)),
        (0.02, 0.0, (2764, 959, 750)),
    ):
        yield pytest.param(
            lambda mr=miss_rate, sr=store_rate: _mixed_trace(
                5, 2000, threads=1, miss_rate=mr, store_rate=sr
            ),
            dict(machine=skl, sim_cores=1),
            expected,
            id=f"mixed-skl-miss{miss_rate}-store{store_rate}",
        )


class TestPinnedEngagement:
    """The batch planner retires exactly the runs it always has."""

    @pytest.mark.parametrize("build, config, expected", list(_pin_cases()))
    def test_engagement_counts(self, build, config, expected):
        trace = build()
        batch = run_trace(trace, SimConfig(batch=True, **config))
        event = run_trace(trace, SimConfig(batch=False, **config))
        assert batch.fingerprint() == event.fingerprint()
        got = (
            batch.events_fired,
            batch.batch_accesses,
            batch.batch_miss_accesses,
        )
        assert got == expected
