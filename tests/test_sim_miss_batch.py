"""Batched miss retirement: element-wise and end-to-end equivalence.

The contract (docs/PERFORMANCE.md, miss-stream batching): with
``SimConfig.batch_miss=True`` the simulator may retire runs *containing
misses* closed-form, and every semantic observable is bit-identical to
the event engine.  Exercised four ways:

* element-wise unit properties of the new vectorized surfaces against
  scalar sequences — ``MshrFile.allocate_batch``/``release_batch``
  (including aliasing rejection and full-file back-pressure),
  ``MemoryController.plan_batch``/``commit_batch`` (including zero-gap
  bursts longer than the fixed-point pass bound, issue times equal to
  the next free slot, window-cutoff ties, pre-filled deques and empty
  runs), ``CacheArray.fill_batch`` (including the resident probe table
  it keeps), and the latency models' ``latency_ns_batch``;
* end-to-end fingerprint equivalence and full engagement on the cold
  scatter workload (the regime the fast path targets);
* fallback diagnosability: the ``batch_fallbacks`` reason counters for
  SMT and non-drainable handoffs;
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
from repro.memory import LatencyProfile
from repro.sim import ColumnarTrace, SimConfig, run_trace
from repro.sim.cache import CacheArray
from repro.sim.engine import Engine
from repro.sim.memctrl import ADMIT_PASSES, MemoryController, _admissions
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


_TABULATED = LatencyProfile(
    "m", 100e9, ((0.0, 80.0), (0.3, 95.0), (0.7, 160.0), (1.0, 310.0))
)
#: A steep knee: nine points, two of them closer than the 1e-9 merge
#: spacing (merged into one vertical step at u = 0.85).
_KNEE = LatencyProfile(
    "m",
    100e9,
    (
        (0.0, 90.0),
        (0.2, 92.0),
        (0.4, 97.0),
        (0.6, 108.0),
        (0.75, 130.0),
        (0.85, 190.0),
        (0.85 + 5e-10, 320.0),
        (0.9, 600.0),
        (1.0, 650.0),
    ),
)


class TestMemctrlBatchEquivalence:
    """plan_batch/commit_batch == scheduled scalar request() sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        burst=st.booleans(),
        model=st.sampled_from([_TABULATED, _KNEE]),
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
        got = np.sort(admit + latency)
        want = np.sort(np.asarray(completions))
        assert got.tolist() == want.tolist()

    def test_plan_batch_does_not_mutate(self):
        _, (engine, ctrl) = _controllers(_TABULATED)
        issue = 1.0 + np.cumsum(np.full(8, 3.0))
        before = (ctrl._next_free_ns, list(ctrl._recent))
        first = ctrl.plan_batch(issue)
        after = (ctrl._next_free_ns, list(ctrl._recent))
        second = ctrl.plan_batch(issue)
        assert before == after
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()


class _RecordingController(MemoryController):
    """Scalar controller that records each admission time it applies.

    Every request's admission goes through ``_admit``, which notes it in
    the utilization window itself.
    """

    __slots__ = ("admits",)

    def _admit(self, queued_ns, admit_ns, *args):
        self.admits.append(admit_ns)
        super()._admit(queued_ns, admit_ns, *args)


class _RecordingModel:
    """Curve wrapper recording every scalar lookup, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def latency_ns(self, utilization):
        latency = self.inner.latency_ns(utilization)
        self.seen.append(latency)
        return latency


def _admissions_reference(issue, next_free, slot):
    """The scalar admission chain, one request at a time."""
    out = []
    for t in issue:
        a = t if t > next_free else next_free
        next_free = a + slot
        out.append(a)
    return np.array(out, dtype=np.float64)


#: Per-request gap kinds: 0 = same instant (back-to-back chains), 1 =
#: exactly one slot (an issue time equal to the next free slot), 2 =
#: a random gap that may or may not drain the queue, 3 = a long gap,
#: so a run can span several utilization windows.
_GAP_KINDS = st.lists(st.integers(0, 3), min_size=0, max_size=160)


class TestMemctrlArrayPasses:
    """plan_batch's array passes against scalar request() sequences.

    Compared bit for bit: admission times and loaded latencies per
    request, then the deque, byte count, next free slot and latency
    sum after commit_batch.
    """

    def _issue(self, kinds, t0, slot, rng):
        issue = []
        t = t0
        for kind in kinds:
            if kind == 1:
                t = t + slot
            elif kind == 2:
                t = t + float(rng.uniform(0.0, 3.0 * slot))
            elif kind == 3:
                t = t + float(rng.uniform(0.0, 300.0 * slot))
            issue.append(t)
        return np.array(issue, dtype=np.float64)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        kinds=_GAP_KINDS,
        burst=st.integers(0, 80),
        prefill=st.integers(0, 30),
        tie_start=st.booleans(),
    )
    def test_matches_scalar_admissions(
        self, seed, kinds, burst, prefill, tie_start
    ):
        rng = np.random.default_rng(seed)
        controllers = []
        for model in (_RecordingModel(_TABULATED), _TABULATED):
            engine = Engine()
            ctrl = _RecordingController(
                engine,
                model,
                peak_bw_bytes=100e9,
                achievable_fraction=0.8,
                line_bytes=64,
                stats=MemoryStats(),
                window_ns=500.0,
            )
            ctrl.admits = []
            controllers.append((engine, ctrl))
        # Identical scalar history on both controllers: the deque holds
        # entries of mixed age when the batch starts.
        history = np.sort(rng.uniform(0.0, 1500.0, prefill)).tolist()
        for engine, ctrl in controllers:
            for t in history:
                engine.schedule_at(
                    t,
                    lambda c=ctrl: c.request(
                        is_write=False, is_prefetch=False, on_complete=lambda: None
                    ),
                )
            engine.run()
            ctrl.admits.clear()
        (scalar_engine, scalar), (batch_engine, batch) = controllers
        scalar.latency_model.seen.clear()
        t0 = max(batch_engine.now, batch._next_free_ns)
        if not tie_start:
            t0 += float(rng.uniform(0.0, 600.0))
        # A leading zero-gap burst: a back-to-back chain that can outrun
        # the fixed-point pass bound.
        issue = self._issue([0] * burst + kinds, t0, batch.slot_ns, rng)
        for t in issue.tolist():
            scalar_engine.schedule_at(
                t,
                lambda: scalar.request(
                    is_write=False, is_prefetch=False, on_complete=lambda: None
                ),
            )
        scalar_engine.run()

        admit, latency = batch.plan_batch(issue)
        assert np.array_equal(admit, np.array(scalar.admits, dtype=np.float64))
        assert np.array_equal(
            latency, np.array(scalar.latency_model.seen, dtype=np.float64)
        )
        batch.commit_batch(issue, admit, latency)
        assert list(batch._recent) == list(scalar._recent)
        assert batch._next_free_ns == scalar._next_free_ns
        assert batch.stats.latency_sum_ns == scalar.stats.latency_sum_ns
        assert batch.stats.requests == scalar.stats.requests

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        kinds=_GAP_KINDS,
        next_free=st.floats(0.0, 50.0),
    )
    def test_admission_passes_match_chain(self, seed, kinds, next_free):
        rng = np.random.default_rng(seed)
        slot = 0.8
        issue = self._issue(kinds, 10.0, slot, rng)
        assert np.array_equal(
            _admissions(issue, next_free, slot),
            _admissions_reference(issue.tolist(), next_free, slot),
        )

    def test_chain_longer_than_pass_bound(self):
        # Three bursts, each longer than the pass bound, separated by
        # gaps that drain the queue, then a tail of spaced requests.
        slot = 0.7
        burst = ADMIT_PASSES * 3
        issue = np.concatenate(
            [
                np.full(burst, 5.0),
                np.full(burst, 5.0 + burst * slot * 2),
                np.full(burst, 5.0 + burst * slot * 4),
                5.0 + burst * slot * 6 + np.arange(10) * slot * 1.5,
            ]
        )
        assert np.array_equal(
            _admissions(issue, 0.0, slot),
            _admissions_reference(issue.tolist(), 0.0, slot),
        )

    @pytest.mark.parametrize("from_deque", [False, True])
    def test_entry_exactly_at_cutoff_stays_live(self, from_deque):
        # window_ns = 500: the admission at 1500 ns has its cutoff at
        # exactly 1000 ns, and the scalar trim keeps an entry there,
        # whether it is admitted in the run or already in the deque.
        (scalar_engine, scalar), (batch_engine, batch) = _controllers(_TABULATED)
        issue = [1000.0, 1250.0, 1500.0]
        if from_deque:
            for engine, ctrl in ((scalar_engine, scalar), (batch_engine, batch)):
                engine.schedule_at(
                    1000.0,
                    lambda c=ctrl: c.request(
                        is_write=False, is_prefetch=False, on_complete=lambda: None
                    ),
                )
                engine.run()
            issue = issue[1:]
        for t in issue:
            scalar_engine.schedule_at(
                t,
                lambda: scalar.request(
                    is_write=False, is_prefetch=False, on_complete=lambda: None
                ),
            )
        scalar_engine.run()
        admit, latency = batch.plan_batch(np.array(issue))
        batch.commit_batch(np.array(issue), admit, latency)
        assert batch.stats.latency_sum_ns == scalar.stats.latency_sum_ns
        assert list(batch._recent) == list(scalar._recent)
        assert len(batch._recent) == 3

    def test_empty_run(self):
        _, (_, ctrl) = _controllers(_TABULATED)
        ctrl.request(is_write=False, is_prefetch=False, on_complete=lambda: None)
        ctrl.engine.run()
        before = (ctrl._next_free_ns, list(ctrl._recent))
        admit, latency = ctrl.plan_batch(np.empty(0, dtype=np.float64))
        assert admit.shape == latency.shape == (0,)
        ctrl.commit_batch(np.empty(0), admit, latency)
        assert before == (ctrl._next_free_ns, list(ctrl._recent))


class TestLatencyModelBatch:
    """latency_ns_batch is elementwise bit-identical to latency_ns."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 64),
        model=st.sampled_from([_TABULATED, _KNEE]),
    )
    def test_elementwise_identical(self, seed, n, model):
        rng = np.random.default_rng(seed)
        utils = rng.uniform(0.0, 1.05, n)
        got = model.latency_ns_batch(utils)
        want = [model.latency_ns(float(u)) for u in utils.tolist()]
        assert got.tolist() == want

    def test_domain_errors_match_scalar(self):
        for model in (_TABULATED, _KNEE):
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
        assert batch_cache.lru_state() == scalar_cache.lru_state()
        assert batch_cache.fills == scalar_cache.fills
        assert batch_cache.evictions == scalar_cache.evictions
        assert batch_cache.dirty_evictions == scalar_cache.dirty_evictions == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(0, 60), min_size=1, max_size=6),
        crowd=st.integers(0, 12),
    )
    def test_resident_table_tracks_sets(self, seed, sizes, crowd):
        """The maintained probe table equals the sorted tags after every fill.

        ``crowd`` extra lines land in set 0 of the first batch, so that
        set overflows within one batch (lines filled, then evicted by
        the same batch) whenever ``crowd`` exceeds the free ways.
        """
        rng = np.random.default_rng(seed)
        batch_cache, scalar_cache = _fresh_cache("batch"), _fresh_cache("scalar")
        batch_cache.probe_batch(np.zeros(1, dtype=np.uint64))  # build the table
        pool = rng.permutation(np.arange(1, 4096))
        crowded = np.arange(1, crowd + 1) * batch_cache.num_sets
        pool = pool[~np.isin(pool, crowded)]
        used = 0
        for i, size in enumerate(sizes):
            lines = pool[used : used + size]
            used += size
            if i == 0:
                lines = np.concatenate([crowded, lines])
            lines = (lines * 64).astype(np.uint64)
            batch_cache.fill_batch(lines)
            for line in lines.tolist():
                scalar_cache.fill(int(line))
            tags = [tag for ways in batch_cache._sets for tag in ways]
            assert batch_cache._resident_cache is not None
            assert np.array_equal(
                batch_cache._resident_cache, np.sort(np.array(tags, dtype=np.uint64))
            )
            assert batch_cache.lru_state() == scalar_cache.lru_state()
            assert batch_cache.evictions == scalar_cache.evictions
            probe = (rng.choice(np.arange(1, 4096), 64) * 64).astype(np.uint64)
            want = [scalar_cache.probe(int(line)) for line in probe.tolist()]
            assert batch_cache.probe_batch(probe).tolist() == want

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
        (5275, 6203, 0),
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
        (0.3, 0.2, (4873, 0, 0)),
        (0.02, 0.2, (3086, 569, 0)),
        (0.02, 0.0, (2300, 959, 750)),
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
