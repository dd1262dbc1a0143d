"""X-Mem substitute: kernels and the characterize sweep."""

import pytest

from repro.errors import ProfileError, TraceError
from repro.xmem import (
    XMemConfig,
    XMemRunner,
    gap_sweep,
    pointer_chase_addresses,
    pointer_chase_trace,
    throughput_trace,
)


class TestKernels:
    def test_pointer_chase_addresses_line_aligned(self):
        addrs = pointer_chase_addresses(100, 64)
        assert all(a % 64 == 0 for a in addrs)

    def test_pointer_chase_is_deterministic(self):
        assert pointer_chase_addresses(50, 64, seed=3) == pointer_chase_addresses(
            50, 64, seed=3
        )

    def test_pointer_chase_trace(self):
        trace = pointer_chase_trace(40, 64)
        assert len(trace) == 40

    def test_pointer_chase_rejects_zero(self):
        with pytest.raises(TraceError):
            pointer_chase_addresses(0, 64)

    def test_throughput_trace_thread_regions_disjoint(self):
        trace = throughput_trace(
            threads=2, accesses_per_thread=100, line_bytes=64, streams_per_thread=2
        )
        t0 = {a.addr >> 26 for a in trace.threads[0].accesses}
        t1 = {a.addr >> 26 for a in trace.threads[1].accesses}
        assert not (t0 & t1)

    def test_gap_sweep_ends_at_zero(self):
        gaps = gap_sweep(6)
        assert len(gaps) == 6
        assert gaps[-1] == 0.0
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gap_sweep_needs_two_levels(self):
        with pytest.raises(TraceError):
            gap_sweep(1)


class TestCharacterization:
    def test_profile_shape(self, xmem_skl_profile, skl):
        profile = xmem_skl_profile
        assert profile.machine_name == "skl"
        assert profile.source == "xmem"
        # Reaches a large fraction of achievable bandwidth.
        assert profile.max_measured_bw_bytes > 0.8 * skl.memory.achievable_bw_bytes
        # Monotone by construction.
        lats = [lat for _, lat in profile.points]
        assert lats == sorted(lats)

    def test_measured_curve_tracks_calibrated_curve(self, xmem_skl_profile, skl):
        """The characterize -> analyze loop closes (DESIGN.md §5).

        At mid-load the measured latency matches the machine's calibrated
        curve; near saturation admission queueing adds measured delay on
        top (a real-measurement artifact, also present in X-Mem)."""
        model = skl.latency_model
        mid_bw = 0.5 * skl.memory.peak_bw_bytes
        measured = xmem_skl_profile.latency_at(mid_bw)
        truth = model.latency_ns(0.5)
        # Bursty load generators queue at admission, so the measurement
        # sits above the pure curve but never below it, and within ~1.5x.
        assert truth * 0.95 <= measured <= truth * 1.5

    def test_idle_latency_near_machine_idle(self, xmem_skl_profile, skl):
        idle_ns = skl.latency_model.idle_latency_ns
        assert xmem_skl_profile.idle_latency_ns <= 1.6 * idle_ns

    def test_measurement_and_levels(self, knl):
        runner = XMemRunner(knl, XMemConfig(levels=3, accesses_per_thread=800))
        measurements = runner.sweep()
        assert len(measurements) == 3
        # More load (smaller gap) -> at least as much bandwidth.
        assert measurements[-1].bandwidth_bytes >= measurements[0].bandwidth_bytes

    def test_sim_cores_guard(self, skl):
        with pytest.raises(ProfileError):
            XMemRunner(skl, XMemConfig(sim_cores=100))

    def test_sweep_rerun_resumes_from_sim_cache(
        self, skl, monkeypatch, fresh_sim_cache
    ):
        runner = XMemRunner(skl, XMemConfig(levels=3, accesses_per_thread=300))
        gaps = gap_sweep(3)
        measure = XMemRunner.measure_level

        def interrupted(self_, gap_cycles):
            if gap_cycles == gaps[2]:
                raise RuntimeError("interrupted at level 3 of 3")
            return measure(self_, gap_cycles)

        monkeypatch.setattr(XMemRunner, "measure_level", interrupted)
        with pytest.raises(RuntimeError, match="level 3 of 3"):
            runner.sweep(jobs=1)
        monkeypatch.setattr(XMemRunner, "measure_level", measure)

        cache = fresh_sim_cache()
        resumed = runner.sweep(jobs=1)
        assert (cache.counters.hits, cache.counters.misses) == (2, 1)
        cache = fresh_sim_cache()
        assert runner.sweep(jobs=1) == resumed
        assert (cache.counters.hits, cache.counters.misses) == (3, 0)

    def test_utilization_field(self, skl):
        runner = XMemRunner(skl, XMemConfig(levels=2, accesses_per_thread=500))
        m = runner.measure_level(0.0)
        assert m.utilization == pytest.approx(
            m.bandwidth_bytes / skl.memory.peak_bw_bytes
        )
