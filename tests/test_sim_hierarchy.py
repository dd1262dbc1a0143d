"""Hierarchy integration: full request flow through L1/L2/MC."""

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.sim import (
    AccessColumns,
    AccessKind,
    Hierarchy,
    SimConfig,
    columnar_trace,
    run_trace,
    trace_from_addresses,
)
from repro.sim.coltrace import KIND_CODES


def _random_trace(n=800, threads=2, line=64, seed=1, gap=2.0, region=256 << 20):
    rng = random.Random(seed)
    return trace_from_addresses(
        [
            [rng.randrange(region // line) * line for _ in range(n)]
            for _ in range(threads)
        ],
        line_bytes=line,
        gap_cycles=gap,
        routine="rand",
    )


def _stream_trace(n=800, threads=2, line=64, streams=4, element=8):
    """Unit-stride element streams (8B elements within 64B lines), the
    shape of real streaming code: one compulsory miss per line with the
    intervening element hits giving the prefetcher time to run ahead."""
    out = []
    for t in range(threads):
        bases = [(t * streams + s) * (64 << 20) for s in range(streams)]
        offs = [0] * streams
        addrs = []
        for i in range(n):
            s = i % streams
            addrs.append(bases[s] + offs[s])
            offs[s] += element
        out.append(addrs)
    return trace_from_addresses(out, line_bytes=line, gap_cycles=2.0, routine="stream")


class TestConfigValidation:
    def test_too_many_sim_cores(self, skl):
        with pytest.raises(ConfigurationError):
            SimConfig(machine=skl, sim_cores=100)

    def test_too_many_threads(self, skl):
        with pytest.raises(ConfigurationError):
            SimConfig(machine=skl, sim_cores=1, threads_per_core=3)

    def test_window_split_across_threads(self, knl):
        cfg = SimConfig(machine=knl, sim_cores=1, threads_per_core=4, window_per_core=16)
        assert cfg.window_per_thread == 4

    def test_line_size_mismatch_rejected(self, skl, small_skl_config):
        trace = _random_trace(n=10, line=256)
        with pytest.raises(TraceError):
            run_trace(trace, small_skl_config)

    def test_thread_count_mismatch_rejected(self, skl, small_skl_config):
        trace = _random_trace(n=10, threads=3)
        with pytest.raises(TraceError):
            run_trace(trace, small_skl_config)


class TestRandomWorkload:
    """The ISx-shaped physics the paper's whole analysis rests on."""

    @pytest.fixture(scope="class")
    def stats(self, skl):
        cfg = SimConfig(machine=skl, sim_cores=2, window_per_core=16)
        return run_trace(_random_trace(n=1500), cfg)

    def test_l1_mshrs_saturate(self, skl, stats):
        assert stats.avg_occupancy(1) > 0.9 * skl.l1.mshrs

    def test_l1_never_exceeds_capacity(self, skl, stats):
        for tracker in stats.l1_occupancy:
            assert tracker.peak <= skl.l1.mshrs

    def test_prefetcher_ineffective_on_random(self, stats):
        assert stats.memory.prefetch_fraction < 0.1

    def test_mshr_full_stalls_recorded(self, stats):
        assert stats.l1.mshr_full_stall_ns > 0

    def test_littles_law_identity(self, stats):
        """Measured occupancy == rate x latency (the core invariant)."""
        check = stats.littles_law_check(2)
        assert check["relative_error"] < 0.01

    def test_bandwidth_below_scaled_peak(self, skl, stats):
        slice_peak = skl.memory.peak_bw_bytes * 2 / skl.active_cores
        assert 0 < stats.bandwidth_bytes_per_s() <= slice_peak


class TestStreamingWorkload:
    @pytest.fixture(scope="class")
    def stats(self, skl):
        cfg = SimConfig(machine=skl, sim_cores=2, window_per_core=16)
        return run_trace(_stream_trace(n=1500), cfg)

    def test_prefetch_covers_streaming(self, stats):
        assert stats.memory.prefetch_fraction > 0.5

    def test_l2_occupancy_exceeds_l1(self, stats):
        """Streaming binds the L2 MSHR file (paper III-A)."""
        assert stats.avg_occupancy(2) > stats.avg_occupancy(1)

    def test_hw_prefetches_issued(self, stats):
        assert stats.hw_prefetches_issued > 100


class TestPrefetcherToggle:
    def test_disabling_prefetcher_slows_streams(self, skl):
        """The paper's classification method: prefetcher off -> slower.

        A narrow window (little OoO latency hiding, like the in-order-ish
        cores the paper says gain most from prefetching) makes the effect
        unambiguous.
        """
        trace = _stream_trace(n=1200)
        on = run_trace(
            trace, SimConfig(machine=skl, sim_cores=2, window_per_core=2, hw_prefetch=True)
        )
        off = run_trace(
            trace, SimConfig(machine=skl, sim_cores=2, window_per_core=2, hw_prefetch=False)
        )
        assert off.elapsed_ns > 1.3 * on.elapsed_ns


class TestSoftwarePrefetch:
    def test_swpf_l2_bypasses_l1_mshrs(self, skl):
        """The ISx optimization mechanism: L2 prefetch never holds L1."""
        trace = trace_from_addresses(
            [[i * 64 for i in range(64, 464)]],
            line_bytes=64,
            gap_cycles=1.0,
            kind=AccessKind.SWPF_L2,
        )
        cfg = SimConfig(machine=skl, sim_cores=1, window_per_core=16)
        stats = run_trace(trace, cfg)
        assert stats.avg_occupancy(1) == pytest.approx(0.0, abs=1e-9)
        assert stats.avg_occupancy(2) > 0.0
        assert stats.sw_prefetches_issued == 400

    def test_demand_after_swpf_hits_l2(self, skl):
        """Prefetch a block, then demand it: L2 hits, short L1 holds."""
        lines = [i * 64 for i in range(256, 356)]
        n = len(lines)
        swpf, load = KIND_CODES[AccessKind.SWPF_L2], KIND_CODES[AccessKind.LOAD]
        # Prefetch each line (paced below the slice's admission rate, so a
        # full 16-entry SKL L2 MSHR file drops none), wait out the memory
        # latency with a far spacer access, then demand each line.
        run = AccessColumns(
            np.array(lines + [1 << 30] + lines),
            np.array([swpf] * n + [load] * (n + 1)),
            np.array([40.0] * n + [3000.0] + [1.0] * n),
        )
        trace = columnar_trace([run], line_bytes=64)
        stats = run_trace(trace, SimConfig(machine=skl, sim_cores=1, window_per_core=8))
        assert stats.l2.hits >= 90  # demands land on prefetched lines


class TestSmt:
    def test_two_threads_share_one_core(self, skl):
        trace = _random_trace(n=600, threads=2)
        cfg = SimConfig(
            machine=skl, sim_cores=1, threads_per_core=2, window_per_core=16
        )
        stats = run_trace(trace, cfg)
        assert len(stats.l1_occupancy) == 1  # one core slice
        assert len(stats.cores) == 2  # two thread contexts

    def test_smt_increases_core_mlp_when_window_small(self, skl):
        """SMT generates more in-flight requests from one core."""
        one = run_trace(
            _random_trace(n=800, threads=1),
            SimConfig(machine=skl, sim_cores=1, threads_per_core=1, window_per_core=4),
        )
        two = run_trace(
            _random_trace(n=800, threads=2),
            SimConfig(machine=skl, sim_cores=1, threads_per_core=2, window_per_core=8),
        )
        assert two.avg_occupancy(1) > one.avg_occupancy(1)


class TestStoresAndWritebacks:
    def test_store_traffic_produces_writebacks(self, skl):
        rng = random.Random(7)
        addrs = [rng.randrange(1 << 22) * 64 for _ in range(1200)]
        trace = trace_from_addresses(
            [addrs], line_bytes=64, gap_cycles=1.0, kind=AccessKind.STORE
        )
        stats = run_trace(trace, SimConfig(machine=skl, sim_cores=1, window_per_core=8))
        assert stats.memory.demand_write_bytes > 0


class TestDeterminism:
    def test_same_trace_same_stats(self, skl):
        trace = _random_trace(n=500, seed=42)
        cfg = lambda: SimConfig(machine=skl, sim_cores=2, window_per_core=16)
        a = run_trace(trace, cfg())
        b = run_trace(trace, cfg())
        assert a.elapsed_ns == b.elapsed_ns
        assert a.memory.total_bytes == b.memory.total_bytes
        assert a.avg_occupancy(1) == b.avg_occupancy(1)
