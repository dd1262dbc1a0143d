"""Memory controller: bandwidth cap, curve-driven latency, writebacks."""

import pytest

from repro.memory import LatencyProfile
from repro.sim import Engine, MemoryController
from repro.sim.stats import MemoryStats


def _controller(engine, peak=10e9, achievable=1.0, line=64):
    model = LatencyProfile("m", peak, ((0.0, 100.0), (1.0, 200.0)))
    return MemoryController(
        engine,
        model,
        peak_bw_bytes=peak,
        achievable_fraction=achievable,
        line_bytes=line,
        stats=MemoryStats(),
    )


class TestLatency:
    def test_idle_request_sees_idle_latency(self):
        engine = Engine()
        mc = _controller(engine)
        done = []
        mc.request(is_write=False, is_prefetch=False, on_complete=lambda: done.append(engine.now))
        engine.run()
        assert done[0] == pytest.approx(100.0, abs=1.0)

    def test_loaded_requests_see_higher_latency(self):
        engine = Engine()
        mc = _controller(engine, peak=10e9)
        times = []
        issue_interval = 64 / 10e9 * 1e9  # exactly the slot time: 100% load

        def issue(i=0):
            if i < 400:
                mc.request(
                    is_write=False,
                    is_prefetch=False,
                    on_complete=lambda: times.append(engine.now),
                )
                engine.schedule(issue_interval, lambda: issue(i + 1))

        issue()
        engine.run()
        # Late requests should see near-saturated latency (~200ns).
        assert mc.stats.latency_sum_ns / mc.stats.latency_count > 150.0

    def test_current_latency_reflects_recent_traffic(self):
        engine = Engine()
        mc = _controller(engine)
        assert mc.latency_model.latency_ns(mc.utilization(0.0)) == pytest.approx(100.0)


class TestBandwidthCap:
    def test_admission_rate_is_capped(self):
        """N back-to-back requests take at least N * slot time."""
        engine = Engine()
        mc = _controller(engine, peak=10e9, achievable=0.5)  # 5 GB/s cap
        n = 100
        done = []
        for _ in range(n):
            mc.request(is_write=False, is_prefetch=False, on_complete=lambda: done.append(engine.now))
        engine.run()
        min_span = (n - 1) * 64 / 5e9 * 1e9  # admission slots
        assert max(done) - min(done) >= min_span * 0.95

    def test_byte_accounting(self):
        engine = Engine()
        mc = _controller(engine)
        mc.request(is_write=False, is_prefetch=False, on_complete=lambda: None)
        mc.request(is_write=True, is_prefetch=False, on_complete=lambda: None)
        mc.request(is_write=False, is_prefetch=True, on_complete=lambda: None)
        engine.run()
        assert mc.stats.demand_read_bytes == 64
        assert mc.stats.demand_write_bytes == 64
        assert mc.stats.prefetch_bytes == 64
        assert mc.stats.prefetch_fraction == pytest.approx(1 / 3)


class TestWriteback:
    def test_writeback_consumes_bandwidth_without_latency(self):
        engine = Engine()
        mc = _controller(engine)
        mc.writeback()
        engine.run()
        assert mc.stats.demand_write_bytes == 64
        assert mc.stats.latency_count == 0  # no MSHR-held request

    def test_writebacks_delay_subsequent_reads(self):
        engine = Engine()
        mc = _controller(engine, peak=1e9, achievable=1.0)  # slot = 64ns
        done = []
        for _ in range(10):
            mc.writeback()
        mc.request(is_write=False, is_prefetch=False, on_complete=lambda: done.append(engine.now))
        engine.run()
        assert done[0] >= 10 * 64.0  # queued behind the writebacks
