"""TMA baseline: category tree and the documented weaknesses."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim import SimConfig, run_trace, trace_from_addresses
from repro.tma import TmaAnalysis, TmaBreakdown, TmaCategory
from repro.workloads import get_workload
from repro.workloads.base import TraceSpec


def _random_run(machine, n=800):
    rng = random.Random(4)
    line = machine.line_bytes
    trace = trace_from_addresses(
        [[rng.randrange(1 << 22) * line for _ in range(n)] for _ in range(2)],
        line_bytes=line,
        gap_cycles=2.0,
    )
    return run_trace(trace, SimConfig(machine=machine, sim_cores=2, window_per_core=16))


class TestCategories:
    def test_levels(self):
        assert TmaCategory.RETIRING.level == 1
        assert TmaCategory.BACKEND_MEMORY.level == 2
        assert TmaCategory.MEMORY_BANDWIDTH.level == 3

    def test_parents(self):
        assert TmaCategory.MEMORY_BANDWIDTH.parent is TmaCategory.BACKEND_MEMORY
        assert TmaCategory.RETIRING.parent is None

    def test_breakdown_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TmaBreakdown({TmaCategory.RETIRING: 1.5})

    def test_breakdown_render(self):
        text = TmaBreakdown({TmaCategory.RETIRING: 0.5}).render()
        assert "retiring" in text


class TestAnalysis:
    def test_level1_sums_to_one(self, skl):
        report = TmaAnalysis(skl).analyze(_random_run(skl))
        fractions = report.breakdown.fractions
        level1 = sum(f for c, f in fractions.items() if c.level == 1)
        assert level1 == pytest.approx(1.0, abs=1e-6)

    def test_memory_bound_dominates_random_workload(self, skl):
        report = TmaAnalysis(skl).analyze(_random_run(skl))
        assert report.breakdown[TmaCategory.BACKEND_MEMORY] > 0.4

    def test_bw_plus_latency_equals_memory_bound(self, skl):
        report = TmaAnalysis(skl).analyze(_random_run(skl))
        assert report.breakdown[TmaCategory.MEMORY_BANDWIDTH] + report.breakdown[
            TmaCategory.MEMORY_LATENCY
        ] == pytest.approx(report.breakdown[TmaCategory.BACKEND_MEMORY], abs=1e-9)

    def test_rejects_empty_run(self, skl):
        from repro.sim.stats import SimStats

        with pytest.raises(ConfigurationError):
            TmaAnalysis(skl).analyze(SimStats())


class TestMisleadingLatencyMetric:
    def test_streaming_latency_underreported(self, skl):
        """The hpcg phenomenon: derived latency << true loaded latency."""
        workload = get_workload("hpcg")
        trace = workload.generate_trace(
            skl, spec=TraceSpec(threads=2, accesses_per_thread=2500)
        )
        stats = run_trace(
            trace, SimConfig(machine=skl, sim_cores=2, window_per_core=16)
        )
        report = TmaAnalysis(skl).analyze(stats)
        assert report.latency_underreported
        assert "misleading" in report.render() or "(!)" in report.render()
