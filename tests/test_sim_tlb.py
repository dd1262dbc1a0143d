"""TLB modeling and page-walk traffic (paper footnote 4)."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import SimConfig, Tlb, run_trace, trace_from_addresses


class TestTlbUnit:
    def test_hit_after_install(self):
        tlb = Tlb(4)
        assert not tlb.access(0)  # cold miss installs
        assert tlb.access(100)  # same page
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1

    def test_lru_eviction(self):
        tlb = Tlb(2)
        tlb.access(0 * 4096)
        tlb.access(1 * 4096)
        tlb.access(0 * 4096)  # refresh page 0
        tlb.access(2 * 4096)  # evicts page 1
        assert tlb.access(0 * 4096)
        assert not tlb.access(1 * 4096)

    def test_page_of(self):
        tlb = Tlb(4, page_bytes=4096)
        assert tlb.page_of(4095) == 0
        assert tlb.page_of(4096) == 1

    def test_pte_addresses_distinct_per_page(self):
        tlb = Tlb(4)
        assert tlb.pte_address(0) != tlb.pte_address(4096)
        assert tlb.pte_address(1) == tlb.pte_address(100)

    def test_pte_region_far_from_data(self):
        assert Tlb(4).pte_address(0) >= 1 << 44

    def test_validation(self):
        with pytest.raises(SimulationError):
            Tlb(0)
        with pytest.raises(SimulationError):
            Tlb(4, page_bytes=1000)  # not a power of two

    def test_resident_pages_bounded(self):
        tlb = Tlb(3)
        for page in range(10):
            tlb.access(page * 4096)
        assert tlb.resident_pages == 3


class TestTlbInHierarchy:
    def _trace(self, n=1200, spread_pages=True, seed=3):
        rng = random.Random(seed)
        if spread_pages:
            addrs = [[rng.randrange(1 << 23) * 64 for _ in range(n)] for _ in range(2)]
        else:
            addrs = [[(i % 32) * 64 for i in range(n)] for _ in range(2)]
        return trace_from_addresses(addrs, line_bytes=64, gap_cycles=2.0)

    def test_walks_add_memory_traffic(self, skl):
        """Random pages + small TLB inflate counted bandwidth bytes —
        the footnote-4 effect the paper's method absorbs correctly."""
        trace = self._trace()
        off = run_trace(
            trace, SimConfig(machine=skl, sim_cores=2, window_per_core=16)
        )
        on = run_trace(
            trace,
            SimConfig(machine=skl, sim_cores=2, window_per_core=16, tlb_entries=64),
        )
        assert on.memory.total_bytes > 1.3 * off.memory.total_bytes
        assert on.elapsed_ns > off.elapsed_ns

    def test_page_local_workload_unaffected(self, skl):
        """A footprint within the TLB reach sees (almost) no walks."""
        trace = self._trace(spread_pages=False)
        on = run_trace(
            trace,
            SimConfig(machine=skl, sim_cores=2, window_per_core=16, tlb_entries=64),
        )
        off = run_trace(
            trace, SimConfig(machine=skl, sim_cores=2, window_per_core=16)
        )
        assert on.memory.total_bytes <= off.memory.total_bytes + 2 * 64

    def test_prefetches_skip_translation_modeling(self, skl):
        """SW prefetches don't block on the modeled TLB (they are hints)."""
        from repro.sim import AccessKind

        trace = trace_from_addresses(
            [[i * 4096 for i in range(1, 200)]],
            line_bytes=64,
            gap_cycles=2.0,
            kind=AccessKind.SWPF_L2,
        )
        stats = run_trace(
            trace,
            SimConfig(machine=skl, sim_cores=1, window_per_core=8, tlb_entries=16),
        )
        # All traffic is the prefetches themselves; no walk reads.
        assert stats.memory.demand_read_bytes == 0

    def test_littles_law_still_holds_with_tlb(self, skl):
        trace = self._trace()
        stats = run_trace(
            trace,
            SimConfig(machine=skl, sim_cores=2, window_per_core=16, tlb_entries=64),
        )
        assert stats.littles_law_check(2)["relative_error"] < 0.02
