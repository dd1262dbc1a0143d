"""Coverage for smaller corners across the library."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import AddressSpace, partition
from repro.counters.events import CounterEvent, VENDOR_EVENTS
from repro.counters.vendor import _weaker, Visibility
from repro.memory import TabulatedLatencyModel
from repro.sim import Engine, MemoryController
from repro.sim.stats import MemoryStats


class TestPartitionProperties:
    @given(n=st.integers(0, 5000), parts=st.integers(1, 64))
    def test_covers_exactly_once(self, n, parts):
        ranges = partition(n, parts)
        assert len(ranges) == parts
        covered = 0
        prev_end = 0
        for start, end in ranges:
            assert start == prev_end
            assert end >= start
            covered += end - start
            prev_end = end
        assert covered == n

    @given(n=st.integers(1, 5000), parts=st.integers(1, 64))
    def test_balanced_within_one(self, n, parts):
        sizes = [end - start for start, end in partition(n, parts)]
        assert max(sizes) - min(sizes) <= 1


class TestAddressSpaceProperties:
    @given(
        lengths=st.lists(st.integers(1, 1 << 20), min_size=1, max_size=8),
        itemsize=st.sampled_from([4, 8, 16]),
    )
    def test_regions_never_overlap(self, lengths, itemsize):
        space = AddressSpace()
        spans = []
        for i, length in enumerate(lengths):
            name = f"arr{i}"
            space.add(name, length, itemsize)
            spans.append(
                (space.addr(name, 0), space.addr(name, length - 1) + itemsize)
            )
        spans.sort()
        for (lo_a, hi_a), (lo_b, _) in zip(spans, spans[1:]):
            assert hi_a <= lo_b


class TestVendorWeakerMerge:
    def test_weaker_picks_lower_visibility(self):
        assert _weaker(Visibility.YES, Visibility.NO) is Visibility.NO
        assert (
            _weaker(Visibility.LIMITED, Visibility.VERY_LIMITED)
            is Visibility.VERY_LIMITED
        )
        assert _weaker(Visibility.LIMITED, Visibility.LIMITED) is Visibility.LIMITED

    def test_event_caveats_documented(self):
        """The misleading counters carry their caveats from the paper."""
        skl_events = {e.native_name: e for e in VENDOR_EVENTS["intel-skl"]}
        latency = skl_events["MEM_TRANS_RETIRED.LOAD_LATENCY_GT_*"]
        assert "longer than just the memory latency" in latency.caveat
        offcore = skl_events["OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL"]
        assert "writeback" in offcore.caveat.lower()


class TestMemoryControllerUtilizationWindow:
    def test_utilization_decays_after_quiet_period(self):
        engine = Engine()
        model = TabulatedLatencyModel([(0.0, 100.0), (1.0, 200.0)])
        mc = MemoryController(
            engine,
            model,
            peak_bw_bytes=10e9,
            achievable_fraction=1.0,
            line_bytes=64,
            stats=MemoryStats(),
            window_ns=100.0,
        )
        for _ in range(50):
            mc.request(is_write=False, is_prefetch=False, on_complete=lambda: None)
        engine.run()
        busy_util = mc.utilization(engine.now)
        quiet_util = mc.utilization(engine.now + 1000.0)
        assert quiet_util == 0.0
        assert busy_util >= quiet_util

    def test_rejects_bad_parameters(self):
        engine = Engine()
        model = TabulatedLatencyModel([(0.0, 100.0), (1.0, 200.0)])
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            MemoryController(
                engine,
                model,
                peak_bw_bytes=0.0,
                achievable_fraction=1.0,
                line_bytes=64,
                stats=MemoryStats(),
            )
        with pytest.raises(SimulationError):
            MemoryController(
                engine,
                model,
                peak_bw_bytes=1e9,
                achievable_fraction=1.5,
                line_bytes=64,
                stats=MemoryStats(),
            )


class TestCsvRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                    min_size=1,
                    max_size=20,
                ),
                st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_format_then_parse_preserves_measurements(self, rows):
        from repro.io import from_csv

        text = "routine,bandwidth_gbs,prefetch_fraction\n" + "".join(
            f"{name},{bw!r},{pf!r}\n" for name, bw, pf in rows
        )
        parsed = from_csv(text)
        assert len(parsed) == len(rows)
        for measurement, (name, bw, pf) in zip(parsed, rows):
            assert measurement.routine == name
            assert math.isclose(measurement.bandwidth_bytes, bw * 1e9, rel_tol=1e-12)
            assert math.isclose(
                measurement.prefetch_fraction, pf, rel_tol=1e-12, abs_tol=1e-12
            )


class TestCounterEventEnum:
    def test_all_events_have_distinct_values(self):
        values = [e.value for e in CounterEvent]
        assert len(values) == len(set(values))

    def test_vendor_lists_reference_known_events(self):
        for vendor, natives in VENDOR_EVENTS.items():
            for native in natives:
                assert isinstance(native.event, CounterEvent), vendor
