"""Counter facade: vendor events, Table I visibility, sessions, CrayPat."""

import math
import random

import pytest

from repro.counters import (
    CounterEvent,
    CounterSession,
    RoutineProfile,
    Visibility,
    events_supported,
    table1_matrix,
    vendor_for_machine,
    visibility_for,
)
from repro.errors import CounterError, CounterUnavailableError
from repro.sim import SimConfig, run_trace, trace_from_addresses


def _run(machine, n=600, seed=5, routine="r"):
    rng = random.Random(seed)
    line = machine.line_bytes
    trace = trace_from_addresses(
        [[rng.randrange(1 << 22) * line for _ in range(n)] for _ in range(2)],
        line_bytes=line,
        gap_cycles=2.0,
        routine=routine,
    )
    return run_trace(trace, SimConfig(machine=machine, sim_cores=2, window_per_core=16))


class TestVendorEvents:
    def test_intel_exposes_l1_mshr_stalls(self):
        assert CounterEvent.L1_MSHR_FULL_STALLS in events_supported("intel-skl")

    def test_nobody_exposes_l2_mshr_stalls(self):
        """Paper Table I: L2-MSHRQ-full stalls are visible nowhere."""
        for vendor in ("intel-skl", "intel-knl", "amd", "cavium", "fujitsu"):
            assert CounterEvent.L2_MSHR_FULL_STALLS not in events_supported(vendor)

    def test_arm_vendors_lack_latency_counters(self):
        for vendor in ("cavium", "fujitsu"):
            assert CounterEvent.LOAD_LATENCY_GT_THRESHOLD not in events_supported(
                vendor
            )

    def test_all_vendors_expose_memory_traffic(self):
        """The portability premise: bandwidth counters exist everywhere."""
        for vendor in ("intel-skl", "intel-knl", "amd", "cavium", "fujitsu"):
            assert CounterEvent.MEM_READ_LINES in events_supported(vendor)


class TestTable1Matrix:
    def test_matrix_matches_paper(self):
        matrix = table1_matrix()
        assert matrix["Intel"].l1_mshrq_full_stalls is Visibility.YES
        assert matrix["Intel"].l2_mshrq_full_stalls is Visibility.NO
        assert matrix["Cavium"].stall_breakdown is Visibility.VERY_LIMITED
        assert matrix["Fujitsu"].memory_latency is Visibility.NO
        assert matrix["AMD"].memory_latency is Visibility.LIMITED

    def test_visibility_availability(self):
        assert Visibility.LIMITED.available
        assert not Visibility.NO.available

    def test_vendor_for_machine(self):
        assert vendor_for_machine("skl") == "intel-skl"
        assert vendor_for_machine("a64fx") == "fujitsu"

    def test_visibility_for_derives_from_events(self):
        row = visibility_for("fujitsu")
        assert row.l1_mshrq_full_stalls is Visibility.NO


class TestCounterSession:
    def test_read_supported_event(self, skl):
        stats = _run(skl)
        session = CounterSession(skl, stats)
        reading = session.read(CounterEvent.MEM_READ_LINES)
        assert reading.value > 0
        assert "OFFCORE" in reading.native.native_name

    def test_unsupported_event_raises(self, a64fx):
        stats = _run(a64fx)
        session = CounterSession(a64fx, stats)
        with pytest.raises(CounterUnavailableError):
            session.read(CounterEvent.LOAD_LATENCY_GT_THRESHOLD)

    def test_bandwidth_close_to_simulator_truth(self, skl):
        stats = _run(skl)
        session = CounterSession(skl, stats)
        true_bw = stats.bandwidth_bytes_per_s()
        assert session.bandwidth_bytes_per_s() == pytest.approx(true_bw, rel=0.15)

    def test_cycles_reading(self, skl):
        stats = _run(skl)
        session = CounterSession(skl, stats)
        cycles = session.read(CounterEvent.CPU_CYCLES).value
        assert cycles == pytest.approx(stats.elapsed_ns * 2.1, rel=1e-6)

    def test_latency_histogram_random_overreports(self, skl):
        """Paper: ISx showed 75% of loads binned above 512 cycles."""
        stats = _run(skl, n=1200)
        session = CounterSession(skl, stats)
        hist = session.load_latency_histogram()
        assert hist[512] > 0.5
        assert hist[4] >= hist[512]  # bins are cumulative-from-above

    def test_latency_histogram_needs_counter(self, a64fx):
        stats = _run(a64fx)
        with pytest.raises(CounterUnavailableError):
            CounterSession(a64fx, stats).load_latency_histogram()


class TestRoutineProfile:
    def test_per_routine_reports(self, skl):
        profile = RoutineProfile(skl)
        profile.add_run(_run(skl, routine="alpha"))
        profile.add_run(_run(skl, seed=9, routine="beta"))
        assert set(profile.routines) == {"alpha", "beta"}
        report = profile.report("alpha")
        assert report.bandwidth_gbs > 0
        assert "alpha" in profile.render()

    def test_duplicate_routine_rejected(self, skl):
        profile = RoutineProfile(skl)
        profile.add_run(_run(skl, routine="alpha"))
        with pytest.raises(CounterError):
            profile.add_run(_run(skl, routine="alpha"))

    def test_unknown_routine_rejected(self, skl):
        with pytest.raises(CounterError):
            RoutineProfile(skl).report("nope")

    def test_whole_program_average_between_extremes(self, skl):
        profile = RoutineProfile(skl)
        profile.add_run(_run(skl, n=400, routine="fast"))
        profile.add_run(_run(skl, n=800, seed=9, routine="slow"))
        whole = profile.whole_program_bandwidth()
        bws = [r.bandwidth_bytes for r in profile.reports()]
        assert min(bws) <= whole <= max(bws)


class TestDegradedReads:
    def test_clean_read_has_no_issues(self, skl):
        session = CounterSession(skl, _run(skl))
        reading, issues = session.read_with_quality(CounterEvent.MEM_READ_LINES)
        assert issues == []
        assert reading.value == session.read(CounterEvent.MEM_READ_LINES).value

    def test_unsupported_event_degrades_instead_of_raising(self, a64fx):
        session = CounterSession(a64fx, _run(a64fx))
        event = CounterEvent.LOAD_LATENCY_GT_THRESHOLD
        with pytest.raises(CounterUnavailableError):
            session.read(event)
        reading, issues = session.read_with_quality(event)
        assert reading is None
        assert [i.kind for i in issues] == ["missing-counter"]

    def test_injected_nan_keeps_reading_with_issue(self, skl, monkeypatch):
        session = CounterSession(skl, _run(skl))
        monkeypatch.setattr(session, "_value", lambda event: math.nan)
        reading, issues = session.read_with_quality(CounterEvent.MEM_READ_LINES)
        assert reading is not None and math.isnan(reading.value)
        assert [i.kind for i in issues] == ["nan-counter"]

    def test_degraded_bandwidth_clean_matches_strict(self, skl):
        session = CounterSession(skl, _run(skl))
        strict = session.bandwidth_bytes_per_s()
        degraded, issues = session.bandwidth_with_quality()
        assert issues == []
        assert degraded == strict

    def test_degraded_bandwidth_underestimates_on_drop(self, skl, monkeypatch):
        session = CounterSession(skl, _run(skl))
        strict = session.bandwidth_bytes_per_s()
        # The read-traffic counter goes missing from the vendor's set.
        supported = dict(session._supported)
        del supported[CounterEvent.MEM_READ_LINES]
        monkeypatch.setattr(session, "_supported", supported)
        degraded, issues = session.bandwidth_with_quality()
        # The missing counter contributes no traffic: an under-estimate
        # (multiplexing-gap semantics), never an inflation.
        assert degraded < strict
        assert [i.kind for i in issues] == ["missing-counter"]

    def test_issues_widen_the_error_budget(self, skl, monkeypatch):
        from repro.core import quality_widened_errors

        session = CounterSession(skl, _run(skl))
        monkeypatch.setattr(session, "_value", lambda event: math.nan)
        _, issues = session.bandwidth_with_quality()
        assert issues and all(i.kind == "nan-counter" for i in issues)
        widened_bw, _ = quality_widened_errors(issues)
        clean_bw, _ = quality_widened_errors([])
        assert widened_bw > clean_bw
