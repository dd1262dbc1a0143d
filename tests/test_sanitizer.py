"""reprosan: the runtime invariant sanitizer (repro.analysis.sanitizer).

Covers the unit level (QueueAudit's exact interval identity), the
end-to-end level (sanitized runs over every paper workload x machine
with zero violations), and the two no-perturbation guarantees: the
fingerprint of a sanitized run is identical to an unsanitized one, and
sanitized runs never touch the SimStats cache.
"""

import math

import pytest

from repro.analysis.sanitizer import (
    ABS_TOL_NS,
    DEFAULT_WINDOW_NS,
    REL_TOL,
    QueueAudit,
    last_report,
    sanitize_enabled,
    sanitize_window_ns,
)
from repro.errors import SanitizerError
from repro.sim import SimConfig, run_trace
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import TraceSpec
from repro.xmem.kernels import resident_trace, throughput_trace


@pytest.fixture
def sanitize(monkeypatch):
    """Arm sanitize mode for one test."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")


# -- QueueAudit unit level --------------------------------------------------------


class TestQueueAudit:
    def test_integral_equals_residence_sum(self):
        audit = QueueAudit("q", window_ns=100.0)
        audit.enter(0.0, "a", site="t")
        audit.enter(10.0, "b", site="t")
        audit.exit(25.0, "a")
        audit.enter(30.0, "c", site="t")
        audit.exit(90.0, "b")
        audit.exit(130.0, "c")
        audit.close(150.0)
        # Residences: a=25, b=80, c=100 -> 205; the occupancy integral
        # covers the same elementary intervals.
        assert audit.residence_sum_ns == pytest.approx(205.0)
        assert math.isclose(
            audit.integral_ns,
            audit.residence_sum_ns,
            rel_tol=REL_TOL,
            abs_tol=ABS_TOL_NS,
        )
        assert audit.window_mismatches() == []

    def test_windowed_identity_across_boundaries(self):
        audit = QueueAudit("q", window_ns=16.0)
        # One long residence spanning many windows plus short ones.
        audit.enter(3.0, 1, site="t")
        audit.enter(20.0, 2, site="t")
        audit.exit(21.0, 2)
        audit.exit(77.0, 1)
        audit.close(80.0)
        assert audit.window_mismatches() == []
        total_occ = sum(audit.occ_windows.values())
        assert total_occ == pytest.approx(audit.integral_ns)
        total_res = sum(audit.res_windows.values())
        assert total_res == pytest.approx(audit.residence_sum_ns)

    def test_leak_reported_with_site(self):
        audit = QueueAudit("q", window_ns=50.0)
        audit.enter(5.0, 0xABC, site="issue_path:42")
        audit.close(60.0)
        leaked = audit.leaked()
        assert leaked == [(0xABC, 5.0, "issue_path:42")]

    def test_capacity_breach_raises(self):
        audit = QueueAudit("q", capacity=1, window_ns=50.0)
        audit.enter(0.0, "a", site="t")
        with pytest.raises(SanitizerError) as err:
            audit.enter(1.0, "b", site="t")
        assert err.value.invariant == "mshr-balance"

    def test_unmatched_exit_raises(self):
        audit = QueueAudit("q", window_ns=50.0)
        with pytest.raises(SanitizerError) as err:
            audit.exit(1.0, "ghost")
        assert err.value.invariant == "mshr-balance"

    def test_time_reversal_raises(self):
        audit = QueueAudit("q", window_ns=50.0)
        audit.enter(10.0, "a", site="t")
        with pytest.raises(SanitizerError) as err:
            audit.exit(5.0, "a")
        assert err.value.invariant == "event-monotonic"


def test_window_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_WINDOW_NS", "512")
    assert sanitize_window_ns() == 512.0
    monkeypatch.setenv("REPRO_SANITIZE_WINDOW_NS", "not-a-number")
    assert sanitize_window_ns() == DEFAULT_WINDOW_NS
    monkeypatch.delenv("REPRO_SANITIZE_WINDOW_NS")
    assert sanitize_window_ns() == DEFAULT_WINDOW_NS


# -- end-to-end: sanitized runs hold every invariant ------------------------------


def test_sanitized_run_clean_and_audited(sanitize, skl):
    assert sanitize_enabled()
    trace = throughput_trace(
        threads=2, accesses_per_thread=2000, line_bytes=skl.line_bytes
    )
    run_trace(trace, SimConfig(machine=skl, sim_cores=2))
    report = last_report()
    assert report is not None and report.ok
    names = {q["queue"] for q in report.queues}
    assert "memctrl" in names
    assert any("L1-MSHR" in n for n in names)
    # Little's law holds per queue: avg occupancy == rate x latency.
    for row in report.queues:
        assert row["avg_occupancy"] == pytest.approx(
            row["rate_times_latency"], rel=1e-6, abs=1e-9
        )
        assert row["windows_checked"] > 0


def test_batch_replay_checks_run(sanitize, skl):
    trace = resident_trace(
        threads=2, accesses_per_thread=20_000, line_bytes=skl.line_bytes
    )
    run_trace(trace, SimConfig(machine=skl, sim_cores=2, batch=True))
    report = last_report()
    assert report is not None and report.ok
    assert report.replay_checks > 0


@pytest.mark.parametrize("workload", [w.name for w in ALL_WORKLOADS])
@pytest.mark.parametrize("machine_name", ["skl", "knl", "a64fx"])
def test_paper_workloads_validate_under_sanitizer(
    sanitize, workload, machine_name, all_machines
):
    """Acceptance: every paper workload x machine, zero violations."""
    from repro.machines import get_machine
    from repro.workloads import get_workload

    machine = get_machine(machine_name)
    trace = get_workload(workload).generate_trace(
        machine, spec=TraceSpec(threads=2, accesses_per_thread=400)
    )
    run_trace(trace, SimConfig(machine=machine, sim_cores=2, tlb_entries=64))
    report = last_report()
    assert report is not None and report.ok
    assert all(row["windows_checked"] > 0 for row in report.queues)


# -- no-perturbation guarantees ---------------------------------------------------


def test_fingerprint_identical_sanitized_vs_not(monkeypatch, skl):
    trace = throughput_trace(
        threads=2, accesses_per_thread=1500, line_bytes=skl.line_bytes
    )
    config = SimConfig(machine=skl, sim_cores=2)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_trace(trace, config)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_trace(trace, config)
    assert sanitized.fingerprint() == plain.fingerprint()


def test_sanitized_runs_bypass_sim_cache(monkeypatch, tmp_path, skl):
    from repro.perf.cache import SimCache, cached_run_trace

    trace = throughput_trace(
        threads=1, accesses_per_thread=800, line_bytes=skl.line_bytes
    )
    config = SimConfig(machine=skl, sim_cores=1)
    cache = SimCache(tmp_path, enabled=True)

    # Unsanitized: miss then store, then a hit.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    cached_run_trace(trace, config, cache=cache)
    assert cache.counters.stores == 1
    cached_run_trace(trace, config, cache=cache)
    assert cache.counters.hits == 1

    # Sanitized: neither served from the cache nor written to it.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    before = cache.counters.snapshot()
    cached_run_trace(trace, config, cache=cache)
    assert cache.counters.hits == before.hits
    assert cache.counters.misses == before.misses
    assert cache.counters.stores == before.stores
