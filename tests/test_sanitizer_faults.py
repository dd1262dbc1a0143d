"""Planted simulator bugs: each one trips its sanitizer invariant.

A leaked MSHR entry, a skewed recorded latency and a dropped
batch-replay run are invisible to ordinary assertions — a leaked entry
still simulates, a skewed latency still sums, a dropped replay run
still leaves a structurally valid LRU list.  Each test plants one of
these bugs by patching the production method it would live in, and
proves the sanitizer is the witness: the bug must surface as a
structured :class:`~repro.errors.SanitizerError` (or a checker
violation) naming the violated invariant.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.sanitizer import CacheReplayChecker
from repro.errors import SanitizerError
from repro.machines import CacheSpec
from repro.resilience.faults import FAULT_KINDS
from repro.sim import SimConfig, run_trace
from repro.sim.cache import CacheArray
from repro.sim.memctrl import MemoryController
from repro.sim.mshr import MshrFile
from repro.xmem.kernels import throughput_trace


@pytest.fixture(autouse=True)
def _sanitize(monkeypatch):
    """Sanitize mode on for every test."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def test_fault_injection_stays_out_of_the_simulator():
    """Only the sim cache reads the fault injector, and only for its own kinds."""
    assert FAULT_KINDS == ("cache_corrupt", "cache_truncate")
    package = Path(repro.__file__).parent
    importers = []
    for path in sorted(package.rglob("*.py")):
        # The package a relative import is resolved against.
        here = ("repro", *path.parent.relative_to(package).parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = here[: len(here) - node.level + 1] if node.level else ()
                module = ".".join((*base, node.module or "")).strip(".")
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if "repro.resilience.faults" in names:
                importers.append(path.relative_to(package).as_posix())
    assert importers == ["perf/cache.py"]


def test_mshr_leak_trips_balance_check(skl, monkeypatch):
    # Every release hands the entry back but skips the bookkeeping, so
    # the entry stays resident; a tiny trace keeps the file from
    # deadlocking before finalize can audit it.
    monkeypatch.setattr(
        MshrFile, "release", lambda self, now_ns, line_addr: self.entries[line_addr]
    )
    trace = throughput_trace(
        threads=1, accesses_per_thread=6, line_bytes=skl.line_bytes
    )
    with pytest.raises(SanitizerError) as err:
        run_trace(trace, SimConfig(machine=skl, sim_cores=1))
    assert err.value.invariant == "mshr-balance"
    # The leak report carries allocation-site tags.
    assert "allocated at" in str(err.value)
    report = err.value.report
    assert report is not None and not report.ok
    assert any(v.invariant == "mshr-balance" for v in report.violations)


def test_time_skew_trips_littles_law(skl, monkeypatch):
    # Telemetry records a latency 1.5x the one the completion is
    # scheduled with: L = lambda*W no longer matches the latency sum.
    # The batch paths are off so every request takes the scalar path.
    admit = MemoryController._admit

    def skewed_admit(self, queued_ns, *args):
        before = self.stats.latency_sum_ns
        admit(self, queued_ns, *args)
        latency = self.stats.latency_sum_ns - before - queued_ns
        self.stats.latency_sum_ns += 0.5 * latency

    monkeypatch.setattr(MemoryController, "_admit", skewed_admit)
    trace = throughput_trace(
        threads=2, accesses_per_thread=400, line_bytes=skl.line_bytes
    )
    with pytest.raises(SanitizerError) as err:
        run_trace(trace, SimConfig(machine=skl, sim_cores=2, batch=False))
    assert err.value.invariant == "littles-law"
    report = err.value.report
    assert report is not None
    assert any(v.invariant == "littles-law" for v in report.violations)


class _CapturingRunner:
    """Stands in for RunSanitizer at the replay-checker seam."""

    def __init__(self):
        self.calls = []

    def violate(self, invariant, message, *, snapshot=None):
        self.calls.append((invariant, message))


def test_replay_skip_trips_batch_replay_check(monkeypatch):
    # Dropping a replay run is only observable when runs alias into the
    # same set *and* are not order-preserving cycles; build exactly
    # that: all ways of set 0, touched once in reversed order.
    flush = CacheArray.flush_batch

    def skipping_flush(self):
        # The planted bug: the first queued run is silently dropped.
        self._pending = self._pending[1:]
        flush(self)

    monkeypatch.setattr(CacheArray, "flush_batch", skipping_flush)
    spec = CacheSpec(
        level=1, size_bytes=4096, line_bytes=64, mshrs=10, associativity=8
    )
    array = CacheArray(spec, "t.L1")
    runner = _CapturingRunner()
    array._sanitizer = CacheReplayChecker(array, runner)

    lines = [i * array.num_sets * array.line_bytes for i in range(array.ways)]
    for line in lines:
        array.fill(line)

    array.touch_batch(
        np.array(lines[3::-1], dtype=np.int64), np.zeros(4, dtype=bool)
    )
    array.touch_batch(
        np.array(lines[4:], dtype=np.int64), np.zeros(len(lines) - 4, dtype=bool)
    )
    array.flush_batch()

    assert runner.calls, "sanitizer did not notice the dropped replay run"
    invariant, message = runner.calls[0]
    assert invariant == "batch-replay"
    assert "diverged" in message


class _SwapBeforeCheck:
    """A replay checker whose array has set 0's two LRU-most lines swapped.

    The swap happens after ``flush_batch`` replayed the queued runs and
    before the wrapped checker compares: membership and dirty bits stay
    exact, only the LRU order is wrong.
    """

    def __init__(self, checker):
        self.checker = checker

    def on_touch(self, line_addrs, writes):
        self.checker.on_touch(line_addrs, writes)

    def on_flush(self):
        ways = self.checker.array._sets[0]
        first, second, *rest = ways.items()
        ways.clear()
        ways.update([second, first, *rest])
        self.checker.on_flush()


def test_swapped_lru_order_trips_batch_replay_check():
    spec = CacheSpec(
        level=1, size_bytes=4096, line_bytes=64, mshrs=10, associativity=8
    )
    array = CacheArray(spec, "t.L1")
    runner = _CapturingRunner()
    array._sanitizer = _SwapBeforeCheck(CacheReplayChecker(array, runner))

    lines = [i * array.num_sets * array.line_bytes for i in range(array.ways)]
    for line in lines:
        array.fill(line)
    array.touch_batch(np.array(lines[-2:], dtype=np.int64), np.zeros(2, dtype=bool))
    array.flush_batch()

    # Same lines, same dirty bits: only an order-sensitive compare sees it.
    assert set(array._sets[0]) == set(lines)
    assert runner.calls, "sanitizer did not notice the swapped LRU order"
    invariant, message = runner.calls[0]
    assert invariant == "batch-replay"
    assert "diverged" in message


def _table_cache():
    spec = CacheSpec(
        level=1, size_bytes=4096, line_bytes=64, mshrs=10, associativity=8
    )
    array = CacheArray(spec, "t.L2")
    runner = _CapturingRunner()
    array._sanitizer = CacheReplayChecker(array, runner)
    array.fill_batch(np.arange(1, 40, dtype=np.uint64) * 64)
    array.probe_batch(np.zeros(1, dtype=np.uint64))  # build the table
    return array, runner


def test_corrupt_resident_table_trips_check():
    array, runner = _table_cache()
    array._resident_cache[5] += 1  # one entry no longer names a resident line
    array.fill_batch(np.arange(100, 110, dtype=np.uint64) * 64)

    assert runner.calls, "sanitizer did not notice the corrupt table"
    invariant, message = runner.calls[0]
    assert invariant == "batch-replay"
    assert "resident table" in message


def test_resident_table_check_clean():
    array, runner = _table_cache()
    array.fill_batch(np.arange(100, 110, dtype=np.uint64) * 64)
    assert runner.calls == []
    assert array._sanitizer.checks == 1


def test_replay_checker_clean_without_fault():
    spec = CacheSpec(
        level=1, size_bytes=4096, line_bytes=64, mshrs=10, associativity=8
    )
    array = CacheArray(spec, "t.L1")
    runner = _CapturingRunner()
    checker = CacheReplayChecker(array, runner)
    array._sanitizer = checker

    lines = [i * array.num_sets * array.line_bytes for i in range(array.ways)]
    for line in lines:
        array.fill(line)
    array.touch_batch(
        np.array(lines[3::-1], dtype=np.int64), np.zeros(4, dtype=bool)
    )
    array.flush_batch()

    assert runner.calls == []
    assert checker.checks == 1
