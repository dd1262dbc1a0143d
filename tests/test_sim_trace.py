"""Trace records, containers and builders."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim import (
    Access,
    AccessKind,
    ColumnarThreadTrace,
    ColumnarTrace,
    trace_from_addresses,
)
from repro.sim.coltrace import KIND_CODES


def _thread(thread_id, kinds):
    n = len(kinds)
    return ColumnarThreadTrace(
        thread_id,
        np.arange(n, dtype=np.uint64) * 64,
        np.array([KIND_CODES[k] for k in kinds], dtype=np.uint8),
        np.ones(n),
    )


class TestAccessKind:
    def test_prefetch_classification(self):
        assert AccessKind.SWPF_L2.is_prefetch
        assert AccessKind.SWPF_L1.is_prefetch
        assert not AccessKind.LOAD.is_prefetch
        assert AccessKind.STORE.is_demand


class TestAccess:
    def test_rejects_negative_address(self):
        with pytest.raises(TraceError):
            Access(-1)

    def test_rejects_negative_gap(self):
        with pytest.raises(TraceError):
            Access(0, gap_cycles=-1.0)


class TestThreadTrace:
    def test_demand_count_excludes_prefetch(self):
        trace = _thread(0, [AccessKind.LOAD, AccessKind.SWPF_L2, AccessKind.STORE])
        assert len(trace) == 3
        assert trace.demand_count == 2

    def test_rejects_negative_thread_id(self):
        with pytest.raises(TraceError):
            _thread(-1, [])


class TestTrace:
    def test_totals(self):
        trace = trace_from_addresses([[0, 64], [128]], routine="r")
        assert trace.total_accesses == 3
        assert trace.total_demand == 3
        assert trace.routine == "r"

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            ColumnarTrace(threads=())

    def test_rejects_duplicate_thread_ids(self):
        t = _thread(0, [AccessKind.LOAD])
        with pytest.raises(TraceError):
            ColumnarTrace(threads=(t, t))

    def test_rejects_bad_line_bytes(self):
        with pytest.raises(TraceError):
            ColumnarTrace(threads=(_thread(0, [AccessKind.LOAD]),), line_bytes=0)


class TestBuilders:
    def test_trace_from_addresses_kinds_and_gaps(self):
        trace = trace_from_addresses(
            [[0, 64]], kind=AccessKind.STORE, gap_cycles=3.0
        )
        acc = trace.threads[0].accesses[0]
        assert acc.kind == AccessKind.STORE
        assert acc.gap_cycles == 3.0

    def test_trace_from_addresses_checks_addresses(self):
        assert [len(t) for t in trace_from_addresses([[], [0]]).threads] == [0, 1]
        with pytest.raises(TraceError):
            trace_from_addresses([[0, -64]])
