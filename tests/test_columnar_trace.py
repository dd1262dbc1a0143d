"""Columnar (structure-of-arrays) trace layer: views, combinators, checks.

Hypothesis drives random access lists through the columns and back out
of the read-only :class:`~repro.sim.trace.Access` view, and checks the
combinators against the reference merge loops they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim.coltrace import (
    KIND_CODES,
    AccessColumns,
    ColumnarThreadTrace,
    ColumnarTrace,
    columnar_trace,
    concat_columns,
    interleave_columns,
)
from repro.sim.trace import Access, AccessKind

KINDS = list(AccessKind)


def _columns(accesses):
    """Columns holding exactly ``accesses``, in order."""
    return AccessColumns(
        np.array([a.addr for a in accesses], dtype=np.uint64),
        np.array([KIND_CODES[a.kind] for a in accesses], dtype=np.uint8),
        np.array([a.gap_cycles for a in accesses], dtype=np.float64),
    )


@st.composite
def access_lists(draw, max_threads=3, max_accesses=40):
    n_threads = draw(st.integers(1, max_threads))
    return [
        [
            Access(
                draw(st.integers(0, 2**40)) * 64,
                draw(st.sampled_from(KINDS)),
                draw(st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)),
            )
            for _ in range(draw(st.integers(1, max_accesses)))
        ]
        for _ in range(n_threads)
    ]


class TestRoundTrip:
    @given(per_thread=access_lists())
    @settings(max_examples=25, deadline=None)
    def test_lazy_access_view_matches_source(self, per_thread):
        trace = columnar_trace([_columns(a) for a in per_thread], routine="prop")
        for source, thread in zip(per_thread, trace.threads):
            assert thread.accesses == tuple(source)
            assert thread.demand_count == sum(a.kind.is_demand for a in source)
            assert len(thread) == len(source)


class TestCombinators:
    @given(
        major_n=st.integers(0, 40),
        minor_n=st.integers(0, 12),
        period=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleave_matches_reference_loop(self, major_n, minor_n, period):
        rng = np.random.default_rng(5)
        major = AccessColumns(
            rng.integers(0, 1000, major_n) * 64,
            np.zeros(major_n, dtype=np.uint8),
            np.full(major_n, 2.0),
        )
        minor = AccessColumns(
            rng.integers(0, 1000, minor_n) * 64,
            np.full(minor_n, 3, dtype=np.uint8),
            np.full(minor_n, 0.5),
        )
        # The historical per-object merge loop from the workload modules.
        expected, pending = [], list(minor)
        for i, access in enumerate(major, start=1):
            expected.append(access)
            if pending and i % period == 0:
                expected.append(pending.pop(0))
        expected.extend(pending)
        merged = interleave_columns(major, minor, period=period)
        assert list(merged) == expected

    def test_interleave_rejects_bad_period(self):
        with pytest.raises(TraceError):
            interleave_columns(AccessColumns.empty(), AccessColumns.empty(), period=0)

    def test_concat_preserves_order(self):
        a = _columns([Access(0, AccessKind.LOAD, 1.0)])
        b = _columns([Access(64, AccessKind.STORE, 2.0)])
        assert list(concat_columns([a, b])) == list(a) + list(b)
        assert len(concat_columns([])) == 0

    def test_slicing_returns_columns(self):
        run = _columns([Access(i * 64, AccessKind.LOAD, 1.0) for i in range(10)])
        head = run[:3]
        assert isinstance(head, AccessColumns)
        assert list(head) == list(run)[:3]
        assert run[4] == Access(256, AccessKind.LOAD, 1.0)


class TestValidation:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            AccessColumns(
                np.zeros(3, np.uint64), np.zeros(2, np.uint8), np.zeros(3)
            )

    def test_bad_kind_code_rejected(self):
        with pytest.raises(TraceError):
            AccessColumns(
                np.zeros(1, np.uint64),
                np.array([7], dtype=np.uint8),
                np.zeros(1),
            )

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            AccessColumns(
                np.zeros(1, np.uint64),
                np.zeros(1, np.uint8),
                np.array([-1.0]),
            )

    def test_duplicate_thread_ids_rejected(self):
        t = ColumnarThreadTrace(
            0, np.zeros(1, np.uint64), np.zeros(1, np.uint8), np.ones(1)
        )
        with pytest.raises(TraceError):
            ColumnarTrace((t, t))

    def test_thread_arrays_are_read_only(self):
        t = ColumnarThreadTrace(
            0, np.zeros(2, np.uint64), np.zeros(2, np.uint8), np.ones(2)
        )
        with pytest.raises(ValueError):
            t.addr[0] = 1


class TestCachedCounts:
    def test_counts_match_recomputation(self):
        trace = columnar_trace(
            [
                _columns(
                    [
                        Access(0, AccessKind.LOAD, 1.0),
                        Access(64, AccessKind.SWPF_L1, 0.5),
                        Access(128, AccessKind.STORE, 1.0),
                    ]
                ),
                _columns([Access(192, AccessKind.SWPF_L2, 0.5)]),
            ],
            routine="r",
        )
        assert trace.total_accesses == 4
        assert trace.total_demand == 2
        assert trace.threads[0].demand_count == 2
        assert trace.threads[1].demand_count == 0
