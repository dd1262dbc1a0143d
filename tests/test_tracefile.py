"""On-disk trace files: round trips, the mmap fast path, and integrity."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.io import TRACE_FILE_FORMAT, load_trace, save_trace
from repro.io.tracefile import _mmap_members
from repro.sim.coltrace import (
    KIND_CODES,
    AccessColumns,
    ColumnarTrace,
    columnar_trace,
    trace_digest,
)
from repro.sim.trace import AccessKind

LOAD, STORE, SWPF_L2 = (
    KIND_CODES[k] for k in (AccessKind.LOAD, AccessKind.STORE, AccessKind.SWPF_L2)
)


def _fixture_trace():
    return columnar_trace(
        (
            AccessColumns(
                np.array([0, 64, 128]),
                np.array([LOAD, SWPF_L2, STORE]),
                np.array([1.0, 0.5, 2.0]),
            ),
            AccessColumns(np.array([4096]), np.array([LOAD]), np.array([3.0])),
        ),
        routine="filetest",
        line_bytes=64,
    )


class TestRoundTrip:
    def test_save_load_preserves_content_and_digest(self, tmp_path):
        trace = _fixture_trace()
        path = tmp_path / "t.trace"
        meta = save_trace(path, trace)
        assert meta["format"] == TRACE_FILE_FORMAT
        loaded = load_trace(path)
        assert isinstance(loaded, ColumnarTrace)
        assert loaded == trace
        assert trace_digest(loaded) == meta["sha256"] == trace_digest(trace)

    def test_columnar_input_round_trips(self, tmp_path):
        """A memory-mapped trace saves again exactly like its source."""
        col = _fixture_trace()
        save_trace(tmp_path / "a.trace", col)
        save_trace(tmp_path / "b.trace", load_trace(tmp_path / "a.trace"))
        assert load_trace(tmp_path / "b.trace") == col

    def test_compressed_round_trips_via_fallback(self, tmp_path):
        trace = _fixture_trace()
        path = tmp_path / "t.trace"
        save_trace(path, trace, compress=True)
        with pytest.raises(TraceError):
            _mmap_members(path)  # compressed members defeat the fast path
        assert load_trace(path) == trace


class TestMmapFastPath:
    def test_members_are_memory_mapped(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        members = _mmap_members(path)
        arrays = [a for name, a in members.items() if name != "meta"]
        assert arrays and all(isinstance(a, np.memmap) for a in arrays)

    def test_mmap_and_copy_loads_agree(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        assert load_trace(path, mmap=True) == load_trace(path, mmap=False)

    def test_loaded_arrays_read_only(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        loaded = load_trace(path)
        with pytest.raises(ValueError):
            loaded.threads[0].addr[0] = 99


class TestIntegrity:
    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        # Flip a byte inside the first address array's payload (the
        # memmap offset locates it exactly).
        offset = _mmap_members(path)["t0_addr"].offset
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(TraceError, match="meta"):
            load_trace(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(TraceError):
            load_trace(path)
