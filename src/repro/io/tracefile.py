"""On-disk trace files: ``.npz`` containers that load back memory-mapped.

A trace file is a standard (uncompressed by default) numpy ``.npz``
archive holding, per thread, the three canonical columnar arrays plus a
JSON ``meta`` member::

    meta      uint8 bytes of a JSON document (format/version/routine/
              line_bytes/thread ids/content sha256)
    t0_addr   <u8   thread 0 addresses
    t0_kind   |u1   thread 0 AccessKind codes
    t0_gap    <f8   thread 0 gap cycles
    t1_addr   ...

Because the members of an *uncompressed* zip are stored verbatim, each
array's bytes sit contiguously in the file and can be ``np.memmap``-ed
in place: :func:`load_trace` locates every member through the zip local
headers and maps it read-only, so importing a multi-gigabyte trace
costs no read I/O up front and shares pages between processes.
(``np.load(..., mmap_mode=...)`` silently ignores the request for
``.npz`` — hence the explicit offset work here.)  Compressed files and
anything else the fast path cannot handle fall back to a plain
``np.load`` copy, with identical results.

The ``meta`` digest is :func:`repro.sim.coltrace.trace_digest` of the
saved trace, so :func:`load_trace` verifies end-to-end integrity by
default, and a loaded trace produces the *same perf-cache key* as the
trace that was saved — cached simulation results survive the
export/import round trip.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from ..errors import TraceError
from ..sim.coltrace import ColumnarThreadTrace, ColumnarTrace, trace_digest

#: Format tag stored in the meta member.
TRACE_FILE_FORMAT = "repro-trace-npz"

#: Bump on any layout change.
TRACE_FILE_VERSION = 1

#: Size of a zip local file header before the variable-length fields.
_ZIP_LOCAL_HEADER_BYTES = 30


def _member_names(index: int) -> Tuple[str, str, str]:
    return (f"t{index}_addr", f"t{index}_kind", f"t{index}_gap")


def save_trace(
    path: Union[str, Path],
    trace: ColumnarTrace,
    *,
    compress: bool = False,
) -> Dict[str, Any]:
    """Write ``trace`` to ``path`` as a trace file; returns its metadata.

    ``compress`` trades the mmap fast path on load for a smaller file
    (loads still work — through the ``np.load`` fallback).

    The write is atomic (temp file + rename via
    :func:`repro.io.atomic.atomic_writer`): a crash mid-save leaves the
    previous trace file — or nothing — never a torn archive.
    """
    from .atomic import atomic_writer

    path = Path(path)
    meta = {
        "format": TRACE_FILE_FORMAT,
        "version": TRACE_FILE_VERSION,
        "routine": trace.routine,
        "line_bytes": trace.line_bytes,
        "thread_ids": [t.thread_id for t in trace.threads],
        "sha256": trace_digest(trace),
    }
    members: Dict[str, np.ndarray] = {
        "meta": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, thread in enumerate(trace.threads):
        addr_name, kind_name, gap_name = _member_names(i)
        members[addr_name] = thread.addr
        members[kind_name] = thread.kind
        members[gap_name] = thread.gap_cycles
    saver = np.savez_compressed if compress else np.savez
    # Hand savez an open handle so the exact path is honored (savez
    # appends ".npz" to bare string paths).
    with atomic_writer(path) as handle:
        saver(handle, **members)
    return meta


def _mmap_members(path: Path) -> Dict[str, np.ndarray]:
    """Map every array member of an uncompressed npz without copying.

    Walks the zip local headers (the central directory's offsets point
    at them; the data starts after the header's variable-length name and
    extra fields), reads each member's npy header, and memmaps the
    payload in place.  Raises TraceError for anything but stored
    (uncompressed) members — callers fall back to ``np.load``.
    """
    out: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise TraceError(f"member {info.filename} is compressed")
            raw.seek(info.header_offset)
            header = raw.read(_ZIP_LOCAL_HEADER_BYTES)
            if len(header) != _ZIP_LOCAL_HEADER_BYTES or header[:4] != b"PK\x03\x04":
                raise TraceError(f"bad local header for {info.filename}")
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            raw.seek(info.header_offset + _ZIP_LOCAL_HEADER_BYTES + name_len + extra_len)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:
                raise TraceError(f"unsupported npy version {version}")
            if fortran:
                raise TraceError("fortran-order member")
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            count = int(np.prod(shape)) if shape else 1
            if count == 0:
                out[name] = np.empty(shape, dtype=dtype)
                continue
            out[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=raw.tell(), shape=shape
            )
    return out


def load_trace(
    path: Union[str, Path],
    *,
    mmap: bool = True,
    verify: bool = True,
) -> ColumnarTrace:
    """Read a trace file back as a :class:`ColumnarTrace`.

    With ``mmap`` (the default) the arrays of an uncompressed file are
    memory-mapped read-only straight out of the archive; otherwise (or
    whenever mapping is not possible) they are loaded as copies.  With
    ``verify`` the content digest recorded at save time is recomputed
    and must match, else :class:`~repro.errors.TraceError`.
    """
    path = Path(path)
    members: Dict[str, np.ndarray]
    if mmap:
        try:
            members = _mmap_members(path)
        except (TraceError, OSError, ValueError, zipfile.BadZipFile):
            members = {}
    else:
        members = {}
    if not members:
        try:
            with np.load(path) as archive:
                members = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise TraceError(f"cannot read trace file {path}: {exc}") from None

    if "meta" not in members:
        raise TraceError(f"{path} is not a repro trace file (no meta member)")
    try:
        meta = json.loads(bytes(members["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"corrupt trace-file metadata in {path}: {exc}") from None
    if meta.get("format") != TRACE_FILE_FORMAT:
        raise TraceError(f"{path}: unknown trace-file format {meta.get('format')!r}")
    if meta.get("version") != TRACE_FILE_VERSION:
        raise TraceError(
            f"{path}: trace-file version {meta.get('version')!r} "
            f"(this build reads {TRACE_FILE_VERSION})"
        )

    threads = []
    for i, thread_id in enumerate(meta["thread_ids"]):
        addr_name, kind_name, gap_name = _member_names(i)
        try:
            addr, kind, gap = members[addr_name], members[kind_name], members[gap_name]
        except KeyError as exc:
            raise TraceError(f"{path}: missing member {exc}") from None
        threads.append(ColumnarThreadTrace(int(thread_id), addr, kind, gap))
    trace = ColumnarTrace(
        threads=tuple(threads),
        routine=str(meta["routine"]),
        line_bytes=int(meta["line_bytes"]),
    )
    if verify:
        actual = trace_digest(trace)
        if actual != meta.get("sha256"):
            raise TraceError(
                f"{path}: content digest mismatch (file corrupt or edited): "
                f"stored {meta.get('sha256')!r}, computed {actual!r}"
            )
    return trace
