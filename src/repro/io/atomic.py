"""Crash-safe file primitives shared by the cache and trace layers.

Three write disciplines cover every persistence need in the repo:

* :func:`atomic_write_bytes` — whole-file replacement via a
  same-directory temp file and ``os.replace``; a reader never observes
  a half-written file, and a crash leaves either the old content or the
  new, never a mix;
* :func:`atomic_writer` — the same discipline as a context manager, for
  writers that need an open handle (e.g. ``numpy.savez``);
* :func:`append_jsonl` — durably append one JSON document as one line:
  a single ``write`` of a ``\\n``-terminated line on an ``O_APPEND``
  handle, flushed and fsynced, so concurrent appenders never interleave
  within a line and a crash can lose at most the final partial line
  (which JSONL readers must tolerate — see the sim cache's
  ``tallies.jsonl`` ledger, :func:`repro.perf.cache.read_tallies`).
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator, Union

__all__ = [
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_writer",
]


@contextmanager
def atomic_writer(
    path: Union[str, Path], *, text: bool = False
) -> Iterator[IO[Any]]:
    """Open a temp file next to ``path``; on clean exit, replace ``path``.

    On an exception the temp file is removed and ``path`` is untouched.
    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem atomic rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    handle: IO[Any]
    try:
        handle = os.fdopen(fd, "w" if text else "wb")
        try:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # repro: noqa[RES001] - best-effort tmp cleanup
            pass
        raise


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` with all-or-nothing visibility."""
    with atomic_writer(path) as handle:
        handle.write(data)


def append_jsonl(path: Union[str, Path], doc: Any, *, fsync: bool = True) -> None:
    """Durably append ``doc`` to ``path`` as one JSON line.

    The serialized line is written with a single ``os.write`` on an
    ``O_APPEND`` descriptor (atomic with respect to other appenders for
    any line shorter than ``PIPE_BUF``-scale sizes on every mainstream
    filesystem) and fsynced before returning, so a completed call
    survives an immediately following crash.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
