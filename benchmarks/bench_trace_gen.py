"""E-P2: columnar trace layer — generation + digest speedup.

Guards the tentpole claim of the structure-of-arrays trace layer: the
vectorized generators plus the zero-copy array digest must beat the
legacy pure-Python path (per-``Access`` object construction plus a
canonical-JSON digest) by at least 5x end to end.  The legacy path is
reproduced inline below, byte-for-byte equivalent in *shape* to the
pre-columnar code (same statistical structure, same per-access JSON
canonical form), so the comparison stays honest as the live code
evolves.

The mini-app extractors get the same guard: the array-built
``extract_trace`` of the six perfbench apps must beat the per-access
recording loops they replaced (kept inline below) by at least 3x, with
identical trace digests.
"""

import hashlib
import json
import random
import time

import numpy as np

from conftest import pedantic_once

from repro.apps import (
    AddressSpace,
    ComdApp,
    HpcgApp,
    IsxApp,
    MinighostApp,
    PennantApp,
    SnapApp,
    partition,
)
from repro.machines import get_machine
from repro.sim.coltrace import (
    AccessColumns,
    ColumnarThreadTrace,
    ColumnarTrace,
    columnar_trace,
    trace_digest,
)
from repro.sim.trace import Access, AccessKind
from repro.workloads.generators import random_updates, spawn_thread_generator

THREADS = 4
ACCESSES = 50_000
LINE = 64
SPEEDUP_FLOOR = 5.0
APP_SPEEDUP_FLOOR = 3.0


# -- legacy baseline (the pre-columnar implementation, kept inline) -------------


def _legacy_random_updates(count, line_bytes, rng, *, gap_cycles=2.0,
                           write_fraction=0.5, region_bytes=128 * 1024 * 1024):
    """The old per-object generator loop: two RNG calls + one Access each."""
    lines = region_bytes // line_bytes
    targets = [rng.randrange(lines) * line_bytes for _ in range(count)]
    out = []
    for addr in targets:
        write = rng.random() < write_fraction
        kind = AccessKind.STORE if write else AccessKind.LOAD
        out.append(Access(addr, kind, gap_cycles))
    return out


def _legacy_digest(threads, *, routine, line_bytes):
    """The old cache key: canonical JSON over every access, then SHA-256.

    ``threads`` holds one tuple of ``Access`` records per thread, ids 0..n-1.
    """
    payload = {
        "routine": routine,
        "line_bytes": line_bytes,
        "threads": [
            [tid, [[a.addr, a.kind.value, a.gap_cycles] for a in accesses]]
            for tid, accesses in enumerate(threads)
        ],
    }
    doc = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _legacy_generate_and_digest(seed=12345):
    rng = random.Random(seed)
    threads = []
    for t in range(THREADS):
        child = random.Random(rng.randrange(2**31))
        threads.append(tuple(_legacy_random_updates(ACCESSES, LINE, child)))
    return _legacy_digest(threads, routine="bench", line_bytes=LINE)


# -- columnar path (the live implementation) ------------------------------------


def _columnar_generate_and_digest(seed=12345):
    rng = random.Random(seed)
    threads = []
    for t in range(THREADS):
        cols = random_updates(ACCESSES, LINE, spawn_thread_generator(rng))
        threads.append(ColumnarThreadTrace.from_columns(t, cols))
    trace = ColumnarTrace(tuple(threads), routine="bench", line_bytes=LINE)
    return trace_digest(trace)


def _best_of(func, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_generation_beats_legacy(benchmark, printed):
    legacy_s = _best_of(_legacy_generate_and_digest)
    digest = pedantic_once(benchmark, _columnar_generate_and_digest)
    columnar_s = benchmark.stats.stats.mean
    speedup = legacy_s / columnar_s
    if "trace-gen" not in printed:
        printed.add("trace-gen")
        print(
            f"\ntrace gen+digest ({THREADS}x{ACCESSES} accesses): "
            f"legacy {legacy_s * 1e3:.1f} ms, "
            f"columnar {columnar_s * 1e3:.1f} ms = {speedup:.1f}x"
        )
    assert len(digest) == 64
    assert speedup >= SPEEDUP_FLOOR


def test_zero_copy_digest_scales(benchmark, printed):
    # Digest alone on an already-built columnar trace: hashing raw array
    # bytes should stay in the hundreds of MB/s even on shared CI boxes.
    rng = np.random.default_rng(7)
    n = 1_000_000
    thread = ColumnarThreadTrace(
        0,
        rng.integers(0, 2**40, size=n, dtype=np.uint64),
        rng.integers(0, 4, size=n, dtype=np.uint8),
        rng.random(n),
    )
    trace = ColumnarTrace((thread,), routine="digest-bench", line_bytes=64)
    digest = pedantic_once(benchmark, trace_digest, trace)
    mean_s = benchmark.stats.stats.mean
    nbytes = sum(
        t.addr.nbytes + t.kind.nbytes + t.gap_cycles.nbytes for t in trace.threads
    )
    if "digest-rate" not in printed:
        printed.add("digest-rate")
        print(
            f"\nzero-copy digest: {nbytes / 1e6:.0f} MB in {mean_s * 1e3:.1f} ms "
            f"= {nbytes / mean_s / 1e9:.1f} GB/s"
        )
    assert len(digest) == 64
    # 17 MB of arrays must digest in well under a second (observed ~20 ms).
    assert mean_s < 1.0


# -- mini-app extraction: per-access recorder (legacy, inline) vs arrays --------

#: perfbench's full-size apps: constructor kwargs, extract_trace kwargs.
APPS = {
    "isx": (IsxApp, {"keys_per_thread": 1000}, {}),
    "hpcg": (HpcgApp, {"n": 8}, {"max_rows": 150}),
    "pennant": (PennantApp, {}, {"max_corners": 1750}),
    "comd": (ComdApp, {"particles": 400}, {}),
    "minighost": (MinighostApp, {}, {"max_cells": 400}),
    "snap": (SnapApp, {}, {"max_cells": 120}),
}


class _LegacyRecorder:
    """The old ``TraceRecorder``: one Python call per access."""

    def __init__(self, space):
        # Every app array holds 8-byte elements.
        self.base = {name: int(space.addr(name, 0)) for name in space.arrays()}
        self.addr, self.kind, self.gap = [], [], []

    def _record(self, array, index, kind, gap):
        self.addr.append(self.base[array] + int(index) * 8)
        self.kind.append(kind)
        self.gap.append(gap)

    def load(self, array, index, gap):
        self._record(array, index, 0, gap)

    def store(self, array, index, gap):
        self._record(array, index, 1, gap)

    def prefetch_l2(self, array, index):
        self._record(array, index, 3, 0.5)


def _legacy_space(*arrays):
    space = AddressSpace()
    for name, length in arrays:
        space.add(name, length, 8)
    return space


def _legacy_isx(app):
    space = _legacy_space(("keys", len(app.keys)), ("counts", app.buckets))
    for start, end in partition(len(app.keys), app.threads):
        rec = _LegacyRecorder(space)
        for i in range(start, end):
            key = int(app.keys[i])
            rec.load("keys", i, 1.0)
            rec.load("counts", key, 12.0)
            rec.store("counts", key, 1.0)
        yield rec


def _legacy_hpcg(app, max_rows):
    space = _legacy_space(
        ("row_ptr", len(app.row_ptr)), ("col_idx", len(app.col_idx)),
        ("values", len(app.values)), ("x", app.rows), ("y", app.rows),
    )
    for start, end in partition(min(app.rows, max_rows), app.threads):
        rec = _LegacyRecorder(space)
        for row in range(start, end):
            rec.load("row_ptr", row, 1.0)
            for k in range(int(app.row_ptr[row]), int(app.row_ptr[row + 1])):
                rec.load("values", k, 2.0)
                rec.load("col_idx", k, 1.0)
                rec.load("x", int(app.col_idx[k]), 1.0)
            rec.store("y", row, 1.0)
        yield rec


def _legacy_pennant(app, max_corners):
    space = _legacy_space(
        ("map_corner_point", app.corners), ("map_corner_zone", app.corners),
        ("point_x", app.points), ("zone_x", app.zones), ("zone_div", app.zones),
    )
    for start, end in partition(min(app.corners, max_corners), app.threads):
        rec = _LegacyRecorder(space)
        for c in range(start, end):
            rec.load("map_corner_point", c, 1.0)
            rec.load("map_corner_zone", c, 1.0)
            rec.load("point_x", int(app.map_corner_point[c]), 8.0)
            rec.load("zone_x", int(app.map_corner_zone[c]), 8.0)
            rec.store("zone_div", int(app.map_corner_zone[c]), 1.0)
        yield rec


def _legacy_comd(app):
    space = _legacy_space(("pos", app.particles * 3), ("force", app.particles * 3))
    for start, end in partition(app.particles, app.threads):
        rec = _LegacyRecorder(space)
        for p in range(start, end):
            rec.load("pos", 3 * p, 2.0)
            for q in app._neighbors(p):
                rec.load("pos", 3 * q, 28.0)
            rec.store("force", 3 * p, 2.0)
        yield rec


def _legacy_minighost(app, max_cells):
    cells = app.nx * app.ny * app.nz
    space = _legacy_space(("grid", cells), ("out", cells))
    z_interior = list(range(1, app.nz - 1))
    emitted = 0
    for start, end in partition(len(z_interior), app.threads):
        rec = _LegacyRecorder(space)
        for zi in z_interior[start:end]:
            for y in range(1, app.ny - 1):
                for x in range(1, app.nx - 1):
                    if emitted >= max_cells:
                        break
                    for dz in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            for dx in (-1, 0, 1):
                                index = app._index(zi + dz, y + dy, x + dx)
                                rec.load("grid", index, 1.5)
                    rec.store("out", app._index(zi, y, x), 1.0)
                    emitted += 1
        yield rec


def _legacy_snap(app, max_cells):
    cells = app.ny * app.nx
    space = _legacy_space(("psi", cells * app.nang), ("source", cells), ("sigma", cells))
    emitted = 0
    for start, end in partition(app.ny, app.threads):
        rec = _LegacyRecorder(space)
        for y in range(start, end):
            for x in range(app.nx):
                if emitted >= max_cells:
                    break
                rec.load("source", y * app.nx + x, 1.0)
                rec.load("sigma", y * app.nx + x, 1.0)
                for a in range(app.nang):
                    if x > 0:
                        rec.load("psi", (y * app.nx + x - 1) * app.nang + a, 3.0)
                    if y > 0:
                        rec.load("psi", ((y - 1) * app.nx + x) * app.nang + a, 3.0)
                    rec.store("psi", (y * app.nx + x) * app.nang + a, 1.0)
                emitted += 1
        yield rec


_LEGACY = {
    "isx": _legacy_isx,
    "hpcg": _legacy_hpcg,
    "pennant": _legacy_pennant,
    "comd": _legacy_comd,
    "minighost": _legacy_minighost,
    "snap": _legacy_snap,
}
_ROUTINES = {
    "isx": "count_local_keys",
    "hpcg": "ComputeSPMV_ref",
    "pennant": "setCornerDiv",
    "comd": "eamForce",
    "minighost": "mg_stencil_3d27pt",
    "snap": "dim3_sweep",
}


def _legacy_extract_all(apps, line_bytes):
    digests = {}
    for name, app in apps.items():
        recorders = _LEGACY[name](app, **APPS[name][2])
        trace = columnar_trace(
            [
                AccessColumns(
                    np.array(r.addr, dtype=np.int64),
                    np.array(r.kind, dtype=np.uint8),
                    np.array(r.gap, dtype=np.float64),
                )
                for r in recorders
            ],
            routine=_ROUTINES[name],
            line_bytes=line_bytes,
        )
        digests[name] = trace_digest(trace)
    return digests


def _array_extract_all(apps, machine):
    return {
        name: trace_digest(app.extract_trace(machine, **APPS[name][2]))
        for name, app in apps.items()
    }


def test_array_app_extraction_beats_per_access_recorder(benchmark, printed):
    skl = get_machine("skl")
    apps = {name: cls(**kwargs) for name, (cls, kwargs, _) in APPS.items()}
    legacy_s = _best_of(lambda: _legacy_extract_all(apps, skl.line_bytes))
    array_s = _best_of(lambda: _array_extract_all(apps, skl), repeats=7)
    digests = pedantic_once(benchmark, _array_extract_all, apps, skl)
    speedup = legacy_s / array_s
    if "app-extract" not in printed:
        printed.add("app-extract")
        print(
            f"\nmini-app extract+digest (six perfbench apps, skl): "
            f"per-access {legacy_s * 1e3:.1f} ms, "
            f"array-built {array_s * 1e3:.1f} ms = {speedup:.1f}x"
        )
    assert digests == _legacy_extract_all(apps, skl.line_bytes)
    assert speedup >= APP_SPEEDUP_FLOOR
