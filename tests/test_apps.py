"""Executable mini-apps: numerical correctness + trace signatures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    AddressSpace,
    ComdApp,
    DgemmApp,
    HpcgApp,
    IsxApp,
    MinighostApp,
    PennantApp,
    SnapApp,
    build_27pt_csr,
    partition,
)
from repro.errors import ConfigurationError
from repro.machines import get_machine
from repro.sim import ColumnarTrace, SimConfig, run_trace, trace_digest
from repro.sim.coltrace import AccessColumns, columnar_trace
from repro.xmem import pointer_chase_trace


def _simulate(trace, machine, **kwargs):
    cfg = SimConfig(machine=machine, sim_cores=2, window_per_core=14, **kwargs)
    return run_trace(trace, cfg)


#: ``trace_digest`` of each mini-app's skl trace at default ``extract_trace``
#: arguments, and of a pointer chase.  The digest keys every cached
#: ``SimStats``, so a change here means trace content moved.
PINNED_DIGESTS = {
    "isx": (lambda m: IsxApp(keys_per_thread=200).extract_trace(m), "cbd579780d4f9756a89cb4bd2a941491aa5df9dd9b015722b68a9908bca8b645"),
    "hpcg": (lambda m: HpcgApp(n=4).extract_trace(m), "016d7df7adaecaf2371d2add2001a4eecd265e3605f41244b4fa1bbbd0baea91"),
    "pennant": (lambda m: PennantApp(zones=2000).extract_trace(m), "c44fe3acac833266d54bc4ed124bfd0bc5a17b4496f9c17b04a93a1e6bb9217b"),
    "comd": (lambda m: ComdApp(particles=60).extract_trace(m), "9c3829182ea4c97751d2d2912cc8032980b96aa9e250591c1fd1471fdd159ed4"),
    "minighost": (lambda m: MinighostApp(nx=8, ny=4, nz=4).extract_trace(m), "8dece017d547719e51d9a5ba8566d158bc9f6a6600328f7d32daf22f32c9cab2"),
    "snap": (lambda m: SnapApp(nx=6, ny=4, nang=8).extract_trace(m), "6dd9c9ebcdce05f2b10a2b75e97e6d15f7ddac6bc29874cd09aa719770585257"),
    "chase": (lambda m: ColumnarTrace((pointer_chase_trace(1500, 64),)), "f47279c49aeb0f19514740fa9bf17ca4fb18c9e36e33057505b49ba885d0ebb3"),
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_trace_digest_pinned(name, skl):
    build, expected = PINNED_DIGESTS[name]
    assert trace_digest(build(skl)) == expected


# -- reference: the per-access recording loops the extractors replaced ----------

_LOAD, _STORE, _SWPF_L2 = 0, 1, 3


class _Recorder:
    """One thread's stream, one Python call per access."""

    def __init__(self, space):
        # Every app array holds 8-byte elements.
        self.base = {name: int(space.addr(name, 0)) for name in space.arrays()}
        self.addr, self.kind, self.gap = [], [], []

    def _record(self, array, index, kind, gap):
        self.addr.append(self.base[array] + int(index) * 8)
        self.kind.append(kind)
        self.gap.append(gap)

    def load(self, array, index, *, gap):
        self._record(array, index, _LOAD, gap)

    def store(self, array, index, *, gap):
        self._record(array, index, _STORE, gap)

    def prefetch_l2(self, array, index):
        self._record(array, index, _SWPF_L2, 0.5)


def _recorded(recorders, routine, machine):
    return columnar_trace(
        [
            AccessColumns(
                np.array(r.addr, dtype=np.int64),
                np.array(r.kind, dtype=np.uint8),
                np.array(r.gap, dtype=np.float64),
            )
            for r in recorders
        ],
        routine=routine,
        line_bytes=machine.line_bytes,
    )


def _reference_isx(app, machine, *, l2_prefetch=False, prefetch_distance=64,
                   update_gap_cycles=12.0):
    space = AddressSpace()
    space.add("keys", len(app.keys), 8)
    space.add("counts", app.buckets, 8)
    recorders = []
    for start, end in partition(len(app.keys), app.threads):
        rec = _Recorder(space)
        for i in range(start, end):
            key = int(app.keys[i])
            if l2_prefetch and i + prefetch_distance < end:
                rec.prefetch_l2("counts", int(app.keys[i + prefetch_distance]))
            rec.load("keys", i, gap=1.0)
            rec.load("counts", key, gap=update_gap_cycles)
            rec.store("counts", key, gap=1.0)
        recorders.append(rec)
    return _recorded(recorders, "count_local_keys", machine)


def _reference_hpcg(app, machine, *, max_rows=None, fma_gap_cycles=2.0):
    rows = app.rows if max_rows is None else min(app.rows, max_rows)
    space = AddressSpace()
    space.add("row_ptr", len(app.row_ptr), 8)
    space.add("col_idx", len(app.col_idx), 8)
    space.add("values", len(app.values), 8)
    space.add("x", app.rows, 8)
    space.add("y", app.rows, 8)
    recorders = []
    for start, end in partition(rows, app.threads):
        rec = _Recorder(space)
        for row in range(start, end):
            rec.load("row_ptr", row, gap=1.0)
            for k in range(int(app.row_ptr[row]), int(app.row_ptr[row + 1])):
                rec.load("values", k, gap=fma_gap_cycles)
                rec.load("col_idx", k, gap=1.0)
                rec.load("x", int(app.col_idx[k]), gap=1.0)
            rec.store("y", row, gap=1.0)
        recorders.append(rec)
    return _recorded(recorders, "ComputeSPMV_ref", machine)


def _reference_pennant(app, machine, *, vectorized=False, max_corners=None):
    gap = 2.0 if vectorized else 8.0
    space = AddressSpace()
    space.add("map_corner_point", app.corners, 8)
    space.add("map_corner_zone", app.corners, 8)
    space.add("point_x", app.points, 8)
    space.add("zone_x", app.zones, 8)
    space.add("zone_div", app.zones, 8)
    corners = app.corners if max_corners is None else min(app.corners, max_corners)
    recorders = []
    for start, end in partition(corners, app.threads):
        rec = _Recorder(space)
        for c in range(start, end):
            rec.load("map_corner_point", c, gap=1.0)
            rec.load("map_corner_zone", c, gap=1.0)
            rec.load("point_x", int(app.map_corner_point[c]), gap=gap)
            rec.load("zone_x", int(app.map_corner_zone[c]), gap=gap)
            rec.store("zone_div", int(app.map_corner_zone[c]), gap=1.0)
        recorders.append(rec)
    return _recorded(recorders, "setCornerDiv", machine)


def _reference_comd(app, machine, *, vectorized=False):
    pair_gap = 14.0 if vectorized else 28.0
    space = AddressSpace()
    space.add("pos", app.particles * 3, 8)
    space.add("force", app.particles * 3, 8)
    recorders = []
    for start, end in partition(app.particles, app.threads):
        rec = _Recorder(space)
        for p in range(start, end):
            rec.load("pos", 3 * p, gap=2.0)
            for q in app._neighbors(p):
                rec.load("pos", 3 * q, gap=pair_gap)
            rec.store("force", 3 * p, gap=2.0)
        recorders.append(rec)
    return _recorded(recorders, "eamForce", machine)


def _reference_minighost(app, machine, *, max_cells=None, flop_gap_cycles=1.5):
    space = AddressSpace()
    cells = app.nx * app.ny * app.nz
    space.add("grid", cells, 8)
    space.add("out", cells, 8)
    z_interior = list(range(1, app.nz - 1))
    recorders = []
    emitted = 0
    budget = max_cells if max_cells is not None else cells
    for start, end in partition(len(z_interior), app.threads):
        rec = _Recorder(space)
        for zi in z_interior[start:end]:
            for y in range(1, app.ny - 1):
                for x in range(1, app.nx - 1):
                    if emitted >= budget:
                        break
                    for dz in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            for dx in (-1, 0, 1):
                                rec.load(
                                    "grid",
                                    app._index(zi + dz, y + dy, x + dx),
                                    gap=flop_gap_cycles,
                                )
                    rec.store("out", app._index(zi, y, x), gap=1.0)
                    emitted += 1
        recorders.append(rec)
    return _recorded(recorders, "mg_stencil_3d27pt", machine)


def _reference_snap(app, machine, *, sw_prefetch=False, max_cells=None):
    space = AddressSpace()
    cells = app.ny * app.nx
    space.add("psi", cells * app.nang, 8)
    space.add("source", cells, 8)
    space.add("sigma", cells, 8)

    def flat(y, x, a=0):
        return (y * app.nx + x) * app.nang + a

    budget = max_cells if max_cells is not None else cells
    emitted = 0
    recorders = []
    for start, end in partition(app.ny, app.threads):
        rec = _Recorder(space)
        for y in range(start, end):
            for x in range(app.nx):
                if emitted >= budget:
                    break
                rec.load("source", y * app.nx + x, gap=1.0)
                rec.load("sigma", y * app.nx + x, gap=1.0)
                if sw_prefetch and x + 1 < app.nx:
                    for a in range(0, app.nang, 8):
                        rec.prefetch_l2("psi", flat(y, x + 1, a))
                for a in range(app.nang):
                    if x > 0:
                        rec.load("psi", flat(y, x - 1, a), gap=3.0)
                    if y > 0:
                        rec.load("psi", flat(y - 1, x, a), gap=3.0)
                    rec.store("psi", flat(y, x, a), gap=1.0)
                emitted += 1
        recorders.append(rec)
    return _recorded(recorders, "dim3_sweep", machine)


def _reference_dgemm(app, machine, *, max_tiles=8, fma_gap_cycles=190.0):
    n, bs = app.n, app.block
    space = AddressSpace()
    space.add("a", n * n, 8)
    space.add("b", n * n, 8)
    space.add("c", n * n, 8)
    line_elems = max(1, machine.line_bytes // 8)
    tiles = []
    for ii in range(0, n, bs):
        for kk in range(0, n, bs):
            for jj in range(0, n, bs):
                tiles.append((ii, kk, jj))
    if max_tiles is not None:
        tiles = tiles[: max_tiles * app.threads]
    recorders = []
    for start, end in partition(len(tiles), app.threads):
        rec = _Recorder(space)
        for ii, kk, jj in tiles[start:end]:
            for r in range(bs):
                for col in range(0, bs, line_elems):
                    rec.load("a", (ii + r) * n + kk + col, gap=fma_gap_cycles)
                    rec.load("b", (kk + r) * n + jj + col, gap=fma_gap_cycles)
            for r in range(bs):
                for col in range(0, bs, line_elems):
                    rec.store("c", (ii + r) * n + jj + col, gap=fma_gap_cycles)
        recorders.append(rec)
    return _recorded(recorders, "dgemm", machine)


REFERENCE = {
    "isx": (IsxApp, _reference_isx),
    "hpcg": (HpcgApp, _reference_hpcg),
    "pennant": (PennantApp, _reference_pennant),
    "comd": (ComdApp, _reference_comd),
    "minighost": (MinighostApp, _reference_minighost),
    "snap": (SnapApp, _reference_snap),
    "dgemm": (DgemmApp, _reference_dgemm),
}

#: Constructor kwargs at perfbench's full and tiny sizes (dgemm, which
#: perfbench does not run, at its default and at a half-size grid).
APP_SIZES = {
    "full": {
        "isx": {"keys_per_thread": 1000},
        "hpcg": {"n": 8},
        "pennant": {},
        "comd": {"particles": 400},
        "minighost": {},
        "snap": {},
        "dgemm": {},
    },
    "tiny": {
        "isx": {"keys_per_thread": 200},
        "hpcg": {"n": 4},
        "pennant": {"zones": 2000},
        "comd": {"particles": 60},
        "minighost": {"nx": 8, "ny": 4, "nz": 4},
        "snap": {"nx": 6, "ny": 4, "nang": 8},
        "dgemm": {"n": 48, "block": 12},
    },
}

#: First 16 hex digits of ``trace_digest`` on (skl, a64fx) per (size,
#: app, extract_trace kwargs), taken from the per-access recording loops
#: above.  Covers perfbench's extract kwargs, every option, an isx
#: prefetch distance at least the thread's key count, and budgets that
#: stop mid-row and mid-thread.  a64fx's 256 B lines change dgemm's
#: line-granular touches.  Every sim-cache key of an app run hangs on
#: these.
PINNED_APP_TRACES = [
    ("full", "isx", {}, "7bfcaf6c1e51e610", "8097b744b184d8ba"),
    ("full", "isx", {"l2_prefetch": True}, "6b8423f3bc1b87d8", "3489fba1a082d037"),
    ("full", "isx", {"l2_prefetch": True, "prefetch_distance": 1000}, "7bfcaf6c1e51e610", "8097b744b184d8ba"),
    ("full", "hpcg", {"max_rows": 150}, "042237c5e1332e4c", "5e2de49e0ae667f2"),
    ("full", "hpcg", {}, "a4eb847f807c9cd6", "f0808e398d5907a6"),
    ("full", "hpcg", {"max_rows": 301}, "d09f7edfc437c63d", "1dcb9ee4c3e65c8d"),
    ("full", "pennant", {"max_corners": 1750}, "8810c7ea7fac09e8", "06f03f6b3638d80e"),
    ("full", "pennant", {"max_corners": 1750, "vectorized": True}, "1be2e790040ccff8", "0d0f7df9c3350083"),
    ("full", "pennant", {"max_corners": 1751}, "d198e0be43a2af93", "6ea225fb48fea125"),
    ("full", "comd", {}, "f4835bba0edde714", "7686a4c15ecdd0cc"),
    ("full", "comd", {"vectorized": True}, "ccf4b7356c9a807a", "5880661be7647974"),
    ("full", "minighost", {"max_cells": 400}, "8980c0f72580ccf3", "e9a787c7a33151ff"),
    ("full", "minighost", {}, "36a74e538a0d7f75", "4204136ba453a581"),
    ("full", "minighost", {"max_cells": 1500}, "2843fc79af2986a2", "c31c5f02b3b9f787"),
    ("full", "snap", {"max_cells": 120}, "103fb3aca6b3c069", "6a01111f25c7fc70"),
    ("full", "snap", {"max_cells": 120, "sw_prefetch": True}, "2c59a6ec2abadeb0", "f5deab6d7beb281b"),
    ("full", "snap", {"sw_prefetch": True}, "ba0ee887bfb238a2", "c7d51a6ea7db08c9"),
    ("full", "snap", {"max_cells": 250}, "bb8b212557054b77", "9df000e066ca45ee"),
    ("full", "dgemm", {}, "f1ccd4b2b06643a3", "c33b1983ea26e754"),
    ("full", "dgemm", {"max_tiles": 3}, "2c1cf7d119eba461", "0d3312f0cc4c506f"),
    ("full", "dgemm", {"max_tiles": None}, "cf2e52d5443a550f", "c800ecfaacef7af2"),
    ("tiny", "isx", {}, "cbd579780d4f9756", "5ec9bc5814e10752"),
    ("tiny", "isx", {"l2_prefetch": True}, "b9ffa47ecdfe0580", "bcbcdf819f906a78"),
    ("tiny", "isx", {"l2_prefetch": True, "prefetch_distance": 200}, "cbd579780d4f9756", "5ec9bc5814e10752"),
    ("tiny", "hpcg", {"max_rows": 30}, "abb8499546ffecd0", "997259ddad09e46f"),
    ("tiny", "hpcg", {}, "016d7df7adaecaf2", "25ece7240753185a"),
    ("tiny", "pennant", {"max_corners": 300}, "48b1be914280942e", "c9d5bcd8ebdd00f4"),
    ("tiny", "pennant", {"max_corners": 300, "vectorized": True}, "151ba3a641a46a02", "a772df3e9819f41c"),
    ("tiny", "comd", {}, "9c3829182ea4c977", "2369b5ff8be30a38"),
    ("tiny", "comd", {"vectorized": True}, "e564ad0e6f123cf4", "6b1aa4c6bdc5c870"),
    ("tiny", "minighost", {"max_cells": 40}, "8dece017d547719e", "68952b8604f90c1d"),
    ("tiny", "minighost", {"max_cells": 15}, "9870c420a1f6569b", "7be15159cc286c21"),
    ("tiny", "snap", {"max_cells": 12}, "7054964953ef04f9", "a5ce7197e5013ceb"),
    ("tiny", "snap", {"max_cells": 12, "sw_prefetch": True}, "b4338e8635d8879a", "3dcffb9236eed1b0"),
    ("tiny", "snap", {"sw_prefetch": True}, "b87dece17673969d", "6cd0ae367bfd4ed8"),
    ("tiny", "snap", {"max_cells": 17}, "cd6262e139ac9b80", "926485303a9c78f6"),
    ("tiny", "dgemm", {}, "ba37d778c0f3042b", "e66eb72521ca9e15"),
    ("tiny", "dgemm", {"max_tiles": None}, "dd36cebc6d12579e", "b9848d6dd2685494"),
]


def _case_id(case):
    size, name, kwargs = case[:3]
    options = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return f"{name}-{size}" + (f"[{options}]" if options else "")


@pytest.fixture(scope="module")
def _apps():
    """One app per (size, name), built once: the pinned cases share them."""
    built = {}

    def get(size, name):
        if (size, name) not in built:
            built[size, name] = REFERENCE[name][0](**APP_SIZES[size][name])
        return built[size, name]

    return get


@pytest.mark.parametrize("case", PINNED_APP_TRACES, ids=_case_id)
def test_app_trace_digest_pinned(case, _apps, skl, a64fx):
    size, name, kwargs, skl_digest, a64fx_digest = case
    app = _apps(size, name)
    assert trace_digest(app.extract_trace(skl, **kwargs))[:16] == skl_digest
    assert trace_digest(app.extract_trace(a64fx, **kwargs))[:16] == a64fx_digest


def test_shared_cell_budget_fills_thread_zero_first(skl):
    """``max_cells`` is one budget across threads, spent in thread order:
    at perfbench's sizes thread 1 of minighost and snap is empty."""
    traces = {
        "minighost": MinighostApp().extract_trace(skl, max_cells=400),
        "snap-full": SnapApp().extract_trace(skl, max_cells=120),
        "snap-tiny": SnapApp(nx=6, ny=4, nang=8).extract_trace(skl, max_cells=12),
    }
    assert {k: [len(t) for t in v.threads] for k, v in traces.items()} == {
        "minighost": [11200, 0],
        "snap-full": [16128, 0],
        "snap-tiny": [248, 0],
    }


_budget = st.one_of(st.none(), st.integers(0, 400))

#: Per app: constructor kwargs and extract_trace kwargs, small and random.
_APP_CASES = {
    "isx": (
        st.fixed_dictionaries({
            "keys_per_thread": st.integers(1, 60),
            "buckets": st.integers(1, 4096),
            "threads": st.integers(1, 4),
            "seed": st.integers(0, 99),
        }),
        st.fixed_dictionaries({
            "l2_prefetch": st.booleans(),
            "prefetch_distance": st.integers(0, 80),
            "update_gap_cycles": st.sampled_from([12.0, 3.5]),
        }),
    ),
    "hpcg": (
        st.fixed_dictionaries({"n": st.integers(2, 5), "threads": st.integers(1, 4)}),
        st.fixed_dictionaries({"max_rows": _budget}),
    ),
    "pennant": (
        st.fixed_dictionaries({
            "zones": st.integers(1, 60),
            "threads": st.integers(1, 4),
            "seed": st.integers(0, 99),
        }),
        st.fixed_dictionaries(
            {"vectorized": st.booleans(), "max_corners": _budget}
        ),
    ),
    "comd": (
        st.fixed_dictionaries({
            "particles": st.integers(1, 50),
            "box": st.sampled_from([3.0, 4.5, 6.0]),
            "threads": st.integers(1, 4),
            "seed": st.integers(0, 99),
        }),
        st.fixed_dictionaries({"vectorized": st.booleans()}),
    ),
    "minighost": (
        st.fixed_dictionaries({
            "nx": st.integers(3, 7),
            "ny": st.integers(3, 6),
            "nz": st.integers(3, 6),
            "threads": st.integers(1, 4),
        }),
        st.fixed_dictionaries({"max_cells": _budget}),
    ),
    "snap": (
        st.fixed_dictionaries({
            "nx": st.integers(1, 6),
            "ny": st.integers(1, 6),
            "nang": st.integers(1, 20),
            "threads": st.integers(1, 4),
        }),
        st.fixed_dictionaries(
            {"sw_prefetch": st.booleans(), "max_cells": _budget}
        ),
    ),
    "dgemm": (
        st.integers(1, 8).flatmap(
            lambda block: st.fixed_dictionaries({
                "block": st.just(block),
                "n": st.integers(1, 3).map(lambda k: k * block),
                "threads": st.integers(1, 3),
            })
        ),
        st.fixed_dictionaries({"max_tiles": st.one_of(st.none(), st.integers(0, 6))}),
    ),
}

_MACHINES = {name: get_machine(name) for name in ("skl", "a64fx")}


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(_APP_CASES)).flatmap(
        lambda name: st.tuples(st.just(name), *_APP_CASES[name])
    ),
    machine=st.sampled_from(sorted(_MACHINES)),
)
def test_array_built_trace_equals_per_access_reference(case, machine):
    name, app_kwargs, extract_kwargs = case
    cls, reference = REFERENCE[name]
    app, spec = cls(**app_kwargs), _MACHINES[machine]
    live = app.extract_trace(spec, **extract_kwargs)
    expected = reference(app, spec, **extract_kwargs)
    assert [t.thread_id for t in live.threads] == [t.thread_id for t in expected.threads]
    for got, want in zip(live.threads, expected.threads):
        np.testing.assert_array_equal(got.addr, want.addr)
        np.testing.assert_array_equal(got.kind, want.kind)
        np.testing.assert_array_equal(got.gap_cycles, want.gap_cycles)
    assert live == expected
    assert trace_digest(live) == trace_digest(expected)


class TestCommon:
    def test_partition_covers_everything(self):
        ranges = partition(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_partition_rejects_zero_parts(self):
        with pytest.raises(ConfigurationError):
            partition(10, 0)

    def test_address_space_arrays_disjoint(self):
        space = AddressSpace()
        space.add("a", 1000, 8)
        space.add("b", 1000, 8)
        a_hi = space.addr("a", 999)
        b_lo = space.addr("b", 0)
        assert b_lo - a_hi > 1 << 20  # regions far apart

    def test_address_space_duplicate_rejected(self):
        space = AddressSpace()
        space.add("a", 10)
        with pytest.raises(ConfigurationError):
            space.add("a", 10)

    def test_address_space_unknown_array(self):
        with pytest.raises(ConfigurationError):
            AddressSpace().addr("ghost", 0)


class TestIsxApp:
    @pytest.fixture(scope="class")
    def app(self):
        return IsxApp(keys_per_thread=1500)

    def test_counts_sum_to_keys(self, app):
        assert app.verify()

    def test_counts_match_bincount(self, app):
        import numpy as np

        counts = app.count_local_keys()
        expected = np.bincount(app.keys, minlength=app.buckets)
        assert (counts == expected).all()

    def test_trace_is_l1_bound_random(self, app, skl):
        stats = _simulate(app.extract_trace(skl), skl)
        assert stats.memory.prefetch_fraction < 0.3
        assert stats.avg_occupancy(1) > 5.0

    def test_l2_prefetch_variant_relieves_l1(self, app, knl):
        """The ISx unlock from the *real* kernel's addresses: L1 holds
        shorten, the L2 file takes the load, bandwidth rises."""
        base = _simulate(app.extract_trace(knl), knl)
        pref = _simulate(app.extract_trace(knl, l2_prefetch=True), knl)
        assert pref.sw_prefetches_issued > 0
        assert pref.avg_occupancy(1) < 0.7 * base.avg_occupancy(1)
        assert pref.avg_occupancy(2) > 2.0 * base.avg_occupancy(2)
        assert pref.bandwidth_bytes_per_s() > 1.3 * base.bandwidth_bytes_per_s()


class TestHpcgApp:
    @pytest.fixture(scope="class")
    def app(self):
        return HpcgApp(n=6)

    def test_csr_structure(self):
        row_ptr, col_idx, values = build_27pt_csr(4)
        assert len(row_ptr) == 4**3 + 1
        # Interior rows have the full 27 entries.
        interior = (4 // 2) * 16 + 4 * 2 + 2  # row (2,2,2)... just check max
        import numpy as np

        assert np.diff(row_ptr).max() == 27
        assert np.diff(row_ptr).min() == 8  # corner cells

    def test_spmv_matches_vectorized(self, app):
        assert app.verify()

    def test_trace_is_streaming_l2_bound(self, app, skl):
        stats = _simulate(app.extract_trace(skl, max_rows=250), skl)
        assert stats.memory.prefetch_fraction > 0.4
        assert stats.avg_occupancy(2) > stats.avg_occupancy(1)


class TestPennantApp:
    @pytest.fixture(scope="class")
    def app(self):
        return PennantApp(zones=20000)

    def test_scatter_matches_add_at(self, app):
        assert app.verify()

    def test_trace_is_irregular_l1_bound(self, app, skl):
        stats = _simulate(app.extract_trace(skl, max_corners=3000), skl)
        assert stats.memory.prefetch_fraction < 0.2
        assert stats.avg_occupancy(1) > 0.6 * skl.l1.mshrs

    def test_vectorized_trace_raises_mlp(self, app, skl):
        scalar = _simulate(app.extract_trace(skl, max_corners=2500), skl)
        vector = _simulate(
            app.extract_trace(skl, vectorized=True, max_corners=2500), skl
        )
        assert vector.elapsed_ns < scalar.elapsed_ns


class TestComdApp:
    @pytest.fixture(scope="class")
    def app(self):
        return ComdApp(particles=250)

    def test_cell_list_matches_direct(self, app):
        assert app.verify()

    def test_trace_is_compute_bound(self, app, skl):
        stats = _simulate(app.extract_trace(skl), skl)
        assert stats.avg_occupancy(1) < 0.3 * skl.l1.mshrs
        assert stats.avg_occupancy(2) < 0.3 * skl.l2.mshrs


class TestMinighostApp:
    @pytest.fixture(scope="class")
    def app(self):
        return MinighostApp(nx=16, ny=10, nz=10)

    def test_stencil_matches_shifted_sums(self, app):
        assert app.verify()

    def test_trace_is_prefetch_covered(self, app, skl):
        stats = _simulate(app.extract_trace(skl, max_cells=350), skl)
        assert stats.memory.prefetch_fraction > 0.3


class TestSnapApp:
    @pytest.fixture(scope="class")
    def app(self):
        return SnapApp(nx=16, ny=10, nang=32)

    def test_sweep_order_independent_and_positive(self, app):
        assert app.verify()

    def test_trace_has_low_occupancy(self, app, skl):
        stats = _simulate(app.extract_trace(skl, max_cells=100), skl)
        assert stats.avg_occupancy(2) < 0.5 * skl.l2.mshrs

    def test_sw_prefetch_variant_emits_hints(self, app, skl):
        stats = _simulate(
            app.extract_trace(skl, sw_prefetch=True, max_cells=100), skl
        )
        assert stats.sw_prefetches_issued > 0
