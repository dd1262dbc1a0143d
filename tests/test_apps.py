"""Executable mini-apps: numerical correctness + trace signatures."""

import pytest

from repro.apps import (
    AddressSpace,
    ComdApp,
    HpcgApp,
    IsxApp,
    MinighostApp,
    PennantApp,
    SnapApp,
    build_27pt_csr,
    partition,
)
from repro.errors import ConfigurationError
from repro.sim import ColumnarTrace, SimConfig, run_trace, trace_digest
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
