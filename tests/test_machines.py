"""Machine specs and registry: the Table III substrate."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, UnknownMachineError
from repro.machines import (
    CacheSpec,
    MemorySpec,
    VectorSpec,
    get_machine,
    machine_names,
    paper_machines,
    register_machine,
)


class TestCacheSpec:
    def test_num_lines_and_sets(self):
        cache = CacheSpec(1, 32 * 1024, 64, 10, associativity=8)
        assert cache.num_lines == 512
        assert cache.num_sets == 64

    def test_rejects_bad_level(self):
        for level in (0, 3, 4):
            with pytest.raises(ConfigurationError):
                CacheSpec(level, 32 * 1024, 64, 10)

    def test_rejects_size_not_multiple_of_line(self):
        with pytest.raises(ConfigurationError):
            CacheSpec(1, 1000, 64, 10)

    def test_rejects_negative_mshrs(self):
        for mshrs in (-1, 0):
            with pytest.raises(ConfigurationError):
                CacheSpec(1, 32 * 1024, 64, mshrs)


class TestVectorSpec:
    def test_lanes_double_precision(self):
        assert VectorSpec("AVX-512", 512).lanes(8) == 8

    def test_lanes_single_precision(self):
        assert VectorSpec("SVE", 512).lanes(4) == 16

    def test_lanes_rejects_bad_element(self):
        with pytest.raises(ConfigurationError):
            VectorSpec("AVX-512", 512).lanes(0)


class TestMemorySpec:
    def test_achievable_bandwidth(self):
        mem = MemorySpec("DDR4", 128e9, achievable_fraction=0.87)
        assert mem.achievable_bw_bytes == pytest.approx(111.36e9)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            MemorySpec("DDR4", 128e9, achievable_fraction=1.5)


class TestPaperMachines:
    """Table III values, verbatim."""

    def test_skl(self, skl):
        assert skl.cores == 24
        assert skl.frequency_ghz == pytest.approx(2.1)
        assert skl.peak_bw_gbs == pytest.approx(128.0)
        assert skl.l1.mshrs == 10
        assert skl.l2.mshrs == 16
        assert skl.line_bytes == 64
        assert skl.smt_ways == 2

    def test_knl(self, knl):
        assert knl.cores == 68
        assert knl.active_cores == 64  # paper uses 64 of 68
        assert knl.peak_bw_gbs == pytest.approx(400.0)
        assert knl.l1.mshrs == 12
        assert knl.l2.mshrs == 32
        assert knl.smt_ways == 4
        assert knl.prefetch_streams == 16  # the HPCG 4-way-SMT explanation

    def test_a64fx(self, a64fx):
        assert a64fx.cores == 48
        assert a64fx.peak_bw_gbs == pytest.approx(1024.0)
        assert a64fx.line_bytes == 256  # the "large cache lines" X-Mem note
        assert a64fx.smt_ways == 1  # "A64FX does not support SMT"
        assert a64fx.l1.mshrs == 12
        assert a64fx.l2.mshrs == 20

    def test_knl_peak_gflops_matches_figure2_roof(self, knl):
        assert knl.peak_gflops == pytest.approx(2867.2, rel=0.01)

    def test_mshr_bandwidth_ceiling_matches_figure2(self, knl):
        # 12 L1 MSHRs x 64B x 64 cores / 192ns = 256 GB/s (paper Fig. 2).
        assert knl.max_bw_from_mshrs(1, 192.0) == pytest.approx(256e9, rel=0.01)

    def test_mshr_limit_rejects_l3(self, skl):
        with pytest.raises(ConfigurationError):
            skl.mshr_limit(3)

    def test_with_frequency(self, skl):
        slow = skl.with_frequency(1.0e9)
        assert slow.frequency_ghz == pytest.approx(1.0)
        assert slow.cores == skl.cores

    def test_describe_mentions_key_facts(self, a64fx):
        text = a64fx.describe()
        assert "48 cores" in text and "HBM2" in text and "256B lines" in text


class TestRegistry:
    def test_names(self):
        assert set(machine_names()) >= {"skl", "knl", "a64fx"}

    def test_aliases(self):
        assert get_machine("Skylake").name == "skl"
        assert get_machine("XEON-PHI-7250").name == "knl"

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(UnknownMachineError) as err:
            get_machine("epyc")
        assert "skl" in str(err.value)

    def test_paper_machines_order(self, all_machines):
        assert [m.name for m in paper_machines()] == ["skl", "knl", "a64fx"]

    def test_register_and_overwrite_guard(self, skl):
        register_machine("test-machine", lambda: skl, overwrite=True)
        assert get_machine("test-machine").name == "skl"
        with pytest.raises(ConfigurationError):
            register_machine("test-machine", lambda: skl)

    def test_cores_used_validation(self, skl):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(skl, cores_used=100)


class TestLatencyCalibrationRequired:
    """Every spec carries a valid curve; a bad one is rejected at build."""

    @pytest.mark.parametrize(
        "points",
        [
            (),
            ((0.0, 80.0),),
            ((0.0, 120.0), (0.5, 100.0), (1.0, 150.0)),
        ],
        ids=["empty", "one-point", "decreasing"],
    )
    def test_invalid_curve_rejected(self, skl, points):
        with pytest.raises(ConfigurationError, match="latency_calibration"):
            dataclasses.replace(skl, latency_calibration=points)

    def test_calibration_has_no_default(self, skl):
        fields = {f.name: f for f in dataclasses.fields(skl)}
        assert fields["latency_calibration"].default is dataclasses.MISSING
