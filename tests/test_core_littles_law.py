"""Equations 1-2 and their rearrangements, against paper numbers."""

import pytest

from repro.core import (
    bandwidth_from_mlp,
    latency_from_mlp,
    mlp_from_bandwidth,
)
from repro.errors import ConfigurationError


class TestEquation2PaperRows:
    """Every base row of Tables IV-IX must fall out of Equation 2."""

    @pytest.mark.parametrize(
        "bw_gbs,lat_ns,cls,cores,expected",
        [
            (106.9, 145, 64, 24, 10.1),  # ISx SKL
            (233.0, 180, 64, 64, 10.23),  # ISx KNL
            (649.0, 188, 256, 48, 9.92),  # ISx A64FX (256B lines!)
            (109.9, 171, 64, 24, 12.6),  # HPCG SKL (paper rounds up)
            (271.0, 156, 256, 48, 3.44),  # HPCG A64FX
            (37.9, 93, 64, 24, 2.29),  # PENNANT SKL
            (3.19, 82, 64, 24, 0.17),  # CoMD SKL
            (232.96, 198, 64, 64, 11.26),  # MiniGhost KNL
            (58.2, 100.1, 64, 24, 3.79),  # SNAP SKL
            (122.9, 167, 64, 64, 5.0),  # SNAP KNL
        ],
    )
    def test_paper_row(self, bw_gbs, lat_ns, cls, cores, expected):
        n = mlp_from_bandwidth(bw_gbs * 1e9, lat_ns, cls, cores=cores)
        assert n == pytest.approx(expected, rel=0.05)


class TestRearrangements:
    def test_bandwidth_inverse(self):
        bw = bandwidth_from_mlp(10.1, 145, 64, cores=24)
        assert mlp_from_bandwidth(bw, 145, 64, cores=24) == pytest.approx(10.1)

    def test_latency_inverse(self):
        lat = latency_from_mlp(10.1, 106.9e9, 64, cores=24)
        assert mlp_from_bandwidth(106.9e9, lat, 64, cores=24) == pytest.approx(10.1)

    def test_figure2_ceiling(self):
        """12 L1 MSHRs at ~192ns on 64 KNL cores -> 256 GB/s (Fig. 2)."""
        bw = bandwidth_from_mlp(12, 192, 64, cores=64)
        assert bw == pytest.approx(256e9, rel=0.01)


class TestEquation1:
    def test_equivalence_of_equations(self):
        """Eq 2 reproduces Eq 1 (``lat * R / T``) when BW = R*cls/T."""
        requests, time_ns, cls, lat = 5000.0, 2000.0, 64, 150.0
        bw = requests * cls / (time_ns * 1e-9)
        assert mlp_from_bandwidth(bw, lat, cls) == pytest.approx(
            lat * requests / time_ns
        )


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth_bytes=-1.0, latency_ns=100, line_bytes=64),
        dict(bandwidth_bytes=1e9, latency_ns=0, line_bytes=64),
        dict(bandwidth_bytes=1e9, latency_ns=100, line_bytes=0),
        dict(bandwidth_bytes=1e9, latency_ns=100, line_bytes=64, cores=0),
    ])
    def test_mlp_from_bandwidth_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            mlp_from_bandwidth(**kwargs)

    def test_bandwidth_from_mlp_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            bandwidth_from_mlp(-1.0, 100, 64)

    def test_latency_from_mlp_rejects_zero_bw(self):
        with pytest.raises(ConfigurationError):
            latency_from_mlp(1.0, 0.0, 64)
