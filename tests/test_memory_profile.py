"""LatencyProfile: the once-per-machine characterization artifact."""

import json

import pytest

from repro.errors import ProfileDomainError, ProfileError
from repro.memory import LatencyProfile


def _simple_profile():
    return LatencyProfile.from_samples(
        "skl", 128e9, [(0.0, 80.0), (64e9, 100.0), (111e9, 170.0)]
    )


class TestConstruction:
    def test_points_sorted_on_construction(self):
        profile = LatencyProfile("skl", 128e9, points=((0.5, 100.0), (0.0, 80.0)))
        assert profile.points == ((0.0, 80.0), (0.5, 100.0))

    def test_rejects_single_point(self):
        with pytest.raises(ProfileError):
            LatencyProfile("skl", 128e9, points=((0.0, 80.0),))

    def test_rejects_decreasing_latency(self):
        with pytest.raises(ProfileError):
            LatencyProfile("skl", 128e9, points=((0.0, 200.0), (0.5, 100.0)))

    def test_rejects_duplicate_bandwidth(self):
        with pytest.raises(ProfileError):
            LatencyProfile.from_samples("skl", 128e9, [(1e9, 80.0), (1e9, 90.0)])

    def test_point_validation(self):
        with pytest.raises(ProfileError):
            LatencyProfile("skl", 128e9, points=((-0.1, 100.0), (0.5, 120.0)))
        with pytest.raises(ProfileError):
            LatencyProfile("skl", 128e9, points=((0.0, 100.0), (1.06, 120.0)))
        with pytest.raises(ProfileError):
            LatencyProfile("skl", 128e9, points=((0.0, 0.0), (0.5, 120.0)))
        with pytest.raises(ProfileError):
            LatencyProfile("skl", 0.0, points=((0.0, 80.0), (0.5, 120.0)))


class TestQueries:
    def test_latency_interpolation(self):
        profile = _simple_profile()
        assert profile.latency_at(32e9) == pytest.approx(90.0)

    def test_idle_latency(self):
        assert _simple_profile().idle_latency_ns == pytest.approx(80.0)

    def test_slightly_beyond_domain_is_saturated(self):
        profile = _simple_profile()
        assert profile.latency_at(112e9) == pytest.approx(170.0)

    def test_far_beyond_domain_rejected(self):
        with pytest.raises(ProfileDomainError):
            _simple_profile().latency_at(200e9)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ProfileDomainError):
            _simple_profile().latency_at(-1.0)

    def test_utilization_of(self):
        profile = _simple_profile()
        assert profile.utilization_of(64e9) == pytest.approx(0.5)
        assert profile.latency_at(64e9) == profile.latency_ns(0.5)


class TestFromModel:
    def test_samples_machine_curve(self, skl):
        """The machine's calibrated curve is itself a profile."""
        curve = skl.latency_model
        assert isinstance(curve, LatencyProfile)
        assert (curve.machine_name, curve.source) == ("skl", "calibration")
        assert curve.points == skl.latency_calibration
        assert curve.latency_at(106.9e9) == pytest.approx(145, abs=6)


class TestFromSamples:
    def test_rectifies_measurement_noise(self):
        # Non-monotone raw measurements become a valid running-max curve.
        profile = LatencyProfile.from_samples(
            "skl",
            128e9,
            [(0.0, 80.0), (50e9, 120.0), (60e9, 110.0), (100e9, 160.0)],
        )
        assert profile.latency_at(60e9) == pytest.approx(120.0)

    def test_source_tag(self):
        profile = LatencyProfile.from_samples("skl", 128e9, [(0.0, 80.0), (1e9, 81.0)])
        assert profile.source == "xmem"


class TestPersistence:
    def test_json_roundtrip(self):
        profile = _simple_profile()
        clone = LatencyProfile.from_json(profile.to_json())
        assert clone.machine_name == profile.machine_name
        assert clone.points == profile.points
        assert clone == profile

    def test_save_load(self, tmp_path):
        path = tmp_path / "skl.json"
        profile = _simple_profile()
        profile.save(path)
        assert LatencyProfile.load(path).latency_at(32e9) == pytest.approx(90.0)
        point = json.loads(path.read_text())["points"][1]
        assert point == {"utilization": 0.5, "latency_ns": 100.0}

    def test_malformed_json_raises(self):
        with pytest.raises(ProfileError):
            LatencyProfile.from_json("{}")
        with pytest.raises(ProfileError):
            LatencyProfile.from_json("not json at all")
        # A document with bandwidth points (the older format) is refused.
        doc = json.loads(_simple_profile().to_json())
        doc["points"] = [{"bandwidth_bytes": 0.0, "latency_ns": 80.0}] * 2
        with pytest.raises(ProfileError):
            LatencyProfile.from_json(json.dumps(doc))
