"""The loaded-latency curve class: its lookup, validation and domain."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ProfileDomainError, ProfileError
from repro.machines import (
    A64FX_LATENCY_CALIBRATION,
    KNL_LATENCY_CALIBRATION,
    SKL_LATENCY_CALIBRATION,
    get_machine,
    machine_names,
)
from repro.memory import LatencyProfile


def _curve(points):
    return LatencyProfile("m", 100e9, tuple(points))


class TestTabulatedModel:
    def test_interpolates_between_points(self):
        model = _curve([(0.0, 100.0), (1.0, 200.0)])
        assert model.latency_ns(0.5) == pytest.approx(150.0)

    def test_clamps_at_calibrated_ends(self):
        model = _curve([(0.1, 100.0), (0.9, 200.0)])
        assert model.latency_ns(0.0) == pytest.approx(100.0)
        assert model.latency_ns(0.94) == pytest.approx(200.0)
        # The domain is 1.05x the top point, not an absolute 1.05.
        with pytest.raises(ProfileDomainError):
            model.latency_ns(1.0)

    def test_idle_latency(self):
        model = _curve(SKL_LATENCY_CALIBRATION)
        assert model.idle_latency_ns == pytest.approx(80.0)

    def test_slight_overshoot_clamped(self):
        model = _curve([(0.0, 100.0), (1.0, 200.0)])
        assert model.latency_ns(1.04) == pytest.approx(200.0)
        assert model.latency_at(104e9) == pytest.approx(200.0)

    def test_far_overshoot_rejected(self):
        model = _curve([(0.0, 100.0), (1.0, 200.0)])
        with pytest.raises(ProfileDomainError):
            model.latency_ns(1.5)
        with pytest.raises(ProfileDomainError):
            model.latency_at(150e9)

    def test_negative_utilization_rejected(self):
        model = _curve([(0.0, 100.0), (1.0, 200.0)])
        with pytest.raises(ProfileDomainError):
            model.latency_ns(-0.1)

    def test_rejects_single_point(self):
        with pytest.raises(ProfileError):
            _curve([(0.0, 100.0)])

    def test_rejects_decreasing_latency(self):
        with pytest.raises(ProfileError):
            _curve([(0.0, 200.0), (1.0, 100.0)])

    def test_rejects_duplicate_utilization(self):
        with pytest.raises(ProfileError):
            _curve([(0.5, 100.0), (0.5, 120.0), (1.0, 150.0)])

    @pytest.mark.parametrize(
        "calibration",
        [SKL_LATENCY_CALIBRATION, KNL_LATENCY_CALIBRATION, A64FX_LATENCY_CALIBRATION],
        ids=["skl", "knl", "a64fx"],
    )
    def test_paper_calibrations_are_valid_curves(self, calibration):
        model = _curve(calibration)
        previous = 0.0
        for u in [i / 50 for i in range(51)]:
            lat = model.latency_ns(u)
            assert lat >= previous  # monotone under load
            previous = lat


class TestPaperLatencyPoints:
    """Spot-check the fitted curves against latencies quoted in tables."""

    def test_skl_isx_point(self, skl):
        model = skl.latency_model
        # ISx base: 106.9 GB/s (84%) -> 145 ns (Table IV).
        assert model.latency_ns(106.9 / 128) == pytest.approx(145, abs=5)

    def test_skl_minighost_point(self, skl):
        model = skl.latency_model
        # MiniGhost base: 92.93 GB/s (73%) -> 117 ns (Table VIII).
        assert model.latency_ns(92.93 / 128) == pytest.approx(117, abs=4)

    def test_knl_optimized_isx_point(self, knl):
        model = knl.latency_model
        # ISx optimized: 344 GB/s (86%) -> 238 ns (Table IV).
        assert model.latency_ns(344 / 400) == pytest.approx(238, abs=6)

    def test_a64fx_prefetched_isx_point(self, a64fx):
        model = a64fx.latency_model
        # ISx +l2-pref: 788 GB/s (77%) -> 280 ns (Table IV).
        assert model.latency_ns(788 / 1024) == pytest.approx(280, abs=8)

    def test_loaded_latency_can_be_2x_idle(self, a64fx):
        # Paper III-B: loaded latency "can be 2x or more than the idle
        # latency at peak bandwidth utilization".
        model = a64fx.latency_model
        assert model.latency_ns(1.0) >= 2.0 * model.idle_latency_ns


# -- the scalar lookup against numpy ---------------------------------------------


def _numpy_latency_ns(model, utilization):
    """The curve lookup as written against numpy: the oracle.

    Validation is shared (and checked elsewhere), so only the clamp to
    the top point is repeated here.
    """
    utils = np.array([p[0] for p in model.points])
    lats = np.array([p[1] for p in model.points])
    value = float(np.interp(min(utilization, utils[-1]), utils, lats))
    return float(min(max(value, lats[0]), lats[-1]))


def _assert_same_bits(got, want):
    assert type(got) is float
    assert got.hex() == want.hex()


_MACHINE_MODELS = {name: get_machine(name).latency_model for name in machine_names()}


def _edge_utilizations(model):
    """Every breakpoint, the floats either side of it, 0, and the
    overshoot band (top, 1.05 * top]."""
    top = model.top_utilization
    limit = top * 1.05
    edges = {0.0, top, math.nextafter(top, 2.0), top * 1.01, top * 1.049, limit}
    for u, _ in model.points:
        edges.update(
            (u, math.nextafter(u, -math.inf), math.nextafter(u, math.inf))
        )
    return sorted(u for u in edges if 0.0 <= u <= limit)


def _in_domain(model, utils):
    """``utils`` given as fractions of the curve's domain [0, 1.05 * top]."""
    return [u * model.top_utilization * 1.05 for u in utils]


def _check_lookup(model, utils):
    got = [model.latency_ns(u) for u in utils]
    for u, lat in zip(utils, got):
        _assert_same_bits(lat, _numpy_latency_ns(model, u))
    assert model.latency_ns_batch(np.array(utils)).tolist() == got


@st.composite
def _monotone_tables(draw):
    """Random valid calibration tables, some with points closer than 1e-9.

    The clustered points are merged on construction, which is the
    near-vertical-segment case the lookup's clamp guards.
    """
    utils = draw(
        st.lists(st.floats(0.0, 1.05), min_size=2, max_size=8, unique=True)
    )
    offsets = draw(
        st.lists(
            st.tuples(st.sampled_from(utils), st.floats(1e-12, 3e-9)), max_size=3
        )
    )
    utils = sorted({*utils, *(min(u + d, 1.05) for u, d in offsets)})
    lats = sorted(
        draw(
            st.lists(
                st.floats(1.0, 1e4), min_size=len(utils), max_size=len(utils)
            )
        )
    )
    try:
        return _curve(list(zip(utils, lats)))
    except ProfileError:
        assume(False)


class TestScalarLookupMatchesNumpy:
    """The pure-Python lookup is bit-identical to the np.interp it replaced."""

    def test_every_machine_curve_is_covered(self):
        assert {"skl", "knl", "a64fx", "hbm2e", "hbm3"} <= set(_MACHINE_MODELS)
        for name, model in _MACHINE_MODELS.items():
            assert (model.machine_name, model.source) == (name, "calibration")
            assert model.top_utilization == 1.0

    @pytest.mark.parametrize("name", sorted(_MACHINE_MODELS))
    def test_machine_curve_edges(self, name):
        model = _MACHINE_MODELS[name]
        _check_lookup(model, _edge_utilizations(model))

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_MACHINE_MODELS)),
        utils=st.lists(st.floats(0.0, 1.05), min_size=1, max_size=32),
    )
    def test_machine_curve_random(self, name, utils):
        _check_lookup(_MACHINE_MODELS[name], utils)

    @settings(max_examples=120, deadline=None)
    @given(
        model=_monotone_tables(),
        utils=st.lists(st.floats(0.0, 1.0), max_size=16),
    )
    def test_random_monotone_tables(self, model, utils):
        _check_lookup(model, _edge_utilizations(model) + _in_domain(model, utils))

    @settings(max_examples=200, deadline=None)
    @given(
        xp=st.lists(st.floats(0.0, 1.05), min_size=2, max_size=6, unique=True),
        fp_values=st.lists(
            st.floats(min_value=5e-324, allow_nan=False), min_size=6, max_size=6
        ),
        x=st.floats(0.0, 1.0),
    )
    def test_extreme_curves_match_np_interp(self, xp, fp_values, x):
        """Latencies from subnormal to infinite: overflowed slopes and
        the NaN retry run."""
        try:
            model = _curve(zip(xp, sorted(fp_values[: len(xp)])))
        except ProfileError:
            assume(False)
        for query in [*_in_domain(model, [x]), *model._utils]:
            _assert_same_bits(model.latency_ns(query), _numpy_latency_ns(model, query))

    def test_nan_retry_branch(self):
        # inf - inf is NaN: the retry from the right-hand point, then the
        # equal-endpoint fallback, must both match numpy.
        model = _curve([(0.0, math.inf), (1.0, math.inf)])
        _assert_same_bits(model.latency_ns(0.5), _numpy_latency_ns(model, 0.5))

    def test_domain_errors_unchanged(self):
        model = _MACHINE_MODELS["skl"]
        for bad in (math.nan, math.inf, -1e-300, 1.0500001):
            with pytest.raises(ProfileDomainError):
                model.latency_ns(bad)
            with pytest.raises(ProfileDomainError):
                model.latency_ns_batch(np.array([0.5, bad]))


def _numpy_latency_at(profile, bandwidth_bytes):
    """np.interp over the stored points at ``u = BW / peak``."""
    return _numpy_latency_ns(profile, bandwidth_bytes / profile.peak_bw_bytes)


def _check_profile(profile, bandwidths):
    top = profile.max_measured_bw_bytes * 1.05
    edges = {0.0, top, profile.max_measured_bw_bytes}
    for u, _ in profile.points:
        b = u * profile.peak_bw_bytes
        edges.update((b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)))
    for bw in sorted(edges) + list(bandwidths):
        if 0.0 <= bw / profile.peak_bw_bytes <= profile.top_utilization * 1.05:
            _assert_same_bits(profile.latency_at(bw), _numpy_latency_at(profile, bw))


class TestProfileLookupMatchesNumpy:
    """latency_at is latency_ns at BW / peak; same bit-identity."""

    @pytest.mark.parametrize("name", sorted(_MACHINE_MODELS))
    def test_model_sampled_profiles(self, name):
        machine = get_machine(name)
        model = _MACHINE_MODELS[name]
        peak = machine.memory.peak_bw_bytes
        samples = [
            (peak * u, model.latency_ns(u)) for u in np.linspace(0.0, 1.0, 37)
        ]
        profile = LatencyProfile.from_samples(name, peak, samples)
        rng = np.random.default_rng(5)
        _check_profile(profile, rng.uniform(0.0, profile.max_measured_bw_bytes, 200))

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(st.floats(0.0, 1e12), st.floats(1.0, 1e4)),
            min_size=2,
            max_size=10,
            unique_by=lambda s: s[0],
        ),
        bandwidths=st.lists(st.floats(0.0, 1.1e12), max_size=16),
    )
    def test_random_profiles(self, samples, bandwidths):
        try:
            profile = LatencyProfile.from_samples("skl", 2e12, samples)
        except ProfileError:
            # Two samples 2e12 * 1e-9 B/s apart or closer are one load
            # point; all of them that close is no curve.
            assume(False)
        _check_profile(profile, bandwidths)

    def test_integer_samples(self):
        profile = LatencyProfile.from_samples("skl", 128, [(0, 80), (3, 97)])
        assert profile.points == ((0.0, 80.0), (3 / 128, 97.0))
        _check_profile(profile, [1, 2, 1.5])
