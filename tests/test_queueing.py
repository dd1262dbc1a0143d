"""The ``--fast`` path (repro.perfmodel.queueing).

Property tests pin the fast path to its contract: a fast solve is the
solver's own answer, bit for bit; the curve ``--fast`` resamples is
monotone non-decreasing in injection rate and starts at the machine's
idle latency; solved operating points never exceed the Eq. 2
achievable-bandwidth ceiling; and a five-probe profile, read the way
the solver reads it, spans zero to that ceiling.  The solver's
defining equation is checked in tests/test_solver.py.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProfileError
from repro.machines.registry import get_machine, machine_names
from repro.memory.latency_model import model_for_machine
from repro.perfmodel.queueing import (
    analytic_profile,
    calibrate_from_probes,
    solve_operating_point_fast,
    state_eligibility,
    trace_eligibility,
)
from repro.perfmodel.solver import curve_reader, solve_operating_point
from repro.optim.transforms import WorkloadState
from repro.sim.coltrace import ColumnarThreadTrace, ColumnarTrace

MACHINES = tuple(machine_names())

machines_st = st.sampled_from(MACHINES)
demands = st.floats(min_value=0.01, max_value=200.0, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=5e9, allow_nan=False)


@lru_cache(maxsize=None)
def _profile(name):
    """The machine's model resampled as ``characterize --fast`` does."""
    return analytic_profile(get_machine(name))


class TestCurveProperties:
    @given(machine=machines_st, r1=rates, r2=rates)
    def test_latency_monotone_in_injection_rate(self, machine, r1, r2):
        # An injection rate of r line-granular requests/s drives r * cls
        # bytes/s; the profile is read as the solver reads it.
        spec = get_machine(machine)
        latency = curve_reader(spec, _profile(machine))
        lo, hi = sorted((r1, r2))
        assert latency(hi * spec.line_bytes) >= latency(lo * spec.line_bytes)

    @given(machine=machines_st, rate=rates)
    def test_latency_never_below_unloaded(self, machine, rate):
        spec = get_machine(machine)
        profile = _profile(machine)
        latency = curve_reader(spec, profile)
        assert latency(rate * spec.line_bytes) >= profile.idle_latency_ns

    @given(machine=machines_st)
    def test_unloaded_latency_matches_machine_model(self, machine):
        spec = get_machine(machine)
        assert _profile(machine).idle_latency_ns == pytest.approx(
            model_for_machine(spec).latency_ns(0.0)
        )


class TestSolveProperties:
    @given(
        machine=machines_st,
        demand=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
        level=st.sampled_from([1, 2]),
    )
    @settings(max_examples=200)
    def test_fast_solve_is_the_solver(self, machine, demand, level):
        spec = get_machine(machine)
        fast = solve_operating_point_fast(spec, demand, level)
        slow = solve_operating_point(spec, demand, level)
        # repr round-trips every float, so equal reprs are equal bits.
        assert repr(fast) == repr(slow)

    @given(machine=machines_st, demand=demands, level=st.sampled_from([1, 2]))
    @settings(max_examples=200)
    def test_respects_bandwidth_ceiling(self, machine, demand, level):
        spec = get_machine(machine)
        point = solve_operating_point_fast(spec, demand, level)
        # Eq. 2: bandwidth can never exceed the achievable ceiling.
        assert point.bandwidth_bytes <= spec.memory.achievable_bw_bytes * (
            1.0 + 1e-9
        )
        assert point.residual < 1e-9

    @pytest.mark.parametrize("machine", MACHINES)
    def test_unloaded_limit_agrees_with_solver(self, machine):
        # Near zero demand both curves sit on their flat idle part.
        spec = get_machine(machine)
        fast = solve_operating_point_fast(spec, 1e-3, 1, curve=_profile(machine))
        slow = solve_operating_point(spec, 1e-3, 1)
        assert fast.latency_ns == pytest.approx(slow.latency_ns, rel=1e-3)
        assert fast.bandwidth_bytes == pytest.approx(
            slow.bandwidth_bytes, rel=1e-3
        )

    @pytest.mark.parametrize("machine", MACHINES)
    def test_saturated_limit_agrees_with_solver(self, machine):
        # Demand far above the MSHR limit: over the resampled profile
        # and over the model, n pins at the binding file's size and the
        # operating points agree (HBM-generation machines stay
        # MSHR-bound below the ceiling — that is the model's point — so
        # agreement, not capping, is the invariant here).
        spec = get_machine(machine)
        fast = solve_operating_point_fast(spec, 1e4, 2, curve=_profile(machine))
        slow = solve_operating_point(spec, 1e4, 2)
        assert fast.n_sustained == float(spec.mshr_limit(2))
        assert fast.bandwidth_bytes == pytest.approx(
            slow.bandwidth_bytes, rel=1e-3
        )
        assert fast.latency_ns == pytest.approx(slow.latency_ns, rel=1e-3)
        assert fast.bandwidth_capped == slow.bandwidth_capped

    @pytest.mark.parametrize("machine", ["skl", "knl"])
    def test_capped_regime_matches_default_solver(self, machine):
        # skl/knl genuinely saturate the achievable ceiling at the L2
        # limit; deep in that regime latency is backed out of Little's
        # law, so the resampled profile and the model agree exactly.
        spec = get_machine(machine)
        fast = solve_operating_point_fast(spec, 1e4, 2, curve=_profile(machine))
        slow = solve_operating_point(spec, 1e4, 2)
        assert fast.bandwidth_capped and slow.bandwidth_capped
        assert fast.bandwidth_bytes == pytest.approx(slow.bandwidth_bytes)
        assert fast.latency_ns == pytest.approx(slow.latency_ns, rel=1e-9)

    @given(machine=machines_st, d1=demands, d2=demands)
    @settings(max_examples=100)
    def test_bandwidth_monotone_in_demand(self, machine, d1, d2):
        spec = get_machine(machine)
        lo, hi = sorted((d1, d2))
        p_lo = solve_operating_point_fast(spec, lo, 1)
        p_hi = solve_operating_point_fast(spec, hi, 1)
        assert p_hi.bandwidth_bytes >= p_lo.bandwidth_bytes * (1.0 - 1e-9)

    def test_rejects_bad_inputs(self):
        spec = get_machine("skl")
        with pytest.raises(ConfigurationError):
            solve_operating_point_fast(spec, 0.0, 1)
        with pytest.raises(ConfigurationError):
            solve_operating_point_fast(spec, 1.0, 1, cores=0)
        with pytest.raises(ConfigurationError):
            solve_operating_point_fast(spec, 1.0, 1, curve=_profile("knl"))


class TestAnalyticProfile:
    def test_profile_shape_and_source(self):
        spec = get_machine("skl")
        profile = analytic_profile(spec)
        assert profile.source == "analytic"
        assert profile.machine_name == "skl"
        assert len(profile.points) == 12
        assert profile.idle_latency_ns == model_for_machine(spec).idle_latency_ns

    def test_profile_levels_validated(self):
        with pytest.raises(ConfigurationError):
            analytic_profile(get_machine("skl"), levels=1)

    @pytest.mark.parametrize("accesses", [200, 1500])
    @pytest.mark.parametrize("machine", ["skl", "knl", "a64fx"])
    def test_probe_profile_spans_the_ceiling(self, machine, accesses):
        # The top probe stops short of the achievable ceiling (0.9-0.96
        # of it); the resampled profile reads flat above it.
        spec = get_machine(machine)
        probes = calibrate_from_probes(spec, accesses_per_thread=accesses)
        cap = spec.memory.achievable_bw_bytes
        assert probes.max_measured_bw_bytes < cap
        profile = analytic_profile(spec, probes)
        assert profile.points[0].bandwidth_bytes == 0.0
        assert profile.max_measured_bw_bytes == pytest.approx(cap)
        assert profile.points[-1].latency_ns == probes.points[-1].latency_ns
        assert profile.idle_latency_ns == probes.idle_latency_ns


class TestCalibration:
    def test_params_validation(self):
        spec = get_machine("skl")
        with pytest.raises(ConfigurationError):
            calibrate_from_probes(spec, probe_gaps=())
        with pytest.raises(ProfileError):
            calibrate_from_probes(spec, sim_cores=spec.active_cores + 1)

    def test_probe_calibration_cached(self, fresh_sim_cache):
        spec = get_machine("skl")
        first = calibrate_from_probes(spec)
        # Five probes plus the idle anchor.
        assert first.source == "probes" and len(first.points) == 6
        cache = fresh_sim_cache()
        second = calibrate_from_probes(spec)
        assert second == first
        # The warm call replays all five probes from the sim cache.
        counters = cache.counters
        assert (counters.hits, counters.misses, counters.stores) == (5, 0, 0)

    def test_corrupt_calibration_recovers(self, fresh_sim_cache):
        spec = get_machine("skl")
        first = calibrate_from_probes(spec)
        cache = fresh_sim_cache()
        path = next(cache.cache_dir.glob("[0-9a-f][0-9a-f]/*.json"))
        path.write_text("{definitely not json")
        with pytest.warns(UserWarning, match="corrupt sim-cache entry"):
            second = calibrate_from_probes(spec)
        assert second == first
        assert path.with_suffix(".corrupt").exists()
        counters = cache.counters
        assert (counters.hits, counters.misses, counters.stores) == (4, 1, 1)


class TestEligibility:
    def _state(self, **overrides):
        base = dict(
            workload="isx",
            machine_name="skl",
            routine="histogram",
            pattern="random",
            random_fraction=0.95,
            binding_level=1,
            demand_mlp=10.5,
        )
        base.update(overrides)
        return WorkloadState(**base)

    def test_plain_state_eligible(self):
        decision = state_eligibility(self._state())
        assert decision.eligible and bool(decision)
        assert decision.reason == ""

    def test_smt_state_falls_back(self):
        decision = state_eligibility(self._state(smt_ways=2))
        assert not decision
        assert "SMT" in decision.reason

    def test_prefetch_dominated_falls_back(self):
        decision = state_eligibility(self._state(random_fraction=0.02))
        assert not decision
        assert "prefetch-dominated" in decision.reason

    def _trace(self, gaps):
        thread = ColumnarThreadTrace(
            thread_id=0,
            addr=[64 * i for i in range(len(gaps))],
            kind=[0] * len(gaps),
            gap_cycles=gaps,
        )
        return ColumnarTrace(threads=(thread,), routine="t", line_bytes=64)

    def test_steady_trace_eligible(self):
        assert trace_eligibility(self._trace([10.0] * 64)).eligible

    def test_bursty_trace_falls_back(self):
        gaps = [0.0] * 63 + [100000.0]
        decision = trace_eligibility(self._trace(gaps))
        assert not decision.eligible
        assert "pathological" in decision.reason


class TestRuntimeFastMode:
    def test_fast_model_records_route(self):
        from repro.perfmodel.runtime import RuntimeModel

        spec = get_machine("skl")
        model = RuntimeModel(spec, fast=True)
        state = TestEligibility()._state()
        pred = model.predict(state)
        assert pred.solved_fast and pred.fallback_reason == ""
        assert pred.point == RuntimeModel(spec).predict(state).point

    def test_fast_model_falls_back_with_reason(self):
        from repro.perfmodel.runtime import RuntimeModel

        spec = get_machine("skl")
        model = RuntimeModel(spec, fast=True)
        state = TestEligibility()._state(smt_ways=2)
        pred = model.predict(state)
        assert not pred.solved_fast
        assert "SMT" in pred.fallback_reason
