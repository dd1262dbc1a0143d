"""The operating-point solver (repro.perfmodel.solver).

Every curve is checked against the defining equation ``BW * lat(BW) =
K`` itself rather than against another solver; a pinned table guards
the numbers; metamorphic properties check the paper's physics: more
MSHRs never cost bandwidth and slower memory never buys any.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machines.registry import get_machine, machine_names
from repro.memory.latency_model import TabulatedLatencyModel, model_for_machine
from repro.perfmodel.queueing import analytic_profile
from repro.perfmodel.solver import solve_operating_point

MACHINES = tuple(machine_names())
CURVES = ("model", "profile")

demands = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)
levels = st.sampled_from([1, 2])


def _curve(kind, machine):
    """The curve of one kind for ``machine`` (``None`` = its own model)."""
    if kind == "model":
        return None
    return analytic_profile(machine)


def _latency_at(kind, machine, curve):
    """``curve(BW)``: the loaded latency the curve reads at a bandwidth."""
    if kind == "model":
        model = model_for_machine(machine)
        peak = machine.memory.peak_bw_bytes
        return lambda bw: model.latency_ns(bw / peak)
    return lambda bw: curve.latency_at(min(bw, curve.max_measured_bw_bytes))


class TestSolverEquation:
    @pytest.mark.parametrize("machine", MACHINES)
    @given(
        kind=st.sampled_from(CURVES),
        demand=demands,
        level=levels,
        all_cores=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_defining_equation(self, machine, kind, demand, level, all_cores):
        spec = get_machine(machine)
        curve = _curve(kind, spec)
        latency_at = _latency_at(kind, spec, curve)
        cores = spec.active_cores if all_cores else 1
        point = solve_operating_point(spec, demand, level, curve=curve, cores=cores)

        cap = spec.memory.achievable_bw_bytes
        n = min(demand, spec.mshr_limit(level))
        k = n * cores * spec.line_bytes * 1e9
        bw, lat = point.bandwidth_bytes, point.latency_ns
        saturates = k >= cap * latency_at(cap)
        # Capped exactly when the demand saturates the ceiling, or the
        # root lies within the capped threshold below it.
        assert point.bandwidth_capped == (saturates or bw >= cap * (1 - 1e-6))
        if saturates:
            assert bw == cap
            assert lat >= latency_at(cap)
        else:
            assert abs(bw * lat - k) / k < 1e-9
            if not point.bandwidth_capped:
                assert lat == latency_at(bw)
        assert point.residual < 1e-9


#: Operating points at the machine's active cores: an uncapped L1-bound
#: demand and a saturating L2-bound one (a64fx's curve stays below its
#: ceiling even there).  The profile is the model sampled at 12 levels.
PINNED = [
    ("skl", "model", 5.0, 1, 72830996288.35916, 105.4496079251403, False),
    ("skl", "model", 1e4, 2, 111360000000.0, 220.68965517241378, True),
    ("skl", "profile", 5.0, 1, 72742233235.69875, 105.57828180934904, False),
    ("skl", "profile", 1e4, 2, 111360000000.0, 220.68965517241378, True),
    ("knl", "model", 5.0, 1, 112398410396.18478, 182.2089825270126, False),
    ("knl", "model", 1e4, 2, 348000000000.0, 376.64367816091954, True),
    ("knl", "profile", 5.0, 1, 112417366030.39651, 182.17825877954135, False),
    ("knl", "profile", 1e4, 2, 348000000000.0, 376.64367816091954, True),
    ("a64fx", "model", 5.0, 1, 377982082080.84106, 162.5473876219243, False),
    ("a64fx", "model", 1e4, 2, 815432863998.4131, 301.3859394518658, False),
    ("a64fx", "profile", 5.0, 1, 377907504590.1366, 162.57946522293963, False),
    ("a64fx", "profile", 1e4, 2, 815382422670.2489, 301.4045841154815, False),
]


class TestPinnedOperatingPoints:
    @pytest.mark.parametrize("machine,kind,demand,level,bw,lat,capped", PINNED)
    def test_pinned(self, machine, kind, demand, level, bw, lat, capped):
        spec = get_machine(machine)
        point = solve_operating_point(spec, demand, level, curve=_curve(kind, spec))
        assert point.bandwidth_bytes == pytest.approx(bw, rel=1e-8)
        assert point.latency_ns == pytest.approx(lat, rel=1e-8)
        assert point.bandwidth_capped is capped


class TestCurveOwnership:
    @pytest.mark.parametrize("kind", ["profile"])
    def test_rejects_another_machines_curve(self, kind):
        knl_curve = _curve(kind, get_machine("knl"))
        with pytest.raises(ConfigurationError, match="knl"):
            solve_operating_point(get_machine("skl"), 5.0, 1, curve=knl_curve)

    def test_rejects_duck_typed_curve(self):
        # A curve with a latency_ns method but no piecewise form is not
        # solved; only the two chord-backed kinds are.
        class _Smooth:
            idle_latency_ns = 80.0

            def latency_ns(self, utilization):
                return 80.0 * (1.0 + utilization)

        with pytest.raises(ConfigurationError, match="_Smooth"):
            solve_operating_point(get_machine("skl"), 5.0, 1, curve=_Smooth())


class TestMetamorphic:
    @given(
        machine=st.sampled_from(MACHINES),
        demand=demands,
        level=levels,
        extra=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_more_mshrs_never_lower_bandwidth(self, machine, demand, level, extra):
        spec = get_machine(machine)
        field = "l1" if level == 1 else "l2"
        cache = getattr(spec, field)
        bigger = dataclasses.replace(
            spec, **{field: dataclasses.replace(cache, mshrs=cache.mshrs + extra)}
        )
        base = solve_operating_point(spec, demand, level)
        more = solve_operating_point(bigger, demand, level)
        assert more.bandwidth_bytes >= base.bandwidth_bytes * (1 - 1e-12)

    @given(
        machine=st.sampled_from(MACHINES),
        demand=demands,
        level=levels,
        factor=st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_slower_memory_never_raises_bandwidth(self, machine, demand, level, factor):
        spec = get_machine(machine)
        model = model_for_machine(spec)
        slower = TabulatedLatencyModel([(u, lat * factor) for u, lat in model.points])
        base = solve_operating_point(spec, demand, level, curve=model)
        slow = solve_operating_point(spec, demand, level, curve=slower)
        assert slow.bandwidth_bytes <= base.bandwidth_bytes * (1 + 1e-12)
