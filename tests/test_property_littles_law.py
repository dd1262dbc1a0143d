"""Property-based tests on Little's law and the fixed-point solver."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bandwidth_from_mlp, latency_from_mlp, mlp_from_bandwidth
from repro.machines import get_machine
from repro.perfmodel import solve_operating_point

MACHINES = {name: get_machine(name) for name in ("skl", "knl", "a64fx")}

bw = st.floats(min_value=1e6, max_value=1e12, allow_nan=False)
lat = st.floats(min_value=1.0, max_value=2000.0, allow_nan=False)
cls = st.sampled_from([32, 64, 128, 256])
cores = st.integers(min_value=1, max_value=256)


class TestEquationAlgebra:
    @given(bw=bw, lat=lat, cls=cls, cores=cores)
    def test_bandwidth_roundtrip(self, bw, lat, cls, cores):
        n = mlp_from_bandwidth(bw, lat, cls, cores=cores)
        back = bandwidth_from_mlp(n, lat, cls, cores=cores)
        assert math.isclose(back, bw, rel_tol=1e-9)

    @given(bw=bw, lat=lat, cls=cls, cores=cores)
    def test_latency_roundtrip(self, bw, lat, cls, cores):
        n = mlp_from_bandwidth(bw, lat, cls, cores=cores)
        if n <= 0:
            return
        back = latency_from_mlp(n, bw, cls, cores=cores)
        assert math.isclose(back, lat, rel_tol=1e-9)

    @given(bw=bw, lat=lat, cls=cls)
    def test_mlp_scales_linearly_with_bandwidth(self, bw, lat, cls):
        n1 = mlp_from_bandwidth(bw, lat, cls)
        n2 = mlp_from_bandwidth(2 * bw, lat, cls)
        assert math.isclose(n2, 2 * n1, rel_tol=1e-9)

    @given(bw=bw, lat=lat, cls=cls, cores=st.integers(2, 64))
    def test_per_core_division(self, bw, lat, cls, cores):
        total = mlp_from_bandwidth(bw, lat, cls, cores=1)
        per_core = mlp_from_bandwidth(bw, lat, cls, cores=cores)
        assert math.isclose(total, per_core * cores, rel_tol=1e-9)


class TestSolverProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        demand=st.floats(min_value=0.05, max_value=64.0),
        level=st.sampled_from([1, 2]),
    )
    def test_solution_satisfies_littles_law(self, machine_name, demand, level):
        machine = MACHINES[machine_name]
        point = solve_operating_point(machine, demand, level)
        n = mlp_from_bandwidth(
            point.bandwidth_bytes,
            point.latency_ns,
            machine.line_bytes,
            cores=machine.active_cores,
        )
        assert math.isclose(n, point.n_observed, rel_tol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        demand=st.floats(min_value=0.05, max_value=64.0),
        level=st.sampled_from([1, 2]),
    )
    def test_bandwidth_never_exceeds_achievable(self, machine_name, demand, level):
        machine = MACHINES[machine_name]
        point = solve_operating_point(machine, demand, level)
        assert point.bandwidth_bytes <= machine.memory.achievable_bw_bytes * (1 + 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        demand=st.floats(min_value=0.05, max_value=64.0),
        level=st.sampled_from([1, 2]),
    )
    def test_latency_at_least_curve_value(self, machine_name, demand, level):
        machine = MACHINES[machine_name]
        point = solve_operating_point(machine, demand, level)
        model = machine.latency_model
        u = min(1.0, point.bandwidth_bytes / machine.memory.peak_bw_bytes)
        assert point.latency_ns >= model.latency_ns(u) - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        d1=st.floats(min_value=0.05, max_value=32.0),
        d2=st.floats(min_value=0.05, max_value=32.0),
        level=st.sampled_from([1, 2]),
    )
    def test_bandwidth_monotone_in_demand(self, machine_name, d1, d2, level):
        machine = MACHINES[machine_name]
        lo, hi = sorted((d1, d2))
        p_lo = solve_operating_point(machine, lo, level)
        p_hi = solve_operating_point(machine, hi, level)
        assert p_hi.bandwidth_bytes >= p_lo.bandwidth_bytes - 1e-3

    @settings(max_examples=40, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        demand=st.floats(min_value=0.05, max_value=64.0),
    )
    def test_sustained_mlp_clipped_at_file_size(self, machine_name, demand):
        machine = MACHINES[machine_name]
        point = solve_operating_point(machine, demand, 1)
        assert point.n_sustained <= machine.l1.mshrs + 1e-9
        assert point.n_sustained <= demand + 1e-9
