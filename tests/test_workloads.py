"""Workload models: calibrations, plans, and trace generators."""

import pytest

from repro.errors import ConfigurationError
from repro.machines import get_machine
from repro.sim import SimConfig, run_trace
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.base import TraceSpec


class TestInventory:
    def test_six_workloads(self):
        assert len(ALL_WORKLOADS) == 6

    def test_lookup_by_name(self):
        assert get_workload("ISx").routine == "count_local_keys"
        with pytest.raises(KeyError):
            get_workload("linpack")

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_calibrated_for_all_three_machines(self, workload):
        assert set(workload.machines()) == {"skl", "knl", "a64fx"}

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_row_plans_are_valid_sequences(self, workload):
        for machine_name in workload.machines():
            machine = get_machine(machine_name)
            for source_steps, step in workload.row_plan(machine_name):
                steps = list(source_steps) + ([step] if step else [])
                # Raises on unknown or repeated steps.
                assert workload.state_for(machine, steps).applied == tuple(steps)
                if "smt4" in steps:
                    assert "smt2" in steps[: steps.index("smt4")]

    def test_unknown_machine_calibration(self):
        with pytest.raises(ConfigurationError):
            get_workload("isx").calibration("epyc")


class TestBaseStates:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_base_state_fields(self, workload, skl):
        state = workload.base_state(skl)
        assert state.label == "base"
        assert state.traffic_factor == 1.0
        assert state.smt_ways == 1

    def test_random_workloads_bind_l1(self, skl):
        assert get_workload("isx").base_state(skl).binding_level == 1
        assert get_workload("pennant").base_state(skl).binding_level == 1

    def test_streaming_workloads_bind_l2(self, skl):
        assert get_workload("hpcg").base_state(skl).binding_level == 2
        assert get_workload("minighost").base_state(skl).binding_level == 2

    def test_state_for_applies_steps(self, knl):
        workload = get_workload("isx")
        state = workload.state_for(knl, ["vectorize", "smt2", "l2_prefetch"])
        assert state.binding_level == 2  # shifted by l2_prefetch
        assert state.smt_ways == 2
        assert state.demand_mlp == pytest.approx(20.0)


class TestTraceGenerators:
    """Each generator's statistical signature, verified on the simulator."""

    def _run(self, workload, machine, steps=(), n=1500):
        trace = workload.generate_trace(
            machine, steps=steps, spec=TraceSpec(threads=2, accesses_per_thread=n)
        )
        return run_trace(
            trace, SimConfig(machine=machine, sim_cores=2, window_per_core=16)
        )

    def test_isx_random_signature(self, skl):
        stats = self._run(get_workload("isx"), skl)
        assert stats.memory.prefetch_fraction < 0.2  # prefetcher blind
        assert stats.avg_occupancy(1) > 5  # L1 MSHRs busy

    def test_hpcg_streaming_signature(self, skl):
        stats = self._run(get_workload("hpcg"), skl)
        assert stats.memory.prefetch_fraction > 0.3  # prefetcher engaged
        assert stats.avg_occupancy(2) > stats.avg_occupancy(1)

    def test_minighost_streaming_signature(self, skl):
        stats = self._run(get_workload("minighost"), skl)
        assert stats.memory.prefetch_fraction > 0.4

    def test_comd_low_traffic_signature(self, skl):
        stats = self._run(get_workload("comd"), skl)
        # Compute-dominated: low occupancies (warmup of the hot
        # footprint inflates a short run slightly), mostly cache hits.
        assert stats.avg_occupancy(2) < 3.0
        assert stats.l1.miss_rate < 0.4
        # Far below the memory-bound workloads' pegged L1 file.
        assert stats.avg_occupancy(1) < 0.5 * skl.l1.mshrs

    def test_pennant_gather_signature(self, skl):
        stats = self._run(get_workload("pennant"), skl)
        assert stats.memory.prefetch_fraction < 0.5

    def test_snap_prefetch_step_adds_swpf(self, skl):
        base = self._run(get_workload("snap"), skl)
        pref = self._run(get_workload("snap"), skl, steps=("sw_prefetch",))
        assert base.sw_prefetches_issued == 0
        assert pref.sw_prefetches_issued > 0

    def test_isx_l2_prefetch_step_emits_swpf_l2(self, knl):
        stats = self._run(get_workload("isx"), knl, steps=("l2_prefetch",))
        assert stats.sw_prefetches_issued > 0

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_traces_respect_machine_line_size(self, workload, a64fx):
        trace = workload.generate_trace(
            a64fx, spec=TraceSpec(threads=1, accesses_per_thread=50)
        )
        assert trace.line_bytes == 256

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_traces_are_deterministic(self, workload, skl):
        spec = TraceSpec(threads=1, accesses_per_thread=100, seed=9)
        a = workload.generate_trace(skl, spec=spec)
        b = workload.generate_trace(skl, spec=spec)
        assert a.threads[0].accesses == b.threads[0].accesses
