"""§IV-G extension: HBM2e/3 parts and the MSHR-bound regime."""

import pytest

from repro.core import AccessPattern, Classification, MlpCalculator, Recipe
from repro.machines import (
    get_machine,
    hbm2e_concept,
    hbm3_concept,
    mshr_bound_fraction,
    paper_machines,
)
from repro.perfmodel import solve_operating_point


class TestConceptMachines:
    def test_registered(self):
        assert get_machine("hbm3").name == "hbm3"
        assert get_machine("hbm2e").peak_bw_gbs == pytest.approx(1600.0)

    def test_not_in_paper_set(self):
        assert {m.name for m in paper_machines()} == {"skl", "knl", "a64fx"}


class TestMshrBoundRegime:
    """'L2 MSHRQ becomes full prior to achieving peak bandwidth even
    for streaming applications' (paper §IV-G)."""

    def test_hbm3_is_deeply_mshr_bound(self):
        machine = hbm3_concept()
        fraction = mshr_bound_fraction(machine, loaded_latency_ns=250.0)
        assert fraction < 0.5  # the file cannot feed even half the pipe

    def test_hbm2e_is_mshr_bound(self):
        machine = hbm2e_concept()
        fraction = mshr_bound_fraction(machine, loaded_latency_ns=250.0)
        assert fraction < 1.0

    def test_paper_machines_are_not(self):
        """Today's parts can (roughly) feed their memory from the L2
        file - which is why the paper calls the regime 'upcoming'."""
        for machine in paper_machines():
            fraction = mshr_bound_fraction(
                machine,
                loaded_latency_ns=machine.latency_model.idle_latency_ns * 1.4,
            )
            assert fraction > 0.8

    def test_streaming_kernel_fills_file_below_peak(self):
        """Even unlimited streaming demand saturates the MSHR file, not
        the memory, on the HBM3 part."""
        machine = hbm3_concept()
        point = solve_operating_point(machine, demand_mlp=1000.0, binding_level=2)
        assert point.n_sustained == machine.l2.mshrs
        assert point.bandwidth_bytes < 0.5 * machine.memory.peak_bw_bytes
        assert not point.bandwidth_capped


class TestComputeBoundCertificate:
    """§IV-G's punchline: occupancy is the 'full proof' compute-bound
    test - less-than-peak bandwidth alone is not, on HBM parts."""

    def test_low_occupancy_certifies_compute_bound(self):
        machine = hbm3_concept()
        calc = MlpCalculator(machine)
        # A kernel using 10% of peak bandwidth...
        result = calc.calculate(0.10 * machine.memory.peak_bw_bytes)
        # ...whose occupancy is far below the file: genuinely compute
        # bound, and the recipe still has MLP headroom to offer.
        assert result.n_avg < 0.5 * machine.l2.mshrs
        decision = Recipe(machine).decide(
            result, Classification(AccessPattern.STREAMING, 0.8, "test")
        )
        assert not decision.stop

    def test_full_file_below_peak_is_not_compute_bound(self):
        machine = hbm3_concept()
        point = solve_operating_point(machine, demand_mlp=1000.0, binding_level=2)
        calc = MlpCalculator(machine)
        result = calc.calculate(point.bandwidth_bytes)
        # Bandwidth says "plenty of headroom" (<50% of peak)...
        assert result.utilization < 0.5
        # ...but the file is full: memory-system bound, not compute.
        assert result.n_avg > 0.9 * machine.l2.mshrs
