"""E-X1: the once-per-machine X-Mem characterization, all three machines.

The paper's prerequisite artifact: measured bandwidth -> loaded-latency
profiles, with the ">= 2x idle at saturation" property the method
relies on.
"""

import pytest

from conftest import pedantic_once

from repro.machines import get_machine
from repro.xmem import XMemConfig, characterize_machine


@pytest.mark.parametrize("machine_name", ["skl", "knl", "a64fx"])
def test_xmem_characterization(benchmark, printed, machine_name):
    machine = get_machine(machine_name)
    profile = pedantic_once(
        benchmark,
        characterize_machine,
        machine,
        XMemConfig(levels=8, accesses_per_thread=1800),
    )
    key = f"xmem-{machine_name}"
    if key not in printed:
        printed.add(key)
        print(f"\nX-Mem profile for {machine.describe()}")
        for u, latency in profile.points:
            bandwidth_gbs = u * profile.peak_bw_bytes / 1e9
            print(f"  {bandwidth_gbs:8.1f} GB/s -> {latency:6.1f} ns")
    saturated = profile.latency_at(profile.max_measured_bw_bytes)
    assert saturated > 1.4 * profile.idle_latency_ns
    assert profile.max_measured_bw_bytes > 0.7 * machine.memory.achievable_bw_bytes
