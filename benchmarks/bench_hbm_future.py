"""E-G1: §IV-G outlook — HBM2e/3 parts are MSHR-bound before peak BW.

Sweeps streaming demand MLP on today's machines and the concept HBM
parts, printing each machine's MSHR-sustainable bandwidth fraction and
verifying the paper's claim: on the HBM parts the L2 MSHR file fills
long before peak bandwidth, making MSHRQ occupancy — not bandwidth
utilization — the reliable compute-bound certificate.
"""

from repro.machines import (
    hbm2e_concept,
    hbm3_concept,
    mshr_bound_fraction,
    paper_machines,
)
from repro.perfmodel import solve_operating_point


def _sweep():
    machines = list(paper_machines()) + [hbm2e_concept(), hbm3_concept()]
    rows = []
    for machine in machines:
        point = solve_operating_point(machine, demand_mlp=1000.0, binding_level=2)
        rows.append(
            (
                machine.name,
                machine.peak_bw_gbs,
                point.bandwidth_bytes / machine.memory.peak_bw_bytes,
                point.n_sustained,
                mshr_bound_fraction(machine, loaded_latency_ns=point.latency_ns),
            )
        )
    return rows


def test_hbm_future_mshr_regime(benchmark, printed):
    rows = benchmark(_sweep)
    if "hbm-future" not in printed:
        printed.add("hbm-future")
        print(
            f"\n{'machine':<8s} {'peak GB/s':>10s} {'streaming BW/peak':>18s} "
            f"{'L2 MSHRs used':>14s} {'MSHR-sustainable/peak':>22s}"
        )
        for name, peak, frac, n, bound in rows:
            print(f"{name:<8s} {peak:>10.0f} {frac:>17.0%} {n:>14.0f} {bound:>21.0%}")
    by_name = {r[0]: r for r in rows}
    # Today's parts: streaming code reaches (near) achievable bandwidth.
    for name in ("skl", "knl", "a64fx"):
        assert by_name[name][2] > 0.75
    # HBM3 concept: the full L2 MSHR file feeds <50% of the pipe.
    assert by_name["hbm3"][2] < 0.5
    assert by_name["hbm3"][4] < 0.6
    # HBM2e sits in between but already below peak.
    assert by_name["hbm2e"][2] < 0.85
