#!/usr/bin/env python
"""Characterize machines with the X-Mem substitute (paper Section IV).

The paper's method needs one artifact per machine, measured once: the
loaded-latency profile (observed memory latency at many bandwidth
levels).  This example sweeps load levels on each simulated machine,
prints the profile, and saves it as JSON for reuse — mirroring the
"computed once per processor" footnote.

Run:  python examples/characterize_machine.py [outdir]
"""

import sys
from pathlib import Path

from repro.machines import paper_machines
from repro.xmem import XMemConfig, characterize_machine


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("profiles")
    outdir.mkdir(exist_ok=True)

    for machine in paper_machines():
        print(f"characterizing {machine.describe()}")
        profile = characterize_machine(
            machine, XMemConfig(levels=10, accesses_per_thread=2500)
        )
        print(f"  {'bandwidth':>12s}  {'loaded latency':>15s}")
        for u, latency in profile.points:
            bandwidth_gbs = u * profile.peak_bw_bytes / 1e9
            print(f"  {bandwidth_gbs:9.1f} GB/s  {latency:11.1f} ns")
        knee = profile.latency_at(profile.max_measured_bw_bytes)
        print(
            f"  idle {profile.idle_latency_ns:.0f} ns -> saturated {knee:.0f} ns "
            f"({knee / profile.idle_latency_ns:.1f}x, "
            "the paper's '2x or more' loaded-latency effect)"
        )
        path = outdir / f"{machine.name}_profile.json"
        profile.save(path)
        print(f"  saved {path}\n")


if __name__ == "__main__":
    main()
