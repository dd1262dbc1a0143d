"""repro: reproduction of "Performance Analysis and Optimization with
Little's Law" (ISPASS 2022).

Public API highlights
---------------------
* :mod:`repro.machines` — the paper's Table III platforms.
* :mod:`repro.memory` — the loaded-latency curve class (calibrated and
  measured).
* :mod:`repro.sim` — trace-driven cache/MSHR simulator (counter oracle).
* :mod:`repro.xmem` — X-Mem-style characterization (profile measurement).
* :mod:`repro.core` — the paper's contribution: Little's-law MLP,
  classification, and the Figure-1 optimization recipe.
* :mod:`repro.roofline` — roofline with the paper's MSHR ceiling.
* :mod:`repro.tma` — Top-Down analysis baseline.
* :mod:`repro.workloads` / :mod:`repro.optim` / :mod:`repro.perfmodel` —
  the six case-study applications, optimization transforms, and the
  fixed-point performance solver that regenerates Tables IV–IX.
* :mod:`repro.experiments` — per-table/figure harnesses and paper data.
"""

__version__ = "1.0.0"

from .machines import MachineSpec, get_machine, machine_names, paper_machines
from .memory import LatencyProfile

__all__ = [
    "LatencyProfile",
    "MachineSpec",
    "get_machine",
    "machine_names",
    "paper_machines",
    "__version__",
]
