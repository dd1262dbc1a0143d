"""Executable mini-apps: real kernels, verified results, real traces.

One level more faithful than the statistical generators in
:mod:`repro.workloads`: these modules *run* reduced-scale versions of
the paper's applications (bucket sort, 27-point SpMV, corner gathers,
cell-list forces, a transport sweep, a 27-point stencil), verify their
numerical results, and extract the kernels' actual address streams for
the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .common import AddressSpace, partition
    from .comd_app import ComdApp
    from .dgemm_app import DgemmApp
    from .hpcg_app import HpcgApp, build_27pt_csr
    from .isx_app import IsxApp
    from .minighost_app import MinighostApp
    from .pennant_app import PennantApp
    from .snap_app import SnapApp

__all__ = [
    "AddressSpace",
    "ComdApp",
    "DgemmApp",
    "HpcgApp",
    "IsxApp",
    "MinighostApp",
    "PennantApp",
    "SnapApp",
    "build_27pt_csr",
    "partition",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "common": (
            "AddressSpace",
            "partition",
        ),
        "comd_app": (
            "ComdApp",
        ),
        "dgemm_app": (
            "DgemmApp",
        ),
        "hpcg_app": (
            "HpcgApp",
            "build_27pt_csr",
        ),
        "isx_app": (
            "IsxApp",
        ),
        "minighost_app": (
            "MinighostApp",
        ),
        "pennant_app": (
            "PennantApp",
        ),
        "snap_app": (
            "SnapApp",
        ),
    },
)
