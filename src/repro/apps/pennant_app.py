"""Executable PENNANT ``setCornerDiv``: real mesh indirection, traced.

Builds an unstructured-mesh fragment the way PENNANT stores one — a
corner list with indirection arrays mapping each corner to its zone and
point — runs a ``setCornerDiv``-shaped kernel (gather point/zone data
per corner, compute, scatter-accumulate per zone), verifies the scatter
against ``np.add.at``, and extracts the loop's actual address stream.
The gathers use the *real shuffled indirection*, which is what makes
PENNANT's accesses irregular and L1-MSHR-bound in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..sim.coltrace import ColumnarTrace, columnar_trace
from .common import LOAD, STORE, AddressSpace, partition, slot_columns


@dataclass
class PennantApp:
    """A mesh fragment: zones, points, and 4 corners per zone.

    The default mesh is large enough that the per-corner gathers span
    hundreds of KiB — comfortably past the L1 — so the extracted trace
    carries PENNANT's irregular-access signature.  ``extract_trace``
    subsamples corners to keep simulator traces small.
    """

    zones: int = 30000
    threads: int = 2
    seed: int = 31

    def __post_init__(self) -> None:
        if self.zones <= 0 or self.threads <= 0:
            raise ConfigurationError("mesh sizes must be positive")
        rng = np.random.default_rng(self.seed)
        self.points = self.zones + 64
        self.corners = 4 * self.zones
        # Indirection: corner -> zone is block-structured then shuffled
        # (PENNANT's reordering after mesh generation), corner -> point
        # is effectively random at this scale.
        corner_zone = np.repeat(np.arange(self.zones), 4)
        perm = rng.permutation(self.corners)
        self.map_corner_zone = corner_zone[perm]
        self.map_corner_point = rng.integers(0, self.points, size=self.corners)
        self.point_x = rng.standard_normal(self.points)
        self.zone_x = rng.standard_normal(self.zones)
        self.zone_div = np.zeros(self.zones)

    # -- the kernel -------------------------------------------------------------

    def set_corner_div(self) -> np.ndarray:
        """Gather per corner, compute, scatter-accumulate per zone."""
        self.zone_div[:] = 0.0
        for c in range(self.corners):
            p = self.map_corner_point[c]
            z = self.map_corner_zone[c]
            contribution = self.point_x[p] - 0.25 * self.zone_x[z]
            self.zone_div[z] += contribution
        return self.zone_div

    def verify(self, *, tolerance: float = 1e-9) -> bool:
        """Check the loop against the vectorized scatter."""
        expected = np.zeros(self.zones)
        np.add.at(
            expected,
            self.map_corner_zone,
            self.point_x[self.map_corner_point]
            - 0.25 * self.zone_x[self.map_corner_zone],
        )
        self.set_corner_div()
        return bool(np.allclose(self.zone_div, expected, atol=tolerance))

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        vectorized: bool = False,
        max_corners: Optional[int] = None,
    ) -> ColumnarTrace:
        """Real per-corner stream: index loads + two gathers + a scatter.

        The scalar version carries the long dependence gap the compiler
        cannot break (the paper's unvectorized baseline); ``vectorized``
        shrinks it, modeling the forced gather/scatter code.
        """
        gap = 2.0 if vectorized else 8.0
        space = AddressSpace()
        space.add("map_corner_point", self.corners, 8)
        space.add("map_corner_zone", self.corners, 8)
        space.add("point_x", self.points, 8)
        space.add("zone_x", self.zones, 8)
        space.add("zone_div", self.zones, 8)

        corners = (
            self.corners
            if max_corners is None
            else max(0, min(self.corners, max_corners))
        )
        c = np.arange(corners)
        point = self.map_corner_point[:corners]
        zone = self.map_corner_zone[:corners]
        slots = np.stack(
            [
                space.addr("map_corner_point", c),  # streaming index reads
                space.addr("map_corner_zone", c),
                space.addr("point_x", point),
                space.addr("zone_x", zone),
                space.addr("zone_div", zone),
            ],
            axis=1,
        )
        kinds = (LOAD, LOAD, LOAD, LOAD, STORE)
        gaps = (1.0, 1.0, gap, gap, 1.0)
        threads = [
            slot_columns(slots[start:end], kinds, gaps)
            for start, end in partition(corners, self.threads)
        ]
        return columnar_trace(
            threads, routine="setCornerDiv", line_bytes=machine.line_bytes
        )
