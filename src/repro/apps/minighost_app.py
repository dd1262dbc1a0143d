"""Executable MiniGhost: a real 27-point stencil, verified, traced.

Runs the ``mg_stencil_3d27pt`` kernel — each output cell is the average
of its 3×3×3 neighbourhood — on a real grid, verifies it against a
vectorized numpy computation, and extracts the loop nest's actual
address stream: for each inner-x iteration, 27 loads whose addresses
come from the real (z, y, x) offsets (nine unit-stride "plane rows" of
three consecutive elements each — the many-streams signature the
hardware prefetcher feasts on) plus the output store stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..sim.coltrace import ColumnarTrace, columnar_trace
from .common import LOAD, STORE, AddressSpace, partition, slot_columns


@dataclass
class MinighostApp:
    """Reduced-scale MiniGhost: one variable, one 27-point sweep."""

    nx: int = 24
    ny: int = 12
    nz: int = 12
    threads: int = 2
    seed: int = 13

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 3:
            raise ConfigurationError("grid must be at least 3 in each dimension")
        rng = np.random.default_rng(self.seed)
        self.grid = rng.standard_normal((self.nz, self.ny, self.nx))
        self.out = np.zeros_like(self.grid)

    def _index(self, z: int, y: int, x: int) -> int:
        """Flat element index of grid[z, y, x] (row-major, x fastest)."""
        return (z * self.ny + y) * self.nx + x

    # -- the kernel -------------------------------------------------------------

    def stencil_27pt(self) -> np.ndarray:
        """The triple loop nest, averaging each interior 3x3x3 block."""
        g = self.grid
        for z in range(1, self.nz - 1):
            for y in range(1, self.ny - 1):
                for x in range(1, self.nx - 1):
                    self.out[z, y, x] = (
                        g[z - 1 : z + 2, y - 1 : y + 2, x - 1 : x + 2].sum() / 27.0
                    )
        return self.out

    def verify(self, *, tolerance: float = 1e-12) -> bool:
        """Check against a shifted-sum vectorized stencil."""
        g = self.grid
        expected = np.zeros_like(g)
        acc = np.zeros((self.nz - 2, self.ny - 2, self.nx - 2))
        for dz in range(3):
            for dy in range(3):
                for dx in range(3):
                    acc += g[
                        dz : dz + self.nz - 2,
                        dy : dy + self.ny - 2,
                        dx : dx + self.nx - 2,
                    ]
        expected[1:-1, 1:-1, 1:-1] = acc / 27.0
        self.stencil_27pt()
        return bool(
            np.allclose(
                self.out[1:-1, 1:-1, 1:-1], expected[1:-1, 1:-1, 1:-1], atol=tolerance
            )
        )

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        max_cells: Optional[int] = None,
        flop_gap_cycles: float = 1.5,
    ) -> ColumnarTrace:
        """Real loop-nest access stream, z-planes partitioned by thread.

        ``max_cells`` is one budget shared by all threads and spent in
        thread order, so thread 0 consumes it first: at 400 cells of the
        default grid, thread 0 holds all 11200 accesses and thread 1
        none.  Splitting it per thread would change the traces (and
        every cached simulation keyed on them).
        """
        space = AddressSpace()
        cells = self.nx * self.ny * self.nz
        space.add("grid", cells, 8)
        space.add("out", cells, 8)

        # Interior cells in loop-nest order, 27 neighbour loads (dz, dy,
        # dx) then the store per cell.  Threads own contiguous z-plane
        # blocks; the budget counts cells in that same global order.
        z, y, x = np.indices((self.nz - 2, self.ny - 2, self.nx - 2)) + 1
        budget = max(max_cells if max_cells is not None else cells, 0)
        center = self._index(z, y, x).reshape(-1)[:budget]
        stencil = np.array(
            [self._index(*d) for d in itertools.product((-1, 0, 1), repeat=3)]
        )
        slots = np.column_stack(
            [space.addr("grid", center[:, None] + stencil), space.addr("out", center)]
        )
        kinds = (LOAD,) * len(stencil) + (STORE,)
        gaps = (flop_gap_cycles,) * len(stencil) + (1.0,)

        plane = (self.ny - 2) * (self.nx - 2)
        threads = [
            slot_columns(slots[start * plane : end * plane], kinds, gaps)
            for start, end in partition(self.nz - 2, self.threads)
        ]
        return columnar_trace(
            threads, routine="mg_stencil_3d27pt", line_bytes=machine.line_bytes
        )
