"""Executable SNAP ``dim3_sweep``-shaped kernel: a real transport sweep.

A reduced discrete-ordinates sweep with SNAP's structure: cells are
visited in wavefront order and, per cell, a *short* inner loop over
angles updates the angular flux from the upstream cells — the
small-trip-count loops that defeat hardware-prefetch timeliness in the
paper and motivate directive-driven software prefetching.

Correctness: the sweep solves the upwinded balance equation exactly per
cell, so the result is verified against an independent recomputation in
a different traversal order (any topological order gives identical
values), plus positivity for positive sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..sim.coltrace import ColumnarTrace, columnar_trace
from .common import (
    LOAD,
    STORE,
    SWPF_L2,
    AddressSpace,
    partition,
    slot_columns,
)


@dataclass
class SnapApp:
    """A 2D sweep: nx x ny cells, nang angles, one group."""

    nx: int = 24
    ny: int = 16
    nang: int = 48
    threads: int = 2
    seed: int = 23

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nang) <= 0:
            raise ConfigurationError("sweep sizes must be positive")
        rng = np.random.default_rng(self.seed)
        self.source = rng.uniform(0.1, 1.0, size=(self.ny, self.nx))
        self.sigma = rng.uniform(0.5, 1.5, size=(self.ny, self.nx))
        self.mu = rng.uniform(0.1, 1.0, size=self.nang)
        self.eta = rng.uniform(0.1, 1.0, size=self.nang)
        self.psi = np.zeros((self.ny, self.nx, self.nang))

    def _cell_update(
        self, y: int, x: int, flux_x: np.ndarray, flux_y: np.ndarray
    ) -> np.ndarray:
        """Upwinded balance update for all angles of one cell."""
        return (self.source[y, x] + self.mu * flux_x + self.eta * flux_y) / (
            1.0 + self.sigma[y, x] + self.mu + self.eta
        )

    # -- the kernel -------------------------------------------------------------

    def dim_sweep(self) -> np.ndarray:
        """Wavefront sweep from the (0,0) corner (the traced kernel)."""
        self.psi[:] = 0.0
        for diag in range(self.ny + self.nx - 1):
            for y in range(max(0, diag - self.nx + 1), min(self.ny, diag + 1)):
                x = diag - y
                flux_x = self.psi[y, x - 1] if x > 0 else np.zeros(self.nang)
                flux_y = self.psi[y - 1, x] if y > 0 else np.zeros(self.nang)
                self.psi[y, x] = self._cell_update(y, x, flux_x, flux_y)
        return self.psi

    def verify(self) -> bool:
        """Row-major traversal (also topological) gives identical flux;
        positive sources give strictly positive flux."""
        self.dim_sweep()
        reference = np.zeros_like(self.psi)
        for y in range(self.ny):
            for x in range(self.nx):
                flux_x = reference[y, x - 1] if x > 0 else np.zeros(self.nang)
                flux_y = reference[y - 1, x] if y > 0 else np.zeros(self.nang)
                reference[y, x] = self._cell_update(y, x, flux_x, flux_y)
        return bool(
            np.allclose(self.psi, reference, atol=1e-12) and np.all(self.psi > 0)
        )

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        sw_prefetch: bool = False,
        max_cells: Optional[int] = None,
    ) -> ColumnarTrace:
        """Real sweep stream: per cell, a short nang-element burst.

        Loads the upstream flux vectors and stores the cell's — each a
        ``nang``-long unit-stride run too short for timely hardware
        prefetch (SNAP's paper signature).  ``sw_prefetch`` issues the
        directive-style prefetches for the *next* cell's flux ahead of
        the current burst.

        ``max_cells`` is one budget shared by all threads and spent in
        thread order, so thread 0 consumes it first: at 120 cells of the
        default sweep, thread 0 holds all 16128 accesses and thread 1
        none (248 and none at 12 cells of a 6 x 4 x 8 sweep).  Splitting
        it per thread would change the traces (and every cached
        simulation keyed on them).
        """
        space = AddressSpace()
        cells = self.ny * self.nx
        space.add("psi", cells * self.nang, 8)
        space.add("source", cells, 8)
        space.add("sigma", cells, 8)

        # One row of slots per cell in row-major order: the source and
        # sigma loads, the next cell's prefetches, then per angle the
        # two upstream flux loads and the store.  Edge cells mask off
        # the upstream loads they lack (and the prefetch past the row).
        # Threads own contiguous row blocks (SNAP's spatial
        # decomposition); the budget counts cells in that global order.
        budget = max(max_cells if max_cells is not None else cells, 0)
        y, x = (
            axis.reshape(-1)[:budget] for axis in np.indices((self.ny, self.nx))
        )
        cell = y * self.nx + x
        ahead = np.arange(0, self.nang, 8)
        angle = np.arange(self.nang)
        flux = np.stack(
            [
                space.addr("psi", (cell - 1)[:, None] * self.nang + angle),
                space.addr("psi", (cell - self.nx)[:, None] * self.nang + angle),
                space.addr("psi", cell[:, None] * self.nang + angle),
            ],
            axis=2,
        ).reshape(len(cell), 3 * self.nang)
        slots = np.column_stack(
            [
                space.addr("source", cell),
                space.addr("sigma", cell),
                space.addr("psi", (cell + 1)[:, None] * self.nang + ahead),
                flux,
            ]
        )
        present = np.ones_like(slots, dtype=bool)
        present[:, 2 : 2 + len(ahead)] = (sw_prefetch & (x + 1 < self.nx))[:, None]
        present[:, 2 + len(ahead) :] = np.tile(
            np.stack([x > 0, y > 0, np.ones_like(x, dtype=bool)], axis=1),
            self.nang,
        )
        kinds = (LOAD, LOAD) + (SWPF_L2,) * len(ahead) + (LOAD, LOAD, STORE) * self.nang
        gaps = (1.0, 1.0) + (0.5,) * len(ahead) + (3.0, 3.0, 1.0) * self.nang

        threads = [
            slot_columns(
                slots[start * self.nx : end * self.nx],
                kinds,
                gaps,
                present[start * self.nx : end * self.nx],
            )
            for start, end in partition(self.ny, self.threads)
        ]
        return columnar_trace(
            threads, routine="dim3_sweep", line_bytes=machine.line_bytes
        )
