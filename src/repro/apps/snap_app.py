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
from ..sim.coltrace import ColumnarTrace
from .common import AddressSpace, TraceRecorder, build_trace, partition


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
        """
        space = AddressSpace()
        cells = self.ny * self.nx
        space.add("psi", cells * self.nang, 8)
        space.add("source", cells, 8)
        space.add("sigma", cells, 8)

        def flat(y: int, x: int, a: int = 0) -> int:
            return (y * self.nx + x) * self.nang + a

        # Per-thread: contiguous row blocks (SNAP's spatial decomposition).
        budget = max_cells if max_cells is not None else cells
        emitted = 0
        recorders = []
        for start, end in partition(self.ny, self.threads):
            rec = TraceRecorder(space, default_gap=3.0)
            for y in range(start, end):
                for x in range(self.nx):
                    if emitted >= budget:
                        break
                    rec.load("source", y * self.nx + x, gap=1.0)
                    rec.load("sigma", y * self.nx + x, gap=1.0)
                    if sw_prefetch and x + 1 < self.nx:
                        # Prefetch next cell's flux burst one cell ahead.
                        for a in range(0, self.nang, 8):
                            rec.prefetch_l2("psi", flat(y, x + 1, a))
                    for a in range(self.nang):
                        if x > 0:
                            rec.load("psi", flat(y, x - 1, a), gap=3.0)
                        if y > 0:
                            rec.load("psi", flat(y - 1, x, a), gap=3.0)
                        rec.store("psi", flat(y, x, a), gap=1.0)
                    emitted += 1
            recorders.append(rec)
        return build_trace(
            recorders, routine="dim3_sweep", line_bytes=machine.line_bytes
        )
