"""Executable CoMD ``eamForce``-shaped kernel: real pair forces, traced.

A reduced molecular-dynamics force computation with CoMD's structure: a
link-cell decomposition, a per-particle loop over neighbouring cells,
and a pairwise force inside a cutoff.  Correctness is verified against
a direct O(N²) computation and Newton's third law (forces sum to ~0).

The extracted trace shows CoMD's paper signature: the positions of a
few thousand particles fit in cache, so memory accesses are rare and
the MSHR files sit near empty — the compute-bound case where every
MLP-increasing optimization has headroom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..sim.coltrace import ColumnarTrace, columnar_trace
from .common import LOAD, STORE, AddressSpace, partition, slot_columns


@dataclass
class ComdApp:
    """Particles in a periodic box with a link-cell neighbour search."""

    particles: int = 600
    box: float = 6.0
    cutoff: float = 1.0
    threads: int = 2
    seed: int = 17

    def __post_init__(self) -> None:
        if self.particles <= 0 or self.box <= 0 or self.cutoff <= 0:
            raise ConfigurationError("MD parameters must be positive")
        if self.cutoff > self.box / 3:
            raise ConfigurationError("cutoff too large for the box")
        rng = np.random.default_rng(self.seed)
        self.pos = rng.uniform(0.0, self.box, size=(self.particles, 3))
        self.force = np.zeros_like(self.pos)
        self.cells_per_dim = max(3, int(self.box / self.cutoff))
        self._build_cells()

    def _cell_of(self, p: int) -> Tuple[int, int, int]:
        """Cell coordinates of particle ``p``."""
        scaled = (self.pos[p] / self.box * self.cells_per_dim).astype(int)
        return tuple(np.minimum(scaled, self.cells_per_dim - 1))

    def _build_cells(self) -> None:
        self.cell_lists: Dict[Tuple[int, int, int], List[int]] = {}
        for p in range(self.particles):
            self.cell_lists.setdefault(self._cell_of(p), []).append(p)

    def _neighbors(self, p: int) -> List[int]:
        """Particles in the 27 cells around ``p``'s cell (excluding p)."""
        cx, cy, cz = self._cell_of(p)
        out: List[int] = []
        n = self.cells_per_dim
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    cell = ((cx + dx) % n, (cy + dy) % n, (cz + dz) % n)
                    out.extend(q for q in self.cell_lists.get(cell, []) if q != p)
        return out

    @staticmethod
    def _pair_force(r_vec: np.ndarray, r2: float) -> np.ndarray:
        """A short-range repulsive pair force (LJ-flavoured)."""
        inv = 1.0 / (r2 + 1e-12)
        return r_vec * (inv**4)

    def _displacement(self, p: int, q: int) -> np.ndarray:
        """Minimum-image displacement from q to p."""
        d = self.pos[p] - self.pos[q]
        d -= self.box * np.round(d / self.box)
        return d

    # -- the kernel -------------------------------------------------------------

    def eam_force(self) -> np.ndarray:
        """Cell-list force loop (the traced kernel)."""
        self.force[:] = 0.0
        cut2 = self.cutoff**2
        for p in range(self.particles):
            for q in self._neighbors(p):
                d = self._displacement(p, q)
                r2 = float(d @ d)
                if r2 < cut2:
                    self.force[p] += self._pair_force(d, r2)
        return self.force

    def verify(self, *, tolerance: float = 1e-9) -> bool:
        """Cell-list forces equal the direct O(N^2) forces; sum ~ 0."""
        self.eam_force()
        direct = np.zeros_like(self.force)
        cut2 = self.cutoff**2
        for p in range(self.particles):
            for q in range(self.particles):
                if p == q:
                    continue
                d = self._displacement(p, q)
                r2 = float(d @ d)
                if r2 < cut2:
                    direct[p] += self._pair_force(d, r2)
        if not np.allclose(self.force, direct, atol=tolerance):
            return False
        # Newton's third law over the whole (periodic) system.
        return bool(np.all(np.abs(self.force.sum(axis=0)) < 1e-6))

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        vectorized: bool = False,
    ) -> ColumnarTrace:
        """Real neighbour-loop stream: cached position loads, heavy math.

        The force arithmetic dominates (tens of cycles per pair), so
        the recorded gaps are large — the low-MLP signature.
        """
        pair_gap = 14.0 if vectorized else 28.0
        space = AddressSpace()
        space.add("pos", self.particles * 3, 8)
        space.add("force", self.particles * 3, 8)

        # Link cells as arrays: each particle's cell, the particles
        # grouped by cell in index order (a stable sort), and per
        # particle its 27 neighbour cells in _neighbors' (dx, dy, dz)
        # order.  Row p of the slot matrix is p's pos load, the
        # neighbour-cell members (padded to the fullest cell, self-pair
        # and padding masked off), then p's force store.
        n = self.cells_per_dim
        cell = np.minimum((self.pos / self.box * n).astype(int), n - 1)
        flat = (cell[:, 0] * n + cell[:, 1]) * n + cell[:, 2]
        by_cell = np.argsort(flat, kind="stable")
        members = np.bincount(flat, minlength=n**3)
        first = np.cumsum(members) - members
        shifts = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
        around = (cell[:, None, :] + shifts) % n
        around = (around[..., 0] * n + around[..., 1]) * n + around[..., 2]
        slot = np.arange(members.max())
        member = first[around][..., None] + slot
        q = by_cell[np.minimum(member, self.particles - 1)]
        p = np.arange(self.particles)
        pair = (slot < members[around][..., None]) & (q != p[:, None, None])
        slots = np.column_stack(
            [
                space.addr("pos", 3 * p),
                space.addr("pos", 3 * q.reshape(self.particles, -1)),
                space.addr("force", 3 * p),
            ]
        )
        present = np.ones_like(slots, dtype=bool)
        present[:, 1:-1] = pair.reshape(self.particles, -1)
        kinds = (LOAD,) * (slots.shape[1] - 1) + (STORE,)
        gaps = (2.0,) + (pair_gap,) * (slots.shape[1] - 2) + (2.0,)

        threads = [
            slot_columns(slots[start:end], kinds, gaps, present[start:end])
            for start, end in partition(self.particles, self.threads)
        ]
        return columnar_trace(
            threads, routine="eamForce", line_bytes=machine.line_bytes
        )
