"""Executable HPCG SpMV: a real 27-point matrix, verified, traced.

Builds the actual sparse matrix HPCG uses — the 27-point finite-
difference operator on an ``n³`` grid, in CSR — runs ``ComputeSPMV_ref``
(the row-loop kernel), verifies it against a dense/numpy computation,
and extracts the kernel's real address stream: streaming reads of
``values``/``col_idx``, the gather ``x[col]`` using the *actual* column
indices (whose 27-neighbor locality is what makes HPCG
prefetcher-friendly), and the ``y[row]`` store stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..sim.coltrace import ColumnarTrace, columnar_trace
from .common import LOAD, STORE, AddressSpace, partition, slot_columns


def build_27pt_csr(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (row_ptr, col_idx, values) of the 27-point operator on n³."""
    if n < 2:
        raise ConfigurationError("grid must be at least 2^3")
    row_ptr = [0]
    col_idx = []
    values = []
    for z in range(n):
        for y in range(n):
            for x in range(n):
                for dz in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            xx, yy, zz = x + dx, y + dy, z + dz
                            if 0 <= xx < n and 0 <= yy < n and 0 <= zz < n:
                                col = (zz * n + yy) * n + xx
                                col_idx.append(col)
                                values.append(
                                    26.0 if (dx, dy, dz) == (0, 0, 0) else -1.0
                                )
                row_ptr.append(len(col_idx))
    return (
        np.asarray(row_ptr, dtype=np.int64),
        np.asarray(col_idx, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    )


@dataclass
class HpcgApp:
    """Reduced-scale HPCG: the SpMV kernel on the real 27-point matrix."""

    n: int = 8  # grid edge (paper: 40)
    threads: int = 2
    seed: int = 7

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ConfigurationError("threads must be positive")
        self.row_ptr, self.col_idx, self.values = build_27pt_csr(self.n)
        self.rows = self.n**3
        rng = np.random.default_rng(self.seed)
        self.x = rng.standard_normal(self.rows)
        self.y = np.zeros(self.rows)

    # -- the kernel -------------------------------------------------------------

    def compute_spmv_ref(self) -> np.ndarray:
        """The reference row-loop SpMV, exactly HPCG's structure."""
        for row in range(self.rows):
            total = 0.0
            for k in range(self.row_ptr[row], self.row_ptr[row + 1]):
                total += self.values[k] * self.x[self.col_idx[k]]
            self.y[row] = total
        return self.y

    def verify(self, *, tolerance: float = 1e-9) -> bool:
        """Check the row loop against a vectorized SpMV."""
        expected = np.zeros(self.rows)
        np.add.at(
            expected,
            np.repeat(np.arange(self.rows), np.diff(self.row_ptr)),
            self.values * self.x[self.col_idx],
        )
        self.compute_spmv_ref()
        return bool(np.allclose(self.y, expected, atol=tolerance))

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        max_rows: Optional[int] = None,
        fma_gap_cycles: float = 2.0,
    ) -> ColumnarTrace:
        """Real per-row access stream: value/index streams + x gathers."""
        rows = self.rows if max_rows is None else max(0, min(self.rows, max_rows))
        space = AddressSpace()
        space.add("row_ptr", len(self.row_ptr), 8)
        space.add("col_idx", len(self.col_idx), 8)
        space.add("values", len(self.values), 8)
        space.add("x", self.rows, 8)
        space.add("y", self.rows, 8)

        # One row of slots per CSR row: the row_ptr load, a (values,
        # col_idx, x[col]) triple per stored entry, the y store.  Rows
        # shorter than the longest mask off their unused triples.
        row = np.arange(rows)
        lens = np.diff(self.row_ptr[: rows + 1])
        j = np.arange(lens.max(initial=0))
        k = self.row_ptr[:rows, None] + j
        stored = j < lens[:, None]
        col = self.col_idx[np.minimum(k, len(self.col_idx) - 1)]
        triples = np.stack(
            [space.addr("values", k), space.addr("col_idx", k), space.addr("x", col)],
            axis=2,
        ).reshape(rows, 3 * len(j))
        slots = np.column_stack(
            [space.addr("row_ptr", row), triples, space.addr("y", row)]
        )
        present = np.ones_like(slots, dtype=bool)
        present[:, 1:-1] = np.repeat(stored, 3, axis=1)
        kinds = (LOAD,) + (LOAD,) * triples.shape[1] + (STORE,)
        gaps = (1.0,) + (fma_gap_cycles, 1.0, 1.0) * len(j) + (1.0,)

        threads = [
            slot_columns(slots[start:end], kinds, gaps, present[start:end])
            for start, end in partition(rows, self.threads)
        ]
        return columnar_trace(
            threads, routine="ComputeSPMV_ref", line_bytes=machine.line_bytes
        )
