"""Executable dgemm: the paper's unroll-and-jam illustration.

Section III-C: register tiling (unroll-and-jam) "is usually beneficial
when memory accesses already see a small latency due to few memory
accesses (i.e. most data fits in the higher levels of cache).
Interestingly, this situation can be inferred from a low MSHRQ
occupancy" — with dgemm as the example (cache + register tiling, after
which it becomes FLOP bound).

This module implements a small blocked matrix multiply (verified
against ``numpy.dot``), extracts the blocked kernel's address stream —
cache-resident tiles, rare memory touches, heavy FMA gaps — and lets
the tests confirm the chain: low measured occupancy → the recipe
recommends ``unroll_and_jam``.
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
class DgemmApp:
    """C = A @ B with cache blocking (the optimized shape)."""

    n: int = 96
    block: int = 24
    threads: int = 2
    seed: int = 41

    def __post_init__(self) -> None:
        if self.n <= 0 or self.block <= 0 or self.n % self.block:
            raise ConfigurationError("n must be a positive multiple of block")
        rng = np.random.default_rng(self.seed)
        self.a = rng.standard_normal((self.n, self.n))
        self.b = rng.standard_normal((self.n, self.n))
        self.c = np.zeros((self.n, self.n))

    # -- the kernel -------------------------------------------------------------

    def blocked_gemm(self) -> np.ndarray:
        """Cache-blocked triple loop (block x block tiles)."""
        n, bs = self.n, self.block
        self.c[:] = 0.0
        for ii in range(0, n, bs):
            for kk in range(0, n, bs):
                for jj in range(0, n, bs):
                    self.c[ii : ii + bs, jj : jj + bs] += (
                        self.a[ii : ii + bs, kk : kk + bs]
                        @ self.b[kk : kk + bs, jj : jj + bs]
                    )
        return self.c

    def verify(self, *, tolerance: float = 1e-9) -> bool:
        """Blocked result equals the straight numpy product."""
        self.blocked_gemm()
        return bool(np.allclose(self.c, self.a @ self.b, atol=tolerance))

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        max_tiles: Optional[int] = 8,
        fma_gap_cycles: float = 190.0,
    ) -> ColumnarTrace:
        """Tile-level access stream: line-granular tile touches with
        heavy FMA gaps — the low-occupancy signature of blocked GEMM.

        Each tile multiply touches its three blocks once per line (the
        inner register-tiled loops run out of L1), so the stream is a
        handful of memory touches separated by O(block³) flops — with a
        24-element block, each loaded A-line feeds 8 x 24 x 2 = 384
        flops, i.e. ~190 cycles of FMA work per line touch.
        """
        n, bs = self.n, self.block
        space = AddressSpace()
        space.add("a", n * n, 8)
        space.add("b", n * n, 8)
        space.add("c", n * n, 8)
        line_elems = max(1, machine.line_bytes // 8)

        # Tiles in (ii, kk, jj) loop order; per tile, the A and B line
        # touches interleaved row by row, then the C line stores.
        tiles = np.indices((n // bs,) * 3).reshape(3, -1) * bs
        if max_tiles is not None:
            tiles = tiles[:, : max_tiles * self.threads]
        ii, kk, jj = tiles
        lines = (
            np.arange(bs)[:, None] * n + np.arange(0, bs, line_elems)
        ).reshape(-1)
        ab = np.stack(
            [
                space.addr("a", (ii * n + kk)[:, None] + lines),
                space.addr("b", (kk * n + jj)[:, None] + lines),
            ],
            axis=2,
        ).reshape(len(ii), 2 * len(lines))
        slots = np.column_stack([ab, space.addr("c", (ii * n + jj)[:, None] + lines)])
        kinds = (LOAD,) * ab.shape[1] + (STORE,) * len(lines)

        threads = [
            slot_columns(slots[start:end], kinds, (fma_gap_cycles,) * len(kinds))
            for start, end in partition(len(ii), self.threads)
        ]
        return columnar_trace(threads, routine="dgemm", line_bytes=machine.line_bytes)
