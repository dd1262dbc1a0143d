"""Executable ISx: real bucket counting with its real address stream.

Implements ``count_local_keys`` the way ISx does it — uniformly random
keys, a bucket histogram at key-granularity — and extracts the kernel's
actual memory accesses: the sequential key reads plus the
read-modify-write on ``counts[bucket_of(key)]``, whose addresses come
from the *actual keys*, not a synthetic distribution.  The optional L2
software-prefetch variant pipelines the bucket addresses ahead, exactly
as the paper's optimized code does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..sim.coltrace import ColumnarTrace, columnar_trace, concat_columns
from .common import LOAD, STORE, SWPF_L2, AddressSpace, partition, slot_columns


@dataclass
class IsxApp:
    """A reduced-scale ISx rank: keys, buckets, and the counting kernel.

    Parameters
    ----------
    keys_per_thread:
        Keys each thread owns (paper: 25165824; reduced here).
    buckets:
        Histogram size — large enough that bucket lines don't fit in
        cache, making the updates genuinely random-access.
    threads:
        Worker threads (= trace threads).
    seed:
        RNG seed for the uniform key distribution.
    """

    keys_per_thread: int = 4096
    buckets: int = 1 << 20
    threads: int = 2
    seed: int = 2022

    def __post_init__(self) -> None:
        if self.keys_per_thread <= 0 or self.buckets <= 0 or self.threads <= 0:
            raise ConfigurationError("ISx sizes must be positive")
        rng = np.random.default_rng(self.seed)
        self.keys = rng.integers(
            0, self.buckets, size=self.threads * self.keys_per_thread, dtype=np.int64
        )
        self.counts = np.zeros(self.buckets, dtype=np.int64)
        self._counted = False

    # -- the kernel -------------------------------------------------------------

    def count_local_keys(self) -> np.ndarray:
        """The real kernel: histogram all keys (vectorized for speed)."""
        self.counts[:] = 0
        np.add.at(self.counts, self.keys, 1)
        self._counted = True
        return self.counts

    def verify(self) -> bool:
        """Counts must sum to the number of keys (ISx's own sanity check)."""
        if not self._counted:
            self.count_local_keys()
        return int(self.counts.sum()) == len(self.keys)

    # -- the address stream --------------------------------------------------------

    def extract_trace(
        self,
        machine: MachineSpec,
        *,
        l2_prefetch: bool = False,
        prefetch_distance: int = 64,
        update_gap_cycles: float = 12.0,
    ) -> ColumnarTrace:
        """The kernel's access stream, per thread, from the actual keys.

        Per key: one 8-byte sequential load from ``keys`` plus a
        load+store pair on ``counts[key]``.  The key loads mostly hit
        (8 keys per 64B line); the count updates are the random traffic
        that pins the L1 MSHR file.
        """
        space = AddressSpace()
        space.add("keys", len(self.keys), 8)
        space.add("counts", self.buckets, 8)
        kinds, gaps = (LOAD, LOAD, STORE), (1.0, update_gap_cycles, 1.0)

        threads = []
        for start, end in partition(len(self.keys), self.threads):
            i = np.arange(start, end)
            bucket = space.addr("counts", self.keys[start:end])
            slots = np.stack([space.addr("keys", i), bucket, bucket], axis=1)
            if not l2_prefetch:
                threads.append(slot_columns(slots, kinds, gaps))
                continue
            # Key i prefetches key i + distance's bucket while that key
            # is still in this thread's range: a four-slot head, then
            # the last ``prefetch_distance`` keys without a prefetch.
            head = min(max(end - prefetch_distance - start, 0), end - start)
            ahead = space.addr("counts", self.keys[i[:head] + prefetch_distance])
            threads.append(
                concat_columns(
                    [
                        slot_columns(
                            np.column_stack([ahead, slots[:head]]),
                            (SWPF_L2,) + kinds,
                            (0.5,) + gaps,
                        ),
                        slot_columns(slots[head:], kinds, gaps),
                    ]
                )
            )
        return columnar_trace(
            threads, routine="count_local_keys", line_bytes=machine.line_bytes
        )
