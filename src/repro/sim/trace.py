"""Access records: the vocabulary of the simulator's traces.

An access carries an address, a *kind* (demand load/store or a software
prefetch targeting L1 or L2 — the paper's ISx optimization), and the
number of core cycles of independent work preceding it (which models
arithmetic intensity and instruction-level work between memory
operations).

Traces themselves are columnar (:mod:`repro.sim.coltrace`): per thread,
parallel arrays of addresses, :class:`AccessKind` codes and gaps.
:class:`Access` is the read-only per-access view those arrays produce
on request.  The workload generators in :mod:`repro.workloads` emit a
few tens of thousands of accesses that are *statistically* faithful to
each paper routine (random for ISx, many unit-stride streams for
MiniGhost/HPCG, gathers for PENNANT, sparse for CoMD, short bursts for
SNAP) rather than full program traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import TraceError


class AccessKind(enum.Enum):
    """What kind of memory operation an access is."""

    LOAD = "load"
    STORE = "store"
    #: Software prefetch into L1 (occupies L1 and L2 MSHRs on the way).
    SWPF_L1 = "swpf_l1"
    #: Software prefetch into L2 only (paper's ISx optimization: uses the
    #: otherwise-idle L2 MSHRs, bypassing the L1 MSHR file).
    SWPF_L2 = "swpf_l2"

    @property
    def is_prefetch(self) -> bool:
        """Is this a software-prefetch hint?"""
        return self in (AccessKind.SWPF_L1, AccessKind.SWPF_L2)

    @property
    def is_demand(self) -> bool:
        """Is this a demand load/store?"""
        return not self.is_prefetch


@dataclass(frozen=True)
class Access:
    """One memory operation: a read-only view of one row of a trace.

    Attributes
    ----------
    addr:
        Byte address.
    kind:
        Demand load/store or software prefetch.
    gap_cycles:
        Core cycles of independent (non-memory) work the thread performs
        before issuing this access.  Zero means back-to-back.
    """

    addr: int
    kind: AccessKind = AccessKind.LOAD
    gap_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise TraceError(f"negative address {self.addr}")
        if self.gap_cycles < 0:
            raise TraceError(f"negative gap {self.gap_cycles}")
