"""Vendor visibility matrix — the reproduction of paper Table I.

The paper's Table I summarizes "extent of visibility into specific
events across processor vendors": breakdown of stalls, L1/L2-MSHRQ-full
stalls, and memory latency.  Here the matrix is *derived* from the
native event lists in :mod:`repro.counters.events`, so the table stays
consistent with what the counter facade actually enforces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping

from .events import CounterEvent, events_supported


class Visibility(enum.Enum):
    """How much a vendor exposes of a capability (Table I vocabulary)."""

    YES = "Yes"
    LIMITED = "Limited"
    VERY_LIMITED = "Very limited"
    NO = "No"

    @property
    def available(self) -> bool:
        """Whether the capability exists at all on this vendor."""
        return self is not Visibility.NO


@dataclass(frozen=True)
class VendorVisibility:
    """One Table I row."""

    vendor: str
    stall_breakdown: Visibility
    l1_mshrq_full_stalls: Visibility
    l2_mshrq_full_stalls: Visibility
    memory_latency: Visibility


#: Qualitative judgments the paper makes that are not derivable from the
#: event lists alone (e.g. "Limited" vs "Very limited" stall breakdowns).
_STALL_BREAKDOWN: Mapping[str, Visibility] = {
    "intel-skl": Visibility.LIMITED,
    "intel-knl": Visibility.LIMITED,
    "amd": Visibility.LIMITED,
    "cavium": Visibility.VERY_LIMITED,
    "fujitsu": Visibility.LIMITED,
}

_MEMORY_LATENCY: Mapping[str, Visibility] = {
    "intel-skl": Visibility.LIMITED,  # PEBS latency bins, with caveats
    "intel-knl": Visibility.LIMITED,
    "amd": Visibility.LIMITED,  # IBS; old avg-L2-latency support withdrawn
    "cavium": Visibility.NO,
    "fujitsu": Visibility.NO,
}

#: Paper Table I merges Intel parts into one row; map vendor ids to rows.
TABLE1_ROW_OF: Mapping[str, str] = {
    "intel-skl": "Intel",
    "intel-knl": "Intel",
    "amd": "AMD",
    "cavium": "Cavium",
    "fujitsu": "Fujitsu",
}


def visibility_for(vendor: str) -> VendorVisibility:
    """Derive the Table I row for one vendor id."""
    supported = events_supported(vendor)
    l1 = (
        Visibility.YES
        if CounterEvent.L1_MSHR_FULL_STALLS in supported
        else Visibility.NO
    )
    l2 = (
        Visibility.YES
        if CounterEvent.L2_MSHR_FULL_STALLS in supported
        else Visibility.NO
    )
    return VendorVisibility(
        vendor=vendor,
        stall_breakdown=_STALL_BREAKDOWN.get(vendor, Visibility.VERY_LIMITED),
        l1_mshrq_full_stalls=l1,
        l2_mshrq_full_stalls=l2,
        memory_latency=_MEMORY_LATENCY.get(vendor, Visibility.NO),
    )


def table1_matrix() -> Dict[str, VendorVisibility]:
    """The full Table I, keyed by the paper's row labels."""
    out: Dict[str, VendorVisibility] = {}
    for vendor, row_label in TABLE1_ROW_OF.items():
        row = visibility_for(vendor)
        if row_label in out:
            # Intel row: keep the weaker visibility of the two parts so
            # the row reflects what is portable across the vendor.
            prev = out[row_label]
            row = VendorVisibility(
                vendor=row_label,
                stall_breakdown=_weaker(prev.stall_breakdown, row.stall_breakdown),
                l1_mshrq_full_stalls=_weaker(
                    prev.l1_mshrq_full_stalls, row.l1_mshrq_full_stalls
                ),
                l2_mshrq_full_stalls=_weaker(
                    prev.l2_mshrq_full_stalls, row.l2_mshrq_full_stalls
                ),
                memory_latency=_weaker(prev.memory_latency, row.memory_latency),
            )
        else:
            row = VendorVisibility(
                vendor=row_label,
                stall_breakdown=row.stall_breakdown,
                l1_mshrq_full_stalls=row.l1_mshrq_full_stalls,
                l2_mshrq_full_stalls=row.l2_mshrq_full_stalls,
                memory_latency=row.memory_latency,
            )
        out[row_label] = row
    return out


_ORDER = (
    Visibility.NO,
    Visibility.VERY_LIMITED,
    Visibility.LIMITED,
    Visibility.YES,
)


def _weaker(a: Visibility, b: Visibility) -> Visibility:
    return a if _ORDER.index(a) <= _ORDER.index(b) else b


def vendor_for_machine(machine_name: str) -> str:
    """Map a machine name to its counter-vendor id."""
    mapping = {"skl": "intel-skl", "knl": "intel-knl", "a64fx": "fujitsu"}
    return mapping.get(machine_name, machine_name)
