"""Performance-counter facade: vendor events, Table I visibility, counter sessions."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .events import CounterEvent, NativeEvent, VENDOR_EVENTS, events_supported
    from .session import LATENCY_THRESHOLDS, CounterReading, CounterSession
    from .vendor import (
        TABLE1_ROW_OF,
        VendorVisibility,
        Visibility,
        table1_matrix,
        vendor_for_machine,
        visibility_for,
    )

__all__ = [
    "CounterEvent",
    "CounterReading",
    "CounterSession",
    "LATENCY_THRESHOLDS",
    "NativeEvent",
    "TABLE1_ROW_OF",
    "VENDOR_EVENTS",
    "VendorVisibility",
    "Visibility",
    "events_supported",
    "table1_matrix",
    "vendor_for_machine",
    "visibility_for",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "events": (
            "CounterEvent",
            "NativeEvent",
            "VENDOR_EVENTS",
            "events_supported",
        ),
        "session": (
            "LATENCY_THRESHOLDS",
            "CounterReading",
            "CounterSession",
        ),
        "vendor": (
            "TABLE1_ROW_OF",
            "VendorVisibility",
            "Visibility",
            "table1_matrix",
            "vendor_for_machine",
            "visibility_for",
        ),
    },
)
