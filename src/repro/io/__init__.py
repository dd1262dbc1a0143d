"""I/O: measurement parsers and on-disk trace files."""

from .atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_writer,
)
from .measurements import (
    RoutineMeasurement,
    analyze_measurements,
    from_csv,
    from_csv_degraded,
    from_perf_output,
)
from .tracefile import (
    TRACE_FILE_FORMAT,
    TRACE_FILE_VERSION,
    load_trace,
    save_trace,
)

__all__ = [
    "RoutineMeasurement",
    "TRACE_FILE_FORMAT",
    "TRACE_FILE_VERSION",
    "analyze_measurements",
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_writer",
    "from_csv",
    "from_csv_degraded",
    "from_perf_output",
    "load_trace",
    "save_trace",
]
