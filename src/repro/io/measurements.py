"""Measurement ingestion: feed *real* counter data into the analyzer.

The paper's workflow on actual hardware starts from CrayPat/perf
output.  This module lets a downstream user of the library do the same
without touching the simulator:

* :func:`from_csv` — per-routine rows
  (``routine,bandwidth_gbs,prefetch_fraction``) as exported from any
  profiler; strict — the first bad row aborts with its 1-based line
  number and the offending cell;
* :func:`from_csv_degraded` — the same rows in *degraded mode*: bad
  rows are skipped and reported as structured
  :class:`~repro.resilience.quality.DataQualityIssue`\\ s, which
  :func:`repro.core.uncertainty.quality_widened_errors` converts into a
  wider error bar (report-and-widen, never die on the first bad row);
* :func:`from_perf_output` — ``perf stat -x,``-style (CSV) or aligned
  plain output: raw event counts are matched against the vendor's
  native event names (:mod:`repro.counters.events`), converted to bytes
  with the machine's line size, and divided by the elapsed time;
* :func:`analyze_measurements` — batch the results through
  :class:`~repro.core.analyzer.RoutineAnalyzer`.

Only bandwidth-class events are required — the paper's portability
argument — and unknown event lines are ignored rather than rejected, so
real ``perf stat`` dumps paste in unmodified.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.analyzer import AnalysisReport, RoutineAnalyzer
from ..counters.events import CounterEvent, VENDOR_EVENTS
from ..counters.vendor import vendor_for_machine
from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..resilience.quality import DataQualityIssue
from ..units import gb_per_s


@dataclass(frozen=True)
class RoutineMeasurement:
    """One routine's measured bandwidth plus pattern evidence."""

    routine: str
    bandwidth_bytes: float
    prefetch_fraction: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes < 0:
            raise ConfigurationError("bandwidth must be >= 0")
        if not 0.0 <= self.prefetch_fraction <= 1.0:
            raise ConfigurationError("prefetch fraction must be in [0,1]")


def _parse_csv_row(
    row: List[str], line_num: int
) -> RoutineMeasurement:
    """One strict row parse; errors carry line number + offending cell."""
    if len(row) < 3:
        raise ConfigurationError(
            f"line {line_num}: need 3 columns "
            f"(routine,bandwidth_gbs,prefetch_fraction), got {row!r}"
        )
    cells = {"bandwidth_gbs": row[1], "prefetch_fraction": row[2]}
    values: Dict[str, float] = {}
    for column, cell in cells.items():
        try:
            values[column] = float(cell)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {line_num}: column {column!r} needs a number, "
                f"got {cell.strip()!r}"
            ) from exc
        if math.isnan(values[column]):
            raise ConfigurationError(
                f"line {line_num}: column {column!r} is NaN"
            )
    try:
        return RoutineMeasurement(
            routine=row[0].strip(),
            bandwidth_bytes=gb_per_s(values["bandwidth_gbs"]),
            prefetch_fraction=values["prefetch_fraction"],
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"line {line_num}: {exc}") from exc


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _data_rows(text: str) -> Iterator[Tuple[List[str], int]]:
    """``(cells, 1-based line number)`` of every CSV data row.

    Blank lines and ``#`` comments are skipped, and so is a header row
    (non-numeric second column) met before any data row.
    """
    reader = csv.reader(io.StringIO(text))
    saw_data = False
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not saw_data and len(row) >= 3 and not _is_number(row[1]):
            continue  # header row
        saw_data = True
        yield row, reader.line_num


def from_csv(text: str) -> List[RoutineMeasurement]:
    """Parse ``routine,bandwidth_gbs,prefetch_fraction`` rows (strict).

    A leading header row is detected (non-numeric second column before
    any data row) and skipped.  Blank lines and ``#`` comments are
    ignored.  Any other malformed row aborts with a
    :class:`~repro.errors.ConfigurationError` naming the 1-based line
    number and the offending cell; use :func:`from_csv_degraded` to
    survive bad rows instead.
    """
    measurements = [_parse_csv_row(row, line) for row, line in _data_rows(text)]
    if not measurements:
        raise ConfigurationError("no measurement rows found")
    return measurements


def from_csv_degraded(
    text: str,
) -> Tuple[List[RoutineMeasurement], List[DataQualityIssue]]:
    """Degraded-mode CSV ingestion: collect issues instead of dying.

    Every malformed row becomes a
    :class:`~repro.resilience.quality.DataQualityIssue` and the row is
    skipped; parsing always reaches the end of the input.  A short row
    is a ``skipped-row`` issue; any other bad row (a non-numeric or
    NaN cell, an out-of-range value) is a ``bad-cell`` issue.

    Raises only when *no* row survives — an all-bad input is a
    configuration problem, not a data-quality one.
    """
    measurements: List[RoutineMeasurement] = []
    issues: List[DataQualityIssue] = []
    for row, line_num in _data_rows(text):
        location = f"line {line_num}"
        try:
            measurements.append(_parse_csv_row(row, line_num))
        except ConfigurationError as exc:
            kind = "skipped-row" if len(row) < 3 else "bad-cell"
            detail = str(exc)
            prefix = f"{location}: "
            if detail.startswith(prefix):
                detail = detail[len(prefix) :]
            issues.append(
                DataQualityIssue(kind=kind, location=location, detail=detail)
            )
    if not measurements:
        raise ConfigurationError(
            "no measurement rows survived degraded-mode parsing "
            f"({len(issues)} issue(s))"
        )
    return measurements, issues


_PLAIN_LINE = re.compile(r"^\s*([\d,.]+)\s+(\S+)")


def _parse_event_counts(text: str) -> Dict[str, float]:
    """Extract (native event name -> count) from perf-style output.

    Handles both ``perf stat -x,`` CSV (``count,unit,event,...``) and
    the aligned human-readable format (``  1,234,567  EVENT_NAME``).
    Lines that don't parse are skipped.
    """
    counts: Dict[str, float] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "," in stripped and not _PLAIN_LINE.match(line):
            fields = stripped.split(",")
            raw, event = fields[0], None
            for candidate in fields[1:]:
                if candidate and not candidate.replace(".", "").isdigit():
                    event = candidate
                    break
            if event is None:
                continue
        else:
            match = _PLAIN_LINE.match(line)
            if not match:
                continue
            raw, event = match.group(1), match.group(2)
        try:
            value = float(raw.replace(",", ""))
        except ValueError:
            continue
        counts[event.strip()] = counts.get(event.strip(), 0.0) + value
    return counts


#: Events that count toward memory bandwidth, with their traffic class.
_BANDWIDTH_EVENTS = {
    CounterEvent.MEM_READ_LINES: "demand",
    CounterEvent.MEM_WRITE_LINES: "demand",
    CounterEvent.HW_PREFETCH_LINES: "prefetch",
}


def from_perf_output(
    text: str,
    machine: MachineSpec,
    *,
    elapsed_seconds: float,
    routine: str = "kernel",
) -> RoutineMeasurement:
    """Build a measurement from raw perf-style counter output.

    Event names are matched against the machine vendor's native
    spellings; ``*``-suffixed catalog names match as prefixes.
    """
    if elapsed_seconds <= 0:
        raise ConfigurationError("elapsed time must be positive")
    vendor = vendor_for_machine(machine.name)
    natives = VENDOR_EVENTS.get(vendor, ())
    counts = _parse_event_counts(text)
    if not counts:
        raise ConfigurationError("no counter lines recognized in input")

    demand_lines = 0.0
    prefetch_lines = 0.0
    matched = False
    for native in natives:
        kind = _BANDWIDTH_EVENTS.get(native.event)
        if kind is None:
            continue
        pattern = native.native_name
        for event_name, value in counts.items():
            if pattern.endswith("*"):
                hit = event_name.startswith(pattern[:-1])
            else:
                hit = event_name == pattern
            if hit:
                matched = True
                if kind == "prefetch":
                    prefetch_lines += value
                else:
                    demand_lines += value
    if not matched:
        raise ConfigurationError(
            f"no bandwidth events for vendor {vendor!r} found in input; "
            "expected e.g. "
            + ", ".join(
                n.native_name
                for n in natives
                if n.event in _BANDWIDTH_EVENTS
            )
        )
    total_lines = demand_lines + prefetch_lines
    bandwidth = total_lines * machine.line_bytes / elapsed_seconds
    prefetch_fraction = prefetch_lines / total_lines if total_lines else 0.0
    return RoutineMeasurement(
        routine=routine,
        bandwidth_bytes=bandwidth,
        prefetch_fraction=prefetch_fraction,
    )


def analyze_measurements(
    machine: MachineSpec,
    measurements: Sequence[RoutineMeasurement],
    *,
    profile: Optional[LatencyProfile] = None,
) -> List[AnalysisReport]:
    """Run each measurement through the per-routine analyzer."""
    analyzer = RoutineAnalyzer(machine, profile)
    return [
        analyzer.analyze_bandwidth(
            m.bandwidth_bytes,
            routine=m.routine,
            prefetch_fraction=m.prefetch_fraction,
        )
        for m in measurements
    ]
