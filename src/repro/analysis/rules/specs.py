"""SPEC — physical-invariant audit of the machine registry.

The machine specs are the single source of architectural truth (DESIGN
§machines): every recipe verdict, roofline ceiling, and simulated MSHR
file reads them.  A registry entry that is *internally* inconsistent
poisons everything downstream while each individual number still looks
plausible.  This semantic pass instantiates every registered machine
and asserts paper-grounded invariants:

* **SPEC001** — both MSHR files are non-empty (``mshrs > 0``): a
  zero-entry file makes Little's law (paper Eq. 1/2) degenerate.
* **SPEC002** — the cache line size is a power of two (address-to-line
  mapping in the simulator shifts, and real hardware agrees).
* **SPEC003** — the claimed streams-achievable bandwidth is actually
  deliverable through the L2 MSHR file at best-case latency:
  ``achievable_bw <= cores x L2_mshrs x line / lat_min`` (paper Eq. 2
  solved for bandwidth).  A spec violating this promises bandwidth its
  own concurrency bookkeeping cannot sustain.

The §IV-G concept parts (``hbm2e``, ``hbm3``) *deliberately* model the
MSHR-bound future — their achievable bandwidth exceeds the Eq. 2
ceiling by design — so SPEC003 reports them as warnings, not errors.
"""

from __future__ import annotations

import inspect
from typing import Any, Iterable, List, Sequence, Tuple

from ...units import to_gb_per_s
from ..core import Rule, Severity, SourceFile, Violation, register

#: Machines whose achievable bandwidth intentionally exceeds the L2-MSHR
#: ceiling (the paper's §IV-G "MSHRQ fills before peak bandwidth"
#: regime).  SPEC003 downgrades these to warnings.
MSHR_BOUND_BY_DESIGN = frozenset({"hbm2e", "hbm3"})


def _factory_location(name: str) -> Tuple[str, int]:
    """(path, line) of the registered factory for ``name``, best effort."""
    try:
        from ...machines import registry

        factory = registry._FACTORIES[name]
        path = inspect.getsourcefile(factory) or "<registry>"
        line = inspect.getsourcelines(factory)[1]
        return path, line
    except Exception:  # repro: noqa[RES001] - source lookup is best-effort
        return "<registry>", 1


def check_machine(
    machine: Any,
    *,
    report_path: str = "<registry>",
    report_line: int = 1,
    mshr_bound_ok: bool = False,
) -> Iterable[Violation]:
    """Audit one :class:`~repro.machines.spec.MachineSpec` instance."""
    out: List[Violation] = []

    def _emit(rule_id: str, message: str, severity: Severity) -> None:
        out.append(
            Violation(
                path=report_path,
                line=report_line,
                col=0,
                rule_id=rule_id,
                message=f"machine {machine.name!r}: {message}",
                severity=severity,
            )
        )

    for cache in (machine.l1, machine.l2):
        if cache.mshrs <= 0:
            _emit(
                "SPEC001",
                f"L{cache.level} MSHR count is {cache.mshrs}; Little's-law "
                "occupancy needs a positive MSHR file",
                Severity.ERROR,
            )

    line_bytes = machine.line_bytes
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        _emit(
            "SPEC002",
            f"cache line size {line_bytes} is not a power of two",
            Severity.ERROR,
        )

    # Eq. 2 ceiling at the machine's best-case (least-loaded) latency:
    # the lowest point of its latency curve.
    lat_min = min(lat for _, lat in machine.latency_calibration)
    if lat_min > 0 and machine.l2.mshrs > 0:
        ceiling = machine.max_bw_from_mshrs(2, lat_min)
        achievable = machine.memory.achievable_bw_bytes
        if achievable > ceiling:
            severity = Severity.WARNING if mshr_bound_ok else Severity.ERROR
            note = (
                " (declared MSHR-bound by design, paper §IV-G)"
                if mshr_bound_ok
                else ""
            )
            _emit(
                "SPEC003",
                f"achievable bandwidth {to_gb_per_s(achievable):.0f} GB/s "
                f"exceeds the Eq. 2 L2-MSHR ceiling "
                f"{to_gb_per_s(ceiling):.0f} GB/s "
                f"({machine.active_cores} cores x {machine.l2.mshrs} MSHRs x "
                f"{line_bytes} B / {lat_min:.0f} ns){note}",
                severity,
            )
    return out


@register
class SpecConsistencyRule(Rule):
    """Audit every registered machine's physical invariants."""

    prefix = "SPEC"
    name = "spec-consistency"
    description = (
        "registry machines must have positive MSHR files (SPEC001), "
        "power-of-two lines (SPEC002), and Eq.2-consistent achievable "
        "bandwidth (SPEC003)"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Violation]:
        """Validate every registered machine spec against the paper model."""
        if sources and not any(
            "repro/" in str(s.path).replace("\\", "/") for s in sources
        ):
            return []
        try:
            from ...machines.registry import get_machine, machine_names
        except Exception as exc:  # pragma: no cover - import breakage
            return [
                Violation(
                    path="src/repro/machines/registry.py",
                    line=1,
                    col=0,
                    rule_id="SPEC001",
                    message=f"cannot import machine registry for audit: {exc}",
                )
            ]
        out: List[Violation] = []
        for name in machine_names():
            try:
                machine = get_machine(name)
            except Exception as exc:
                path, line = _factory_location(name)
                out.append(
                    Violation(
                        path=path,
                        line=line,
                        col=0,
                        rule_id="SPEC001",
                        message=f"machine {name!r} fails to construct: {exc}",
                    )
                )
                continue
            path, line = _factory_location(name)
            out.extend(
                check_machine(
                    machine,
                    report_path=path,
                    report_line=line,
                    mshr_bound_ok=name in MSHR_BOUND_BY_DESIGN,
                )
            )
        return out
