"""KEY — cache-key purity for the content-addressed sim-result cache.

:mod:`repro.perf.cache` memoizes whole simulations under a SHA-256 of
their physical inputs.  The digest stays correct only while **every**
field of every hashed dataclass is reachable from the digest function;
a newly added field that the digest ignores silently *aliases* cache
entries (two different simulations, one stored result).  Two checks:

* **KEY001** (structural) — walk the dataclass graph actually hashed
  (``SimConfig`` -> ``MachineSpec`` -> ``CacheSpec``/``VectorSpec``/
  ``MemorySpec``) and assert ``_canonical`` emits every field of every
  dataclass as a key.  ``_canonical`` iterates ``dataclasses.fields``
  today, so this passes by construction — and starts failing the day
  someone rewrites it with manual enumeration.
* **KEY002** (behavioral) — the trace side of the key is
  :func:`repro.sim.coltrace.trace_digest`, a manual enumeration (it
  hashes raw array bytes for speed), so structure is not enough: for a
  tiny fixture ``ColumnarTrace``, mutate each dataclass field in turn and
  assert the digest changes.  A field whose mutation leaves the digest
  unchanged is unreachable from the digest; a field the checker cannot
  mutate is reported as a warning so its author extends the mutation
  table rather than shipping an unverifiable key.  Numpy array fields
  are mutated element-wise (length-preserving, so the columnar classes'
  equal-length invariant holds).

Both checks run against the *live* modules, so the rule needs no
source-location heuristics: any drift between the dataclasses and the
digest code is caught on the next ``repro lint``.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Rule, Severity, SourceFile, Violation, register


def _source_location(obj: Any) -> Tuple[str, int]:
    """Best-effort (path, line) of a live function/module for reporting."""
    try:
        path = inspect.getsourcefile(obj) or "<unknown>"
        line = inspect.getsourcelines(obj)[1]
        return path, line
    except (OSError, TypeError):  # repro: noqa[RES001] - source lookup is best-effort
        return "<unknown>", 1


def _mutation_candidates(value: Any) -> List[Any]:
    """Plausible replacement values for one field, in preference order.

    Several are offered because the owning dataclass (or an ancestor in
    the object graph) may reject some via its own validation; the first
    candidate that survives construction all the way up is used.
    """
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, enum.Enum):
        return [m for m in type(value) if m is not value]
    if isinstance(value, np.ndarray):
        # Length-preserving only: the columnar trace classes enforce
        # equal column lengths, so resizing one column can never survive
        # construction.  (Also returns before the generic != filter
        # below, which is ambiguous on arrays.)
        if value.size == 0:
            return []
        if np.issubdtype(value.dtype, np.integer):
            # The %-variant keeps small code domains (AccessKind) valid.
            return [value + 1, (value + 1) % 4]
        if np.issubdtype(value.dtype, np.floating):
            return [value + 1.0, value * 0.5 + 0.25]
        return []
    if isinstance(value, int):
        raw: List[Any] = [value + 1, value + 2, max(0, value - 1), value * 2 + 1]
    elif isinstance(value, float):
        raw = [value + 1.0, value * 0.5 + 0.25]
    elif isinstance(value, str):
        raw = [value + "_mut"]
    elif isinstance(value, tuple) and value:
        raw = [value[:-1], value + (value[-1],)]
    elif value is None:
        raw = [1]
    else:
        raw = []
    return [c for c in raw if c != value]


def _field_mutants(obj: Any) -> Iterator[Tuple[str, List[Any]]]:
    """Yield ``(field_path, candidate_copies)`` for each field of ``obj``.

    Each candidate is a fully reconstructed copy of ``obj`` differing in
    exactly one (possibly nested) field.  Candidates that a dataclass's
    own validation rejects are filtered out at every nesting level, so
    an empty candidate list means the field is unverifiable as-is.
    Tuple-of-dataclass fields recurse into their first element and also
    offer a shortened tuple (the element *count* must be keyed too).
    """

    def _wrap(field_name: str, sub_values: Iterable[Any]) -> List[Any]:
        wrapped = []
        for sub in sub_values:
            try:
                wrapped.append(dataclasses.replace(obj, **{field_name: sub}))
            except Exception:  # repro: noqa[RES001] - probe mutants may not validate
                continue
        return wrapped

    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for sub_path, sub_candidates in _field_mutants(value):
                yield f"{f.name}.{sub_path}", _wrap(f.name, sub_candidates)
            continue
        if (
            isinstance(value, tuple)
            and value
            and dataclasses.is_dataclass(value[0])
            and not isinstance(value[0], type)
        ):
            for sub_path, sub_candidates in _field_mutants(value[0]):
                yield (
                    f"{f.name}[0].{sub_path}",
                    _wrap(f.name, ((sc,) + value[1:] for sc in sub_candidates)),
                )
            if len(value) > 1:
                yield f"len({f.name})", _wrap(f.name, [value[:-1]])
            continue
        yield f.name, _wrap(f.name, _mutation_candidates(value))


def check_canonical_coverage(
    root: Any,
    canonical: Callable[[Any], Any],
    *,
    report_path: str,
    report_line: int,
) -> Iterator[Violation]:
    """KEY001: every dataclass field in ``root``'s graph reaches canonical."""
    stack = [(type(root).__name__, root)]
    seen: set = set()
    while stack:
        label, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if not (dataclasses.is_dataclass(obj) and not isinstance(obj, type)):
            continue
        try:
            doc = canonical(obj)
        except Exception as exc:
            yield Violation(
                path=report_path,
                line=report_line,
                col=0,
                rule_id="KEY001",
                message=f"_canonical failed on {label}: {exc}",
            )
            continue
        if not isinstance(doc, dict):
            yield Violation(
                path=report_path,
                line=report_line,
                col=0,
                rule_id="KEY001",
                message=(
                    f"_canonical({label}) is not a field dict — cache keys "
                    "cannot be audited"
                ),
            )
            continue
        for f in dataclasses.fields(obj):
            if f.name not in doc:
                yield Violation(
                    path=report_path,
                    line=report_line,
                    col=0,
                    rule_id="KEY001",
                    message=(
                        f"{label}.{f.name} is missing from the canonical "
                        "cache-key form — new entries would alias old ones"
                    ),
                )
            value = getattr(obj, f.name)
            children = (
                value
                if isinstance(value, tuple)
                else (value,)
            )
            for child in children:
                if dataclasses.is_dataclass(child) and not isinstance(child, type):
                    stack.append((f"{label}.{f.name}", child))


def check_digest_sensitivity(
    fixture: Any,
    digest: Callable[[Any], str],
    *,
    report_path: str,
    report_line: int,
    rule_id: str = "KEY002",
) -> Iterator[Violation]:
    """KEY002: mutating any field of ``fixture`` must change ``digest``."""
    try:
        baseline = digest(fixture)
    except Exception as exc:
        yield Violation(
            path=report_path,
            line=report_line,
            col=0,
            rule_id=rule_id,
            message=f"digest failed on the audit fixture: {exc}",
        )
        return
    for field_path, candidates in _field_mutants(fixture):
        if not candidates:
            yield Violation(
                path=report_path,
                line=report_line,
                col=0,
                rule_id=rule_id,
                severity=Severity.WARNING,
                message=(
                    f"{type(fixture).__name__}.{field_path} could not be "
                    "mutated for the aliasing audit — extend "
                    "_mutation_candidates so the field stays verifiable"
                ),
            )
            continue
        mutated_digest: Optional[str] = None
        for mutant in candidates:
            try:
                mutated_digest = digest(mutant)
                break
            except Exception:  # repro: noqa[RES001] - try the next mutant
                continue
        if mutated_digest is None:
            yield Violation(
                path=report_path,
                line=report_line,
                col=0,
                rule_id=rule_id,
                severity=Severity.WARNING,
                message=(
                    f"digest failed on every mutation of {field_path}; "
                    "field unverifiable"
                ),
            )
            continue
        if mutated_digest == baseline:
            yield Violation(
                path=report_path,
                line=report_line,
                col=0,
                rule_id=rule_id,
                message=(
                    f"{type(fixture).__name__}.{field_path} does not change "
                    "the cache digest — entries differing only in this "
                    "field would alias"
                ),
            )


@register
class CacheKeyRule(Rule):
    """Audit the live sim-result cache key for field coverage."""

    prefix = "KEY"
    name = "cache-key-purity"
    description = (
        "every field of the dataclasses hashed by perf/cache.py must reach "
        "the digest (KEY001 structural, KEY002 behavioral)"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Violation]:
        """Run the structural and behavioral cache-key audits."""
        # Only audit when the cache module is part of the linted tree (or
        # no repro sources are involved at all, e.g. direct rule tests).
        if sources and not any(
            "repro/" in str(s.path).replace("\\", "/") for s in sources
        ):
            return []
        try:
            from ...machines.registry import get_machine
            from ...perf import cache as cache_mod
            from ...sim import coltrace as coltrace_mod
            from ...sim.coltrace import trace_from_addresses
            from ...sim.hierarchy import SimConfig
        except Exception as exc:  # pragma: no cover - import breakage
            return [
                Violation(
                    path="src/repro/perf/cache.py",
                    line=1,
                    col=0,
                    rule_id="KEY001",
                    message=f"cannot import cache machinery for audit: {exc}",
                )
            ]
        out: List[Violation] = []

        config = SimConfig(machine=get_machine("skl"), sim_cores=1)
        path, line = _source_location(cache_mod._canonical)
        out.extend(
            check_canonical_coverage(
                config, cache_mod._canonical, report_path=path, report_line=line
            )
        )

        trace = trace_from_addresses(
            [[0, 64], [128]], routine="lint-audit", line_bytes=64, gap_cycles=1.0
        )
        path, line = _source_location(coltrace_mod.trace_digest)
        out.extend(
            check_digest_sensitivity(
                trace,
                coltrace_mod.trace_digest,
                report_path=path,
                report_line=line,
            )
        )

        # Behavioral spot-check for the batch-stepping flag: it selects
        # an execution strategy whose results are bit-identical, which
        # makes it exactly the field a future "doesn't affect results"
        # cleanup might drop from the key — but entries must still never
        # alias across the flag (wall_s/batch_accesses differ, and the
        # equivalence guarantee itself must stay falsifiable from cached
        # data).
        path, line = _source_location(cache_mod.digest_for)
        flipped = dataclasses.replace(config, batch=not config.batch)
        if cache_mod.digest_for(trace, config) == cache_mod.digest_for(
            trace, flipped
        ):
            out.append(
                Violation(
                    path=path,
                    line=line,
                    col=0,
                    rule_id="KEY002",
                    message=(
                        "SimConfig.batch does not change the cache digest "
                        "— batch and event-path entries would alias"
                    ),
                )
            )
        return out
