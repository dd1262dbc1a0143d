"""BARRIER — deferred-replay barriers before scalar residency reads.

The batch fast path queues :meth:`touch_batch` runs on
:class:`~repro.sim.cache.CacheArray` instead of reordering LRU lists
immediately; the queued runs replay on the next :meth:`flush_batch`
(or any self-flushing mutator).  Between a
touch and its flush, the *membership* of each set is exact but the
*recency order* is stale — so any scalar read of residency state taken
in that window silently observes pre-batch LRU order.  ``probe_batch``
is exempt (membership-only by contract), but scalar reads are not:

* **BARRIER001** — a scalar residency read (``.probe(...)``,
  ``.resident_lines()``, ``.lru_state()``, or a direct ``._sets``
  peek) whose receiver is not provably flushed on **every** path from
  function entry.  A receiver is flushed by ``.flush_batch()`` or by
  the self-flushing mutators ``.access()`` / ``.fill()`` /
  ``.invalidate()``; the fact is killed by ``.touch_batch()`` and by
  rebinding the receiver's root name.

The check is a forward must-facts dataflow pass (branches intersect,
loop bodies run to a conservative two-pass fixpoint, ``except``
handlers assume nothing), built on
:class:`repro.analysis.core.FunctionDataflow`.  It is intraprocedural:
a flush performed by a callee does not count, which is the intended
contract — the barrier must be visible in the function that reads.
The batch machinery itself (``cache.py``, ``batch.py``) is out of
scope: those files *implement* the pending queue and must read
around it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

from ..core import FunctionDataflow, Rule, SourceFile, Violation, iter_functions, register

#: Method calls that replay every pending batched touch on the receiver.
_FLUSHING_CALLS = frozenset({"flush_batch", "access", "fill", "invalidate"})

#: Method calls that enqueue deferred touches (stale LRU until flushed).
_STALING_CALLS = frozenset({"touch_batch"})

#: Scalar residency reads spelled as method calls.
_READ_CALLS = frozenset({"probe", "resident_lines", "lru_state"})

#: Scalar residency reads spelled as attribute access.
_READ_ATTRS = frozenset({"_sets"})

#: Files that implement the deferred-replay machinery itself.
_EXEMPT_FILES = frozenset({"cache.py", "batch.py"})


def _root_name(node: ast.expr) -> Optional[str]:
    """The Name at the base of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _BarrierFlow(FunctionDataflow):
    """Tracks which receivers are flush-clean; records unguarded reads."""

    def __init__(self) -> None:
        self.findings: Set[Tuple[int, int, str]] = set()

    def flow_expr(self, node: ast.expr, facts: Set[object]) -> None:
        # Walk the whole expression tree: reads hide in call arguments,
        # boolean operands, comprehension conditions, ...
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                receiver = ast.unparse(sub.func.value)
                attr = sub.func.attr
                if attr in _READ_CALLS:
                    self._check_read(sub, receiver, f"{attr}()", facts)
                elif attr in _FLUSHING_CALLS:
                    facts.add(receiver)
                elif attr in _STALING_CALLS:
                    facts.discard(receiver)
            elif isinstance(sub, ast.Attribute) and sub.attr in _READ_ATTRS:
                # Skip the Attribute node serving as a call's func (the
                # Call branch above already classified it).
                if isinstance(sub.ctx, ast.Load):
                    self._check_read(sub, ast.unparse(sub.value), sub.attr, facts)

    def flow_bind(self, target: ast.expr, facts: Set[object]) -> None:
        root = _root_name(target)
        if root is not None:
            stale = [f for f in facts if isinstance(f, str) and _fact_root(f) == root]
            for fact in stale:
                facts.discard(fact)

    def _check_read(
        self, node: ast.AST, receiver: str, shown: str, facts: Set[object]
    ) -> None:
        if receiver not in facts:
            self.findings.add(
                (
                    node.lineno,
                    node.col_offset,
                    f"scalar residency read {receiver}.{shown} without a "
                    f"deferred-replay barrier: call {receiver}.flush_batch() "
                    "on every path from function entry first (batched "
                    "touch_batch runs leave LRU order stale until replayed)",
                )
            )


def _fact_root(fact: str) -> str:
    """Root identifier of a receiver string ('self.cores[i].l1' -> 'self')."""
    for i, ch in enumerate(fact):
        if not (ch.isalnum() or ch == "_"):
            return fact[:i]
    return fact


@register
class BarrierRule(Rule):
    """Require flush_batch() before scalar residency reads in repro.sim."""

    prefix = "BARRIER"
    name = "replay-barrier"
    description = (
        "scalar residency reads (.probe/.resident_lines/.lru_state) "
        "in repro.sim must be preceded by flush_batch() "
        "on all paths (BARRIER001)"
    )

    def applies_to(self, path: Path) -> bool:
        """Simulator package only, minus the batch machinery itself."""
        return "repro/sim" in path.as_posix() and path.name not in _EXEMPT_FILES

    def check_file(self, source: SourceFile) -> Iterable[Violation]:
        """Run the must-flushed dataflow over every scope in the file."""
        tree = source.tree
        if tree is None:
            return []
        flow = _BarrierFlow()
        flow.analyze(tree.body)
        for func in iter_functions(tree):
            flow.analyze(func.body)
        out: List[Violation] = []
        for line, col, message in sorted(flow.findings):
            out.append(
                Violation(
                    path=str(source.path),
                    line=line,
                    col=col,
                    rule_id="BARRIER001",
                    message=message,
                    severity=self.default_severity,
                )
            )
        return out
