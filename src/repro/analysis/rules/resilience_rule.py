"""RES — resilience hygiene: no silent exception swallows.

The pipeline has one sanctioned place to absorb failure: the
:mod:`repro.resilience` package, whose fault injector damages
sim-cache entries on purpose.  Everywhere else — the
:func:`repro.perf.parallel.fan_out` pool included, where an item's
exception propagates unchanged — a handler that catches a broad
exception class and silently discards it hides exactly the failures
the resilience layer exists to surface:

* **RES001** — a ``try``/``except`` handler that catches a broad type
  (bare ``except``, ``Exception``, ``BaseException``) or the
  ever-tempting ``OSError``/``IOError`` and whose body merely discards
  control (``pass``, ``...``, ``continue``, ``break``, or a plain
  ``return``) without re-raising, warning, logging, or consulting the
  exception.  Genuine best-effort sites (a quarantine rename, a temp
  file cleanup) must carry an explicit
  ``# repro: noqa[RES001] - <why>`` so the suppression is auditable.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List

from ..core import Rule, SourceFile, Violation, register

#: Exception names whose silent discard is flagged.  Narrow domain
#: types (``TraceError``, ``KeyError``...) are a deliberate decision by
#: the author; these broad ones are where real failures go to die.
_BROAD_TYPES = {"Exception", "BaseException", "OSError", "IOError"}

#: Sub-paths sanctioned to absorb failures (the resilience layer itself).
_SANCTIONED = ("repro/resilience/",)


def _caught_broad(handler: ast.ExceptHandler) -> bool:
    """Does this handler catch one of the broad exception types?"""
    node = handler.type
    if node is None:  # bare ``except:``
        return True
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in types:
        if isinstance(item, ast.Name) and item.id in _BROAD_TYPES:
            return True
        if isinstance(item, ast.Attribute) and item.attr in _BROAD_TYPES:
            return True
    return False


def _is_silent_discard(handler: ast.ExceptHandler) -> bool:
    """Is the handler body pure control-flow with no handling evidence?

    ``pass``/``...``/``continue``/``break`` and plain value returns
    discard the failure; any other statement (a ``raise``, a
    ``warnings.warn`` or logger call, bookkeeping on a counter, use of
    the bound exception) counts as handling.
    """
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ``...``
        if isinstance(stmt, ast.Return) and _returns_plain_value(stmt, handler):
            continue
        return False
    return True


def _returns_plain_value(stmt: ast.Return, handler: ast.ExceptHandler) -> bool:
    """A return that never consults the caught exception."""
    if stmt.value is None or handler.name is None:
        return True
    return not any(
        isinstance(node, ast.Name) and node.id == handler.name
        for node in ast.walk(stmt.value)
    )


def _describe(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "bare except"
    return f"except {ast.unparse(handler.type)}"


@register
class ResilienceHygieneRule(Rule):
    """Forbid silent broad-exception swallows outside the resilience layer."""

    prefix = "RES"
    name = "resilience-hygiene"
    description = (
        "no silent except Exception/OSError swallows (RES001) outside "
        "repro.resilience"
    )

    def applies_to(self, path: Path) -> bool:
        """Library code only; the resilience layer itself is sanctioned."""
        posix = path.as_posix()
        if "repro/" not in posix or "tests/" in posix:
            return False
        return not any(part in posix for part in _SANCTIONED)

    def check_file(self, source: SourceFile) -> Iterable[Violation]:
        """Flag broad handlers whose body silently discards the failure."""
        tree = source.tree
        if tree is None:
            return []
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not (_caught_broad(node) and _is_silent_discard(node)):
                continue
            out.append(
                Violation(
                    path=str(source.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id="RES001",
                    message=(
                        f"{_describe(node)} silently swallows the failure — "
                        "re-raise, warn, or record it (degraded-mode paths "
                        "collect DataQualityIssues); genuinely best-effort "
                        "sites need '# repro: noqa[RES001] - <why>'"
                    ),
                    severity=self.default_severity,
                )
            )
        return out
