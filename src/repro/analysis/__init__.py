"""``repro.analysis`` — reprolint, the repo's domain-aware lint engine.

Generic linters cannot see this project's load-bearing invariants:
determinism of the simulation path (bit-identical cache replay), unit
discipline (every ``1e9`` belongs to :mod:`repro.units`), cache-key
purity (every hashed dataclass field must reach the digest), slots
hygiene on the hot path, and physical consistency of the machine
registry.  ``reprolint`` checks all five mechanically; run it as
``repro lint [paths]`` or through :class:`LintRunner`.

See ``docs/LINTING.md`` for rule-by-rule rationale, the
``# repro: noqa[RULE-ID]`` suppression syntax, and how to add a rule.

The package also holds the runtime sanitizer
(:mod:`repro.analysis.sanitizer`, see ``docs/SANITIZER.md``) and its
``REPRO_SANITIZE`` switch (:mod:`repro.analysis.sanitize_flag`).  This
``__init__`` imports neither them nor the lint engine: the names below
resolve on first use, so a simulation that only asks whether it is
sanitized never loads the lint rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .core import (
        FunctionDataflow,
        LintError,
        LintResult,
        LintRunner,
        Rule,
        Severity,
        SourceFile,
        Violation,
        all_rules,
        get_rule,
        iter_functions,
        iter_python_files,
        register,
    )
    from .reporters import render_json, render_text, to_json_doc

__all__ = [
    "FunctionDataflow",
    "LintError",
    "LintResult",
    "LintRunner",
    "Rule",
    "Severity",
    "SourceFile",
    "Violation",
    "all_rules",
    "get_rule",
    "iter_functions",
    "iter_python_files",
    "register",
    "render_json",
    "render_text",
    "to_json_doc",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "core": (
            "FunctionDataflow",
            "LintError",
            "LintResult",
            "LintRunner",
            "Rule",
            "Severity",
            "SourceFile",
            "Violation",
            "all_rules",
            "get_rule",
            "iter_functions",
            "iter_python_files",
            "register",
        ),
        "reporters": (
            "render_json",
            "render_text",
            "to_json_doc",
        ),
    },
)
