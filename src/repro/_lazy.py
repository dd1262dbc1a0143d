"""Lazy package namespaces (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names makes every ``import repro.<pkg>.<anything>`` pay for the whole
package, numpy and the simulator included.  :func:`lazy_namespace`
builds the module-level ``__getattr__``/``__dir__`` pair that imports a
submodule only when one of its names is first read, then stores the
value on the package so later reads are plain attribute lookups.

Each package lists the same imports under ``if TYPE_CHECKING:`` so
static checkers still see the names and their types;
``tests/test_import_order.py`` keeps that block, ``__all__`` and the
export map in step.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_namespace(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``exports``.

    ``exports`` maps each submodule, relative to ``package``, to the
    public names it provides.  Reading any other missing name raises
    :class:`AttributeError`, as for a plain module.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
