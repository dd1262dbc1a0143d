"""DET — determinism guard for the simulator and model code.

PR 1's result cache replays :class:`~repro.sim.stats.SimStats` bit for
bit, and the paper-table reproductions assert exact agreement across
runs.  Both properties die silently the moment wall-clock time or
process-global randomness leaks into the simulation path, so inside
:mod:`repro.sim`, :mod:`repro.perfmodel`, and :mod:`repro.workloads`:

* **DET001** — no wall-clock reads (``time.time()``, ``perf_counter()``,
  ``datetime.now()``, …).  Host-side observability metadata (e.g. the
  ``wall_s`` stat) must carry an explicit ``# repro: noqa[DET001]``.
* **DET002** — no process-global RNG (``random.random()``,
  ``random.randrange()``, …) and no *unseeded* ``random.Random()``.
  The same policy covers numpy since the generators vectorized: the
  legacy global API (``np.random.randint()``, ``np.random.seed()``, …)
  is forbidden outright, and ``numpy.random.Generator`` construction
  (``default_rng()``, bit generators like ``PCG64()``) is allowed only
  with an explicit seed argument.  The blessed patterns are an explicit
  ``rng`` parameter seeded from ``TraceSpec.seed`` and forked per
  thread via :func:`repro.workloads.generators.spawn_thread_rng`
  (scalar) or :func:`repro.workloads.generators.spawn_thread_generator`
  (vectorized).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..core import Rule, SourceFile, Violation, register

#: Wall-clock attributes of the ``time`` module.
_TIME_FUNCS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "localtime",
    "gmtime",
}

#: Wall-clock constructors on ``datetime``/``date`` classes.
_DATETIME_FUNCS = {"now", "utcnow", "today"}

#: ``random``-module functions that consume the hidden global state.
_RANDOM_FUNCS = {
    "random",
    "randrange",
    "randint",
    "randbytes",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "seed",
    "getrandbits",
    "triangular",
    "betavariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "lognormvariate",
}

#: ``numpy.random`` module-level functions backed by the hidden legacy
#: global ``RandomState`` (non-exhaustive is fine: any hit is a bug).
_NUMPY_GLOBAL_FUNCS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "seed",
    "get_state",
    "set_state",
    "shuffle",
    "permutation",
    "choice",
    "bytes",
    "uniform",
    "normal",
    "standard_normal",
    "poisson",
    "exponential",
    "beta",
    "gamma",
    "binomial",
    "lognormal",
    "laplace",
    "pareto",
    "weibull",
}

#: ``numpy.random`` bit-generator classes; unseeded construction pulls
#: OS entropy, which is exactly the nondeterminism this rule forbids.
_NUMPY_BIT_GENERATORS = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}

#: Module roots whose imports/aliases the rule tracks.
_TRACKED_ROOTS = ("time", "random", "datetime", "numpy")

#: Package sub-paths the rule guards (deterministic by contract).
_GUARDED = ("repro/sim", "repro/perfmodel", "repro/workloads")


def _module_aliases(tree: ast.Module) -> Dict[str, Set[str]]:
    """Map local name -> set of module origins ('time'/'random'/'datetime').

    Tracks both ``import time as t`` (name ``t`` is the module) and
    ``from time import perf_counter as pc`` (name ``pc`` is a function,
    recorded as ``origin:attr``).
    """
    aliases: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                root = item.name.split(".")[0]
                if root in _TRACKED_ROOTS:
                    aliases.setdefault(item.asname or root, set()).add(root)
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in _TRACKED_ROOTS:
                for item in node.names:
                    # The full module path distinguishes numpy.random
                    # members from numpy top-level ones; for the stdlib
                    # modules it equals the root.
                    aliases.setdefault(item.asname or item.name, set()).add(
                        f"{node.module}:{item.name}"
                    )
    return aliases


@register
class DeterminismRule(Rule):
    """Forbid wall-clock and global-RNG use in deterministic modules."""

    prefix = "DET"
    name = "determinism"
    description = (
        "no wall-clock (DET001) or process-global/unseeded RNG (DET002) "
        "inside repro.sim, repro.perfmodel, or repro.workloads"
    )

    def applies_to(self, path: Path) -> bool:
        """Only the deterministic packages (sim, perfmodel, workloads)."""
        posix = path.as_posix()
        return any(part in posix for part in _GUARDED)

    def check_file(self, source: SourceFile) -> Iterable[Violation]:
        """Flag wall-clock and unseeded-RNG calls in one AST walk."""
        tree = source.tree
        if tree is None:
            return []
        aliases = _module_aliases(tree)
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for rule_id, message in self._call_findings(node, aliases):
                out.append(
                    Violation(
                        path=str(source.path),
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=rule_id,
                        message=message,
                        severity=self.default_severity,
                    )
                )
        return out

    def _call_findings(
        self, node: ast.Call, aliases: Dict[str, Set[str]]
    ) -> Iterator[Tuple[str, str]]:
        func = node.func
        # module.attr() style: time.time(), random.random(), datetime.now()
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            origins = aliases.get(func.value.id, set())
            attr = func.attr
            if "time" in origins and attr in _TIME_FUNCS:
                yield (
                    "DET001",
                    f"wall-clock call time.{attr}() in deterministic module "
                    "(breaks bit-identical replay; noqa host-side metadata "
                    "explicitly)",
                )
            if "random" in origins:
                if attr in _RANDOM_FUNCS:
                    yield (
                        "DET002",
                        f"process-global RNG call random.{attr}() — "
                        "thread a seeded random.Random through an explicit "
                        "rng parameter instead",
                    )
                elif attr == "Random" and not node.args and not node.keywords:
                    yield (
                        "DET002",
                        "unseeded random.Random() — seed it from the trace "
                        "spec (or use workloads.generators.spawn_thread_rng)",
                    )
            # numpy.random members via a module alias: ``import
            # numpy.random as npr`` (origin 'numpy') or ``from numpy
            # import random as npr`` (origin 'numpy:random').
            if "numpy" in origins or "numpy:random" in origins:
                yield from self._numpy_rng_findings(
                    node, attr, f"{func.value.id}.{attr}()"
                )
            # ``import datetime; datetime.date.today()`` has no Name base
            # here (covered by the chained branch below); this one covers
            # ``from datetime import datetime/date`` class aliases.
            if attr in _DATETIME_FUNCS and (
                "datetime" in origins
                or "datetime:datetime" in origins
                or "datetime:date" in origins
            ):
                yield (
                    "DET001",
                    f"wall-clock call {func.value.id}.{attr}() in "
                    "deterministic module",
                )
        # chained module access: datetime.datetime.now()
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DATETIME_FUNCS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and "datetime" in aliases.get(func.value.value.id, set())
        ):
            yield (
                "DET001",
                f"wall-clock call datetime.{func.value.attr}.{func.attr}() "
                "in deterministic module",
            )
        # chained numpy access: np.random.randint(), np.random.default_rng()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and "numpy" in aliases.get(func.value.value.id, set())
        ):
            yield from self._numpy_rng_findings(
                node,
                func.attr,
                f"{func.value.value.id}.random.{func.attr}()",
            )
        # from-imports: perf_counter(), random(), now()
        if isinstance(func, ast.Name):
            for origin in aliases.get(func.id, set()):
                if ":" not in origin:
                    continue
                root, attr = origin.split(":", 1)
                if root == "time" and attr in _TIME_FUNCS:
                    yield (
                        "DET001",
                        f"wall-clock call {func.id}() (= time.{attr}) in "
                        "deterministic module",
                    )
                elif root == "random" and attr in _RANDOM_FUNCS:
                    yield (
                        "DET002",
                        f"process-global RNG call {func.id}() "
                        f"(= random.{attr})",
                    )
                elif (
                    root == "random"
                    and attr == "Random"
                    and not node.args
                    and not node.keywords
                ):
                    yield ("DET002", "unseeded Random() — seed it explicitly")
                elif root == "datetime" and attr in ("datetime", "date"):
                    # ``from datetime import datetime`` then datetime.now()
                    # is caught by the Attribute branch via this alias.
                    continue
                elif root == "numpy.random":
                    # ``from numpy.random import default_rng`` etc.
                    yield from self._numpy_rng_findings(
                        node, attr, f"{func.id}() (= numpy.random.{attr})"
                    )

    def _numpy_rng_findings(
        self, node: ast.Call, attr: str, shown: str
    ) -> Iterator[Tuple[str, str]]:
        """DET002 findings for one ``numpy.random`` member call.

        Legacy global-state functions are always wrong; Generator
        construction (``default_rng`` or a bit-generator class) is fine
        *iff* it receives an explicit seed argument.
        """
        if attr in _NUMPY_GLOBAL_FUNCS:
            yield (
                "DET002",
                f"legacy global numpy RNG call {shown} — use an explicitly "
                "seeded numpy.random.Generator (see "
                "workloads.generators.spawn_thread_generator)",
            )
        elif (
            attr == "default_rng" or attr in _NUMPY_BIT_GENERATORS
        ) and not (node.args or node.keywords):
            yield (
                "DET002",
                f"unseeded {shown} — numpy Generators are allowed only "
                "with an explicit seed (see "
                "workloads.generators.spawn_thread_generator)",
            )
