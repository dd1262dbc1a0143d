"""Optimization transforms over workload states.

A :class:`WorkloadState` is the analytic description of one *version* of
a routine on one machine (the paper's "Source" column): how much MLP the
code can express per core, how much memory traffic it moves relative to
the base version, which MSHR file binds it, and how many SMT ways it
runs.  A :class:`TransformEffect` describes what one optimization does
to that state:

* ``demand_factor`` / ``demand_absolute`` — change in expressible MLP
  (vectorization widens the independent-request window; SMT multiplies
  request sources per core; L2 software prefetch raises it a lot by
  engaging the idle L2 MSHRs),
* ``traffic_factor`` — change in *effective* memory traffic per unit of
  work (tiling cuts it via reuse; SMT can inflate it via cache
  contention — the paper observes exactly this on MiniGhost and SNAP),
* ``shift_binding_to`` — the ISx move: L2 software prefetching shifts
  the binding MSHR file from L1 to L2,
* ``smt_ways`` — thread count after the transform.

Effects are *workload- and machine-specific* (a gather loop vectorizes
very differently from a bucket-count loop); each workload module in
:mod:`repro.workloads` carries its own effect table with the paper's
reasoning attached.  The named steps (``vectorize``, ``smt2``, ``smt4``,
``l2_prefetch``, ``sw_prefetch``, ``loop_tiling``, ...) map onto the
recipe's :class:`~repro.core.optimizations.OptimizationKind` so recipe
predictions can be checked against the steps' measured outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

from ..core.classify import AccessPattern
from ..core.optimizations import OptimizationKind
from ..errors import OptimizationError

#: Step name → (recipe optimization kind, paper-style label fragment).
STEP_INFO: Mapping[str, Tuple[OptimizationKind, str]] = {
    "vectorize": (OptimizationKind.VECTORIZATION, "vect"),
    "smt2": (OptimizationKind.SMT, "2-ht"),
    "smt4": (OptimizationKind.SMT, "4-ht"),
    "sw_prefetch": (OptimizationKind.SW_PREFETCH_L1, "pref"),
    "l2_prefetch": (OptimizationKind.SW_PREFETCH_L2, "l2-pref"),
    "loop_tiling": (OptimizationKind.LOOP_TILING, "tiling"),
    "unroll_and_jam": (OptimizationKind.UNROLL_AND_JAM, "unroll-jam"),
    "loop_fusion": (OptimizationKind.LOOP_FUSION, "fusion"),
    "loop_distribution": (OptimizationKind.LOOP_DISTRIBUTION, "distribution"),
}


def kind_of_step(step: str) -> OptimizationKind:
    """Recipe kind for a named transform step."""
    try:
        return STEP_INFO[step][0]
    except KeyError:
        raise OptimizationError(f"unknown optimization step {step!r}") from None


#: Recipe kind -> the one named step that realizes it (``STEP_INFO``
#: inverted); SMT has a step per thread count instead.
_STEP_OF_KIND: Mapping[OptimizationKind, str] = {
    kind: step
    for step, (kind, _) in STEP_INFO.items()
    if kind is not OptimizationKind.SMT
}


def step_for_kind(
    kind: OptimizationKind, state: WorkloadState, max_smt_ways: int
) -> Optional[str]:
    """Named step that realizes ``kind`` on ``state`` (inverse of
    :func:`kind_of_step`).

    SMT doubles the state's thread count; ``None`` when that exceeds
    ``max_smt_ways``.
    """
    if kind is OptimizationKind.SMT:
        ways = 2 * state.smt_ways
        return f"smt{ways}" if ways <= max_smt_ways else None
    return _STEP_OF_KIND[kind]


def label_of_step(step: str) -> str:
    """Paper-style label fragment for a step ('vect', '2-ht', ...)."""
    try:
        return STEP_INFO[step][1]
    except KeyError:
        raise OptimizationError(f"unknown optimization step {step!r}") from None


@dataclass(frozen=True)
class WorkloadState:
    """One version of one routine on one machine (analytic view)."""

    workload: str
    machine_name: str
    routine: str
    pattern: AccessPattern
    random_fraction: float
    binding_level: int
    #: Per-core expressible MLP (line-granular outstanding requests).
    demand_mlp: float
    #: Effective memory traffic relative to the base version.
    traffic_factor: float = 1.0
    smt_ways: int = 1
    applied: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.binding_level not in (1, 2):
            raise OptimizationError("binding_level must be 1 or 2")
        if self.demand_mlp <= 0:
            raise OptimizationError("demand_mlp must be positive")
        if self.traffic_factor <= 0:
            raise OptimizationError("traffic_factor must be positive")
        if self.smt_ways < 1:
            raise OptimizationError("smt_ways must be >= 1")

    @property
    def label(self) -> str:
        """The paper's Source label ('base', '+ vect, 2-ht', ...)."""
        if not self.applied:
            return "base"
        return "+ " + ", ".join(label_of_step(s) for s in self.applied)

    @property
    def applied_kinds(self) -> frozenset:
        """Recipe kinds of the applied steps."""
        return frozenset(kind_of_step(s) for s in self.applied)


@dataclass(frozen=True)
class TransformEffect:
    """What one optimization step does to a workload state."""

    demand_factor: float = 1.0
    demand_absolute: Optional[float] = None
    traffic_factor: float = 1.0
    shift_binding_to: Optional[int] = None
    smt_ways: Optional[int] = None
    #: Paper-grounded note on why the effect has this magnitude.
    rationale: str = ""

    def __post_init__(self) -> None:
        if self.demand_factor <= 0 or self.traffic_factor <= 0:
            raise OptimizationError("effect factors must be positive")
        if self.demand_absolute is not None and self.demand_absolute <= 0:
            raise OptimizationError("demand_absolute must be positive")
        if self.shift_binding_to not in (None, 1, 2):
            raise OptimizationError("shift_binding_to must be 1, 2 or None")

    def apply(self, state: WorkloadState, step: str) -> WorkloadState:
        """New state with this effect applied."""
        if step in state.applied:
            raise OptimizationError(
                f"step {step!r} already applied to {state.label!r}"
            )
        demand = (
            self.demand_absolute
            if self.demand_absolute is not None
            else state.demand_mlp * self.demand_factor
        )
        return replace(
            state,
            demand_mlp=demand,
            traffic_factor=state.traffic_factor * self.traffic_factor,
            binding_level=self.shift_binding_to or state.binding_level,
            smt_ways=self.smt_ways or state.smt_ways,
            applied=state.applied + (step,),
        )


#: Effect table type used by workload modules: step name (optionally
#: suffixed with "@machine") → effect.
EffectTable = Mapping[str, TransformEffect]


def lookup_effect(table: EffectTable, step: str, machine_name: str) -> TransformEffect:
    """Resolve a step's effect, preferring a machine-specific entry."""
    specific = table.get(f"{step}@{machine_name}")
    if specific is not None:
        return specific
    generic = table.get(step)
    if generic is None:
        raise OptimizationError(
            f"workload has no effect defined for step {step!r} on {machine_name!r}"
        )
    return generic
