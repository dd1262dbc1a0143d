"""Optimization transforms: workload states and effect application.

A :class:`WorkloadState` is one version of a routine; a workload's
effect table of :class:`TransformEffect` entries turns it into the next
version (:meth:`repro.workloads.base.Workload.state_for` replays a step
sequence).  :data:`STEP_INFO` names every step with its recipe
:class:`~repro.core.optimizations.OptimizationKind` and paper label;
:func:`kind_of_step` and :func:`step_for_kind` read it both ways.
"""

from .transforms import (
    STEP_INFO,
    EffectTable,
    TransformEffect,
    WorkloadState,
    kind_of_step,
    label_of_step,
    lookup_effect,
    step_for_kind,
)

__all__ = [
    "EffectTable",
    "STEP_INFO",
    "TransformEffect",
    "WorkloadState",
    "kind_of_step",
    "label_of_step",
    "lookup_effect",
    "step_for_kind",
]
