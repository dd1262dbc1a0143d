"""The ``--fast`` path: answers from one solved curve, no X-Mem sweep.

Hill's "Three Other Models" argues Little's Law belongs beside
bottleneck analysis and an M/M/1 queue; the loaded-latency curve this
library simulates *is* a queueing curve, and the Little's-law fixed
point over it is a closed-form problem
(:func:`repro.perfmodel.solver.solve_operating_point` solves each chord
of a piecewise-linear curve as a quadratic).  ``--fast`` therefore
needs no simulation at query time, only a curve:

* the machine's calibrated model (the default for advisor and
  runtime queries, so a fast solve equals the solver route), or
* :func:`calibrate_from_probes` — the measured route: five X-Mem
  load levels built into a :class:`~repro.memory.profile.LatencyProfile`
  by the same code :meth:`~repro.xmem.runner.XMemRunner.characterize`
  uses.  Each probe is memoized in the :mod:`repro.perf.cache`
  SimStats store, so a machine's probes are simulated once and a warm
  calibration is five cache hits.

:func:`analytic_profile` resamples either curve over ``[0, ceiling]``;
that is what ``characterize --fast`` prints.  Not every query suits
a single-queue model; :func:`state_eligibility` and
:func:`trace_eligibility` gate the fast path (SMT contention,
prefetch-dominated access mixes, pathological bursty traces) and every
refusal carries a stated reason so callers can fall back to the
discrete-event simulator transparently.  docs/QUEUEING.md documents
the cross-validated error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from .solver import Curve, curve_reader, solve_operating_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.coltrace import ColumnarTrace

#: A state whose prefetch fraction exceeds this is prefetch-dominated:
#: prefetches bypass the L1 MSHR file and carry the concurrency, so the
#: single-queue model no longer describes the binding resource.
PREFETCH_DOMINATED_FRACTION = 0.95

#: Gap coefficient-of-variation above which a trace counts as
#: pathologically bursty (the steady-arrival assumption breaks).
PATHOLOGICAL_GAP_CV = 3.0

#: Default probe load levels (gap cycles, near-idle -> saturation) for
#: :func:`calibrate_from_probes`.  Five points bracket the curve; with
#: the idle anchor they make a six-point profile, not a sweep.
DEFAULT_PROBE_GAPS: Tuple[float, ...] = (360.0, 120.0, 40.0, 12.0, 2.0)

#: Documented cross-validation error bounds for in-precondition queries
#: (docs/QUEUEING.md derives these from the `repro crossval-analytic`
#: table; CI re-runs the table and fails if any eligible cell exceeds
#: them).  They also widen the ``--fast`` error bars via
#: :func:`repro.core.uncertainty.analytic_widened_errors`.
ANALYTIC_BW_ERROR_BOUND = 0.15
ANALYTIC_LAT_ERROR_BOUND = 0.15


@dataclass(frozen=True)
class FastPathDecision:
    """Whether a query may be answered analytically, and why not."""

    eligible: bool
    #: Human-readable reason when ineligible; empty when eligible.
    reason: str = ""

    def __bool__(self) -> bool:
        """Truthy exactly when the fast path may be used."""
        return self.eligible


# -- calibration and the solve --------------------------------------------------


def calibrate_from_probes(
    machine: MachineSpec,
    *,
    probe_gaps: Sequence[float] = DEFAULT_PROBE_GAPS,
    sim_cores: int = 2,
    accesses_per_thread: int = 1500,
) -> LatencyProfile:
    """The machine's latency profile from a handful of simulator probes.

    Runs one X-Mem load level per gap in ``probe_gaps`` through the
    discrete-event simulator and builds the measured (bandwidth,
    latency) samples into a profile (``source="probes"``) exactly as a
    full sweep is built.  Each probe goes through the SimStats cache,
    so the probes are simulated once per machine and a warm
    calibration replays them: five cache hits.
    """
    from ..xmem.runner import XMemConfig, XMemRunner, profile_from_measurements

    gaps = tuple(probe_gaps)
    if not gaps:
        raise ConfigurationError("need at least one probe gap")
    runner = XMemRunner(
        machine,
        XMemConfig(sim_cores=sim_cores, accesses_per_thread=accesses_per_thread),
    )
    return profile_from_measurements(
        machine, [runner.measure_level(float(gap)) for gap in gaps], source="probes"
    )


# Perfbench hooks this name to time and count fast solves; it is the
# solver itself, so a fast solve is the solver's answer over ``curve``.
solve_operating_point_fast = solve_operating_point


def analytic_profile(
    machine: MachineSpec,
    curve: Optional[Curve] = None,
    *,
    levels: int = 12,
) -> LatencyProfile:
    """``curve`` resampled at ``levels`` bandwidths from 0 to the ceiling.

    This is what ``characterize --fast`` returns: the same
    :class:`~repro.memory.profile.LatencyProfile` artifact the X-Mem
    sweep produces, read from ``curve`` (the machine's model when
    ``None``) in microseconds instead of simulated in seconds.  The
    curve is read as the solver reads it, flat above a profile's top
    point, so a probe profile that stops short of the achievable
    ceiling still spans it.  ``source`` is stamped ``"analytic"``.
    """
    if levels < 2:
        raise ConfigurationError("need at least two profile levels")
    latency = curve_reader(machine, curve)
    samples = []
    for i in range(levels):
        bw = machine.memory.achievable_bw_bytes * i / (levels - 1)
        samples.append((bw, latency(bw)))
    return LatencyProfile.from_samples(
        machine.name,
        machine.memory.peak_bw_bytes,
        samples,
        source="analytic",
    )


# -- fast-path preconditions -----------------------------------------------------


def state_eligibility(state: Any) -> FastPathDecision:
    """Can this workload state's query be answered analytically?

    ``state`` is a :class:`~repro.optim.transforms.WorkloadState` (typed
    loosely to keep the perfmodel <-> optim import surface thin).  Two
    preconditions gate the single-queue model:

    * **SMT contention** — threads sharing a core's caches interact in
      ways the single-queue model does not carry (the paper's
      MiniGhost/SNAP observations); SMT states go to the simulator.
    * **Prefetch-dominated mixes** — above
      :data:`PREFETCH_DOMINATED_FRACTION` the concurrency lives in
      prefetch streams that bypass the binding MSHR file.
    """
    if getattr(state, "smt_ways", 1) > 1:
        return FastPathDecision(
            False,
            f"SMT contention: state runs {state.smt_ways} threads/core; "
            "cache-contention effects are outside the closed-form model",
        )
    prefetch_fraction = 1.0 - getattr(state, "random_fraction", 1.0)
    if prefetch_fraction > PREFETCH_DOMINATED_FRACTION:
        return FastPathDecision(
            False,
            f"prefetch-dominated: {prefetch_fraction:.0%} of accesses are "
            "prefetch-covered, so concurrency bypasses the binding MSHR "
            "file the closed form models",
        )
    return FastPathDecision(True)


def trace_eligibility(trace: ColumnarTrace) -> FastPathDecision:
    """Can a trace-driven query be answered analytically?

    Rejects pathological traces: no demand accesses at all, or a
    per-thread inter-arrival (gap) coefficient of variation above
    :data:`PATHOLOGICAL_GAP_CV` — burstiness far beyond what the
    steady-arrival queueing assumption tolerates.
    """
    if trace.total_demand == 0:
        return FastPathDecision(
            False, "pathological trace: no demand accesses to model"
        )
    worst_cv = 0.0
    for thread in trace.threads:
        gaps = thread.gap_cycles
        if gaps.size < 2:
            continue
        mean = float(gaps.mean())
        if mean <= 0.0:
            return FastPathDecision(
                False,
                "pathological trace: zero mean inter-arrival gap "
                "(unbounded injection rate)",
            )
        worst_cv = max(worst_cv, float(gaps.std()) / mean)
    if worst_cv > PATHOLOGICAL_GAP_CV:
        return FastPathDecision(
            False,
            f"pathological trace: bursty injection (gap CV {worst_cv:.1f} "
            f"> {PATHOLOGICAL_GAP_CV:.1f}) breaks the steady-arrival "
            "queueing assumption",
        )
    return FastPathDecision(True)


__all__ = [
    "ANALYTIC_BW_ERROR_BOUND",
    "ANALYTIC_LAT_ERROR_BOUND",
    "DEFAULT_PROBE_GAPS",
    "FastPathDecision",
    "PATHOLOGICAL_GAP_CV",
    "PREFETCH_DOMINATED_FRACTION",
    "analytic_profile",
    "calibrate_from_probes",
    "solve_operating_point_fast",
    "state_eligibility",
    "trace_eligibility",
]
