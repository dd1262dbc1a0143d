"""Closed-form M/M/1-with-ceiling queueing model — the ``--fast`` path.

Hill's "Three Other Models" argues Little's Law belongs beside
bottleneck analysis and an M/M/1 queue; the loaded-latency curve this
library simulates *is* a queueing curve.  This module exploits that:
with the loaded latency approximated by the M/M/1-shaped form

    lat(u) = L0 + A * u / (1 - u)        (u = BW / peak, clipped)

the Little's-law fixed point becomes a **quadratic in utilization** —
substituting ``BW = peak * u`` into the Equation-2 constraint
``BW * lat = n * cores * cls * 1e9 =: K`` gives

    peak * (A - L0) * u^2 + (peak * L0 + K) * u - K = 0,

so a calibrated machine answers characterize/advisor queries in
microseconds with no simulation at all.  The root is found by the one
operating-point solver, :func:`repro.perfmodel.solver.solve_operating_point`,
which takes :class:`QueueingParams` as a curve like any other;
:func:`solve_operating_point_fast` only supplies the default
calibration.  When demand exceeds the machine's achievable-streams
ceiling the bandwidth is capped there and the latency is backed out of
Little's law.

Calibration (:class:`QueueingParams`) comes either

* from the machine's canonical latency model
  (:func:`calibrate_from_model` — deterministic, no simulation), or
* from a handful of simulator probe runs
  (:func:`calibrate_from_probes` — the honest measured route); each
  probe is memoized in the :mod:`repro.perf.cache` SimStats store, so
  a machine's probes are simulated once and a warm calibration is five
  cache hits plus a least-squares fit.

The closed form cannot cover everything; :func:`state_eligibility` and
:func:`trace_eligibility` gate the fast path (SMT contention,
prefetch-dominated access mixes, pathological bursty traces) and every
refusal carries a stated reason so callers can fall back to the
discrete-event simulator transparently.  docs/QUEUEING.md derives the
model and documents the cross-validated error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.latency_model import model_for_machine
from ..memory.profile import LatencyProfile
from .solver import SolvedPoint, solve_operating_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.coltrace import ColumnarTrace

#: Utilization at which the queueing term stops growing (keeps the
#: closed form finite at u -> 1; operating points are capped at the
#: achievable-streams ceiling well below this).
UTILIZATION_CAP = 0.995

#: A state whose prefetch fraction exceeds this is prefetch-dominated:
#: prefetches bypass the L1 MSHR file and carry the concurrency, so the
#: single-queue closed form no longer models the binding resource.
PREFETCH_DOMINATED_FRACTION = 0.95

#: Gap coefficient-of-variation above which a trace counts as
#: pathologically bursty (the M/M/1 steady-arrival assumption breaks).
PATHOLOGICAL_GAP_CV = 3.0

#: Default probe load levels (gap cycles, near-idle -> saturation) for
#: :func:`calibrate_from_probes`.  Five points bracket the curve: the
#: fit needs the idle anchor plus a few loaded samples, not a sweep.
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


@dataclass(frozen=True)
class QueueingParams:
    """Calibrated parameters of one machine's closed-form latency curve.

    Implements the :class:`~repro.memory.latency_model.LatencyModel`
    protocol (``idle_latency_ns`` / ``latency_ns``) and is a ``curve``
    the solver understands natively: one M/M/1 segment up to
    :data:`UTILIZATION_CAP`, with this calibration's own peak and
    ceiling.
    """

    machine_name: str
    peak_bw_bytes: float
    #: The Eq. 2 / achievable-streams bandwidth ceiling (bytes/s).
    achievable_bw_bytes: float
    #: ``L0`` — latency at zero load (ns).
    unloaded_latency_ns: float
    #: ``A`` — queueing-contention coefficient (ns): the fitted weight
    #: of the M/M/1 blow-up term ``u / (1 - u)``.
    contention_ns: float
    #: Provenance: ``"model"`` (fitted to the canonical curve) or
    #: ``"probes"`` (fitted to simulator probe runs).
    source: str = "model"
    #: Number of simulator probe runs that fed the fit (0 for model).
    probes: int = 0

    def __post_init__(self) -> None:
        if self.peak_bw_bytes <= 0:
            raise ConfigurationError("peak bandwidth must be positive")
        if not 0 < self.achievable_bw_bytes <= self.peak_bw_bytes:
            raise ConfigurationError(
                "achievable bandwidth must be in (0, peak]"
            )
        if self.unloaded_latency_ns <= 0:
            raise ConfigurationError("unloaded latency must be positive")
        if self.contention_ns < 0:
            raise ConfigurationError("contention coefficient must be >= 0")

    # -- LatencyModel protocol -------------------------------------------------

    @property
    def idle_latency_ns(self) -> float:
        """Latency at zero load (the model's ``L0``)."""
        return self.unloaded_latency_ns

    def latency_ns(self, utilization: float) -> float:
        """Closed-form loaded latency at ``utilization`` in ``[0, 1]``.

        Monotone non-decreasing by construction: the queueing term
        ``A * u / (1 - u)`` grows with ``u`` and is clipped at
        :data:`UTILIZATION_CAP` to stay finite.
        """
        if not math.isfinite(utilization) or utilization < 0.0:
            raise ConfigurationError(
                f"utilization must be finite and >= 0, got {utilization}"
            )
        u = min(utilization, UTILIZATION_CAP)
        return self.unloaded_latency_ns + self.contention_ns * u / (1.0 - u)

    # -- query views -----------------------------------------------------------

    def latency_at_bandwidth(self, bandwidth_bytes: float) -> float:
        """Loaded latency (ns) at an observed bandwidth (bytes/s)."""
        if bandwidth_bytes < 0:
            raise ConfigurationError("bandwidth must be >= 0")
        return self.latency_ns(bandwidth_bytes / self.peak_bw_bytes)

    def latency_at_rate(
        self, requests_per_s: float, line_bytes: int
    ) -> float:
        """Latency vs *injection rate* (socket-level requests/s).

        The queueing-theory view of the same curve: an injection rate of
        ``lambda`` line-granular requests per second drives a bandwidth
        of ``lambda * cls`` bytes/s.
        """
        if line_bytes <= 0:
            raise ConfigurationError("line_bytes must be positive")
        return self.latency_at_bandwidth(requests_per_s * line_bytes)


# -- calibration -----------------------------------------------------------------


def _fit_contention(
    samples: Sequence[Tuple[float, float]], unloaded_ns: float
) -> float:
    """Least-squares fit of ``A`` in ``lat = L0 + A * u/(1-u)``.

    One-parameter linear regression through the origin of the excess
    latency against the queueing shape ``g(u) = u / (1 - u)``; closed
    form ``A = sum(g * (lat - L0)) / sum(g^2)``, clamped non-negative
    (a loaded-latency curve never improves under load).
    """
    num = 0.0
    den = 0.0
    for u, lat in samples:
        uq = min(max(u, 0.0), UTILIZATION_CAP)
        if uq < 1e-6:
            continue  # the idle anchor carries no queueing signal
        g = uq / (1.0 - uq)
        num += g * (lat - unloaded_ns)
        den += g * g
    if den <= 0.0:
        return 0.0
    return max(0.0, num / den)


@lru_cache(maxsize=64)
def calibrate_from_model(
    machine: MachineSpec, *, samples: int = 33
) -> QueueingParams:
    """Fit the closed form to the machine's canonical latency model.

    Deterministic and simulation-free: ``L0`` is the model's idle
    latency, the ceiling is the spec's achievable-streams bandwidth,
    and ``A`` is least-squares fitted over the operating range the
    solver actually visits (``u`` up to the achievable fraction).
    """
    if samples < 2:
        raise ConfigurationError("need at least two fit samples")
    model = model_for_machine(machine)
    unloaded = model.latency_ns(0.0)
    u_max = machine.memory.achievable_fraction
    grid = [u_max * i / (samples - 1) for i in range(samples)]
    pairs = [(u, model.latency_ns(u)) for u in grid]
    return QueueingParams(
        machine_name=machine.name,
        peak_bw_bytes=machine.memory.peak_bw_bytes,
        achievable_bw_bytes=machine.memory.achievable_bw_bytes,
        unloaded_latency_ns=unloaded,
        contention_ns=_fit_contention(pairs, unloaded),
        source="model",
        probes=0,
    )


def calibrate_from_probes(
    machine: MachineSpec,
    *,
    probe_gaps: Sequence[float] = DEFAULT_PROBE_GAPS,
    sim_cores: int = 2,
    accesses_per_thread: int = 1500,
) -> QueueingParams:
    """Calibrate the closed form from a handful of simulator probe runs.

    Runs :data:`DEFAULT_PROBE_GAPS`-many X-Mem-style load levels through
    the discrete-event simulator and fits ``L0`` and ``A`` to the
    measured (bandwidth, latency) samples.  Each probe goes through the
    SimStats cache, so the probes are simulated once per machine and a
    warm calibration replays them — five cache hits — and refits.
    """
    from ..xmem.runner import XMemConfig, XMemRunner

    runner = XMemRunner(
        machine,
        XMemConfig(
            sim_cores=sim_cores,
            accesses_per_thread=accesses_per_thread,
            levels=max(2, len(tuple(probe_gaps))),
        ),
    )
    measurements = [runner.measure_level(float(gap)) for gap in probe_gaps]
    if not measurements:
        raise ConfigurationError("need at least one probe gap")
    unloaded = min(m.latency_ns for m in measurements)
    peak = machine.memory.peak_bw_bytes
    pairs = [(m.bandwidth_bytes / peak, m.latency_ns) for m in measurements]
    return QueueingParams(
        machine_name=machine.name,
        peak_bw_bytes=peak,
        achievable_bw_bytes=machine.memory.achievable_bw_bytes,
        unloaded_latency_ns=unloaded,
        contention_ns=_fit_contention(pairs, unloaded),
        source="probes",
        probes=len(measurements),
    )


# -- the closed-form solve -------------------------------------------------------


def solve_operating_point_fast(
    machine: MachineSpec,
    demand_mlp: float,
    binding_level: int,
    *,
    params: Optional[QueueingParams] = None,
    cores: Optional[int] = None,
) -> SolvedPoint:
    """Operating point over the calibrated closed-form curve (``--fast``).

    :func:`~repro.perfmodel.solver.solve_operating_point` with the
    calibration as its ``curve``: same validation, same capping
    semantics, the same exact root.  ``params`` defaults to the
    machine's model-fitted calibration (:func:`calibrate_from_model`);
    pass a probe calibration for the measured route.
    """
    if params is None:
        params = calibrate_from_model(machine)
    return solve_operating_point(
        machine, demand_mlp, binding_level, curve=params, cores=cores
    )


def analytic_profile(
    machine: MachineSpec,
    params: Optional[QueueingParams] = None,
    *,
    levels: int = 12,
) -> LatencyProfile:
    """The machine's latency profile, answered from the closed form.

    This is what ``characterize --fast`` returns: the same
    :class:`~repro.memory.profile.LatencyProfile` artifact the X-Mem
    sweep produces, sampled from the calibrated analytic curve in
    microseconds instead of simulated in seconds.  ``source`` is
    stamped ``"analytic"`` so downstream consumers know the provenance.
    """
    if levels < 2:
        raise ConfigurationError("need at least two profile levels")
    if params is None:
        params = calibrate_from_model(machine)
    samples = []
    for i in range(levels):
        bw = params.achievable_bw_bytes * i / (levels - 1)
        samples.append((bw, params.latency_at_bandwidth(bw)))
    return LatencyProfile.from_samples(
        machine.name,
        params.peak_bw_bytes,
        samples,
        source="analytic",
    )


# -- fast-path preconditions -----------------------------------------------------


def state_eligibility(state: Any) -> FastPathDecision:
    """Can this workload state's query be answered analytically?

    ``state`` is a :class:`~repro.optim.transforms.WorkloadState` (typed
    loosely to keep the perfmodel <-> optim import surface thin).  Two
    preconditions gate the closed form:

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
    "QueueingParams",
    "UTILIZATION_CAP",
    "analytic_profile",
    "calibrate_from_model",
    "calibrate_from_probes",
    "solve_operating_point_fast",
    "state_eligibility",
    "trace_eligibility",
]
