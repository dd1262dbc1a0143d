"""End-to-end routine analysis: counters → MLP → recipe, per routine.

:class:`RoutineAnalyzer` is the user-facing entry point that strings the
whole method together the way the paper's Figure 1 prescribes:

* input is a **per-routine** observed bandwidth (from the CrayPat
  substitute or given directly) plus the access-pattern evidence,
* output is an :class:`AnalysisReport`: the Little's-law metrics, the
  binding MSHR file, and the graded optimization recommendations.

The stationarity footnote is enforced: :meth:`analyze_program` refuses
to average routines whose bandwidths differ materially, raising
:class:`~repro.errors.StationarityError` unless ``force=True`` — and
when forced, the report is stamped as unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..counters.session import CounterSession
from ..errors import ConfigurationError, StationarityError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..sim.stats import SimStats
from ..units import gb_per_s, ns, to_gb_per_s
from .classify import Classification, classify_from_prefetch_fraction
from .mlp import MlpCalculator, MlpResult
from .recipe import Recipe, RecipeContext, RecipeDecision

#: Routines whose bandwidths differ by more than this factor are
#: considered non-stationary when aggregated.
STATIONARITY_SPREAD = 2.0


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the method derives for one routine."""

    routine: str
    machine_name: str
    mlp: MlpResult
    classification: Classification
    decision: RecipeDecision
    #: True when produced by a forced whole-program aggregation.
    non_stationary: bool = False

    def render(self) -> str:
        """Human-readable report (the library's 'prescription glasses')."""
        lines = [
            f"== {self.routine} on {self.machine_name} ==",
            f"  observed: {self.mlp.summary()}",
            f"  pattern:  {self.classification.pattern.value} "
            f"({self.classification.rationale})",
        ]
        if self.non_stationary:
            lines.append(
                "  WARNING: aggregated across dissimilar routines; Little's law "
                "assumes stationarity and this guidance is unreliable"
            )
        for note in self.decision.notes:
            lines.append(f"  note: {note}")
        if self.decision.stop:
            lines.append("  verdict: STOP - no optimization expected to help")
        else:
            lines.append("  recommendations (best first):")
            for rec in self.decision.recommendations:
                lines.append(
                    f"    [{rec.benefit.name.lower():<11s}] {rec.info.name}: "
                    f"{rec.reason}"
                )
        return "\n".join(lines)


class RoutineAnalyzer:
    """Per-routine analysis engine for one machine + latency profile."""

    def __init__(
        self,
        machine: MachineSpec,
        profile: Optional[LatencyProfile] = None,
        *,
        cores: Optional[int] = None,
    ) -> None:
        self.machine = machine
        self.calculator = MlpCalculator(machine, profile, cores=cores)
        self.recipe = Recipe(machine)

    # -- direct-bandwidth entry (the paper's tables workflow) --------------------

    def analyze_bandwidth(
        self,
        bandwidth_bytes: float,
        *,
        routine: str = "kernel",
        prefetch_fraction: Optional[float] = None,
        classification: Optional[Classification] = None,
        context: Optional[RecipeContext] = None,
    ) -> AnalysisReport:
        """Analyze a routine from its observed bandwidth.

        Exactly one of ``prefetch_fraction`` / ``classification`` must
        be provided as the access-pattern evidence.
        """
        if (prefetch_fraction is None) == (classification is None):
            raise ConfigurationError(
                "provide exactly one of prefetch_fraction or classification"
            )
        if classification is None:
            classification = classify_from_prefetch_fraction(prefetch_fraction)
        mlp = self.calculator.calculate(bandwidth_bytes)
        decision = self.recipe.decide(mlp, classification, context)
        return AnalysisReport(
            routine=routine,
            machine_name=self.machine.name,
            mlp=mlp,
            classification=classification,
            decision=decision,
        )

    def analyze_bandwidth_gbs(self, bandwidth_gbs: float, **kwargs) -> AnalysisReport:
        """Same as :meth:`analyze_bandwidth` with GB/s input."""
        return self.analyze_bandwidth(gb_per_s(bandwidth_gbs), **kwargs)

    # -- simulator-run entry -------------------------------------------------------

    def analyze_run(
        self,
        stats: SimStats,
        *,
        context: Optional[RecipeContext] = None,
    ) -> AnalysisReport:
        """Analyze a finished simulation run through the counter facade.

        The bandwidth is read the way CrayPat would (vendor counters +
        writeback heuristic) and scaled from the simulated slice to the
        full socket, so reports are comparable to paper tables.
        """
        session = CounterSession(self.machine, stats)
        slice_cores = max(1, len(stats.l1_occupancy))
        scale = self.machine.active_cores / slice_cores
        socket_bw = session.bandwidth_bytes_per_s() * scale
        return self.analyze_bandwidth(
            socket_bw,
            routine=stats.routine,
            prefetch_fraction=stats.memory.prefetch_fraction,
            context=context,
        )

    # -- whole-program guard ----------------------------------------------------------

    def analyze_program(
        self,
        runs: Sequence[SimStats],
        *,
        force: bool = False,
        routine: str = "whole-program",
        context: Optional[RecipeContext] = None,
    ) -> AnalysisReport:
        """Aggregate several routines — which the paper warns against.

        Raises :class:`~repro.errors.StationarityError` when the
        routines' bandwidths spread more than
        :data:`STATIONARITY_SPREAD` apart, unless ``force=True``; forced
        reports carry ``non_stationary=True``.
        """
        if not runs:
            raise ConfigurationError("need at least one run")
        bws = [s.bandwidth_bytes_per_s() for s in runs]
        positive = [b for b in bws if b > 0]
        spread = (max(positive) / min(positive)) if positive else 1.0
        if spread > STATIONARITY_SPREAD and not force:
            raise StationarityError(
                f"routine bandwidths spread {spread:.1f}x apart "
                f"({[f'{to_gb_per_s(b):.1f}' for b in bws]} GB/s); Little's law assumes "
                "a stationary system - analyze per routine (or pass force=True)"
            )
        total_time = sum(s.elapsed_ns for s in runs)
        total_bytes = sum(s.memory.total_bytes for s in runs)
        pf_bytes = sum(s.memory.prefetch_bytes for s in runs)
        if total_time <= 0:
            raise ConfigurationError("runs have no elapsed time")
        slice_cores = max(1, max(len(s.l1_occupancy) for s in runs))
        scale = self.machine.active_cores / slice_cores
        agg_bw = total_bytes / ns(total_time) * scale
        pf_fraction = pf_bytes / total_bytes if total_bytes else 0.0
        report = self.analyze_bandwidth(
            agg_bw,
            routine=routine,
            prefetch_fraction=pf_fraction,
            context=context,
        )
        return AnalysisReport(
            routine=report.routine,
            machine_name=report.machine_name,
            mlp=report.mlp,
            classification=report.classification,
            decision=report.decision,
            non_stationary=spread > STATIONARITY_SPREAD,
        )
