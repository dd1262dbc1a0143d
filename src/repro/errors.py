"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-types exist for the
major subsystems so tests (and users) can assert on the *kind* of failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A machine, workload, or experiment was configured inconsistently."""


class UnknownMachineError(ConfigurationError):
    """A machine name was requested that the registry does not know."""

    def __init__(self, name: str, known: tuple) -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown machine {name!r}; known machines: {', '.join(self.known)}"
        )


class ProfileError(ReproError):
    """A latency profile is malformed or queried out of its valid domain."""


class ProfileDomainError(ProfileError):
    """A bandwidth query fell outside the measured profile domain."""


class CounterError(ReproError):
    """A performance-counter session was misused."""


class CounterUnavailableError(CounterError):
    """The requested event is not exposed by this vendor (paper Table I)."""

    def __init__(self, vendor: str, event: str) -> None:
        self.vendor = vendor
        self.event = event
        super().__init__(f"vendor {vendor!r} does not expose event {event!r}")


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class TraceError(SimulationError):
    """An access trace was malformed."""


class SanitizerError(SimulationError):
    """A runtime invariant check of the instrumented ("reprosan") mode failed.

    Carries enough structure for a report: the violated invariant's
    identifier, the simulation time and engine event id at detection,
    and a snapshot of the audited queue (or other relevant state).
    ``report`` holds the full :class:`repro.analysis.sanitizer.SanitizerReport`
    when the failure was raised at finalize time.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str,
        time_ns: float = 0.0,
        event_id: int = 0,
        snapshot: object = None,
        report: object = None,
    ) -> None:
        self.invariant = invariant
        self.time_ns = time_ns
        self.event_id = event_id
        self.snapshot = snapshot
        self.report = report
        super().__init__(f"[{invariant}] {message}")


class StationarityError(ReproError):
    """Little's law was applied to a non-stationary (whole-program) window.

    The paper (Section III-B, footnote 1) restricts Little's law to
    individual subroutines or long loops.  The analyzer raises this when
    asked to aggregate routines with very different behaviour, unless the
    caller explicitly overrides.
    """


class OptimizationError(ReproError):
    """An optimization transform could not be applied to a workload."""


class CacheError(ReproError):
    """The simulation result cache was misused or misconfigured."""


class CacheKeyError(CacheError):
    """A simulation input could not be reduced to a stable cache digest."""


class ExperimentError(ReproError):
    """An experiment harness failure (missing paper data, bad shape check)."""
