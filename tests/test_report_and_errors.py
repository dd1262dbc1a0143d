"""Report rendering helpers and the exception hierarchy."""

from repro import errors
from repro.core import (
    CaseStudyRow,
    ComparisonRow,
    render_case_study_table,
    render_comparison_table,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "ProfileError",
            "ProfileDomainError",
            "CounterError",
            "CounterUnavailableError",
            "SimulationError",
            "TraceError",
            "StationarityError",
            "OptimizationError",
            "ExperimentError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_unknown_machine_carries_candidates(self):
        err = errors.UnknownMachineError("foo", ("skl", "knl"))
        assert err.name == "foo"
        assert "skl" in str(err)

    def test_counter_unavailable_carries_context(self):
        err = errors.CounterUnavailableError("fujitsu", "latency")
        assert err.vendor == "fujitsu"
        assert "fujitsu" in str(err)

    def test_domain_error_is_profile_error(self):
        assert issubclass(errors.ProfileDomainError, errors.ProfileError)


class TestCaseStudyRendering:
    def _row(self, speedup=1.4):
        return CaseStudyRow(
            proc="knl",
            source="+ vect",
            bw_gbs=240.0,
            bw_pct=60.0,
            latency_ns=182.0,
            n_avg=10.66,
            opt_label="2-ht",
            speedup=speedup,
        )

    def test_table_layout(self):
        text = render_case_study_table("Table IV", [self._row()])
        assert "Table IV" in text
        assert "240.0" in text
        assert "2-ht: 1.40x" in text

    def test_terminal_row_dash(self):
        row = self._row(speedup=None)
        assert row.perf_cell() == "-"


class TestComparisonRendering:
    def test_comparison_table(self):
        rows = [
            ComparisonRow("knl/base", 10.23, 10.2, 1.02, 1.03, True),
            ComparisonRow("knl/+ vect", 10.66, 12.9, 1.04, 1.5, False),
        ]
        text = render_comparison_table("cmp", rows)
        assert "agree" in text and "DISAGREE" in text
