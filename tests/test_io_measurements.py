"""Measurement ingestion: CSV and perf-style parsing into analyses."""

import pytest

from repro.errors import ConfigurationError
from repro.io import (
    RoutineMeasurement,
    analyze_measurements,
    from_csv,
    from_perf_output,
)
from repro.units import gb_per_s


class TestCsv:
    def test_basic_rows(self):
        text = (
            "routine,bandwidth_gbs,prefetch_fraction\n"
            "count_local_keys,106.9,0.05\n"
            "ComputeSPMV_ref,109.9,0.80\n"
        )
        rows = from_csv(text)
        assert len(rows) == 2
        assert rows[0].routine == "count_local_keys"
        assert rows[0].bandwidth_bytes == pytest.approx(106.9e9)

    def test_comments_and_blank_lines(self):
        text = "# comment\n\nkernel,50.0,0.5\n"
        assert len(from_csv(text)) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            from_csv("routine,bandwidth,pf\n")

    def test_short_row_rejected(self):
        with pytest.raises(ConfigurationError):
            from_csv("kernel,50.0\n")

    def test_measurement_validation(self):
        with pytest.raises(ConfigurationError):
            RoutineMeasurement("k", -1.0, 0.5)
        with pytest.raises(ConfigurationError):
            RoutineMeasurement("k", 1e9, 1.5)


class TestPerfOutput:
    def test_plain_aligned_format(self, skl):
        # 1 second, 1e9 demand lines + 0.5e9 prefetch lines of 64B.
        text = """
         1,000,000,000      OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL
           500,000,000      OFFCORE_RESPONSE_1:PF_ANY:L3_MISS_LOCAL
         9,999,999,999      INST_RETIRED.ANY
        """
        m = from_perf_output(text, skl, elapsed_seconds=1.0, routine="r")
        assert m.bandwidth_bytes == pytest.approx(1.5e9 * 64)
        assert m.prefetch_fraction == pytest.approx(1 / 3)

    def test_csv_format(self, skl):
        text = (
            "1000000000,,OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n"
            "123,,CPU_CLK_UNHALTED.THREAD\n"
        )
        m = from_perf_output(text, skl, elapsed_seconds=2.0)
        assert m.bandwidth_bytes == pytest.approx(1e9 * 64 / 2.0)

    def test_a64fx_bus_counters(self, a64fx):
        text = """
         2,000,000      BUS_READ_TOTAL_MEM
         1,000,000      BUS_WRITE_TOTAL_MEM
        """
        m = from_perf_output(text, a64fx, elapsed_seconds=0.001)
        # 3e6 lines x 256B / 1ms
        assert m.bandwidth_bytes == pytest.approx(3e6 * 256 / 1e-3)

    def test_unknown_events_ignored(self, skl):
        text = """
         42      SOME_UNRELATED_EVENT
         1,000   OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL
        """
        m = from_perf_output(text, skl, elapsed_seconds=1.0)
        assert m.bandwidth_bytes == pytest.approx(1000 * 64)

    def test_no_bandwidth_events_rejected(self, skl):
        with pytest.raises(ConfigurationError) as err:
            from_perf_output("42 SOMETHING_ELSE", skl, elapsed_seconds=1.0)
        assert "OFFCORE" in str(err.value)

    def test_empty_input_rejected(self, skl):
        with pytest.raises(ConfigurationError):
            from_perf_output("", skl, elapsed_seconds=1.0)

    def test_bad_elapsed_rejected(self, skl):
        with pytest.raises(ConfigurationError):
            from_perf_output("1 X", skl, elapsed_seconds=0.0)


class TestAnalyzeMeasurements:
    def test_batch_analysis_matches_direct(self, skl):
        measurements = from_csv(
            "count_local_keys,106.9,0.05\nComputeSPMV_ref,109.9,0.80\n"
        )
        reports = analyze_measurements(skl, measurements)
        assert len(reports) == 2
        isx, hpcg = reports
        assert isx.decision.binding_level == 1
        assert isx.mlp.n_avg == pytest.approx(10.1, rel=0.05)
        assert hpcg.decision.binding_level == 2

    def test_with_measured_profile(self, skl, xmem_skl_profile):
        measurements = [RoutineMeasurement("k", 60e9, 0.5)]
        reports = analyze_measurements(skl, measurements, profile=xmem_skl_profile)
        assert reports[0].mlp.n_avg > 0


class TestCsvErrorLocations:
    def test_short_row_names_line_number(self):
        text = "ok,50.0,0.5\nonly_two,1.0\n"
        with pytest.raises(ConfigurationError, match="line 2"):
            from_csv(text)

    def test_bad_cell_names_line_column_and_cell(self):
        text = "ok,50.0,0.5\nbad,fast,0.5\n"
        with pytest.raises(ConfigurationError) as info:
            from_csv(text)
        message = str(info.value)
        assert "line 2" in message
        assert "bandwidth_gbs" in message
        assert "'fast'" in message

    def test_nan_cell_rejected_with_location(self):
        with pytest.raises(ConfigurationError, match="line 1.*NaN"):
            from_csv("bad,nan,0.5\n")

    def test_out_of_range_value_carries_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            from_csv("ok,50.0,0.5\nbad,50.0,1.5\n")

    def test_line_numbers_count_comments_and_blanks(self):
        text = "# header comment\n\nok,50.0,0.5\nbad,slow,0.5\n"
        with pytest.raises(ConfigurationError, match="line 4"):
            from_csv(text)


class TestCsvDegraded:
    def test_clean_input_has_no_issues(self):
        from repro.io import from_csv_degraded

        rows, issues = from_csv_degraded("a,50.0,0.5\nb,60.0,0.8\n")
        assert [r.routine for r in rows] == ["a", "b"]
        assert issues == []

    def test_bad_rows_become_issues_not_errors(self):
        from repro.io import from_csv_degraded

        text = (
            "good,50.0,0.5\n"
            "short,1.0\n"
            "nonnum,fast,0.5\n"
            "range,50.0,1.5\n"
            "tail,70.0,0.2\n"
        )
        rows, issues = from_csv_degraded(text)
        assert [r.routine for r in rows] == ["good", "tail"]
        kinds = [issue.kind for issue in issues]
        assert kinds == ["skipped-row", "bad-cell", "bad-cell"]
        assert issues[0].location == "line 2"
        # Details are not doubly prefixed with the location.
        assert not issues[1].detail.startswith("line")

    def test_all_bad_input_still_raises(self):
        from repro.io import from_csv_degraded

        with pytest.raises(ConfigurationError, match="no measurement rows"):
            from_csv_degraded("a,fast,0.5\nb,also_fast,0.5\n")

    def test_nan_cell_and_short_row_become_issues(self):
        from repro.io import from_csv_degraded

        text = (
            "routine,bandwidth_gbs,prefetch_fraction\n"
            "a,50.0,0.5\n"
            "b,nan,0.8\n"
            "c,70.0\n"
            "d,80.0,0.2\n"
        )
        rows, issues = from_csv_degraded(text)
        assert [(r.routine, r.bandwidth_bytes) for r in rows] == [
            ("a", gb_per_s(50.0)),
            ("d", gb_per_s(80.0)),
        ]
        assert [(i.kind, i.location) for i in issues] == [
            ("bad-cell", "line 3"),
            ("skipped-row", "line 4"),
        ]
        assert "NaN" in issues[0].detail
