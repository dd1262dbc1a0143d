"""Sim-cache fault injection: spec grammar, deterministic firing, file damage."""

from __future__ import annotations

import math
import os

import pytest

from repro.errors import ConfigurationError
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultRule,
    configure_faults,
    get_injector,
    parse_fault_spec,
)


@pytest.fixture(autouse=True)
def _disarm():
    """Inert injector for each test; ambient spec restored afterwards.

    Restoring (rather than popping) an ambient ``REPRO_FAULTS`` keeps a
    CI fault-injection leg's spec alive for the rest of the suite.
    """
    ambient = os.environ.get("REPRO_FAULTS")
    configure_faults(None)
    yield
    configure_faults(ambient)


class TestParseFaultSpec:
    def test_defaults(self):
        rules = parse_fault_spec("cache_corrupt")
        assert rules["cache_corrupt"] == FaultRule(kind="cache_corrupt", p=1.0, seed=0)

    def test_params_parsed(self):
        rule = parse_fault_spec("cache_truncate:p=0.5,seed=3")["cache_truncate"]
        assert rule.p == 0.5
        assert rule.seed == 3

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault param"):
            parse_fault_spec("cache_corrupt:skew=0.5")

    def test_multiple_entries(self):
        spec = "cache_truncate:p=0.05,seed=7;cache_corrupt:p=0.1,seed=7"
        rules = parse_fault_spec(spec)
        assert set(rules) == {"cache_truncate", "cache_corrupt"}

    def test_empty_entries_skipped(self):
        assert parse_fault_spec("") == {}
        assert parse_fault_spec(";;") == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            parse_fault_spec("mshr_leak:p=1")

    def test_param_without_value_rejected(self):
        with pytest.raises(ConfigurationError, match="name=value"):
            parse_fault_spec("cache_corrupt:p")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigurationError, match="numeric"):
            parse_fault_spec("cache_corrupt:p=often")

    def test_non_finite_value_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_fault_spec("cache_corrupt:p=nan")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\[0,1\]"):
            parse_fault_spec("cache_corrupt:p=1.5")

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_fault_spec("cache_corrupt:p=0.1;cache_corrupt:p=0.2")

    def test_every_known_kind_accepted(self):
        for kind in FAULT_KINDS:
            assert kind in parse_fault_spec(f"{kind}:p=0.5")


class TestFaultRuleFiring:
    def test_p_zero_never_fires(self):
        rule = FaultRule(kind="cache_corrupt", p=0.0)
        assert not any(rule.fires(f"k{i}") for i in range(100))

    def test_p_one_always_fires(self):
        rule = FaultRule(kind="cache_corrupt", p=1.0)
        assert all(rule.fires(f"k{i}") for i in range(100))

    def test_firing_is_deterministic_per_key(self):
        rule = FaultRule(kind="cache_corrupt", p=0.3, seed=7)
        first = [rule.fires(f"site{i}") for i in range(500)]
        second = [rule.fires(f"site{i}") for i in range(500)]
        assert first == second

    def test_firing_rate_tracks_probability(self):
        rule = FaultRule(kind="cache_corrupt", p=0.3, seed=7)
        rate = sum(rule.fires(f"site{i}") for i in range(4000)) / 4000
        assert 0.25 < rate < 0.35

    def test_seed_changes_the_pattern(self):
        a = FaultRule(kind="cache_corrupt", p=0.5, seed=0)
        b = FaultRule(kind="cache_corrupt", p=0.5, seed=1)
        keys = [f"k{i}" for i in range(200)]
        assert [a.fires(k) for k in keys] != [b.fires(k) for k in keys]


class TestInjectorSites:
    def test_inert_injector_is_a_no_op(self, tmp_path):
        injector = FaultInjector()
        assert not injector.active
        assert not injector.fires("cache_corrupt", "k")
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 64)
        assert injector.maybe_corrupt_file("cache_corrupt", "k", path) is False
        assert path.read_bytes() == b"x" * 64

    def test_corrupt_damages_in_place(self, tmp_path):
        injector = FaultInjector(parse_fault_spec("cache_corrupt:p=1"))
        path = tmp_path / "entry.json"
        original = bytes(range(200))
        path.write_bytes(original)
        assert injector.maybe_corrupt_file("cache_corrupt", "dig", path)
        damaged = path.read_bytes()
        assert len(damaged) == len(original)
        assert damaged != original

    def test_corrupt_stays_inside_a_small_file(self, tmp_path):
        injector = FaultInjector(parse_fault_spec("cache_corrupt:p=1"))
        path = tmp_path / "entry.json"
        path.write_bytes(b"0123456789")
        assert injector.maybe_corrupt_file("cache_corrupt", "dig", path)
        damaged = path.read_bytes()
        assert len(damaged) == 10
        assert damaged != b"0123456789"

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_empty_file_is_left_alone(self, tmp_path, kind):
        injector = FaultInjector(parse_fault_spec(f"{kind}:p=1"))
        path = tmp_path / "entry.json"
        path.write_bytes(b"")
        assert injector.maybe_corrupt_file(kind, "dig", path) is False
        assert path.read_bytes() == b""

    def test_truncate_halves_the_file(self, tmp_path):
        injector = FaultInjector(parse_fault_spec("cache_truncate:p=1"))
        path = tmp_path / "entry.json"
        path.write_bytes(b"y" * 100)
        assert injector.maybe_corrupt_file("cache_truncate", "dig", path)
        assert path.stat().st_size == 50

    def test_missing_file_is_not_an_error(self, tmp_path):
        injector = FaultInjector(parse_fault_spec("cache_corrupt:p=1"))
        missing = tmp_path / "nope.json"
        assert injector.maybe_corrupt_file("cache_corrupt", "d", missing) is False


class TestGlobalInjector:
    def test_configure_arms_and_mirrors_env(self):
        injector = configure_faults("cache_corrupt:p=0.5,seed=2")
        assert injector.active
        assert os.environ["REPRO_FAULTS"] == "cache_corrupt:p=0.5,seed=2"
        assert get_injector() is injector

    def test_configure_none_disarms(self):
        configure_faults("cache_corrupt:p=0.5")
        injector = configure_faults(None)
        assert not injector.active
        assert "REPRO_FAULTS" not in os.environ

    def test_lazy_parse_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_truncate:p=1")
        monkeypatch.setattr("repro.resilience.faults._global_injector", None)
        assert set(get_injector().rules) == {"cache_truncate"}

    def test_bad_spec_surfaces_as_configuration_error(self):
        with pytest.raises(ConfigurationError):
            configure_faults("not_a_kind")


class TestQualityHelpers:
    def test_issue_render_and_summary(self):
        from repro.resilience import DataQualityIssue, issue_summary

        issues = [
            DataQualityIssue("skipped-row", "line 3", "too few columns"),
            DataQualityIssue("skipped-row", "line 5", "too few columns"),
            DataQualityIssue("bad-cell", "line 7", "NaN"),
        ]
        assert issues[0].render() == "skipped-row @ line 3: too few columns"
        summary = issue_summary(issues)
        assert summary == "3 issue(s): 1 bad-cell, 2 skipped-row"
        assert issue_summary([]) == "no data-quality issues"

    def test_quality_widened_errors_scale_and_cap(self):
        from repro.core import quality_widened_errors
        from repro.core.uncertainty import (
            QUALITY_ERROR_CAP,
            QUALITY_ERROR_PER_ISSUE,
        )
        from repro.resilience import DataQualityIssue

        issue = DataQualityIssue("missing-counter", "x", "y")
        bw0, lat0 = quality_widened_errors([])
        bw2, lat2 = quality_widened_errors([issue, issue])
        assert bw2 == pytest.approx(bw0 + 2 * QUALITY_ERROR_PER_ISSUE)
        assert lat2 == lat0
        bw_many, _ = quality_widened_errors([issue] * 1000)
        assert bw_many == pytest.approx(bw0 + QUALITY_ERROR_CAP)
        assert math.isfinite(bw_many)
