"""The analytic-vs-simulator cross-validation harness (experiments)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.analytic_crossval import (
    crossval_analytic,
    render_analytic_crossval,
    rows_to_json,
    table_ok,
)
from repro.perfmodel.queueing import (
    ANALYTIC_BW_ERROR_BOUND,
    ANALYTIC_LAT_ERROR_BOUND,
)
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.xmem.runner import XMemConfig, XMemRunner

LIGHT = XMemConfig(levels=6, accesses_per_thread=1200)

#: (bandwidth, latency) relative errors of the LIGHT skl rows: the
#: five-probe profile against the six-level sweep.
PINNED_ERRORS = {
    "isx": (0.00995770309160723, 0.010057856237760813),
    "comd": (0.0051973500454306565, 0.00522450361955501),
    "minighost": (0.01623823367503246, 0.01650626628405545),
}


@pytest.fixture(scope="module")
def rows(skl):
    picked = [get_workload(name) for name in ("isx", "comd", "minighost")]
    return crossval_analytic(machines=[skl], workloads=picked, xmem_config=LIGHT)


class TestCrossValTable:
    def test_covers_requested_grid(self, rows):
        assert [(r.workload, r.machine) for r in rows] == [
            ("isx", "skl"),
            ("comd", "skl"),
            ("minighost", "skl"),
        ]

    def test_minighost_falls_back_with_reason(self, rows):
        row = next(r for r in rows if r.workload == "minighost")
        assert not row.eligible
        assert "prefetch-dominated" in row.fallback_reason
        assert row.within_bound  # vacuous: --fast never answers it

    def test_eligible_rows_within_documented_bounds(self, rows):
        eligible = [r for r in rows if r.eligible]
        assert eligible
        for row in eligible:
            assert row.fallback_reason == ""
            assert row.bandwidth_rel_error <= ANALYTIC_BW_ERROR_BOUND
            assert row.latency_rel_error <= ANALYTIC_LAT_ERROR_BOUND

    def test_pinned_errors(self, rows):
        for row in rows:
            errors = (row.bandwidth_rel_error, row.latency_rel_error)
            assert errors == pytest.approx(PINNED_ERRORS[row.workload], rel=1e-9)

    def test_table_ok(self, rows):
        assert table_ok(rows)

    def test_out_of_bound_row_fails_table(self, rows):
        bad = dataclasses.replace(
            rows[0], bandwidth_rel_error=ANALYTIC_BW_ERROR_BOUND + 0.01
        )
        assert not bad.within_bound
        assert not table_ok([*rows, bad])

    def test_unreasoned_fallback_fails_table(self, rows):
        bad = dataclasses.replace(rows[0], eligible=False, fallback_reason="")
        assert not table_ok([*rows, bad])

    def test_render(self, rows):
        text = render_analytic_crossval(rows)
        assert "in bound" in text
        assert "fallback: prefetch-dominated" in text
        assert "worst bw err" in text

    def test_json_export(self, rows):
        doc = json.loads(rows_to_json(rows))
        assert doc["bounds"]["bandwidth_rel_error"] == ANALYTIC_BW_ERROR_BOUND
        assert len(doc["rows"]) == len(rows)
        assert all("within_bound" in r for r in doc["rows"])


def test_reference_profile_built_once_per_machine(skl, knl, monkeypatch):
    """Every workload row of a machine shares one X-Mem characterization."""
    calls = []
    characterize = XMemRunner.characterize

    def counting(runner, *args, **kwargs):
        calls.append(runner.machine.name)
        return characterize(runner, *args, **kwargs)

    monkeypatch.setattr(XMemRunner, "characterize", counting)
    rows = crossval_analytic(machines=[skl, knl], xmem_config=LIGHT)
    assert len(rows) == 12  # six workload rows per machine
    assert calls == ["skl", "knl"]


def test_full_grid_shape_is_six_by_three():
    """The CI table covers every paper workload on every paper machine."""
    from repro.machines.registry import paper_machines

    names = {w.name for w in ALL_WORKLOADS}
    assert len(names) == 6
    assert len(paper_machines()) == 3
    for workload in ALL_WORKLOADS:
        for machine in paper_machines():
            assert machine.name in workload.machines()


def test_row_is_frozen(rows):
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].workload = "x"
