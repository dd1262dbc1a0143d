"""Cross-validation experiment (trace generators vs descriptors)."""

import pytest

from repro.experiments import (
    CrossValidationRow,
    cross_validate,
    render_cross_validation,
)
from repro.machines import get_machine
from repro.workloads import get_workload


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def rows(self):
        # One machine here for speed; the bench covers all 18 pairs.
        return cross_validate(
            machines=[get_machine("skl")], accesses_per_thread=1500
        )

    def test_all_skl_rows_ok(self, rows):
        bad = [r.workload for r in rows if not r.ok]
        assert not bad

    def test_isx_classified_random(self, rows):
        isx = next(r for r in rows if r.workload == "isx")
        assert isx.classified_binding == 1
        assert isx.measured_prefetch_fraction < 0.2

    def test_minighost_classified_streaming(self, rows):
        mg = next(r for r in rows if r.workload == "minighost")
        assert mg.classified_binding == 2
        assert mg.l2_occupancy > mg.l1_occupancy

    def test_comd_binding_immaterial(self, rows):
        comd = next(r for r in rows if r.workload == "comd")
        assert comd.binding_immaterial

    def test_render(self, rows):
        text = render_cross_validation(rows)
        assert "verdict" in text
        assert "ok" in text

    def test_single_workload_filter(self):
        rows = cross_validate(
            machines=[get_machine("knl")],
            workloads=[get_workload("isx")],
            accesses_per_thread=800,
        )
        assert len(rows) == 1
        assert rows[0].machine == "knl"

    def test_rerun_resumes_from_sim_cache(self, fresh_sim_cache):
        knl = [get_machine("knl")]
        (done,) = cross_validate(
            machines=knl, workloads=[get_workload("isx")], accesses_per_thread=600
        )
        cache = fresh_sim_cache()
        rows = cross_validate(
            machines=knl,
            workloads=[get_workload("isx"), get_workload("hpcg")],
            accesses_per_thread=600,
        )
        assert (cache.counters.hits, cache.counters.misses) == (1, 1)
        assert rows[0] == done
