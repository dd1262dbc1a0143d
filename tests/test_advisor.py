"""The automated Figure-1 loop (repro.core.advisor)."""

import pytest

from repro.core import Advisor
from repro.machines import get_machine
from repro.workloads import get_workload


def _run(workload_name, machine_name, **kwargs):
    return Advisor(
        get_workload(workload_name), get_machine(machine_name), **kwargs
    ).run()


class TestTrajectories:
    def test_isx_skl_stops_immediately(self):
        """Full L1 MSHRQ + saturated bandwidth: nothing to do."""
        result = _run("isx", "skl")
        assert result.steps == ()
        assert result.stop_reason == "recipe says stop"
        assert result.cumulative_speedup == 1.0

    def test_isx_knl_finds_the_l2_prefetch_unlock(self):
        result = _run("isx", "knl")
        assert any(step.step == "l2_prefetch" for step in result.steps)
        assert result.cumulative_speedup > 1.3
        assert result.final_state.binding_level == 2

    def test_isx_a64fx_prefetch_then_stop(self):
        result = _run("isx", "a64fx")
        assert [s.step for s in result.steps] == ["l2_prefetch"]

    def test_pennant_knl_vect_then_smt_stops_at_l1_wall(self):
        """The advisor must not take 4-way SMT at n=11.34/12."""
        result = _run("pennant", "knl")
        steps = [s.step for s in result.steps]
        assert steps[0] == "vectorize"
        assert "smt2" in steps
        assert "smt4" not in steps
        assert result.cumulative_speedup > 5.0

    def test_comd_knl_takes_all_smt_levels(self):
        result = _run("comd", "knl")
        steps = [s.step for s in result.steps]
        assert steps == ["vectorize", "smt2", "smt4"]

    def test_minighost_takes_tiling_not_smt(self):
        for machine in ("skl", "knl", "a64fx"):
            result = _run("minighost", machine)
            steps = [s.step for s in result.steps]
            assert "loop_tiling" in steps
            assert "smt2" not in steps

    def test_hpcg_a64fx_single_vectorize(self):
        result = _run("hpcg", "a64fx")
        assert [s.step for s in result.steps] == ["vectorize"]
        assert result.cumulative_speedup == pytest.approx(1.71, abs=0.05)


class TestMechanics:
    def test_iteration_cap_respected(self):
        result = _run("comd", "knl", max_iterations=1)
        assert len(result.steps) <= 1

    def test_steps_record_decisions(self):
        result = _run("pennant", "skl")
        for step in result.steps:
            assert step.decision.mlp.n_avg >= 0
            assert step.predicted_speedup >= 1.04  # KEEP_THRESHOLD

    def test_render(self):
        text = _run("isx", "knl").render()
        assert "Advisor trajectory" in text
        assert "l2_prefetch" in text

    def test_every_pair_terminates(self):
        from repro.machines import paper_machines
        from repro.workloads import ALL_WORKLOADS

        for workload in ALL_WORKLOADS:
            for machine in paper_machines():
                result = Advisor(workload, machine).run()
                assert result.stop_reason != "iteration cap reached"


#: Every paper cell's trajectory on the solver and on ``--fast``:
#: (workload, machine, fast) -> (steps, cumulative speedup, stop reason).
#: Speedups are compared exactly, so any change in how a version is
#: built, solved or judged shows up here.
PINNED_TRAJECTORIES = {
    ("isx", "skl", False): ((), 1.0, "recipe says stop"),
    ("isx", "skl", True): ((), 1.0, "recipe says stop"),
    ("isx", "knl", False): (("l2_prefetch",), 1.5866102707772576, "recipe says stop"),
    ("isx", "knl", True): (("l2_prefetch",), 1.5866102707772576, "recipe says stop"),
    ("isx", "a64fx", False): (("l2_prefetch",), 1.311437158766082, "recipe says stop"),
    ("isx", "a64fx", True): (("l2_prefetch",), 1.311437158766082, "recipe says stop"),
    ("hpcg", "skl", False): ((), 1.0, "no realizable recommendation pays off"),
    ("hpcg", "skl", True): ((), 1.0, "no realizable recommendation pays off"),
    ("hpcg", "knl", False): (("vectorize", "smt2"), 1.5079653163958981, "no realizable recommendation pays off"),
    ("hpcg", "knl", True): (("vectorize", "smt2"), 1.5079653163958981, "no realizable recommendation pays off"),
    ("hpcg", "a64fx", False): (("vectorize",), 1.7085558511429575, "recipe says stop"),
    ("hpcg", "a64fx", True): (("vectorize",), 1.7085558511429575, "recipe says stop"),
    ("pennant", "skl", False): (("vectorize", "smt2"), 2.7558569356221763, "no realizable recommendation pays off"),
    ("pennant", "skl", True): (("vectorize", "smt2"), 2.7558569356221763, "no realizable recommendation pays off"),
    ("pennant", "knl", False): (("vectorize", "smt2"), 6.944868018127127, "no realizable recommendation pays off"),
    ("pennant", "knl", True): (("vectorize", "smt2"), 6.944868018127127, "no realizable recommendation pays off"),
    ("pennant", "a64fx", False): (("vectorize",), 3.836041078013552, "no realizable recommendation pays off"),
    ("pennant", "a64fx", True): (("vectorize",), 3.836041078013552, "no realizable recommendation pays off"),
    ("comd", "skl", False): (("vectorize", "smt2"), 1.6758247090268565, "no realizable recommendation pays off"),
    ("comd", "skl", True): (("vectorize", "smt2"), 1.6758247090268565, "no realizable recommendation pays off"),
    ("comd", "knl", False): (("vectorize", "smt2", "smt4"), 2.5545680470248917, "no realizable recommendation pays off"),
    ("comd", "knl", True): (("vectorize", "smt2", "smt4"), 2.5545680470248917, "no realizable recommendation pays off"),
    ("comd", "a64fx", False): (("vectorize",), 1.249229182475289, "no realizable recommendation pays off"),
    ("comd", "a64fx", True): (("vectorize",), 1.249229182475289, "no realizable recommendation pays off"),
    ("minighost", "skl", False): (("loop_tiling",), 1.143783608681402, "recipe says stop"),
    ("minighost", "skl", True): (("loop_tiling",), 1.143783608681402, "recipe says stop"),
    ("minighost", "knl", False): (("loop_tiling",), 1.4421676636269147, "no realizable recommendation pays off"),
    ("minighost", "knl", True): (("loop_tiling",), 1.4421676636269147, "no realizable recommendation pays off"),
    ("minighost", "a64fx", False): (("loop_tiling",), 1.4945790090315336, "no realizable recommendation pays off"),
    ("minighost", "a64fx", True): (("loop_tiling",), 1.4945790090315336, "no realizable recommendation pays off"),
    ("snap", "skl", False): ((), 1.0, "no realizable recommendation pays off"),
    ("snap", "skl", True): ((), 1.0, "no realizable recommendation pays off"),
    ("snap", "knl", False): (("smt2", "sw_prefetch"), 1.2541639496705501, "no realizable recommendation pays off"),
    ("snap", "knl", True): (("smt2", "sw_prefetch"), 1.2541639496705501, "no realizable recommendation pays off"),
    ("snap", "a64fx", False): (("sw_prefetch",), 1.121836834731996, "no realizable recommendation pays off"),
    ("snap", "a64fx", True): (("sw_prefetch",), 1.121836834731996, "no realizable recommendation pays off"),
}


class TestPinnedTrajectories:
    @pytest.mark.parametrize(
        "cell", list(PINNED_TRAJECTORIES), ids=lambda c: "/".join(map(str, c))
    )
    def test_trajectory_unchanged(self, cell):
        workload, machine, fast = cell
        result = _run(workload, machine, fast=fast)
        got = (
            tuple(s.step for s in result.steps),
            result.cumulative_speedup,
            result.stop_reason,
        )
        assert got == PINNED_TRAJECTORIES[cell]
