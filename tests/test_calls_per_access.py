"""The call-count groups of benchmarks/calls_per_access.py, without running it.

Building perfbench's op lists constructs traces' generators and
runners but simulates nothing; only the op ids are read.
"""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def calls(monkeypatch):
    # The script imports its siblings, as it does when run as
    # ``python3 benchmarks/calls_per_access.py``.
    monkeypatch.syspath_prepend(str(_ROOT / "benchmarks"))
    path = _ROOT / "benchmarks" / "calls_per_access.py"
    spec = importlib.util.spec_from_file_location("calls_per_access", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def simulated_op_ids(monkeypatch, tmp_path):
    """Op ids of perfbench's ``sim_cold`` and ``sim_batch`` at full size."""
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    import workloads as wl
    from tracing import Tracer

    bench = wl.Bench(seed=1, size=wl.SIZES["full"], tmp=tmp_path, tracer=Tracer(False))
    ids = []
    for workload_cls in (wl.SimCold, wl.SimBatch):
        workload = workload_cls(bench)
        workload.setup()
        ids += [op.op_id for op in workload.ops()]
    return ids


def test_every_simulated_op_falls_in_one_group(calls, simulated_op_ids):
    prefixes = list(calls.GROUPS.values())
    for op_id in simulated_op_ids:
        assert sum(op_id.startswith(p) for p in prefixes) == 1, op_id


def test_every_group_counts_some_op(calls, simulated_op_ids):
    for group, prefix in calls.GROUPS.items():
        assert any(op_id.startswith(prefix) for op_id in simulated_op_ids), group

