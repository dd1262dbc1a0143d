"""The groups and the bytecode counter of benchmarks/calls_per_access.py.

Building perfbench's op lists constructs traces' generators and
runners but simulates nothing; only the op ids are read.  The ``probe``
group is checked against ``analytic``'s set-up with the calibration
stubbed out, so nothing is simulated there either.
"""

import importlib.util
import sys
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


def test_probe_group_is_analytics_setup(calls, monkeypatch, tmp_path, fresh_sim_cache):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    import workloads as wl
    from tracing import Tracer

    from repro.perfmodel.queueing import DEFAULT_PROBE_GAPS

    seen = []

    def calibrate(machine, **kwargs):
        seen.append((machine.name, kwargs))
        return machine.latency_model

    monkeypatch.setattr(wl, "calibrate_from_probes", calibrate)
    bench = wl.Bench(seed=1, size=wl.SIZES["full"], tmp=tmp_path, tracer=Tracer(False))
    wl.Analytic(bench).setup()
    setup_calls, seen[:] = list(seen), []
    ops = calls.probe_ops(wl, bench)
    for op in ops:
        op.run()
    assert seen == setup_calls
    # Five levels (the default gaps) on each paper machine.
    assert [name for name, _ in seen] == ["skl", "knl", "a64fx"]
    kwargs = {"accesses_per_thread": bench.size.probe_accesses}
    assert all(kw == kwargs for _, kw in seen)
    assert len(DEFAULT_PROBE_GAPS) == 5
    # Apart from the op-prefix groups.
    for op in ops:
        assert op.op_id.startswith(calls.PROBE_GROUP + "/")
        assert not any(op.op_id.startswith(p) for p in calls.GROUPS.values())


def _loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_bytecode_count_grows_with_the_work(calls):
    previous = sys.gettrace()
    counts = [calls.count_bytecodes(_loop, n) for n in (0, 1, 2, 10)]
    assert [result for result, _ in counts] == [0, 0, 1, 45]
    executed = [n for _, n in counts]
    per_iteration = executed[2] - executed[1]
    assert per_iteration > 0
    assert executed[3] - executed[0] == 10 * per_iteration
    assert sys.gettrace() is previous
