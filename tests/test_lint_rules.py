"""Per-rule tests: each built-in rule has passing and failing cases."""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.analysis import LintRunner, Severity, SourceFile, get_rule
from repro.analysis.rules.cachekey import (
    check_canonical_coverage,
    check_digest_sensitivity,
)
from repro.analysis.rules.specs import MSHR_BOUND_BY_DESIGN, check_machine
from repro.machines.registry import get_machine

#: Path prefix that puts a fixture inside the determinism-guarded scope.
SIM = Path("src/repro/sim")


def _lint(rule_prefix, path, text):
    source = SourceFile(Path(path), text=text)
    return LintRunner([get_rule(rule_prefix)]).run_sources([source])


class TestDeterminismRule:
    def test_clean_seeded_rng_passes(self):
        text = (
            "import random\n"
            "def gen(rng: random.Random):\n"
            "    return rng.random()\n"
            "parent = random.Random(42)\n"
        )
        assert _lint("DET", SIM / "gen.py", text).violations == []

    def test_wall_clock_flagged(self):
        result = _lint("DET", SIM / "x.py", "import time\nt = time.time()\n")
        assert [v.rule_id for v in result.violations] == ["DET001"]
        assert result.exit_code == 1

    def test_from_import_alias_flagged(self):
        text = "from time import perf_counter as pc\nt = pc()\n"
        assert [
            v.rule_id for v in _lint("DET", SIM / "x.py", text).violations
        ] == ["DET001"]

    def test_datetime_now_flagged(self):
        text = "import datetime\nts = datetime.datetime.now()\n"
        assert [
            v.rule_id for v in _lint("DET", SIM / "x.py", text).violations
        ] == ["DET001"]

    def test_global_rng_flagged(self):
        text = "import random\nx = random.randrange(10)\n"
        assert [
            v.rule_id for v in _lint("DET", SIM / "x.py", text).violations
        ] == ["DET002"]

    def test_unseeded_random_flagged_seeded_ok(self):
        bad = _lint("DET", SIM / "x.py", "import random\nr = random.Random()\n")
        good = _lint("DET", SIM / "x.py", "import random\nr = random.Random(3)\n")
        assert [v.rule_id for v in bad.violations] == ["DET002"]
        assert good.violations == []

    def test_numpy_legacy_global_flagged(self):
        text = "import numpy as np\nx = np.random.randint(10)\n"
        assert [
            v.rule_id for v in _lint("DET", SIM / "x.py", text).violations
        ] == ["DET002"]

    def test_numpy_unseeded_default_rng_flagged_seeded_ok(self):
        bad = _lint(
            "DET", SIM / "x.py", "import numpy as np\nr = np.random.default_rng()\n"
        )
        good = _lint(
            "DET", SIM / "x.py", "import numpy as np\nr = np.random.default_rng(3)\n"
        )
        assert [v.rule_id for v in bad.violations] == ["DET002"]
        assert good.violations == []

    def test_numpy_unseeded_bit_generator_flagged(self):
        text = "import numpy as np\ng = np.random.PCG64()\n"
        assert [
            v.rule_id for v in _lint("DET", SIM / "x.py", text).violations
        ] == ["DET002"]

    def test_numpy_from_import_default_rng_flagged(self):
        text = "from numpy.random import default_rng\nr = default_rng()\n"
        assert [
            v.rule_id for v in _lint("DET", SIM / "x.py", text).violations
        ] == ["DET002"]

    def test_numpy_generator_method_calls_pass(self):
        text = (
            "import numpy as np\n"
            "def gen(rng: np.random.Generator):\n"
            "    return rng.integers(0, 10, size=5)\n"
        )
        assert _lint("DET", SIM / "gen.py", text).violations == []

    def test_out_of_scope_path_not_checked(self):
        result = _lint(
            "DET", "src/repro/io/x.py", "import time\nt = time.time()\n"
        )
        assert result.violations == []

    def test_noqa_suppresses(self):
        text = "import time\nt = time.time()  # repro: noqa[DET001]\n"
        assert _lint("DET", SIM / "x.py", text).violations == []


class TestUnitSafetyRule:
    def test_helper_use_passes(self):
        text = (
            "from repro.units import gb_per_s, ns\n"
            "bw = gb_per_s(106.9)\n"
            "lat = ns(145)\n"
            "lines = 1024 * 64\n"  # int literals are address arithmetic
        )
        assert _lint("UNIT", "src/repro/core/x.py", text).violations == []

    def test_si_float_flagged(self):
        result = _lint("UNIT", "src/repro/core/x.py", "bw = x * 1e9\n")
        assert [v.rule_id for v in result.violations] == ["UNIT001"]

    def test_inverse_si_float_flagged(self):
        result = _lint("UNIT", "src/repro/core/x.py", "s = lat / 1e-9\n")
        assert [v.rule_id for v in result.violations] == ["UNIT001"]

    def test_binary_pow_flagged(self):
        result = _lint("UNIT", "src/repro/core/x.py", "size = n * 2**30\n")
        assert [v.rule_id for v in result.violations] == ["UNIT002"]

    def test_units_py_itself_exempt(self):
        result = _lint("UNIT", "src/repro/units.py", "GIGA = 2.0 * 1e9\n")
        assert result.violations == []

    def test_tests_exempt(self):
        result = _lint("UNIT", "tests/test_x.py", "assert y == x * 1e9\n")
        assert result.violations == []


class TestSlotsHygieneRule:
    def test_declared_slots_pass(self):
        text = (
            "class Node:\n"
            "    __slots__ = ('a', 'b')\n"
            "    def __init__(self):\n"
            "        self.a = 0\n"
            "        self.b = 0\n"
        )
        assert _lint("SLOT", SIM / "node.py", text).violations == []

    def test_out_of_slots_write_flagged(self):
        text = (
            "class Node:\n"
            "    __slots__ = ('a',)\n"
            "    def reset(self):\n"
            "        self.stray = 1\n"
        )
        result = _lint("SLOT", SIM / "node.py", text)
        assert [v.rule_id for v in result.violations] == ["SLOT001"]
        assert "stray" in result.violations[0].message

    def test_slots_dataclass_fields_are_slots(self):
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    def bump(self):\n"
            "        self.x += 1\n"
            "        self.y = 2\n"
        )
        result = _lint("SLOT", SIM / "p.py", text)
        assert [v.rule_id for v in result.violations] == ["SLOT001"]
        assert "self.y" in result.violations[0].message

    def test_inherited_slots_resolved(self):
        text = (
            "class Base:\n"
            "    __slots__ = ('a',)\n"
            "class Child(Base):\n"
            "    __slots__ = ('b',)\n"
            "    def go(self):\n"
            "        self.a = 1\n"
            "        self.b = 2\n"
        )
        assert _lint("SLOT", SIM / "c.py", text).violations == []

    def test_opaque_base_skipped(self):
        # Unknown base may carry __dict__; the rule must not guess.
        text = (
            "from somewhere import Base\n"
            "class Child(Base):\n"
            "    __slots__ = ()\n"
            "    def go(self):\n"
            "        self.anything = 1\n"
        )
        assert _lint("SLOT", SIM / "c.py", text).violations == []

    def test_unslotted_class_skipped(self):
        text = (
            "class Plain:\n"
            "    def go(self):\n"
            "        self.anything = 1\n"
        )
        assert _lint("SLOT", SIM / "c.py", text).violations == []


@dataclasses.dataclass(frozen=True)
class _Inner:
    gamma: int = 3


@dataclasses.dataclass(frozen=True)
class _Outer:
    alpha: int = 1
    beta: float = 2.0
    inner: _Inner = dataclasses.field(default_factory=_Inner)


def _full_canonical(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _digest_fields(*names):
    def _digest(obj):
        doc = {}
        for name in names:
            value = getattr(obj, name)
            doc[name] = (
                _full_canonical(value)
                if dataclasses.is_dataclass(value)
                else value
            )
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True, default=str).encode()
        ).hexdigest()

    return _digest


class TestCacheKeyChecks:
    def test_full_coverage_passes(self):
        found = list(
            check_canonical_coverage(
                _Outer(), _full_canonical, report_path="t.py", report_line=1
            )
        )
        assert found == []

    def test_missing_field_flagged(self):
        def lossy(obj):
            doc = _full_canonical(obj)
            doc.pop("beta", None)
            return doc

        found = list(
            check_canonical_coverage(
                _Outer(), lossy, report_path="t.py", report_line=1
            )
        )
        assert [v.rule_id for v in found] == ["KEY001"]
        assert "beta" in found[0].message

    def test_nested_dataclass_walked(self):
        def lossy(obj):
            doc = _full_canonical(obj)
            doc.pop("gamma", None)
            return doc

        found = list(
            check_canonical_coverage(
                _Outer(), lossy, report_path="t.py", report_line=1
            )
        )
        assert [v.rule_id for v in found] == ["KEY001"]
        assert "gamma" in found[0].message

    def test_sensitive_digest_passes(self):
        digest = _digest_fields("alpha", "beta", "inner")
        found = list(
            check_digest_sensitivity(
                _Outer(), digest, report_path="t.py", report_line=1
            )
        )
        assert found == []

    def test_ignored_field_flagged(self):
        digest = _digest_fields("alpha", "inner")  # beta never hashed
        found = list(
            check_digest_sensitivity(
                _Outer(), digest, report_path="t.py", report_line=1
            )
        )
        assert [v.rule_id for v in found] == ["KEY002"]
        assert "beta" in found[0].message

    def test_live_cache_is_clean(self):
        source = SourceFile(Path("src/repro/perf/cache.py"), text="x = 1\n")
        result = LintRunner([get_rule("KEY")]).run_sources([source])
        assert result.errors == []

    def test_columnar_trace_fields_all_reach_digest(self):
        import numpy as np

        from repro.sim.coltrace import (
            KIND_CODES,
            AccessColumns,
            columnar_trace,
            trace_digest,
        )
        from repro.sim.trace import AccessKind

        kinds = [KIND_CODES[AccessKind.LOAD], KIND_CODES[AccessKind.STORE]]
        trace = columnar_trace(
            [AccessColumns(np.array([0, 64]), np.array(kinds), np.array([1.0, 2.0]))],
            routine="audit",
        )
        found = list(
            check_digest_sensitivity(
                trace, trace_digest, report_path="t.py", report_line=1
            )
        )
        assert found == []

    def test_columnar_digest_blind_spot_flagged(self):
        import dataclasses as dc

        from repro.sim.coltrace import trace_digest, trace_from_addresses

        trace = trace_from_addresses([[0]], gap_cycles=1.0, routine="audit")

        def blind_to_line_bytes(t):
            return trace_digest(dc.replace(t, line_bytes=64))

        found = list(
            check_digest_sensitivity(
                trace, blind_to_line_bytes, report_path="t.py", report_line=1
            )
        )
        assert [v.rule_id for v in found] == ["KEY002"]
        assert "line_bytes" in found[0].message


class _StubCache:
    def __init__(self, level, mshrs):
        self.level = level
        self.mshrs = mshrs


class _StubMemory:
    def __init__(self, achievable_bw_bytes):
        self.achievable_bw_bytes = achievable_bw_bytes


class _StubMachine:
    """Minimal duck-typed MachineSpec for check_machine tests."""

    def __init__(
        self,
        *,
        mshrs=16,
        line_bytes=64,
        cores=4,
        idle_ns=100.0,
        achievable_bw_bytes=10e9,
    ):
        self.name = "stub"
        self.l1 = _StubCache(1, mshrs)
        self.l2 = _StubCache(2, mshrs)
        self.line_bytes = line_bytes
        self.active_cores = cores
        self.memory = _StubMemory(achievable_bw_bytes)
        # The curve's idle point is the SPEC003 best-case latency.
        self.latency_calibration = (
            (0.0, idle_ns),
            (1.0, 2.0 * idle_ns),
        )

    def max_bw_from_mshrs(self, level, latency_ns):
        return self.active_cores * self.l2.mshrs * self.line_bytes / (
            latency_ns * 1e-9
        )


class TestSpecConsistency:
    def test_consistent_machine_passes(self):
        # 4 cores x 16 MSHRs x 64 B / 100 ns = 40.96 GB/s >= 10 GB/s.
        assert list(check_machine(_StubMachine())) == []

    def test_paper_machines_pass(self):
        for name in ("skl", "knl", "a64fx"):
            assert list(check_machine(get_machine(name))) == [], name

    def test_zero_mshrs_flagged(self):
        found = list(check_machine(_StubMachine(mshrs=0)))
        assert {v.rule_id for v in found} == {"SPEC001"}
        assert len(found) == 2  # both cache levels

    def test_non_power_of_two_line_flagged(self):
        found = list(check_machine(_StubMachine(line_bytes=96)))
        assert [v.rule_id for v in found] == ["SPEC002"]

    def test_overcommitted_bandwidth_flagged(self):
        machine = _StubMachine(achievable_bw_bytes=100e9)  # ceiling ~41 GB/s
        found = list(check_machine(machine))
        assert [v.rule_id for v in found] == ["SPEC003"]
        assert found[0].severity is Severity.ERROR

    def test_mshr_bound_by_design_downgraded(self):
        machine = _StubMachine(achievable_bw_bytes=100e9)
        found = list(check_machine(machine, mshr_bound_ok=True))
        assert [v.rule_id for v in found] == ["SPEC003"]
        assert found[0].severity is Severity.WARNING
        assert "by design" in found[0].message

    def test_concept_machines_are_allowlisted(self):
        assert MSHR_BOUND_BY_DESIGN == {"hbm2e", "hbm3"}
        for name in MSHR_BOUND_BY_DESIGN:
            found = list(check_machine(get_machine(name), mshr_bound_ok=True))
            assert [v.rule_id for v in found] == ["SPEC003"]
            assert found[0].severity is Severity.WARNING


class TestResilienceHygieneRule:
    #: A path inside the guarded library scope.
    LIB = Path("src/repro/io/x.py")

    def test_handled_exception_passes(self):
        text = (
            "import warnings\n"
            "try:\n"
            "    work()\n"
            "except Exception as exc:\n"
            "    warnings.warn(f'degraded: {exc}')\n"
        )
        assert _lint("RES", self.LIB, text).violations == []

    def test_narrow_domain_type_passes(self):
        text = "try:\n    work()\nexcept KeyError:\n    pass\n"
        assert _lint("RES", self.LIB, text).violations == []

    def test_silent_exception_pass_flagged(self):
        text = "try:\n    work()\nexcept Exception:\n    pass\n"
        result = _lint("RES", self.LIB, text)
        assert [v.rule_id for v in result.violations] == ["RES001"]
        assert result.exit_code == 1

    def test_bare_except_continue_flagged(self):
        text = (
            "for item in items:\n"
            "    try:\n"
            "        work(item)\n"
            "    except:\n"
            "        continue\n"
        )
        assert [
            v.rule_id for v in _lint("RES", self.LIB, text).violations
        ] == ["RES001"]

    def test_oserror_pass_flagged(self):
        text = "try:\n    work()\nexcept OSError:\n    pass\n"
        assert [
            v.rule_id for v in _lint("RES", self.LIB, text).violations
        ] == ["RES001"]

    def test_tuple_containing_broad_type_flagged(self):
        text = "try:\n    work()\nexcept (OSError, TypeError):\n    return None\n"
        wrapped = "def f():\n" + "".join(
            "    " + line + "\n" for line in text.splitlines()
        )
        assert [
            v.rule_id for v in _lint("RES", self.LIB, wrapped).violations
        ] == ["RES001"]

    def test_return_of_bound_exception_passes(self):
        text = (
            "def f():\n"
            "    try:\n"
            "        return work()\n"
            "    except Exception as exc:\n"
            "        return exc\n"
        )
        assert _lint("RES", self.LIB, text).violations == []

    def test_resilience_layer_sanctioned(self):
        text = "try:\n    work()\nexcept Exception:\n    pass\n"
        path = Path("src/repro/resilience/faults.py")
        assert _lint("RES", path, text).violations == []

    def test_parallel_pool_machinery_linted(self):
        text = "try:\n    work()\nexcept Exception:\n    pass\n"
        path = Path("src/repro/perf/parallel.py")
        flagged = _lint("RES", path, text)
        assert [v.rule_id for v in flagged.violations] == ["RES001"]

    def test_tests_exempt(self):
        text = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert _lint("RES", Path("tests/test_x.py"), text).violations == []

    def test_noqa_suppresses(self):
        text = (
            "try:\n"
            "    work()\n"
            "except OSError:  # repro: noqa[RES001] - best-effort cleanup\n"
            "    pass\n"
        )
        assert _lint("RES", self.LIB, text).violations == []


class TestBarrierRule:
    def test_flushed_probe_passes(self):
        text = (
            "def train(core, line):\n"
            "    core.l2_array.flush_batch()\n"
            "    for t in core.pf.observe(line):\n"
            "        if core.l2_array.probe(t):\n"
            "            return t\n"
            "    return None\n"
        )
        assert _lint("BARRIER", SIM / "h.py", text).violations == []

    def test_unflushed_probe_flagged(self):
        text = (
            "def train(core, line):\n"
            "    for t in core.pf.observe(line):\n"
            "        if core.l2_array.probe(t):\n"
            "            return t\n"
            "    return None\n"
        )
        result = _lint("BARRIER", SIM / "h.py", text)
        assert [v.rule_id for v in result.violations] == ["BARRIER001"]
        assert "flush_batch" in result.violations[0].message
        assert result.exit_code == 1

    def test_flush_on_one_branch_only_flagged(self):
        # Must-analysis: a flush under `if` does not guard the join.
        text = (
            "def peek(core, flag, t):\n"
            "    if flag:\n"
            "        core.l1_array.flush_batch()\n"
            "    return core.l1_array.probe(t)\n"
        )
        assert [
            v.rule_id for v in _lint("BARRIER", SIM / "h.py", text).violations
        ] == ["BARRIER001"]

    def test_flush_on_both_branches_passes(self):
        text = (
            "def peek(core, flag, t):\n"
            "    if flag:\n"
            "        core.l1_array.flush_batch()\n"
            "    else:\n"
            "        core.l1_array.flush_batch()\n"
            "    return core.l1_array.probe(t)\n"
        )
        assert _lint("BARRIER", SIM / "h.py", text).violations == []

    def test_touch_batch_kills_the_barrier(self):
        text = (
            "def stale(core, lines, writes, t):\n"
            "    core.l1_array.flush_batch()\n"
            "    core.l1_array.touch_batch(lines, writes)\n"
            "    return core.l1_array.probe(t)\n"
        )
        assert [
            v.rule_id for v in _lint("BARRIER", SIM / "h.py", text).violations
        ] == ["BARRIER001"]

    def test_self_flushing_mutators_count_as_barriers(self):
        text = (
            "def warm(core, line, t):\n"
            "    core.l1_array.access(line)\n"
            "    return core.l1_array.probe(t)\n"
        )
        assert _lint("BARRIER", SIM / "h.py", text).violations == []

    def test_probe_batch_exempt(self):
        text = (
            "def fast(core, lines):\n"
            "    return core.l1_array.probe_batch(lines)\n"
        )
        assert _lint("BARRIER", SIM / "h.py", text).violations == []

    def test_resident_reads_guarded(self):
        # The TLB defers nothing, so its residency reads need no barrier.
        text = (
            "def count(core):\n"
            "    return core.l1_array.resident_lines() + core.tlb.resident_pages\n"
        )
        result = _lint("BARRIER", SIM / "h.py", text)
        (violation,) = result.violations
        assert violation.rule_id == "BARRIER001"
        assert "core.l1_array.resident_lines()" in violation.message

    def test_lru_state_read_guarded(self):
        text = (
            "def order(core):\n"
            "    return core.l1_array.lru_state()\n"
            "def flushed(core):\n"
            "    core.l1_array.flush_batch()\n"
            "    return core.l1_array.lru_state()\n"
        )
        result = _lint("BARRIER", SIM / "h.py", text)
        assert [(v.rule_id, v.line) for v in result.violations] == [("BARRIER001", 2)]

    def test_batch_machinery_files_exempt(self):
        text = (
            "def probe(self, t):\n"
            "    return self._sets[0]\n"
        )
        assert _lint("BARRIER", SIM / "cache.py", text).violations == []
        assert [
            v.rule_id for v in _lint("BARRIER", SIM / "tlb.py", text).violations
        ] == ["BARRIER001"]
        assert (
            _lint("BARRIER", Path("src/repro/core/x.py"), text).violations == []
        )

    def test_rebinding_receiver_root_kills(self):
        text = (
            "def swap(core, other, t):\n"
            "    core.l1_array.flush_batch()\n"
            "    core = other\n"
            "    return core.l1_array.probe(t)\n"
        )
        assert [
            v.rule_id for v in _lint("BARRIER", SIM / "h.py", text).violations
        ] == ["BARRIER001"]

    def test_noqa_suppresses(self):
        text = (
            "def peek(core, t):\n"
            "    return core.l1_array.probe(t)  # repro: noqa[BARRIER001]\n"
        )
        assert _lint("BARRIER", SIM / "h.py", text).violations == []


class TestFloatEqualityRule:
    def test_int_equality_passes(self):
        text = (
            "def check(n):\n"
            "    k = 3\n"
            "    return n == k or n != 7\n"
        )
        assert _lint("FPEQ", SIM / "m.py", text).violations == []

    def test_float_literal_equality_flagged(self):
        result = _lint("FPEQ", SIM / "m.py", "ok = x == 1.5\n")
        assert [v.rule_id for v in result.violations] == ["FPEQ001"]
        assert "isclose" in result.violations[0].message

    def test_float_local_tracked_through_dataflow(self):
        text = (
            "def drift(y):\n"
            "    z = 1.0\n"
            "    while z != y:\n"
            "        z = z / 2\n"
            "    return z\n"
        )
        assert [
            v.rule_id for v in _lint("FPEQ", SIM / "m.py", text).violations
        ] == ["FPEQ001"]

    def test_float_annotated_param_flagged(self):
        text = (
            "def same(a: float, b):\n"
            "    return a == b\n"
        )
        assert [
            v.rule_id for v in _lint("FPEQ", SIM / "m.py", text).violations
        ] == ["FPEQ001"]

    def test_rebound_to_int_forgets_floatness(self):
        text = (
            "def f(y):\n"
            "    z = 1.0\n"
            "    z = 3\n"
            "    return z == y\n"
        )
        assert _lint("FPEQ", SIM / "m.py", text).violations == []

    def test_ordering_comparisons_pass(self):
        text = "def f(x: float):\n    return x < 1.0 or x >= 0.5\n"
        assert _lint("FPEQ", SIM / "m.py", text).violations == []

    def test_division_result_flagged(self):
        text = "def f(a, b, c):\n    return a / b == c\n"
        assert [
            v.rule_id for v in _lint("FPEQ", SIM / "m.py", text).violations
        ] == ["FPEQ001"]

    def test_sanctioned_helper_exempt(self):
        text = (
            "def isclose_fast(a: float, b: float) -> bool:\n"
            "    return a == b or abs(a - b) < 1e-12\n"
        )
        assert _lint("FPEQ", SIM / "m.py", text).violations == []

    def test_perfmodel_in_scope_elsewhere_not(self):
        text = "ok = x == 1.5\n"
        flagged = _lint("FPEQ", Path("src/repro/perfmodel/m.py"), text)
        assert [v.rule_id for v in flagged.violations] == ["FPEQ001"]
        assert (
            _lint("FPEQ", Path("src/repro/core/m.py"), text).violations == []
        )


class TestFunctionDataflow:
    """The shared must-facts walker, driven directly."""

    @staticmethod
    def _run(text):
        import ast

        from repro.analysis import FunctionDataflow

        class Gen(FunctionDataflow):
            """gen('x') on gen(...) calls, kill on rebinds, log reads."""

            def __init__(self):
                self.reads = []

            def flow_expr(self, node, facts):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and isinstance(
                        sub.func, ast.Name
                    ):
                        if sub.func.id == "gen" and sub.args:
                            facts.add(sub.args[0].value)
                        elif sub.func.id == "read" and sub.args:
                            self.reads.append(
                                (sub.args[0].value, sub.args[0].value in facts)
                            )

            def flow_bind(self, target, facts):
                if isinstance(target, ast.Name):
                    facts.discard(target.id)

        flow = Gen()
        tree = ast.parse(text)
        exit_facts = flow.analyze(tree.body)
        return flow, exit_facts

    def test_straight_line_facts_flow(self):
        flow, exit_facts = self._run("gen('a')\nread('a')\nread('b')\n")
        assert flow.reads == [("a", True), ("b", False)]
        assert "a" in exit_facts

    def test_branches_intersect(self):
        text = (
            "if cond:\n"
            "    gen('a')\n"
            "    gen('b')\n"
            "else:\n"
            "    gen('a')\n"
            "read('a')\n"
            "read('b')\n"
        )
        flow, _ = self._run(text)
        assert ("a", True) in flow.reads
        assert ("b", False) in flow.reads

    def test_terminated_branch_does_not_dilute(self):
        text = (
            "if cond:\n"
            "    raise ValueError\n"
            "else:\n"
            "    gen('a')\n"
            "read('a')\n"
        )
        flow, _ = self._run(text)
        assert flow.reads == [("a", True)]

    def test_loop_body_facts_survive_iterations(self):
        text = (
            "gen('a')\n"
            "for i in items:\n"
            "    read('a')\n"
        )
        flow, _ = self._run(text)
        assert set(flow.reads) == {("a", True)}

    def test_loop_killed_fact_unavailable_second_pass(self):
        text = (
            "gen('a')\n"
            "for a in items:\n"
            "    read('a')\n"
        )
        flow, _ = self._run(text)
        # The loop variable rebind kills 'a' for every later iteration.
        assert ("a", False) in flow.reads

    def test_except_handler_starts_clean(self):
        text = (
            "gen('a')\n"
            "try:\n"
            "    work()\n"
            "except ValueError:\n"
            "    read('a')\n"
        )
        flow, _ = self._run(text)
        assert flow.reads == [("a", False)]

    def test_break_state_joins_after_loop(self):
        text = (
            "gen('a')\n"
            "while cond:\n"
            "    del a\n"
            "    break\n"
            "read('a')\n"
        )
        flow, _ = self._run(text)
        assert flow.reads == [("a", False)]
