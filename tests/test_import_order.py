"""Import-order robustness and import boundaries.

The package has legitimate conceptual cycles (the advisor in ``core``
drives ``perfmodel`` over ``workloads`` states) that are broken with
type-only imports; these tests pin that property by importing each
subpackage as the *first* repro import in a fresh interpreter.

They also pin what a process loads.  Package ``__init__`` modules are
lazy namespaces (:func:`repro._lazy.lazy_namespace`), and numpy, the
simulator, the sanitizer and the process pool are imported where they
are used, so an analytic command never pays for them at start-up.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SUBPACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.core",
    "repro.counters",
    "repro.experiments",
    "repro.gpu",
    "repro.io",
    "repro.machines",
    "repro.memory",
    "repro.optim",
    "repro.perf",
    "repro.perfmodel",
    "repro.resilience",
    "repro.roofline",
    "repro.sim",
    "repro.tma",
    "repro.workloads",
    "repro.workloads.generators",
    "repro.cli",
    "repro.xmem",
]


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_fresh_import(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


#: Packages whose ``__init__`` resolves its names on first use.
LAZY_PACKAGES = [
    "repro.analysis",
    "repro.apps",
    "repro.core",
    "repro.counters",
    "repro.experiments",
    "repro.perf",
    "repro.perfmodel",
    "repro.sim",
]


def _loaded_after(code, watched, *, sanitize=False, cwd=None):
    """The ``watched`` modules present in ``sys.modules`` after ``code``."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    if sanitize:
        env["REPRO_SANITIZE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {list(watched)!r} if m in sys.modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


class TestImportBoundaries:
    def test_reproduce_loads_no_numpy_and_no_simulator(self, tmp_path):
        code = (
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['reproduce', '--table', 'all']) == 0"
        )
        loaded = _loaded_after(
            code, ["numpy", "repro.sim.hierarchy"], cwd=tmp_path
        )
        assert loaded == set()

    def test_simulation_without_sanitize_loads_no_sanitizer(self):
        code = (
            "import repro.sim\n"
            "from repro.machines import get_machine\n"
            "from repro.xmem.kernels import resident_trace\n"
            "skl = get_machine('skl')\n"
            "trace = resident_trace(threads=2, accesses_per_thread=200,"
            " line_bytes=skl.line_bytes)\n"
            "repro.sim.run_trace(trace, repro.sim.SimConfig(machine=skl))"
        )
        watched = ["repro.analysis.sanitizer", "repro.analysis.core"]
        assert _loaded_after(code, watched) == set()

    def test_serial_fan_out_loads_no_multiprocessing(self):
        code = (
            "import repro.perf\n"
            "assert repro.perf.fan_out(abs, [-1, -2], jobs=1) == [1, 2]"
        )
        assert _loaded_after(code, ["multiprocessing"]) == set()

    def test_sanitized_hierarchy_gets_its_sanitizer(self):
        code = (
            "from repro.machines import get_machine\n"
            "from repro.sim import Hierarchy, SimConfig\n"
            "h = Hierarchy(SimConfig(machine=get_machine('skl')))\n"
            "assert type(h.sanitizer).__name__ == 'RunSanitizer', h.sanitizer"
        )
        loaded = _loaded_after(code, ["repro.analysis.sanitizer"], sanitize=True)
        assert loaded == {"repro.analysis.sanitizer"}


def _type_checking_names(package):
    """Names the ``if TYPE_CHECKING:`` block of ``package`` imports."""
    path = SRC.joinpath(*package.split(".")) / "__init__.py"
    tree = ast.parse(path.read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                names.update(alias.asname or alias.name for alias in stmt.names)
    return names


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyNamespaces:
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listing, name

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018

    def test_type_checking_block_matches_exports(self, package):
        module = importlib.import_module(package)
        assert _type_checking_names(package) == set(module.__all__)
