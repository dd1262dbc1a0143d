"""Import-order robustness: any subpackage can be imported first.

The package has legitimate conceptual cycles (the advisor in ``core``
drives ``perfmodel`` over ``workloads`` states) that are broken with
type-only imports; these tests pin that property by importing each
subpackage as the *first* repro import in a fresh interpreter.
"""

import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.apps",
    "repro.core",
    "repro.counters",
    "repro.experiments",
    "repro.gpu",
    "repro.io",
    "repro.machines",
    "repro.memory",
    "repro.optim",
    "repro.perfmodel",
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
