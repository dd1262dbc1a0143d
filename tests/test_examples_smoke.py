"""Every example script runs to completion (subprocess smoke tests)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _run(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_example_inventory():
    """The README promises at least these examples."""
    assert set(EXAMPLES) >= {
        "quickstart.py",
        "characterize_machine.py",
        "optimize_isx_knl.py",
        "roofline_vs_recipe.py",
        "tma_vs_mlp.py",
        "auto_advisor.py",
        "ingest_measurements.py",
        "real_kernels.py",
    }


def test_real_kernels():
    result = _run("real_kernels.py")
    assert result.returncode == 0, result.stderr
    assert "kernel verified = True" in result.stdout
    assert "classified" in result.stdout


def test_quickstart(tmp_path):
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "count_local_keys" in result.stdout
    assert "sw_prefetch_l2" in result.stdout


def test_characterize_machine(tmp_path):
    result = _run("characterize_machine.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "skl_profile.json").exists()
    assert (tmp_path / "a64fx_profile.json").exists()


def test_optimize_isx_knl():
    result = _run("optimize_isx_knl.py")
    assert result.returncode == 0, result.stderr
    assert "speedup" in result.stdout
    assert "migrated" in result.stdout


def test_roofline_vs_recipe():
    result = _run("roofline_vs_recipe.py")
    assert result.returncode == 0, result.stderr
    assert "L1-MSHR ceiling" in result.stdout


def test_tma_vs_mlp():
    result = _run("tma_vs_mlp.py")
    assert result.returncode == 0, result.stderr
    assert "TMA" in result.stdout


def test_auto_advisor():
    result = _run("auto_advisor.py")
    assert result.returncode == 0, result.stderr
    assert "Advisor trajectory" in result.stdout
    assert "GPU analysis" in result.stdout


def test_ingest_measurements():
    result = _run("ingest_measurements.py")
    assert result.returncode == 0, result.stderr
    assert "setCornerDiv" in result.stdout
