"""Every example script runs to completion (subprocess smoke tests).

Each script runs in its own temporary working directory with its own
sim cache, so no run reads or writes the user's cache or the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _run(tmp_path: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    # The scripts import this checkout's package whatever the cwd is.
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
        REPRO_CACHE_DIR=str(tmp_path / "sim-cache"),
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
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


def test_real_kernels(tmp_path):
    result = _run(tmp_path, "real_kernels.py")
    assert result.returncode == 0, result.stderr
    assert "kernel verified = True" in result.stdout
    assert "classified" in result.stdout


def test_quickstart(tmp_path):
    result = _run(tmp_path, "quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "count_local_keys" in result.stdout
    assert "sw_prefetch_l2" in result.stdout


def test_characterize_machine(tmp_path):
    result = _run(tmp_path, "characterize_machine.py")
    assert result.returncode == 0, result.stderr
    # With no argument the profiles land in ./profiles.
    assert (tmp_path / "profiles" / "skl_profile.json").exists()
    assert (tmp_path / "profiles" / "a64fx_profile.json").exists()


def test_optimize_isx_knl(tmp_path):
    result = _run(tmp_path, "optimize_isx_knl.py")
    assert result.returncode == 0, result.stderr
    assert "speedup" in result.stdout
    assert "migrated" in result.stdout


def test_roofline_vs_recipe(tmp_path):
    result = _run(tmp_path, "roofline_vs_recipe.py")
    assert result.returncode == 0, result.stderr
    assert "L1-MSHR ceiling" in result.stdout


def test_tma_vs_mlp(tmp_path):
    result = _run(tmp_path, "tma_vs_mlp.py")
    assert result.returncode == 0, result.stderr
    assert "TMA" in result.stdout


def test_auto_advisor(tmp_path):
    result = _run(tmp_path, "auto_advisor.py")
    assert result.returncode == 0, result.stderr
    assert "Advisor trajectory" in result.stdout
    assert "GPU analysis" in result.stdout


def test_ingest_measurements(tmp_path):
    result = _run(tmp_path, "ingest_measurements.py")
    assert result.returncode == 0, result.stderr
    assert "setCornerDiv" in result.stdout
