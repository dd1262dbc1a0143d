"""Shared fixtures: machines, small sim configs, cached latency profiles."""

from __future__ import annotations

import pytest

from repro.machines import get_machine
from repro.sim import SimConfig


@pytest.fixture(scope="session", autouse=True)
def _hermetic_sim_cache(tmp_path_factory):
    """Point the sim cache at a per-session temp dir.

    Keeps the test run hermetic: no reads of (possibly stale) user-level
    cache entries, no pollution of ``~/.cache``.  Within the session the
    cache still works, so repeated simulations of identical inputs hit.

    An explicitly exported ``REPRO_CACHE_DIR`` is honored instead — CI
    sets it to a workspace path persisted between runs (entries are
    digest-verified on load, so stale or corrupt files are just misses).
    """
    import os

    from repro.perf.cache import configure_cache

    explicit = os.environ.get("REPRO_CACHE_DIR")
    cache_dir = explicit if explicit else tmp_path_factory.mktemp("repro-sim-cache")
    configure_cache(cache_dir=cache_dir, enabled=True)
    yield


@pytest.fixture
def fresh_sim_cache(tmp_path, monkeypatch):
    """An empty sim cache for exact hit/miss counts; session cache restored.

    Parks the sanitizer (sanitized runs bypass the cache) and any ambient
    ``REPRO_FAULTS`` spec (a corrupted store turns a hit into a miss).
    Yields ``reopen()``, which reopens the same directory with zeroed
    counters — what a rerun in a new process sees.
    """
    import os

    from repro.perf import cache as cache_module
    from repro.resilience.faults import configure_faults

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    # setenv/setattr record the current values, restored at teardown.
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", os.environ.get("REPRO_CACHE_DIR", ""))
    monkeypatch.setattr(cache_module, "_global_cache", cache_module.get_cache())
    ambient = os.environ.get("REPRO_FAULTS")
    configure_faults(None)
    cache_dir = tmp_path / "sim-cache"

    def reopen():
        return cache_module.configure_cache(cache_dir=cache_dir, enabled=True)

    reopen()
    yield reopen
    configure_faults(ambient)


@pytest.fixture(scope="session")
def skl():
    return get_machine("skl")


@pytest.fixture(scope="session")
def knl():
    return get_machine("knl")


@pytest.fixture(scope="session")
def a64fx():
    return get_machine("a64fx")


@pytest.fixture(scope="session")
def all_machines(skl, knl, a64fx):
    return (skl, knl, a64fx)


@pytest.fixture
def small_skl_config(skl):
    """A 2-core SKL slice sized for fast unit tests."""
    return SimConfig(machine=skl, sim_cores=2, threads_per_core=1, window_per_core=16)


@pytest.fixture(scope="session")
def xmem_skl_profile(skl):
    """A real (measured) X-Mem profile for SKL; shared across tests."""
    from repro.xmem import XMemConfig, characterize_machine

    return characterize_machine(
        skl, XMemConfig(levels=8, accesses_per_thread=1500)
    )
