"""Shared fixtures: kernel cache switches, environments, scenarios.

Scenario fixtures are session scoped — each case study runs once and its
artifacts are inspected by many tests.
"""

from __future__ import annotations

import pytest

from repro.kernel.term import set_kernel_caches
from repro.stdlib import make_env


@pytest.fixture
def kernel_caches_on():
    """Every kernel cache layer on, for tests of cache-active behaviour.

    Needed so the suite also passes under REPRO_DISABLE_KERNEL_CACHES=1,
    where the caches start off.
    """
    previous = set_kernel_caches(True)
    yield
    set_kernel_caches(previous)


@pytest.fixture
def no_kernel_caches():
    """Every kernel cache layer off, restored afterwards."""
    previous = set_kernel_caches(False)
    yield
    set_kernel_caches(previous)


@pytest.fixture
def session_builds(monkeypatch):
    """The setups server sessions build a base environment for, in order."""
    from repro.server import sessions

    builds = []
    build = sessions.build_environment

    def counting_build(setup):
        builds.append(setup)
        return build(setup)

    monkeypatch.setattr(sessions, "build_environment", counting_build)
    return builds


@pytest.fixture(scope="session")
def env_basic():
    """Prelude + nat only."""
    return make_env(lists=False, vectors=False)


@pytest.fixture(scope="session")
def env_lists():
    """Prelude + nat + list (with lemmas) + vector."""
    return make_env(lists=True, vectors=True)


@pytest.fixture(scope="session")
def env_binary():
    """Prelude + nat + positive/N (with peano recursors and lemmas)."""
    return make_env(lists=False, vectors=False, binary=True)


@pytest.fixture(scope="session")
def env_full():
    """Everything, including bitvectors."""
    return make_env(lists=True, vectors=True, binary=True, bitvectors=True)


@pytest.fixture(scope="session")
def quickstart_scenario():
    from repro.cases.quickstart import run_scenario

    return run_scenario()


@pytest.fixture(scope="session")
def replica_variants():
    from repro.cases.replica import run_scenario

    return run_scenario()


@pytest.fixture(scope="session")
def ornament_scenario():
    from repro.cases.ornaments_example import run_scenario

    return run_scenario()


@pytest.fixture(scope="session")
def binary_scenario():
    from repro.cases.binary import run_scenario

    return run_scenario()


@pytest.fixture(scope="session")
def galois_scenario():
    from repro.cases.galois import run_scenario

    return run_scenario()


@pytest.fixture(scope="session")
def refactor_scenario():
    from repro.cases.constr_refactor import run_scenario

    return run_scenario()
