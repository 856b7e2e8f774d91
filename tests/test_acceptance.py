"""Acceptance suite: every headline criterion at its pinned tolerance.

Runs the same registry as ``escortdyn paper-suite``. The fixture computes
all criteria once per session, from an empty trajectory cache, and counts
the trajectories integrated. It prints one pass/fail line each (visible
with ``pytest -s`` or on failure); the parametrized tests then assert each
criterion individually so a regression names the exact property broken.
"""

import pytest

from escortdyn import suite

CRITERION_NAMES = [c.name for c in suite.CRITERIA]


# distinct trajectories the suite integrates; its other trajectory requests are cache hits
SUITE_TRAJECTORIES = 17


@pytest.fixture(scope="module")
def cold_run():
    suite.clear_cache()
    out = {r.name: r for r in suite.run_suite()}
    print()
    for name in CRITERION_NAMES:
        r = out[name]
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: measured {r.measured:.3e} vs tolerance {r.tolerance:.0e}")
    return out, suite._traj.cache_info().misses


@pytest.fixture(scope="module")
def results(cold_run):
    return cold_run[0]


def test_trajectory_cache_misses(cold_run):
    assert cold_run[1] == SUITE_TRAJECTORIES


def test_suite_is_complete():
    assert len(suite.CRITERIA) == 14
    assert len(CRITERION_NAMES) == len(set(CRITERION_NAMES))


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(results, name):
    r = results[name]
    assert r.passed, f"{name}: measured {r.measured:.6e} vs tolerance {r.tolerance:.0e} ({r.note})"
