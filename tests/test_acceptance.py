"""Acceptance suite: every headline criterion at its pinned tolerance.

Runs the same registry as ``escortdyn paper-suite``. The fixture computes
all criteria once per session, from an empty trajectory cache, and counts
the trajectories integrated. It prints one pass/fail line each (visible
with ``pytest -s`` or on failure); the parametrized tests then assert each
criterion individually so a regression names the exact property broken.
"""

import os

import pytest

from escortdyn import dynamics, suite

CRITERION_NAMES = [c.name for c in suite.CRITERIA]


# the distinct runs of the full suite's plan and their RK4 steps
PLAN_RUNS = 19
PLAN_STEPS = 700_000

# the measured values of the serial suite, bit for bit: spreading the plan
# over processes changes where a run is integrated, never what it gives
MEASURED = {
    "rsp_product_conservation": "5.0769573730254556e-14",
    "poincare_inverse_sum": "1.3580534546382559e-14",
    "general_integral_of_motion": "1.723172502891261e-14",
    "lyapunov_monotonicity": "0.2663539419257823",
    "fisher_rate_gradient_flows": "5.585228963803212e-10",
    "nash_rest_points": "0.0",
    "orthogonal_projection_field": "0.0",
    "exponential_escort_rest_point": "0.0003885780586188048",
    "gauge_invariance": "2.275957200481571e-15",
    "selection_intensity_time_change": "1.8818280267396403e-14",
    "formal_solution_agreement": "1.9984014443252818e-15",
    "q_to_one_ordering": "0.10985106579580545",
    "roundtrips_and_cross_checks": "0.036211655896067896",
    "discrete_map_forms": "0.11102230246251564",
}


@pytest.fixture(scope="module")
def cold_run():
    suite.clear_cache()
    results, _ = suite.run_suite()
    out = {r.name: r for r in results}
    print()
    for name in CRITERION_NAMES:
        r = out[name]
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: measured {r.measured:.3e} vs tolerance {r.tolerance:.0e}")
    return out, suite._traj.cache_info().misses


@pytest.fixture(scope="module")
def results(cold_run):
    return cold_run[0]


def test_plan_runs_and_steps():
    runs = suite.plan(suite.CRITERIA)
    assert len(runs) == PLAN_RUNS
    assert sum(run.steps for run in runs) == PLAN_STEPS


def test_each_run_integrated_once(cold_run):
    assert cold_run[1] == PLAN_RUNS
    # a second suite finds every run cached and integrates nothing
    assert suite.integrate_runs(suite.plan(suite.CRITERIA)).runs == 0
    suite.run_suite()
    assert suite._traj.cache_info().misses == PLAN_RUNS


def test_measured_values_are_the_serial_ones(cold_run):
    assert {name: repr(r.measured) for name, r in cold_run[0].items()} == MEASURED


def test_one_cpu_gives_the_same_values_in_one_process(monkeypatch):
    # the criteria with the shortest runs: 5 runs, 3e4 RK4 steps
    names = ["exponential_escort_rest_point", "formal_solution_agreement"]
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", None)  # calling it would raise
    suite.clear_cache()
    assert suite.integrate_runs(suite.plan(suite.select(names))).processes == 1
    assert {r.name: repr(r.measured) for r in suite.run_suite(names)[0]} == {
        name: MEASURED[name] for name in names
    }
    suite.clear_cache()


def test_no_child_left(cold_run):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_is_complete():
    assert len(suite.CRITERIA) == 14
    assert len(CRITERION_NAMES) == len(set(CRITERION_NAMES))


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(results, name):
    r = results[name]
    assert r.passed, f"{name}: measured {r.measured:.6e} vs tolerance {r.tolerance:.0e} ({r.note})"
