"""The suite's run plan and its execution across processes.

The runs here are short (a few hundred RK4 steps each), so each test
integrates its plan in well under a second; ``tests/test_acceptance.py``
runs the full plan.
"""

import errno
import io
import math
import os
import pickle
import tempfile
import threading
import time

import numpy as np
import pytest

from escortdyn import dynamics, suite
from escortdyn.errors import DomainError
from escortdyn.landscapes import FitnessLandscape
from escortdyn.escorts import Identity, Power
from escortdyn.dynamics import Run, Termination, Trajectory
from escortdyn.suite import BARYCENTER_3, RSP_ESCORT, X0_CYCLE

RUNS = (
    Run(Identity(), "rsp", X0_CYCLE, 0.5, observe_every=10),
    Run(Power(2), RSP_ESCORT, X0_CYCLE, 0.4, observe_every=10, ref=BARYCENTER_3),
    Run(Power(2), "rsp", X0_CYCLE, 0.3, observe_every=10, formal=True),
    Run(Power(0.5), "neg_identity", (0.6, 0.3, 0.1), 0.2, observe_every=1, ref=BARYCENTER_3),
)
FIELDS = ("times", "states", "mean_fitness", "lyapunov", "integral_of_motion")


@pytest.fixture(autouse=True)
def empty_cache():
    suite.clear_cache()
    yield
    suite.clear_cache()


@pytest.fixture(scope="module")
def serial():
    """Each run's trajectory, integrated in this process."""
    return {run: run.integrate() for run in RUNS}


def assert_same(a, b):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    assert a.termination == b.termination


def assert_serial(serial):
    """Every run is cached, with its serial trajectory."""
    for run in RUNS:
        assert_same(suite._traj.store[run], serial[run])
    assert suite._traj.cache_info().misses == len(RUNS)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child(parent, action):
    """Run.integrate that does ``action`` instead in a forked child."""
    integrate = Run.integrate

    def wrapped(run):
        if os.getpid() != parent:
            action()
        return integrate(run)

    return wrapped


def test_plan_drops_duplicates_in_order():
    a, b = suite.Criterion("a", "", 1.0, None, RUNS[:2]), suite.Criterion("b", "", 1.0, None, RUNS[1:])
    assert suite.plan([a, b]) == list(RUNS)


@pytest.mark.parametrize("cpus", [2, 4])  # 4: more children than this machine may have cores
def test_the_queue_hands_out_every_run_once_in_order(monkeypatch, tmp_path, cpus):
    # most RK4 steps first, formal first among equal steps, else in order of first use
    runs = suite.plan(suite.CRITERIA)
    order = dynamics._queue_order(runs)
    assert sorted(map(id, order)) == sorted(map(id, runs))
    keys = [(-r.steps, not r.formal, runs.index(r)) for r in order]
    assert keys == sorted(keys)
    # each process appends the queue positions it takes, as it takes them
    log = tmp_path / "taken"

    def take(run):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {order.index(run)}\n")
        return run

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
    results, processes = dynamics.run_all(take, runs)
    assert results == runs and processes == 1 + cpus
    taken = {}
    for line in log.read_text().splitlines():
        pid, i = map(int, line.split())
        taken.setdefault(pid, []).append(i)
    assert sorted(sum(taken.values(), [])) == list(range(len(order)))
    assert taken.pop(os.getpid()) == [0]
    assert all(positions == sorted(positions) for positions in taken.values())
    assert_no_child()


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_forked_runs_equal_serial(monkeypatch, serial, cpus):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
    report = suite.integrate_runs(RUNS)
    assert (report.runs, report.processes) == (len(RUNS), 1 + min(cpus, len(RUNS) - 1))
    assert report.steps == sum(run.steps for run in RUNS)
    assert set(suite._traj.store) == set(RUNS)
    assert_serial(serial)
    assert_no_child()


def test_without_fork_no_process_is_started(monkeypatch, serial):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert suite.integrate_runs(RUNS).processes == 1
    assert_serial(serial)


def _raise():
    raise DomainError("only in the child")


def _die():
    os._exit(9)


def assert_redone_here(serial):
    """Every run is cached by the plan itself, as its serial trajectory."""
    assert set(suite._traj.store) == set(RUNS)
    assert_serial(serial)
    assert_no_child()


@pytest.mark.parametrize("action", [_raise, _die])
def test_failed_child_runs_are_redone_here(monkeypatch, serial, action):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(Run, "integrate", in_child(os.getpid(), action))
    suite.integrate_runs(RUNS)
    assert_redone_here(serial)


def test_runs_of_a_child_that_cannot_start_are_done_here(monkeypatch, serial):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert suite.integrate_runs(RUNS).processes == 1
    assert_redone_here(serial)


def test_this_process_always_integrates_the_same_run(monkeypatch):
    # the runs that this process integrates depend on the runs alone, not on a race
    parent, integrate, here = os.getpid(), Run.integrate, []

    def integrate_and_note(run):
        if os.getpid() == parent:
            here.append(run)
        return integrate(run)

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(Run, "integrate", integrate_and_note)
    for _ in range(3):
        suite.clear_cache()
        suite.integrate_runs(RUNS)
    assert here == [dynamics._queue_order(RUNS)[0]] * 3
    assert_no_child()


def test_a_queue_longer_than_a_pipe_holds(monkeypatch):
    # 20,000 indices of 4 bytes are more than a 64 KiB pipe holds; the queue file holds them all before the first fork
    runs = [Run(Identity(), "rsp", (i,), 1.0) for i in range(20_000)]
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    results, processes = dynamics.run_all(lambda run: run.x0[0], runs)
    assert results == list(range(20_000)) and processes == 3
    assert_no_child()


def test_the_queue_is_fed_without_a_thread(monkeypatch):
    # a queue longer than a pipe holds is written to its file before the first fork, by no thread
    parent, counts = os.getpid(), [threading.active_count()]

    def note(run):
        if os.getpid() == parent:
            counts.append(threading.active_count())
        return run.x0[0]

    runs = [Run(Identity(), "rsp", (i,), 1.0) for i in range(20_000)]
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    results, processes = dynamics.run_all(note, runs)
    counts.append(threading.active_count())
    assert results == list(range(20_000)) and processes == 3
    assert len(set(counts)) == 1
    assert_no_child()


def test_a_feed_that_no_child_reads_stops(monkeypatch):
    # every child exits at its first run, leaving the queue file unread: the caller does every run, waiting on nothing
    parent = os.getpid()

    def first_in_parent(run):
        if os.getpid() != parent:
            os._exit(9)
        return run.x0[0]

    runs = [Run(Identity(), "rsp", (i,), 1.0) for i in range(20_000)]
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    t0 = time.perf_counter()
    results, processes = dynamics.run_all(first_in_parent, runs)
    assert results == list(range(20_000)) and processes == 3
    assert time.perf_counter() - t0 < 30
    assert_no_child()


def test_each_record_goes_to_one_child(monkeypatch):
    # the children take records through the offset they share: none is read by two, none is skipped
    parent, here, taken = os.getpid(), [], []
    result = dynamics._Child.result

    def note_keys(child):
        out = result(child)
        taken.append(set(out))
        return out

    def note(run):
        if os.getpid() == parent:
            here.append(run.x0[0])
        return run.x0[0]

    runs = [Run(Identity(), "rsp", (i,), 1.0) for i in range(20_000)]
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(dynamics._Child, "result", note_keys)
    results, processes = dynamics.run_all(note, runs)
    assert results == list(range(20_000)) and processes == 3
    assert len(taken) == 2 and not taken[0] & taken[1]
    assert taken[0] | taken[1] == set(range(1, 20_000))
    assert here == [0]
    assert_no_child()


class FullFile(io.BytesIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, "no space left on device")


def no_file(*args, **kwargs):
    raise OSError(errno.EMFILE, "too many open files")


@pytest.mark.parametrize("make", [no_file, lambda *args, **kwargs: FullFile()], ids=["create", "write"])
def test_without_a_queue_file_every_run_is_done_here(monkeypatch, serial, make):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tempfile, "TemporaryFile", make)
    assert suite.integrate_runs(RUNS).processes == 1
    assert_redone_here(serial)


def test_unreadable_child_data_is_redone_here(monkeypatch, serial):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pickle, "dump", lambda obj, out, protocol: out.write(b"not a pickle"))
    suite.integrate_runs(RUNS)
    assert_redone_here(serial)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_run_raises_as_it_does_serially(monkeypatch, cpus):
    bad = Run(Identity(), "no_such_landscape", X0_CYCLE, 0.1, observe_every=10)
    with pytest.raises(Exception) as serial_err:
        bad.integrate()
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
    with pytest.raises(type(serial_err.value)) as err:
        suite.integrate_runs([bad, RUNS[0]])
    assert str(err.value) == str(serial_err.value)
    assert_no_child()


class Stop(BaseException):
    pass


def test_no_child_outlives_a_raising_parent(monkeypatch):
    parent = os.getpid()
    integrate = Run.integrate

    def integrate_or_stall(run):
        if os.getpid() == parent:
            raise Stop
        time.sleep(60)
        return integrate(run)

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(Run, "integrate", integrate_or_stall)
    t0 = time.perf_counter()
    with pytest.raises(Stop):
        suite.integrate_runs(RUNS)
    assert time.perf_counter() - t0 < 30
    assert_no_child()


def test_fisher_criterion_fails_with_a_note_when_its_potential_is_wrong(monkeypatch):
    # c05 compares Z_phi Var_phi[f] with dV/dt, equal only when f = grad V
    wrong = FitnessLandscape.custom(lambda x: x, potential=lambda x: -0.5 * float(x @ x), name="wrong")
    monkeypatch.setattr(suite, "builtin_landscape", lambda name: wrong)
    fisher = suite.CRITERIA_BY_NAME["fisher_rate_gradient_flows"]
    result = suite.Criterion(fisher.name, fisher.description, fisher.tolerance, fisher.fn).run()
    assert not result.passed and result.measured == float("inf")
    assert "declared potential mismatches f" in result.note
    assert "FAIL" in suite.format_report([result])


def test_a_criterion_on_its_own_integrates_its_runs(monkeypatch):
    name = "selection_intensity_time_change"
    monkeypatch.setattr(suite, "_traj", suite._TrajectoryCache())
    alone = suite.CRITERIA_BY_NAME[name].run()
    assert suite._traj.cache_info().misses == 2
    monkeypatch.setattr(suite, "_traj", suite._TrajectoryCache())
    (planned,), _ = suite.run_suite([name])
    assert alone == planned


# the criteria that reduce samples of the field, and those that reduce trajectory columns
NAN_FIELD = ["nash_rest_points", "orthogonal_projection_field", "exponential_escort_rest_point",
             "gauge_invariance"]
NAN_COLUMNS = ["general_integral_of_motion", "lyapunov_monotonicity",
               "selection_intensity_time_change", "formal_solution_agreement", "q_to_one_ordering"]


@pytest.mark.parametrize("name", NAN_FIELD + NAN_COLUMNS)
def test_a_nan_measurement_fails(monkeypatch, name):
    criterion = suite.CRITERIA_BY_NAME[name]
    if name in NAN_FIELD:
        monkeypatch.setattr(suite, "vector_field", lambda phi, f, x: np.full(3, np.nan))
    value = 1 / 3 if name in NAN_FIELD else np.nan  # c08's run stays at the barycenter
    trajectories = []
    for run in criterion.runs:
        m = run.steps // run.observe_every + 1
        nan = np.full(m, np.nan)
        trajectories.append(Trajectory(np.arange(m), np.full((m, 3), value), nan, nan, nan,
                                       Termination.completed()))
    suite._traj.add(criterion.runs, trajectories)
    result = criterion.run()
    assert math.isnan(result.measured) and result.passed is False
