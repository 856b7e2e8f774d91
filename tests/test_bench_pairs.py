"""``bench/pairs.py``: the summary of paired benchmark runs, from canned
harness lines, and its clean-up with a stub harness; no test starts the
harness itself."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "bench", "pairs.py"))
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def line(wall, rate, attempted=4, failed=0):
    """A last line as ``perfbench/run.py`` prints it."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "rk4_steps_per_s": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


BETTER = {"wall_s": "lower", "rk4_steps_per_s": "higher"}
BASE_WALL = [0.50, 0.40, 0.30, 0.20, 0.10]
CHANGE_WALL = [0.45, 0.40, 0.35, 0.15, 0.05]  # lower in pairs 0, 3 and 4, a tie in pair 1


def test_medians_quartiles_and_pairs_won():
    runs = [{"base": {"last": line(b, 1 / b)}, "change": {"last": line(c, 1 / c)}}
            for b, c in zip(BASE_WALL, CHANGE_WALL)]
    summary = pairs.summarize(runs, BETTER)
    wall = summary["wall_s"]
    assert wall["base"] == pytest.approx({"median": 0.30, "q1": 0.20, "q3": 0.40})
    assert wall["change"] == pytest.approx({"median": 0.35, "q1": 0.15, "q3": 0.40})
    assert wall["pairs_won"] == 3
    rate = summary["rk4_steps_per_s"]
    assert rate["pairs_won"] == 3  # higher is better: the same pairs
    assert rate["base"]["median"] == pytest.approx(1 / 0.30)


def test_one_pair_is_its_own_quartiles():
    runs = [{"base": {"last": line(0.2, 5.0)}, "change": {"last": line(0.3, 4.0)}}]
    wall = pairs.summarize(runs, BETTER)["wall_s"]
    assert wall["change"] == {"median": 0.3, "q1": 0.3, "q3": 0.3} and wall["pairs_won"] == 0


def test_failed_operations_per_side():
    runs = [{"base": {"last": line(0.2, 5.0, 4, 0)}, "change": {"last": line(0.2, 5.0, 5, 1)}},
            {"base": {"last": line(0.2, 5.0, 6, 0)}, "change": {"last": line(0.2, 5.0, 3, 0)}},
            {"base": {"last": line(0.2, 5.0, 2, 2)}, "change": {"last": line(0.2, 5.0, 7, 3)}}]
    assert pairs.failures(runs) == {"base": {"incorrect_runs": 1, "attempted": 12, "failed": 2},
                                    "change": {"incorrect_runs": 2, "attempted": 15, "failed": 4}}


def test_the_harness_reads_no_bytecode_cache(tmp_path, monkeypatch):
    # a stub harness that reports the bytecode settings it was started with
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent("""
        import json, os, sys
        print(json.dumps({"write": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                          "prefix": os.environ.get("PYTHONPYCACHEPREFIX"),
                          "flags": [sys.flags.dont_write_bytecode, sys.pycache_prefix]}))
    """))
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    result = pairs.run_harness(str(tmp_path), [sys.executable, "perfbench/run.py"], "run_diag", 1, 1.0)
    assert json.loads(result["last"]) == {"write": "1", "prefix": None, "flags": [1, None]}
    assert not (tmp_path / "cache").exists() and not (tmp_path / "perfbench" / "__pycache__").exists()


def test_the_harness_result_is_its_last_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import sys
        seed = int(sys.argv[sys.argv.index("--seed") + 1])
        print("wall_s 0.1 s")
        print('meta {{"seed": 1}}')
        print({line(0.25, 8.0)!r}.replace("0.25", str(seed)))
    """))
    result = pairs.run_harness(str(tmp_path), [sys.executable, "perfbench/run.py"], "run_diag", 7, 1.0)
    assert result["meta"] == 'meta {"seed": 1}'
    assert json.loads(result["last"])["metrics"]["wall_s"]["value"] == 7


def test_sigterm_removes_the_unpacked_base(tmp_path):
    # a throwaway repository whose harness is a stub that sleeps once it has started
    repo, started = tmp_path / "repo", tmp_path / "started"
    (repo / "bench").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    shutil.copy(os.path.join(ROOT, "bench", "pairs.py"), repo / "bench")
    (repo / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import os, time
        with open({str(started)!r} + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename({str(started)!r} + ".tmp", {str(started)!r})
        time.sleep(60)
    """))
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "run_seconds": 1, "workloads": [{"name": "stub"}],
        "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub harness"]):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost", *args],
                       cwd=repo, check=True, capture_output=True)
    proc = subprocess.Popen([sys.executable, "bench/pairs.py", "--base", "HEAD", "--out", "out.json"],
                            cwd=repo, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert started.exists(), proc.stderr.read() if proc.poll() is not None else "the stub never started"
        assert len(list((repo / ".bench_build").iterdir())) == 1  # the base, unpacked while the stub runs
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert list((repo / ".bench_build").iterdir()) == [] and not (repo / "out.json").exists()
    with pytest.raises(ProcessLookupError):  # the stub was killed and reaped with it
        os.kill(int(started.read_text()), 0)


def test_both_sides_run_in_unpacked_trees(tmp_path):
    # a throwaway repository whose stub harness logs its working directory and what it sees there
    repo, log = tmp_path / "repo", tmp_path / "cwds"
    (repo / "bench").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    shutil.copy(os.path.join(ROOT, "bench", "pairs.py"), repo / "bench")
    (repo / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import os
        with open({str(log)!r}, "a") as fh:
            fh.write(os.getcwd() + " " + str(os.path.exists("untracked")) + "\\n")
        print({line(0.25, 8.0, 3, 1)!r})
    """))
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "run_seconds": 1, "workloads": [{"name": "stub"}],
        "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub harness"]):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost", *args],
                       cwd=repo, check=True, capture_output=True)
    (repo / "untracked").write_text("in the working tree only\n")
    subprocess.run([sys.executable, "bench/pairs.py", "--base", "HEAD", "--out", "out.json"],
                   cwd=repo, check=True, capture_output=True)
    seen = [entry.rsplit(" ", 1) for entry in log.read_text().splitlines()]
    trees = {cwd: untracked for cwd, untracked in seen}
    assert len(seen) == 2 * pairs.PAIRS and len(trees) == 2
    assert all(os.path.dirname(os.path.dirname(cwd)) == str(repo / ".bench_build") for cwd in trees)
    assert sorted(trees.values()) == ["False", "True"]  # the base commit, and the working tree
    assert list((repo / ".bench_build").iterdir()) == []
    doc = json.loads((repo / "out.json").read_text())
    side = {"incorrect_runs": pairs.PAIRS, "attempted": 3 * pairs.PAIRS, "failed": pairs.PAIRS}
    assert doc["workloads"]["stub"]["failures"] == {"base": side, "change": side}
