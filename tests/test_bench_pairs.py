"""``bench/pairs.py``: the summary of paired benchmark runs, from canned
harness lines; no test starts the harness itself."""

import importlib.util
import json
import os
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "bench", "pairs.py"))
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def line(wall, rate):
    """A last line as ``perfbench/run.py`` prints it."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "rk4_steps_per_s": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics})


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
