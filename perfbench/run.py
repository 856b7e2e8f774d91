"""Run one escortdyn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload run_diag --seed 1 --seconds 30 --trace 0

Run it from the repository root (it builds nothing: escortdyn is pure
Python and runs from ``src``). ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` runs one unit untraced
and two traced, in-process, and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import CHILD, SUITE_SUBSET, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

SETUP_PROBES = 12  # per untraced run, one before each of the first units
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rk4_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-call latencies of the library workload, printed but not gated.
LATENCIES = ("log_p50_ms", "log_p99_ms", "exp_p50_ms", "exp_p99_ms")

PER_LAYER = {
    "dynamics.rk4_steps": "count",
    "dynamics.integrate_calls": "count",
    "dynamics.integrate_self_s": "s",
    "dynamics.us_per_step": "us",
    "escorts.weights_calls": "count",
    "escorts.weights_s": "s",
    "landscapes.calls": "count",
    "landscapes.s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "cli.rows_written": "count",
    "escorts.log_calls": "count",
    "escorts.log_s": "s",
    "geometry.divergence_profile_s": "s",
    "escorts.custom_fn_evals": "count",
    "escorts.exp_calls": "count",
    "escorts.exp_s": "s",
    "numerics.simpson_calls": "count",
    "numerics.simpson_s": "s",
    "numerics.invert_calls": "count",
    "numerics.invert_s": "s",
    "geometry.divergence_calls": "count",
    "geometry.divergence_s": "s",
    **{f"suite.{name}_s": "s" for name in SUITE_SUBSET},
    "suite.traj_cache_misses": "count",
    "dynamics.formal_solution_s": "s",
    "analysis.calls": "count",
    "analysis.s": "s",
    "cli.config_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Counts that must repeat exactly between two traced runs of one seed.
REPEATED_COUNTS = (
    "dynamics.rk4_steps",
    "escorts.weights_calls",
    "landscapes.calls",
    "escorts.log_calls",
    "escorts.custom_fn_evals",
    "numerics.simpson_calls",
    "cli.rows_written",
    "cli.write_bytes",
    "suite.traj_cache_misses",
)


def _alarm(_signum, _frame):
    raise TimeoutError(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


def child_env():
    """The caller's environment without ESCORTDYN_THREADS, importing from SRC."""
    env = {k: v for k, v in os.environ.items() if k != "ESCORTDYN_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, cwd):
    """Run ``argv`` to its end; returns (exit code, stdout, wall s, peak RSS MB)."""
    out_path, err_path = os.path.join(cwd, "child.out"), os.path.join(cwd, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def measure(w, seconds):
    """Untraced run: units until ``seconds`` of unit time, set-up probes between them."""
    setups, walls, rss, attempted, failed = [], [], [], 0, 0
    latency = {"log_ms": [], "exp_ms": []}

    def setup():
        code, stdout, _, _ = run_child([sys.executable, CHILD, "setup", w.name, w.input_path], w.tmp)
        if code != 0:
            raise RuntimeError("set-up probe failed")
        setups.append(float(stdout))

    while not walls or sum(walls) < seconds:
        if len(setups) < SETUP_PROBES:
            setup()
        code, stdout, wall, peak = run_child(w.argv(), w.tmp)
        walls.append(wall)
        rss.append(peak)
        result = {"code": code, "stdout": stdout}
        a, f = w.check(result)
        attempted, failed = attempted + a, failed + f
        for key in latency:
            latency[key] += result.get("calls", {}).get(key, [])
    while len(setups) < SETUP_PROBES:
        setup()

    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "rk4_steps_per_s": w.steps_per_unit / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    info = {"units": len(walls), "setups": len(setups)}
    if latency["log_ms"]:
        for key in latency:
            for p in (50, 99):
                info[f"{key[:3]}_p{p}_ms"] = percentile(latency[key], p)
        info["latency_samples"] = len(latency["log_ms"])
    return values, attempted, failed, True, info


def layer_values(tracer, result, wall):
    spans = tracer.spans()

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer(prefix, i):
        return sum(v[i] for k, v in spans.items() if k.startswith(prefix + "."))

    c = tracer.counters
    steps = c["integrate_steps"]
    return {
        "dynamics.rk4_steps": c["rk4_steps"],
        "dynamics.integrate_calls": count("dynamics.integrate"),
        "dynamics.integrate_self_s": own("dynamics.integrate"),
        "dynamics.us_per_step": 1e6 * total("dynamics.integrate") / steps if steps else 0.0,
        "escorts.weights_calls": count("escorts.weights"),
        "escorts.weights_s": own("escorts.weights"),
        "landscapes.calls": layer("landscapes", 0),
        "landscapes.s": layer("landscapes", 2),
        "cli.write_s": own("cli.write_trajectory"),
        "cli.write_bytes": c["write_bytes"],
        "cli.rows_written": c["rows_written"],
        "escorts.log_calls": count("escorts.log"),
        "escorts.log_s": own("escorts.log"),
        "geometry.divergence_profile_s": own("geometry.divergence_profile"),
        "escorts.custom_fn_evals": c.get("custom_fn_evals", 0),
        "escorts.exp_calls": count("escorts.exp"),
        "escorts.exp_s": own("escorts.exp"),
        "numerics.simpson_calls": count("numerics.adaptive_simpson"),
        "numerics.simpson_s": own("numerics.adaptive_simpson"),
        "numerics.invert_calls": count("numerics.invert_increasing"),
        "numerics.invert_s": own("numerics.invert_increasing"),
        "geometry.divergence_calls": count("geometry.escort_divergence"),
        "geometry.divergence_s": own("geometry.escort_divergence"),
        **{f"suite.{name}_s": total(f"suite.{name}") for name in SUITE_SUBSET},
        "suite.traj_cache_misses": result.get("traj_cache_misses", 0),
        "dynamics.formal_solution_s": total("dynamics.integrate_formal_solution"),
        "analysis.calls": layer("analysis", 0),
        "analysis.s": layer("analysis", 2),
        "cli.config_s": own("cli.config"),
        "trace.unattributed_s": wall - tracer.root_s,
    }


def traced(w):
    """Traced run: one unit untraced and two traced, all in this process."""
    sys.path.insert(0, SRC)
    os.environ.pop("ESCORTDYN_THREADS", None)
    from tracer import Tracer

    import child  # noqa: F401  (import before timing: set-up is not part of a unit)
    import escortdyn.cli  # noqa: F401

    attempted = failed = 0

    def unit(tracer=None):
        nonlocal attempted, failed
        t0 = time.perf_counter()
        result = w.run_inprocess(tracer)
        wall = time.perf_counter() - t0
        a, f = w.check(result)
        attempted, failed = attempted + a, failed + f
        return result, wall

    _, untraced_wall = unit()
    runs, walls = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            result, wall = unit(tracer)
        finally:
            tracer.uninstall()
        runs.append(layer_values(tracer, result, wall))
        walls.append(wall)

    repeat = all(runs[0][k] == runs[1][k] for k in REPEATED_COUNTS)
    if not repeat:
        diff = {k: (runs[0][k], runs[1][k]) for k in REPEATED_COUNTS if runs[0][k] != runs[1][k]}
        print(f"counts differ between the two traced runs: {diff}", file=sys.stderr)
    values = {k: (runs[0][k] if k in REPEATED_COUNTS else (runs[0][k] + runs[1][k]) / 2) for k in runs[0]}
    values["trace.overhead_s"] = statistics.mean(walls) - untraced_wall
    if values["dynamics.rk4_steps"] != w.steps_per_unit:
        print(f"note: traced RK4 steps {values['dynamics.rk4_steps']} differ from the "
              f"{w.steps_per_unit} the workload assumes for rk4_steps_per_s", file=sys.stderr)
    info = {"untraced_wall_s": untraced_wall, "traced_wall_s": walls, "counts_repeat": repeat}
    return values, attempted, failed, repeat, info


def git_commit():
    """The checked-out commit when ROOT is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def machine(w, seed):
    import numpy

    meta = {
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }
    if w.name == "sweep_q":
        meta["sweep_pool_size"] = max(1, min(os.cpu_count() or 1, len(w.qs)))
    if w.name == "paper_suite":
        meta["suite_measured"] = w.measured
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "escortdyn", "__init__.py")):
        print(f"escortdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        w = WORKLOADS[args.workload](random.Random(args.seed), tmp)
        if args.trace:
            values, attempted, failed, repeat, info = traced(w)
            units = PER_LAYER
        else:
            values, attempted, failed, repeat, info = measure(w, args.seconds)
            units = END_TO_END
        meta = machine(w, args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    print("meta " + json.dumps({**meta, **info}))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    for name in LATENCIES:
        if name in info:
            print(f"{name:40s} {info[name]:>16.6g} ms (not gated, from {info['latency_samples']} calls)")
    print(f"{'failed_frac':40s} {failed / max(attempted, 1):>16.6g} ({failed} of {attempted} operations)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and repeat
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
