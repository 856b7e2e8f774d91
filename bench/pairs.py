"""Paired benchmark runs of a base commit and the working tree.

    python3 bench/pairs.py --base HEAD --out BENCH.json

The base commit is unpacked with ``git archive`` into a temporary directory.
BENCHMARK.json fixes the command, the run length T and, unless ``--workloads``
names others (``sweep_q`` is not gated), the workloads. Each of ``PAIRS``
pairs per workload runs ``<command> --workload W --seed S --seconds T --trace
0`` once in each tree, with a fresh seed S per pair; the base goes first in
even pairs and the working tree in odd ones. The output holds each run's last
line and ``meta`` line verbatim; per end-to-end metric of BENCHMARK.json, each
side's median and quartiles (inclusive method) and the pairs the working tree
won (ties count for neither side); the machine, the Python and numpy versions,
the base commit, HEAD, and the measured tree's top-level entries (``git
ls-tree`` of the working tree as ``git add -A`` would commit it, untracked
files included), which a later commit's ``git ls-tree`` can be checked against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import tempfile

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
PAIRS = 10


def summarize(pairs, better):
    """Per metric of ``better`` ({name: "lower" | "higher"}): each side's median
    and quartiles over ``pairs``, a list of {side: {"last": the harness's last
    line}}, and the pairs the change won."""
    results = [{side: json.loads(p[side]["last"]) for side in SIDES} for p in pairs]
    out = {}
    for name, direction in better.items():
        values = {side: [r[side]["metrics"][name]["value"] for r in results] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        row = {"pairs_won": sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))}
        for side, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
            row[side] = {"median": median, "q1": q1, "q3": q3}
        out[name] = row
    return out


def run_harness(tree, command, workload, seed, seconds):
    """The harness's last line and ``meta`` line in ``tree``: {"last", "meta"}."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"last": lines[-1], "meta": next((x for x in lines if x.startswith("meta ")), None)}


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def worktree():
    """The tree hash of the working tree as ``git add -A`` would commit it, and
    its top-level {name: object hash}; a temporary index leaves the real one alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree = git("write-tree", env=env)
    return tree, {line.split("\t")[1]: line.split()[2] for line in git("ls-tree", tree).splitlines()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare the working tree with")
    parser.add_argument("--workloads", help="comma-separated workload names (default: those of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed; pair i takes seed + i")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    tree, entries = worktree()
    doc = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(), "python": platform.python_version(),
           "numpy": numpy.__version__, "base": git("rev-parse", args.base), "change": git("rev-parse", "HEAD"),
           "change_dirty": tree != git("rev-parse", "HEAD^{tree}"), "change_tree": entries,
           "seconds": bench["run_seconds"], "workloads": {}}
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        trees = {"base": base, "change": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                first = SIDES if i % 2 == 0 else SIDES[::-1]
                pairs.append({side: run_harness(trees[side], bench["command"], workload, args.seed + i,
                                                bench["run_seconds"]) for side in first})
                print(workload, i, {s: pairs[-1][s]["last"] for s in SIDES}, flush=True)
            doc["workloads"][workload] = {"seeds": [args.seed + i for i in range(PAIRS)], "runs": pairs,
                                          "metrics": summarize(pairs, better)}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
