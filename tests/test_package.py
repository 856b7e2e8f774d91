import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import escortdyn


def test_all_lists_exactly_the_public_names():
    # a dangling entry fails to resolve; a forgotten export shows up as an extra public name
    for name in escortdyn.__all__:
        assert hasattr(escortdyn, name), name
    public = {
        name
        for name, value in vars(escortdyn).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(escortdyn.__all__) == sorted(public)
    assert len(set(escortdyn.__all__)) == len(escortdyn.__all__)


def _run_fresh(probe):
    """The stdout of ``probe`` run in a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_process_pool():
    # the suite forks its children itself; a pool module would add import
    # time and memory to every command
    probe = (
        "import sys, escortdyn.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    assert _run_fresh(probe) == "[]"


@pytest.mark.parametrize(
    "module, absent",
    [
        ("escortdyn.cli", ["numpy.random", "escortdyn.suite", "scipy", "hypothesis"]),
        ("escortdyn", ["numpy.random", "scipy", "hypothesis"]),
        ("escortdyn.suite", ["scipy"]),
    ],
)
def test_import_loads_neither_numpy_random_nor_the_suite(module, absent):
    # no run draws a random number and only paper-suite runs the suite, so
    # neither belongs in the memory of every run and sweep; numpy is the only
    # runtime dependency, and scipy and hypothesis serve the tests alone
    probe = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
    assert _run_fresh(probe) == "[]"
