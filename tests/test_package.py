import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_process_pool():
    # the suite forks its children itself; a pool module would add import
    # time and memory to every command
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, escortdyn.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
