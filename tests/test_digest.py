"""`tools/digest.py`: its sweep is deterministic, in one process and across
processes.  No digest is pinned, since libm makes them platform-dependent."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_in_process_and_in_a_child():
    digest = _load()
    first = digest.digests()
    assert [name for name, _ in first] == ["legendre_p", "_p_series_du", "dp_dnu0", "d2p_dnu2_0",
                                           "d3p_dnu3_0", "maclaurin_p", "dilog", "trilog",
                                           "run_all", "nu_derivative_oracle",
                                           "dilog_integral_oracle", "zeta3", "cli"]
    assert digest.digests() == first
    child = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                           check=True)
    assert [tuple(line.split()) for line in child.stdout.splitlines()] == first
