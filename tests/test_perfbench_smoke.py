"""The benchmark harness runs against the current package.

``perfbench/run.py`` reads fields of the package's results (for example
``MacNeilleReport.exhaustive`` for the traced verify layer), so a change
in ``src/`` can break the harness without failing any other test.  One
tiny capscale run, untraced and traced, guards that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_capscale_smoke_run_is_correct(trace):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", "capscale",
        "--seed", "1", "--seconds", "1", "--smoke", "--trace", trace,
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
