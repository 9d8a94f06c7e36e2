"""Every script under ``examples/`` runs to completion: each is started
as a user would start it, in a fresh interpreter with ``src`` on the
path, and must exit 0 and print something."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    # The session's private compile cache (tests/conftest.py) reaches
    # the child through the environment.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert "REPRO_CACHE_DIR" in env
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
