"""numpy is the batch backend's dependency alone.

Each case runs in a fresh interpreter, because this process may have
loaded numpy already: scalar runs on the scan and fused event kernels
must leave numpy unloaded, and with numpy hidden they must still run
while the batch entry points refuse with their documented errors."""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCALAR_RUNS = """
import sys
from repro import baseline, compile_program, run_program
from repro.programs import get_benchmark

bench = get_benchmark("matrix")
config = baseline()
compiled = compile_program(bench.source("coupled"), config, mode="coupled")
for engine in (config.with_engine("scan"),
               config.with_engine("event").with_fusion(True)):
    result = run_program(compiled.program, engine,
                         overrides=bench.make_inputs(1))
    assert result.cycles > 0
"""

NO_NUMPY_LOADED = SCALAR_RUNS + """
assert "numpy" not in sys.modules
"""

BATCH_REFUSES = SCALAR_RUNS + """
from repro.errors import ConfigError, SimulationError
from repro.experiments import Harness, RunSpec
from repro.sim.batch import batch_supported, run_batch

assert not batch_supported()
try:
    run_batch(compiled.program, config,
              [bench.make_inputs(1), bench.make_inputs(2)])
except SimulationError as exc:
    assert "batch backend requires numpy" in str(exc), exc
else:
    raise AssertionError("run_batch ran without numpy")
try:
    Harness(compile_cache=None).run_many(
        [RunSpec("matrix", "coupled", seed=seed) for seed in (1, 2)],
        backend="batch")
except ConfigError as exc:
    assert "requires numpy" in str(exc), exc
else:
    raise AssertionError("run_many(backend='batch') ran without numpy")
"""


def _run(script, *path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path + (SRC,)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_scalar_runs_leave_numpy_unloaded():
    _run(NO_NUMPY_LOADED)


def test_without_numpy_scalar_runs_and_batch_refuses(tmp_path):
    # A numpy package that fails to import, first on the path, stands
    # in for an interpreter without numpy.
    hidden = tmp_path / "numpy"
    hidden.mkdir()
    (hidden / "__init__.py").write_text(
        "raise ImportError('numpy is hidden')\n")
    _run(BATCH_REFUSES, str(tmp_path))
