"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.machine import baseline, single_cluster


@pytest.fixture(autouse=True, scope="session")
def _private_compile_cache(tmp_path_factory):
    """Point the default compile cache at a fresh directory for the
    whole run.  The suite then never loads programs another checkout
    compiled (a compiler change that forgot to bump ``CACHE_FORMAT``
    would pass against stale entries) and never writes to the user's
    cache.  Tests of the cache itself still set their own directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("compile-cache")))
        yield


@pytest.fixture
def config():
    """The paper's baseline machine."""
    return baseline()


@pytest.fixture
def small_config():
    """One arithmetic cluster plus one branch cluster."""
    return single_cluster()


#: The keys of ``RunResult.as_record()``: a sweep journal's cell line
#: and a ``repro bench`` result hold these.
RECORD_KEYS = {"benchmark", "mode", "cycles", "utilization", "stats",
               "fused_dispatches", "defuse_reasons", "quarantined_blocks",
               "wall_seconds", "compile_seconds", "cache_hit", "backend",
               "lanes", "peeled_lanes"}


def compile_and_run(source, config, mode="sts", overrides=None, **kwargs):
    """Compile source and simulate it; returns the SimResult."""
    from repro import compile_program, run_program
    compiled = compile_program(source, config, mode=mode)
    return run_program(compiled.program, config, overrides=overrides,
                       **kwargs)


def _lane_inputs(program, overrides):
    """Input dicts for a two-lane bundle of ``program``: lane 0 holds
    exactly the image ``overrides`` loads, and lane 1 the same with
    every initially full word moved by one (ints) or a half (floats),
    so the two lanes' values really differ."""
    lane0, lane1 = {}, {}
    for name, symbol in program.data.symbols.items():
        values = ((overrides or {}).get(name) or symbol.init_values
                  or [0] * symbol.size)
        lane0[name] = values
        lane1[name] = [value + (0.5 if isinstance(value, float) else 1)
                       for value in values] \
            if symbol.initially_full else values
    return lane0, lane1


def run_every_tier(program, config, overrides=None):
    """Run ``program`` on the scan, unfused event and fused event
    kernels, and (where numpy is installed) as lane 0 of a two-lane
    batch bundle, and assert they agree in ``SimResult.outcome()``;
    returns the fused run.

    Fusion warmup is forced to one dispatch, so even a short generated
    program reaches superblock code instead of staying interpreted.  A
    lane 0 that peels is re-run on the scalar kernel, as the harness
    does, so the batch comparison always has a result to check."""
    from repro.sim import predecode, run_program
    from repro.sim.batch import batch_supported, run_batch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predecode, "_WARMUP_DISPATCHES", 1)
        runs = {label: run_program(program, config.with_engine(engine)
                                   .with_fusion(fusion), overrides=overrides)
                for label, engine, fusion in (("scan", "scan", False),
                                              ("event", "event", False),
                                              ("fused", "event", True))}
    if batch_supported():
        lanes = _lane_inputs(program, overrides)
        unfused = config.with_engine("event").with_fusion(False)
        lane = run_batch(program, unfused, lanes).results[0]
        runs["batch"] = lane if lane is not None else \
            run_program(program, unfused, overrides=lanes[0])
    scan = runs["scan"].outcome()
    for label, other in runs.items():
        assert other.outcome() == scan, label
    return runs["fused"]


def assert_matches_interp(source, config, modes=("sts",), overrides=None):
    """Differential test: simulated memory must equal the reference
    interpreter's for every requested mode and every symbol."""
    from repro import compile_program, interpret, run_program
    expected = interpret(source, overrides=overrides)
    for mode in modes:
        compiled = compile_program(source, config, mode=mode)
        result = run_program(compiled.program, config,
                             overrides=overrides)
        for symbol in expected.memory:
            got = result.read_symbol(symbol)
            want = expected.read_symbol(symbol)
            assert got == want, (
                "mode %s symbol %s: %r != %r" % (mode, symbol, got, want))
    return expected
