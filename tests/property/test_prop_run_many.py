"""Sweep-harness invariants for Harness.run_many: the same spec list
must yield the same results — keyed to the right spec, in spec order,
bit-identical to a one-at-a-time serial harness — no matter how the
work is scheduled (serial, process pool, batch lane bundles), how the
specs are ordered, or how many duplicates the list carries.

These are the guarantees the bundle planner must not bend: grouping
seeded variants into lockstep lanes, peeling divergent lanes to the
scalar kernel, fanning one pooled bundle back out into per-lane cells,
and serving duplicate requesters from a single simulation are all
scheduling details that must be invisible in the returned list.
"""

import random

import pytest

from repro.errors import CellFailure, ConfigError
from repro.experiments.runner import Harness, RunSpec

pytest.importorskip("numpy", exc_type=ImportError)

#: Two bundles' worth of seeded variants plus a seedless singleton and
#: a second benchmark: exercises bundle grouping, the singleton path,
#: and cross-benchmark separation in one list.
SPECS = (
    [RunSpec("matrix", "coupled", seed=seed) for seed in (1, 2, 3)]
    + [RunSpec("fft", "seq", seed=seed) for seed in (1, 2)]
    + [RunSpec("matrix", "seq")]
)


def _reference():
    """One-at-a-time serial runs: the semantics every scheduling
    strategy must reproduce."""
    harness = Harness()
    return harness, [harness.run(s.benchmark, s.mode, seed=s.seed)
                     for s in SPECS]


def _same_cell(got, want):
    assert got.benchmark == want.benchmark
    assert got.mode == want.mode
    assert got.cycles == want.cycles
    assert got.stats.summary() == want.stats.summary()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", [None, "batch"])
def test_results_in_spec_order_any_schedule(workers, backend):
    __, want = _reference()
    harness = Harness()
    got = harness.run_many(SPECS, workers=workers, backend=backend)
    assert len(got) == len(SPECS)
    for spec, g, w in zip(SPECS, got, want):
        assert g.benchmark == spec.benchmark and g.mode == spec.mode
        _same_cell(g, w)


@pytest.mark.parametrize("backend", [None, "batch"])
def test_shuffled_specs_permute_results_identically(backend):
    __, want = _reference()
    order = list(range(len(SPECS)))
    random.Random(7).shuffle(order)
    harness = Harness()
    got = harness.run_many([SPECS[i] for i in order], backend=backend)
    for pos, i in enumerate(order):
        _same_cell(got[pos], want[i])


@pytest.mark.parametrize("backend", [None, "batch"])
def test_duplicates_share_one_simulation(backend):
    harness = Harness()
    specs = SPECS + SPECS[:3]            # three in-flight duplicates
    got = harness.run_many(specs, backend=backend)
    assert harness.deduped_in_flight == 3
    assert harness.deduped_cached == 0
    for dup, orig in zip(got[len(SPECS):], got[:3]):
        assert dup is orig               # served, not re-simulated
    # A second sweep over the same specs hits the run cache instead.
    again = harness.run_many(SPECS, backend=backend)
    assert harness.deduped_cached == len(SPECS)
    for g, w in zip(again, got):
        assert g is w


def test_batch_marks_bundled_lanes():
    harness = Harness()
    got = harness.run_many(SPECS, backend="batch")
    bundled = [r for r in got if r.backend.startswith("batch")]
    solo = [r for r in got if r.backend == "scalar"]
    # The two seeded groups bundle (3 + 2 lanes); the seedless
    # singleton stays scalar.
    assert sorted(r.lanes for r in bundled) == [2, 2, 3, 3, 3]
    assert len(solo) == 1 and solo[0].lanes == 1
    for r in bundled:
        assert r.peeled_lanes < r.lanes


def test_collect_reports_failures_per_lane():
    harness = Harness(max_cycles=30)     # every cell dies on budget
    got = harness.run_many(SPECS[:3], backend="batch",
                           on_error="collect")
    assert len(got) == 3
    for spec, cell in zip(SPECS[:3], got):
        assert isinstance(cell, CellFailure)
        assert not cell.ok
        assert cell.benchmark == spec.benchmark
        assert cell.mode == spec.mode


def test_bad_backend_rejected():
    harness = Harness()
    with pytest.raises(ConfigError):
        harness.run_many(SPECS[:2], backend="vector")


def test_batch_refuses_sanitizer():
    harness = Harness(sanitize=True)
    with pytest.raises(ConfigError):
        harness.run_many(SPECS[:2], backend="batch")
