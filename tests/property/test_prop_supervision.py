"""Property: a supervised sweep is bit-identical to a serial one, no
matter which cell a worker dies on or how many workers run.  Crash
injection uses the one-shot ``REPRO_CHAOS_WORKER`` sentinel so every
sampled crash site recovers via retry."""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments import supervision
from repro.experiments.runner import Harness, RunSpec

SUITE = [("matrix", "seq"), ("matrix", "coupled"),
         ("fft", "coupled"), ("lud", "coupled")]


@pytest.fixture(autouse=True, scope="module")
def short_backoff():
    # Near-zero backoff: every sampled crash rebuilds the pool.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(supervision, "BACKOFF_BASE", 0.01)
        patch.setattr(supervision, "BACKOFF_CAP", 0.05)
        yield


def _fingerprint(results):
    return [(r.benchmark, r.mode, r.cycles, r.utilization,
             r.stats.summary()) for r in results]


_SERIAL = None


def serial_fingerprint():
    global _SERIAL
    if _SERIAL is None:
        harness = Harness(compile_cache=False)
        _SERIAL = _fingerprint(
            harness.run_many([RunSpec(b, m) for b, m in SUITE]))
    return _SERIAL


class TestSupervisedEqualsSerial:
    @settings(max_examples=6, deadline=None)
    @given(crash=st.integers(0, len(SUITE) - 1),
           workers=st.integers(2, 3),
           salt=st.integers(0, 2**31))
    def test_bit_identical_under_single_crash(self, crash, workers,
                                              salt, tmp_path_factory):
        benchmark, mode = SUITE[crash]
        sentinel = tmp_path_factory.mktemp("chaos") / ("s%d" % salt)
        os.environ["REPRO_CHAOS_WORKER"] = \
            "%s/%s@%s" % (benchmark, mode, sentinel)
        try:
            harness = Harness(compile_cache=False)
            results = harness.run_many(
                [RunSpec(b, m) for b, m in SUITE], workers=workers)
        finally:
            del os.environ["REPRO_CHAOS_WORKER"]
        assert _fingerprint(results) == serial_fingerprint()
