"""The list scheduler's output, pinned byte for byte.

Compiles the paper suite on the machine shapes the figure sweeps
schedule for, and compares the sha256 of each program's assembly text
with ``schedule_pins.json``:

* every paper-suite (benchmark, mode) pair on the baseline machine;
* the same pairs under the Mem2 memory model (Figure 7);
* every benchmark's coupled program on one IU and one FPU (Figure 8).

A placement that moves by one row or one unit, gains or loses a
destination, or inserts a move in another order changes a digest.
Rewrite the pins only at a commit whose schedules are known to be
right::

    PYTHONPATH=src python -m tests.integration.test_schedule_pins
"""

import hashlib
import json
import os

import pytest

from repro import compile_program
from repro.experiments.paper import MODE_ORDER
from repro.isa import asmtext
from repro.machine import baseline, mem2, unit_mix
from repro.programs import get_benchmark
from repro.programs.suite import BENCHMARK_ORDER

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "schedule_pins.json")

MACHINES = {
    "baseline": baseline,
    "mem2": lambda: baseline().with_memory(mem2()),
    "mix-1iu-1fpu": lambda: unit_mix(1, 1),
}


def pinned_programs():
    """``machine/benchmark/mode`` for every pinned program."""
    keys = []
    for machine in ("baseline", "mem2"):
        for benchmark in BENCHMARK_ORDER:
            keys.extend("%s/%s/%s" % (machine, benchmark, mode)
                        for mode in MODE_ORDER
                        if mode in get_benchmark(benchmark).modes)
    keys.extend("mix-1iu-1fpu/%s/coupled" % benchmark
                for benchmark in BENCHMARK_ORDER)
    return keys


def digest(key):
    machine, benchmark, mode = key.split("/")
    compiled = compile_program(get_benchmark(benchmark).source(mode),
                               MACHINES[machine](), mode=mode)
    text = asmtext.emit(compiled.program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


def test_pins_cover_the_paper_grid():
    keys = pinned_programs()
    assert len(keys) == 40
    assert sorted(load_pins()) == sorted(keys)


@pytest.mark.parametrize("key", pinned_programs())
def test_schedule_is_byte_identical(key):
    assert digest(key) == load_pins()[key]


if __name__ == "__main__":
    pins = {key: digest(key) for key in pinned_programs()}
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d pins to %s" % (len(pins), PINS_PATH))
