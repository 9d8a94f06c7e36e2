"""Record golden.json: the simulated cycle count of every cell of every
workload, at every input seed ``--seed`` can select.

    python3 perfbench/record_golden.py

Run it only at a commit whose cycle counts are known to be right; the
benchmark then fails every cell of a later commit that disagrees.
Cycle counts do not depend on compile-cache state, so every pass here
shares one warm cache.
"""

import json
import sys

import run


def main():
    run.import_program()
    workloads = run.workloads
    cycles = {}
    with run.scratch_dir("golden-") as cache_root:
        for workload in workloads.WORKLOADS:
            for seed in range(1, workloads.INPUT_SEEDS + 1):
                record = workloads.run_pass(workload, seed, cache_root)
                if record.problems:
                    raise SystemExit("\n".join(record.problems))
                for key, count in record.cells.items():
                    if cycles.setdefault(key, count) != count:
                        raise SystemExit("%s: %d cycles, earlier %d"
                                         % (key, count, cycles[key]))
                print("%s seed %d: %d cells, %d cycles"
                      % (workload, seed, record.attempted, record.cycles))
    with open(workloads.GOLDEN_PATH, "w") as handle:
        json.dump({"input_seeds": workloads.INPUT_SEEDS,
                   "lanes": workloads.LANES,
                   "cycles": cycles}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print("wrote %d cells to %s" % (len(cycles), workloads.GOLDEN_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
