"""Command line entry point: ``python -m repro.experiments <target>``.

Targets: table2, figure4, figure5, table3, figure6, figure7, figure8,
all.  Each prints the regenerated artifact next to the paper's
published values.  The extra ``resilience`` target (not part of
``all``) sweeps performance under injected unit faults.
"""

import argparse
import sys
import time

from . import (figure5, figure6, figure7, figure8, resilience, table2,
               table3)
from .runner import Harness

TARGETS = ("table2", "figure4", "figure5", "table3", "figure6",
           "figure7", "figure8", "resilience", "all")


def _emit(out, text):
    out.write(text + "\n\n")
    out.flush()


def main(argv=None, out=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input-data seed (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="resilience only: one benchmark, two fault "
                             "rates (CI smoke run)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="fan the experiment grid out over N "
                             "supervised worker processes")
    parser.add_argument("--on-error", choices=("raise", "collect"),
                        default="raise",
                        help="cell-failure policy: abort (raise, "
                             "default) or render failed cells as "
                             "missing/FAILED and keep going (collect)")
    args = parser.parse_args(argv)
    out = out or sys.stdout
    harness = Harness(seed=args.seed)
    sweep = {"workers": args.workers, "on_error": args.on_error}
    started = time.time()
    want = lambda name: args.target in (name, "all")
    if want("table2") or want("figure4"):
        rows = table2.run(harness, **sweep)
        if args.target != "figure4":
            _emit(out, table2.render(rows))
        if want("figure4"):
            _emit(out, table2.render_figure4(rows))
    if want("figure5"):
        _emit(out, figure5.render(figure5.run(harness, **sweep)))
    if want("table3"):
        _emit(out, table3.render(table3.run(seed=args.seed)))
    if want("figure6"):
        _emit(out, figure6.render(figure6.run(harness, **sweep)))
    if want("figure7"):
        _emit(out, figure7.render(figure7.run(harness, **sweep)))
    if want("figure8"):
        _emit(out, figure8.render(figure8.run(harness, **sweep)))
    if args.target == "resilience":
        if args.quick:
            cells = resilience.run(harness, rates=resilience.QUICK_RATES,
                                   benchmarks=("matrix",), **sweep)
        else:
            cells = resilience.run(harness, **sweep)
        _emit(out, resilience.render(cells))
    out.write("[%s done in %.1fs]\n" % (args.target,
                                        time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
