"""Experiment harnesses regenerating every table and figure of the
paper's evaluation (Section 4):

* Table 2 / Figure 4 — baseline mode comparison (:mod:`table2`)
* Figure 5 — unit utilization breakdown (:mod:`figure5`)
* Table 3 — thread interference (:mod:`table3`)
* Figure 6 — restricted communication (:mod:`figure6`)
* Figure 7 — variable memory latency (:mod:`figure7`)
* Figure 8 — number and mix of function units (:mod:`figure8`)

Run them from the command line::

    python -m repro.experiments table2
    python -m repro.experiments all
"""

from . import figure5, figure6, figure7, figure8, paper, table2, table3
from .runner import Harness, RunResult, RunSpec
from .supervision import SweepJournal

__all__ = ["figure5", "figure6", "figure7", "figure8", "paper",
           "table2", "table3", "Harness", "RunResult", "RunSpec",
           "SweepJournal"]
