"""Fresh-interpreter set-up of one workload, timed by ``run.py``.

Usage: ``python3 layerbench/setup_child.py <workload>``.  Does
what a new campaign process does before its first scenario -- imports,
calibration load, trace-pool fill -- and exits.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, cold_setup  # noqa: E402

if __name__ == "__main__":
    cold_setup(WORKLOADS[sys.argv[1]])
