"""Cold-start set-up probe: one fresh interpreter imports turncue, loads the
workload's config and builds its plan or script, then prints the seconds
that took. Usage: python3 perfbench/probe.py WORKLOAD SEED [tiny]
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from workloads import dense_inputs, study_inputs  # noqa: E402  (imports turncue)

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "dense":
    dense_inputs(seed, 0, tiny=len(sys.argv) > 3)
else:
    study_inputs(seed)
print(repr(time.perf_counter() - T0))
