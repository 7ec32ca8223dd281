"""Measure one fresh process's set-up: `import matsec`, then building one
workload's instance and policy. Prints {"import_s", "build_s", "loop_s"},
where loop_s is the median time of the reference loop (calibrate.py) run
right after the set-up.

usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD
"""

import sys
import time

from calibrate import Calibration   # the probe's own directory is on sys.path

calibration = Calibration()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import matsec  # noqa: E402,F401
t1 = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[2]]
t2 = time.perf_counter()
workload.build()
t3 = time.perf_counter()
loop_s = statistics.median(calibration.loop_s() for _ in range(3))
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "loop_s": loop_s}))
