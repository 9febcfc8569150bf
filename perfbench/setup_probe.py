"""Set-up time of one fresh process: import tendist, build the bundle, make inputs.

Usage: setup_probe.py <workload> <seed>. Prints the seconds taken.
"""

import sys
import time

import bench_core

t0 = time.perf_counter()
tendist = bench_core.import_tendist()
bench_core.build(tendist, bench_core.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
