"""Time, in a fresh process, what a workload needs before its first trial:
importing hypermatch and building and validating the workload config.

Usage: python3 bench/setup_probe.py <workload> <seed>
Prints the elapsed seconds.
"""

import sys
import time

started = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.load_program()
workloads.config(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - started))
