"""Child process behind setup_s: import qngm, set one workload up, print 'ready'.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print("ready", flush=True)
