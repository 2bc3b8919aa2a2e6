"""Set-up probe, run by run.py in a fresh interpreter (with -X importtime)
per sample: `setup_probe.py <workload> <directory for its files>`.

Imports ssderiv (and ssderiv.cli for the cli workload), then runs the
workload's fixed warm-up job, and prints one JSON line: the import time and
the time spent generating the warm-up input, which run.py subtracts from the
spawn-to-ready time it measures.
"""

import json
import os
import sys
import time

start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ssderiv  # noqa: E402,F401

if sys.argv[1] == "cli":
    import ssderiv.cli  # noqa: F401
imported = time.perf_counter()

import workloads  # noqa: E402

wl = workloads.make(sys.argv[1], sys.argv[2])
job = wl.generate(workloads.WARMUP_SEED, 0)
gen_s = time.perf_counter() - imported
wl.run(job)
print(json.dumps({"ssderiv_s": imported - start, "gen_s": gen_s}), flush=True)
