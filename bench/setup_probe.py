"""Time one set-up in a fresh interpreter: `import abslog` plus the
workload's preparation before its first verdict.  Input generation is not
timed.  Prints the seconds at reference speed (see calibrate.py), from
calibration probes just before and just after the set-up.

    python3 bench/setup_probe.py WORKLOAD SEED
"""
import sys
import time
from pathlib import Path

import calibrate

calibrate.probe()  # warm-up
before = calibrate.probe()
sys.path.insert(0, "src")
t0 = time.perf_counter()
import abslog  # noqa: E402,F401  (the import is what is timed)
t_import = time.perf_counter() - t0

import gen  # noqa: E402
import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
cases = gen.generate(workload, seed, Path(".bench_out") / "probe" / workload)
t1 = time.perf_counter()
workloads.prepare(cases)
seconds = t_import + time.perf_counter() - t1
print(calibrate.at_reference(seconds, (before + calibrate.probe()) / 2))
