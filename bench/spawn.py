"""Starts the benchmark's CLI children from a small process.

On Linux a child's ru_maxrss also counts the resident set of the process
that forked it, so children started straight from run_bench.py would
report its generated inputs and numpy import as their peak memory. This
process stays near a bare interpreter's size. It reads one JSON request
per stdin line and answers each with one JSON line once the child has
been reaped; it exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["args"], stdout=out, stderr=err, env=req["env"],
                                cwd=req["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}),
          flush=True)
