"""Run one command and report its wall time, peak RSS and exit code.

Usage: python3 perfbench/spawn.py STDOUT_PATH ARG0 [ARG...]

The command's stdout goes to STDOUT_PATH and its stderr to
STDOUT_PATH + ".err".  One JSON object is printed:
{"wall_s": ..., "maxrss_kb": ..., "rc": ...}.

Why a separate launcher: Linux folds the peak RSS of the process that
spawned a child into the child's ru_maxrss (the old address space's high
water mark is recorded at exec).  The benchmark process holds numpy and
whole groups, so it would inflate every measurement; this launcher imports
only the standard library and keeps the floor near the bare interpreter's.
It also exports the spawn instant as PERFBENCH_SPAWNED_AT (CLOCK_MONOTONIC,
system-wide on Linux) so a traced child can time its own start-up.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    env = dict(os.environ)
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        env["PERFBENCH_SPAWNED_AT"] = repr(start)
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
