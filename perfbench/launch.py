"""Run one command; print its wall time, exit code and resource use as JSON.

Usage: ``python3 launch.py LOG LIMIT_S COMMAND...``

The benchmark starts every measured child through this small stdlib-only
process. Linux carries the peak RSS of the process that forks a child into
that child's own ``ru_maxrss``, so a child started straight from the
benchmark, which holds parsed inputs and outputs, would report the
benchmark's memory instead of its own. The rusage comes from ``os.wait4``
on the one child, not from ``RUSAGE_CHILDREN``, whose running maximum
would hide a drop in memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    log, limit_s, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall_s,
        "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
