"""Run one command to exit and print its wall time and rusage as JSON.

    python3 perfbench/launch.py TIMEOUT_S CMD [ARG ...]

The benchmark starts every stage through this small process instead of
directly: on Linux a child's ``ru_maxrss`` also counts the memory of the
process it was forked from, so a stage started from the benchmark itself
would report at least the benchmark's own peak RSS. The command is killed
after TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout = float(sys.argv[1])
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
