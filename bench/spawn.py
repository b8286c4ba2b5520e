"""Run one command to completion and print its figures as one JSON line.

Usage: ``python3 spawn.py STDERR_FILE COMMAND...``.  Prints exit code, wall
time, CPU time (user + system) and peak resident memory of COMMAND.

Linux carries the resident-memory high-water mark of a process across
``exec``, so a child forked from the benchmark (which holds numpy and scipy)
would report at least the benchmark's own footprint.  This launcher imports
only the standard library, so the child's peak is its own.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    stderr_path, argv = sys.argv[1], sys.argv[2:]
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
