"""Run one command and record its own wall time and peak memory.

    python -I -S perfbench/launch.py RESULT_JSON CMD...

A process's ``ru_maxrss`` starts at the resident size of the process that
started it, so a child of the benchmark's large process would report that
size whenever it is the larger.  This small process forks and execs CMD,
waits for it and writes ``{"wall_s": ..., "rss_mb": ...}`` (peak RSS in
MiB) to RESULT_JSON.  It exits with CMD's exit code, or 128 plus the
signal that ended CMD.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    result_path, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - t0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall_s, "rss_mb": usage.ru_maxrss / 1024.0}, fh)
    code = os.waitstatus_to_exitcode(status)
    sys.exit(code if code >= 0 else 128 - code)
