"""Spawn commands one at a time and report their wall time and peak RSS.

Usage: python launcher.py  (then one JSON request per stdin line)

Linux carries the spawning process's memory high-water mark into the child's
``ru_maxrss`` at exec.  The benchmark process grows while it builds inputs
and checks outputs, so it starts this small process once and has it do
every spawn; a child's ``ru_maxrss`` then measures the child alone.

Request:  {"cmd": [...], "out": PATH, "err": PATH, "memory_limit": BYTES or null,
           "timeout_s": SECONDS}
Reply:    {"wall_s": ..., "rss_mb": ..., "exit_code": ...}

The child runs in this process's working directory with stdout and stderr
sent to the named files.  Wall time runs from spawn to exit; a child that
outlives ``timeout_s`` is killed.  The launcher exits when stdin closes.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    limit = request["memory_limit"]

    def preexec():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err, preexec_fn=preexec if limit else None)
        watchdog = threading.Timer(request["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit_code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
