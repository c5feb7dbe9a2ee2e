"""Start the benchmark's commands from a small process; report their rusage.

A process's max-RSS, as wait4 reports it, is at least the resident size of
the process that started it: at exec the kernel keeps the high-water mark
of the address space being replaced, and a vfork child replaces its
parent's.  run.py holds reports in memory and outgrows an ffcount command,
so it starts this launcher once and runs every command through it; the
floor is then this process's own few megabytes.

Reads one JSON request per line on stdin (argv, env, cwd, out, err, timeout),
runs argv with stdout and stderr going to the files out and err, kills it
after timeout seconds, and answers with one JSON line: wall, cpu, rss_kb, rc.
Exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                          "rss_kb": ru.ru_maxrss, "rc": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
