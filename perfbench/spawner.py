"""Run commands one at a time and report each one's wall time, CPU time and peak RSS.

Usage: python spawner.py  (reads requests on stdin, one JSON object a line)

A request is ``{"argv": [...], "out": PATH, "err": PATH}``; the command runs
with this process's working directory and environment, its stdout and stderr
going to the two files.  The reply is one line
``{"code": EXIT, "seconds": WALL, "cpu_s": CPU, "maxrss_kb": PEAK}``.  End of
input stops it.

Why a process of its own: on Linux, ``exec`` keeps the high-water RSS of the
process image it replaces, so a child spawned straight from the benchmark
(which holds mpmath, numpy and the inputs) reports at least the benchmark's
own peak.  Spawned from here, a child's peak is its own or this small
process's, whichever is larger.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 120


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, request["out"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["err"], flags, 0o644)]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.alarm(0)
    return {"code": os.waitstatus_to_exitcode(status), "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
