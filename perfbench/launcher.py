"""Small helper process that spawns the benchmark's requests.

On Linux a child's ru_maxrss starts from the RSS of the process that spawned
it, so requests spawned straight from the benchmark (numpy and references
loaded) would report the benchmark's memory as their own.  This helper
imports nothing heavy and is started with ``python3 -S``, so its RSS stays
below any request's.

Protocol, one JSON object per line on stdin and stdout:
    in:  {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
    out: {"wall_s": float, "rss_kb": int, "exit_code": int}
Each request is timed from spawn to exit and reaped with wait4, which gives
that child's own peak RSS.  A request still running after ``timeout``
seconds is killed.  End of input ends the helper.
"""

import json
import os
import signal
import sys
import time


def _kill(pid):
    def handler(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited as the timer fired
            pass

    return handler


def main():
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        signal.signal(signal.SIGALRM, _kill(pid))
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        reply = {"wall_s": wall, "rss_kb": usage.ru_maxrss, "exit_code": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
