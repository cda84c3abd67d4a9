"""Spawn benchmark jobs from a small process: python3 perfbench/launcher.py

Reads one JSON request per line on stdin, {"cmd": [...], "stdout": path,
"stderr": path}, runs the command to completion and answers with one
JSON line {"wall": s, "maxrss_kib": n, "code": n}.  A child's peak RSS
counts the memory of the process that spawned it, so jobs are spawned
from here rather than from the larger benchmark driver.  A job still
running after the timeout (argv[1], seconds) is killed.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout = int(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            actions = [
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            env = dict(os.environ, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
            pid = os.posix_spawn(request["cmd"][0], request["cmd"], env, file_actions=actions)
            signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
            signal.alarm(timeout)
            _, status, usage = os.wait4(pid, 0)
            signal.alarm(0)
            wall = time.perf_counter() - start
        reply = {"wall": wall, "maxrss_kib": usage.ru_maxrss,
                 "code": os.waitstatus_to_exitcode(status)}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
