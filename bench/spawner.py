"""Start commands and report their wall time, exit code and peak memory.

    python3 bench/spawner.py

Reads one JSON request per line on stdin,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds},
runs it with this process's environment, and answers with one line
{"seconds": ..., "code": ..., "rss_mb": ...}.  It exits at end of input.

The maximum RSS that wait4 reports for a child includes the RSS peak of
the process that started it, so commands are started from here, a
process that stays small, and not from bench/run.py, which grows while
it checks outputs.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def spawn(argv: list[str], out: str, err: str, timeout: float) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    done = threading.Event()

    def kill() -> None:
        if not done.is_set():
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        done.set()
        timer.cancel()
    return {
        "seconds": time.perf_counter() - start,
        "code": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
