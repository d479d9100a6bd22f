"""Start the benchmark's commands from a process that stays small.

On Linux a child's `ru_maxrss` keeps the peak RSS of the address space it
was forked from, so a command started by the benchmark process itself, which
holds the inputs, the truth and the spans, would report the benchmark's
peak rather than its own. The launcher is started before the benchmark
grows; every command is forked from it.

Protocol: one JSON request per line on stdin, `{"argv": [...], "log": path}`;
one JSON answer per line on stdout, `{"code", "wall", "cpu", "rss_mb"}`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

COMMAND_TIMEOUT_S = 100


class Launcher:
    """The benchmark's handle on a launcher process."""

    def __init__(self, env: dict[str, str], cwd: str):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True
        )

    def run(self, argv: list[str], log_path) -> tuple[int, float, float, float]:
        """Run one command to its end: (exit code, wall s, user+system CPU s, peak RSS MiB)."""
        self._proc.stdin.write(json.dumps({"argv": argv, "log": str(log_path)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        answer = json.loads(line)
        return answer["code"], answer["wall"], answer["cpu"], answer["rss_mb"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        self._proc.stdout.close()


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
