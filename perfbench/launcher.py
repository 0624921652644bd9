"""Starts benchmark children one at a time and measures each.

Usage: python launcher.py

Reads one JSON request per line on stdin,
    {"cmd": [...], "stdout": path, "stderr": path, "timeout": seconds},
runs the command in the launcher's own environment and working
directory, and answers with one JSON line,
    {"wall": s, "cpu": s, "maxrss_kb": n, "code": n, "timed_out": bool}.

It runs as a separate small process because Linux reports a child's
peak RSS as at least the peak RSS of the process that spawned it; the
harness grows as it checks outputs, this process does not.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd, stdout, stderr, timeout):
    killed = reaped = False
    lock = threading.Lock()
    with open(stderr, "wb") as errf, open(stdout, "wb") as outf:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=outf, stderr=errf)

        def kill():
            nonlocal killed
            with lock:
                if not reaped:  # never signal a pid that may have been reused
                    killed = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                reaped = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "code": code, "timed_out": killed}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["cmd"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
