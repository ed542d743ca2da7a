"""Starts the benchmark's child processes from a small process of its own.

On Linux a child's ru_maxrss starts from the peak RSS of the process it was
forked from. Children forked straight from the benchmark, which holds numpy
and the generated panels, would report the benchmark's peak whenever theirs
is lower. This process imports nothing heavy and forks every child.

Protocol: one JSON request per line on stdin,
    {"cmd": [...], "stdout": path, "stderr": path, "env": {...}, "timeout": s}
and one JSON reply per line on stdout,
    {"returncode": int, "wall_s": float, "maxrss_kb": int}.
The process exits when stdin closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=req["env"])
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            # wait4 gives the rusage of this child alone; RUSAGE_CHILDREN
            # would carry an earlier child's peak into the next
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    return {"returncode": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
