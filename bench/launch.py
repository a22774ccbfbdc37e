"""Run one command; print its wall time, exit code and peak RSS.

    python3 bench/launch.py CMD [ARG...]   ->   "<seconds> <exit> <maxrss_kb>"

The benchmark starts every timed process through this small, fresh
interpreter. Linux counts the RSS of the process that spawned a child in
the child's peak RSS, so spawning straight from the benchmark, which holds
samples and spans, would report its size instead of a small run's.
The command's stdout goes to /dev/null; stderr, cwd and environment are
inherited.
"""

import os
import sys
import time


def main(cmd):
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    secs = time.perf_counter() - t0
    print(secs, os.waitstatus_to_exitcode(status), usage.ru_maxrss)


if __name__ == "__main__":
    main(sys.argv[1:])
