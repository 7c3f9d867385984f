"""Starts the benchmark's timed child processes from a small process.

Run as ``python3 -S -I perfbench/launcher.py`` by run.py.  On Linux the
peak RSS that ``os.wait4`` reports for a child is the larger of the child's
own peak and the peak of the process it was spawned from, so children are
spawned from here, where that floor stays near 10 MiB, and not from the
benchmark process.

Each stdin line is a JSON request ``{"argv", "env", "stdout", "stderr"}``;
the child's output goes to the two named files.  The reply line is
``[wall_s, exit_code, peak_rss_kib]``, timed from spawn to reaped exit.
The launcher exits when stdin closes.
"""

import json
import os
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                             file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                           (os.POSIX_SPAWN_DUP2, out, 1),
                                           (os.POSIX_SPAWN_DUP2, err, 2)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(out)
        os.close(err)
    print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
