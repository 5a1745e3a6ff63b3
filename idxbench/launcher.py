"""Runs the commands ``run.py`` sends it and reports how each one went.

Linux charges a spawned process's ``ru_maxrss`` with the peak RSS of the
process that spawned it, so a CLI launched straight from ``run.py`` would
report ``run.py``'s own peak whenever that is the larger. This process stays
small, and the CLI processes it spawns report their own peak.

Protocol, one JSON line each way per command:
stdin  ``{"argv": [...], "env": {...}, "stderr": path}``;
stdout ``[wall_seconds, ru_maxrss_kib, exit_code]``.
The process exits when its stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(os.devnull, "rb+") as null, open(job["stderr"], "wb") as stderr:
            actions = [(os.POSIX_SPAWN_DUP2, null.fileno(), 0),
                       (os.POSIX_SPAWN_DUP2, null.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(job["argv"][0], job["argv"], job["env"],
                                 file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]),
              flush=True)


if __name__ == "__main__":
    main()
