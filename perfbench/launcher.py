"""Runs the ``cli`` workload's commands from a process that stays small.

On Linux a child's peak resident size starts from its parent's peak, as
the parent's memory is accounted to the child until exec replaces it.
CLI children started by the workload process itself (which holds the
oracles' arrays) would therefore report the workload's memory, not their
own.  This process imports nothing heavy.  It reads one JSON argv per line
from stdin, runs it, and answers one JSON line with the exit code, the
tail of stderr and the child's peak resident size in KiB.
"""

import json
import os
import subprocess
import sys

if __name__ == "__main__":
    for line in sys.stdin:
        proc = subprocess.Popen(json.loads(line), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        err = proc.stderr.read()
        proc.stderr.close()
        # wait4, unlike Popen.wait, also returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "stderr": err[-300:],
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
