"""Child launcher for the benchmark runner.

Linux carries a process's pre-exec memory high-water mark into its
``ru_maxrss``, so a CLI child started by the runner itself would report at
least the runner's own resident size. The runner starts this small process
once per workload and lets it start every CLI child, so each child's peak
RSS is its own (above this launcher's few MB).

Protocol: one JSON request per stdin line, ``[cwd, argv]``; the child's
stdout and stderr go to ``stdout.txt`` and ``stderr.txt`` in ``cwd``. One
JSON reply per stdout line: ``[exit code, seconds, peak RSS in KB]``. The
launcher exits at end of input.
"""

import json
import os
import resource
import subprocess
import sys
import time

# CPU seconds after which a child is killed; inherited by every child
TASK_CPU_LIMIT_S = 120


def main() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (TASK_CPU_LIMIT_S, TASK_CPU_LIMIT_S))
    for line in sys.stdin:
        cwd, argv = json.loads(line)
        with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
                open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
