"""Set-up probe: time one workload's set-up in a fresh interpreter.

Run by :mod:`perfbench.run` as ``python3 perfbench/probe.py <workload>
<work dir>`` with ``src`` on ``PYTHONPATH``.  Prints one JSON line with
the import, resolution and pool-start times and the ``time.monotonic``
reading at which the workload was ready to simulate; the parent takes
set-up time from its own reading at spawn to that one, so interpreter
start-up counts too.
"""

import json
import os
import sys
import time


def main() -> None:
    t0 = time.monotonic()
    import repro  # noqa: F401  (the import is what is timed)

    t1 = time.monotonic()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]()
    t2 = time.monotonic()
    workload.resolve()
    t3 = time.monotonic()
    close = workload.start_pool(sys.argv[2])
    ready = time.monotonic()
    close()
    print(json.dumps({
        "import_s": t1 - t0,
        "resolve_s": t3 - t2,
        "pool_start_s": ready - t3,
        "ready": ready,
    }))


if __name__ == "__main__":
    main()
