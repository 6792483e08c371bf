"""Set-up probe: a fresh interpreter prepares one workload, prints the clock.

    python3 perfbench/setup_probe.py <workload> <output dir>

Imports the package, loads and validates the workload's config and
partitions its label sets, then prints ``time.monotonic()``.
"""

import sys
import time
from pathlib import Path

from bootstrap import bootstrap

bootstrap()

import workloads  # noqa: E402  (after bootstrap: needs the pinned env and sys.path)

workloads.prepare(sys.argv[1], Path(sys.argv[2]))
print(repr(time.monotonic()))
