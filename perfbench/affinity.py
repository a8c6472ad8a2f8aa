"""Spread a single-threaded timed loop over every CPU the process may use.

On the host this benchmark was built on, each vCPU runs in a fast or a
slow mode about 1.5x apart, switching every few seconds, and the vCPUs
switch independently.  A single-threaded loop left where the scheduler
puts it can spend a whole run in one mode, so the run's p95 reads the
fast mode one time and the slow mode the next.  Pinning successive
timed operations to each allowed CPU in turn makes every run sample
every CPU's speed.  The work itself is unchanged.
"""

from __future__ import annotations

import os


class CpuCycle:
    """Pins the calling thread to the allowed CPUs round-robin."""

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self._turn = 0

    def next(self) -> None:
        """Move the calling thread to the next CPU in turn."""
        os.sched_setaffinity(0, {self.allowed[self._turn % len(self.allowed)]})
        self._turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)
