"""Shared helpers for the benchmark harness.

Every bench module reproduces one of the paper's tables or figures:
it *prints* the regenerated rows/series (run with ``-s`` to see them,
or read the captured output in the report) and *benchmarks* the
underlying computation with pytest-benchmark.  Assertions pin the
qualitative shape so a regression that changes who-wins or by-how-much
fails loudly.
"""

from __future__ import annotations

import os
import sys

import pytest


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity set, which taskset and
    cpusets shrink below ``os.cpu_count()`` (the machine's total)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def emit(text: str) -> None:
    """Print a reproduced figure/table block, flushed, with a separator."""
    sys.stdout.write("\n" + text + "\n")
    sys.stdout.flush()
