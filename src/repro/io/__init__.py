"""Serialization: schedules, utilities and results to/from JSON.

Deployments plan offline and execute on motes; the exchange format
matters.  This subpackage round-trips the library's core objects
through plain JSON-compatible dicts:

- schedules (:func:`~repro.io.serialization.schedule_to_dict` /
  :func:`~repro.io.serialization.schedule_from_dict`) -- what gets
  shipped to the base station;
- utility functions for the serializable families (homogeneous /
  general detection, log-sum, weighted coverage, target systems);
- solve-result summaries for experiment logs;
- crash-safe checkpoint files for long simulation runs
  (:func:`~repro.io.checkpoint.save_checkpoint` /
  :func:`~repro.io.checkpoint.load_checkpoint`, atomic
  write-then-rename).
"""

from repro.io.serialization import (
    result_summary,
    schedule_from_dict,
    schedule_to_dict,
    utility_from_dict,
    utility_to_dict,
)
from repro.io.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "schedule_to_dict",
    "schedule_from_dict",
    "utility_to_dict",
    "utility_from_dict",
    "result_summary",
    "save_checkpoint",
    "load_checkpoint",
]
