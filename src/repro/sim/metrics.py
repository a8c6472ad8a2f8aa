"""Utility accounting: per-slot records and the paper's headline metrics.

The paper reports the **average utility per target per time-slot**
(Sec. VI-B): Fig. 8 plots it against the number of sensors, Fig. 9
against the number of targets.  :class:`UtilityAccumulator` computes it
(and per-target series) from the per-slot active sets the engine
produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.utility.base import UtilityFunction
from repro.utility.incremental import SlotValueMemo
from repro.utility.target_system import TargetSystem


@dataclass(frozen=True)
class SlotRecord:
    """What the network achieved in one slot."""

    slot: int
    active_set: FrozenSet[int]
    utility: float
    per_target: Optional[np.ndarray] = None  # set when the utility is a TargetSystem
    refused_activations: int = 0


@dataclass
class UtilityAccumulator:
    """Accumulates slot records and derives the paper's metrics."""

    utility: UtilityFunction
    records: List[SlotRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Periodic schedules revisit the same active sets each cycle;
        # memoize their evaluations (see SlotValueMemo for why this is
        # exact for engine-built sets).  The engine disables the memo
        # when a sensing_filter perturbs set construction.
        self._memo: Optional[SlotValueMemo] = SlotValueMemo()

    def disable_memo(self) -> None:
        """Turn off slot-value memoization (e.g. under a sensing filter)."""
        self._memo = None

    @property
    def num_targets(self) -> int:
        if isinstance(self.utility, TargetSystem):
            return self.utility.num_targets
        return 1

    def record(self, slot: int, active_set: FrozenSet[int], refused: int = 0) -> SlotRecord:
        """Evaluate the utility of the slot's active set and store it."""
        cached = self._memo.lookup(active_set) if self._memo is not None else None
        if cached is not None:
            value, per_target = cached
        else:
            per_target = None
            if isinstance(self.utility, TargetSystem):
                per_target = self.utility.per_target_values(active_set)
                value = float(per_target.sum())
            else:
                value = self.utility.value(active_set)
            if self._memo is not None:
                # per_target arrays are never mutated downstream, so the
                # stored array object can be shared across slot records.
                self._memo.store(active_set, (value, per_target))
        rec = SlotRecord(
            slot=slot,
            active_set=frozenset(active_set),
            utility=value,
            per_target=per_target,
            refused_activations=refused,
        )
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return len(self.records)

    @property
    def total_utility(self) -> float:
        return sum(r.utility for r in self.records)

    @property
    def average_slot_utility(self) -> float:
        if not self.records:
            return 0.0
        return self.total_utility / self.num_slots

    @property
    def average_utility_per_target(self) -> float:
        """The paper's Fig. 8/9 metric: mean utility per target per slot."""
        targets = self.num_targets
        if targets == 0:
            return 0.0
        return self.average_slot_utility / targets

    def per_slot_series(self) -> np.ndarray:
        return np.array([r.utility for r in self.records])

    def per_target_averages(self) -> Optional[np.ndarray]:
        """Mean per-slot utility of each target (TargetSystem only)."""
        if not self.records or self.records[0].per_target is None:
            return None
        stacked = np.vstack([r.per_target for r in self.records])
        return stacked.mean(axis=0)

    def activation_counts(self) -> Dict[int, int]:
        """How many slots each sensor was active -- evenness diagnostics."""
        counts: Dict[int, int] = {}
        for r in self.records:
            for v in r.active_set:
                counts[v] = counts.get(v, 0) + 1
        return counts

    def total_refused(self) -> int:
        return sum(r.refused_activations for r in self.records)
