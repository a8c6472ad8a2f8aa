"""What one pass of a workload hands back to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.layers import Samples


@dataclass(frozen=True)
class Context:
    """Where a pass runs: the checkout root and a private scratch dir."""

    root: Path
    workdir: Path


@dataclass
class Outcome:
    """Measurements, gate results and (traced) spans of one pass.

    ``latencies_ms`` are the samples behind ``p10_ms``;
    ``throughput`` is completed work per second (reported, and the base
    of ``trace.overhead_pct``).  ``report`` holds the
    workload's own named metrics as ``(name, value, unit, samples)``.
    """

    setup_s: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    throughput: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report: List[Tuple[str, float, str, int]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    # Traced passes only.
    spans: List[list] = field(default_factory=list)
    window: Optional[Tuple[float, float]] = None
    counters: Samples = field(default_factory=dict)
    client_latencies: List[float] = field(default_factory=list)
    event_bytes_per_slot: float = 0.0

    def fail(self, problem: str, count: int = 1) -> None:
        """Record a failed gate; ``count`` operations failed with it."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_fallbacks(self, seen: Dict[str, int], expected: Tuple[str, ...]) -> None:
        """Report every batched fallback; fail on any not expected."""
        self.notes.append(
            "batched fallbacks: "
            + (", ".join(f"{k}={v}" for k, v in sorted(seen.items())) or "none")
        )
        unexpected = sorted(set(seen) - set(expected))
        if unexpected:
            self.problems.append(f"unexpected batched fallbacks: {unexpected}")
