"""Declarative fault plans: which faults fire, where, when, how often.

A plan is a list of :class:`FaultSpec` records plus one seed.  Each
spec names an injection *site* (a hook point in the serving stack), an
*action* (what goes wrong there), and firing discipline (skip the
first ``after`` hits, fire with ``probability``, at most ``times``
total).  Validation happens at construction, exactly like
:class:`~repro.sim.failures.FailurePlan`: a malformed plan raises
``ValueError`` immediately, never mid-run.

Plans serialize to/from JSON so they can travel to pool workers
through the environment (:mod:`repro.faults.injector`), be stored next
to a benchmark, or be replayed from the ``repro chaos`` command line.
The compact CLI syntax is ``site:action[:key=value,...]``::

    pool.task:crash:after=2,times=1     # SIGKILL-equivalent in worker 3
    cache.read:error:p=0.25             # a quarter of reads fail
    cache.write:torn-write:times=1      # one non-atomic partial write
    solve:sleep:delay=0.5,p=0.1         # 10% of solves stall 500 ms
    batcher.batch:sleep:delay=1.0       # the batcher wedges for 1 s
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Hook points the serving stack exposes (site -> where it fires).
SITES: Dict[str, str] = {
    "pool.task": "worker-side task wrapper in runtime/pool.py",
    "solve": "per-solve in runtime/executor.py (worker or serial)",
    "cache.read": "directory-store read in runtime/backend.py",
    "cache.write": "directory-store write in runtime/backend.py",
    "batcher.batch": "batch execution in serve/batcher.py",
}

#: What can go wrong at a site.
ACTIONS: Tuple[str, ...] = ("error", "crash", "sleep", "torn-write")

#: ``crash`` hard-kills the process that hits it (``os._exit``), so it
#: is only allowed at the one site guaranteed to run in a *worker*
#: process -- everywhere else it would take the parent down.
CRASH_SITES: Tuple[str, ...] = ("pool.task",)

#: ``torn-write`` means "a non-atomic writer died mid-write"; only the
#: cache write path can express that.
TORN_SITES: Tuple[str, ...] = ("cache.write",)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it fires, what it does, and how often.

    Parameters
    ----------
    site:
        Hook point name (one of :data:`SITES`).
    action:
        ``"error"`` raises :class:`~repro.faults.injector.InjectedFaultError`
        (an ``OSError``, so existing I/O handling applies);
        ``"crash"`` terminates the hitting process with ``os._exit``;
        ``"sleep"`` stalls for ``delay`` seconds then continues;
        ``"torn-write"`` makes the cache writer leave a truncated
        non-atomic file (the crash the atomic rename normally prevents).
    probability:
        Chance of firing at each eligible hit (seeded, deterministic).
    after:
        Skip this many hits at the site before becoming eligible.
    times:
        Fire at most this many times (``None`` = unlimited).
    delay:
        Stall duration in seconds (``sleep`` only).
    """

    site: str
    action: str
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {sorted(SITES)}"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"choose from {sorted(ACTIONS)}"
            )
        if self.action == "crash" and self.site not in CRASH_SITES:
            raise ValueError(
                f"'crash' is only injectable at worker-side sites "
                f"{sorted(CRASH_SITES)}, not {self.site!r}"
            )
        if self.action == "torn-write" and self.site not in TORN_SITES:
            raise ValueError(
                f"'torn-write' is only injectable at {sorted(TORN_SITES)}, "
                f"not {self.site!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.action == "sleep" and self.delay == 0:
            raise ValueError("a 'sleep' fault needs a positive 'delay'")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "action": self.action,
            "probability": self.probability,
            "after": self.after,
            "times": self.times,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "FaultSpec":
        known = {"site", "action", "probability", "after", "times", "delay"}
        unknown = set(document) - known
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        return cls(**document)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; the unit chaos runs are keyed by."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "repro-fault-plan",
            "version": 1,
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "FaultPlan":
        if document.get("kind") != "repro-fault-plan":
            raise ValueError("not a fault plan document")
        if document.get("version") != 1:
            raise ValueError(
                f"unsupported fault plan version {document.get('version')!r}"
            )
        specs = tuple(
            FaultSpec.from_dict(entry) for entry in document.get("specs", [])
        )
        return cls(specs=specs, seed=int(document.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_cli_specs(
        cls, specs: Sequence[str], seed: int = 0
    ) -> "FaultPlan":
        """Build a plan from ``site:action[:key=value,...]`` strings."""
        return cls(
            specs=tuple(parse_fault_spec(text) for text in specs), seed=seed
        )


#: Short CLI keys -> FaultSpec field names.
_CLI_KEYS = {
    "p": "probability",
    "probability": "probability",
    "after": "after",
    "times": "times",
    "delay": "delay",
}

_FIELD_TYPES = {
    "probability": float,
    "after": int,
    "times": int,
    "delay": float,
}


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one compact ``site:action[:key=value,...]`` spec string."""
    parts = text.split(":")
    if len(parts) < 2 or len(parts) > 3:
        raise ValueError(
            f"fault spec {text!r} must look like "
            "'site:action' or 'site:action:key=value,...'"
        )
    site, action = parts[0], parts[1]
    fields: Dict[str, Any] = {}
    if len(parts) == 3 and parts[2]:
        for assignment in parts[2].split(","):
            key, _, raw = assignment.partition("=")
            if key not in _CLI_KEYS or not raw:
                raise ValueError(
                    f"fault spec {text!r}: bad option {assignment!r} "
                    f"(known: {sorted(set(_CLI_KEYS))})"
                )
            name = _CLI_KEYS[key]
            try:
                fields[name] = _FIELD_TYPES[name](raw)
            except ValueError as error:
                raise ValueError(
                    f"fault spec {text!r}: {key}={raw!r} is not "
                    f"a valid {_FIELD_TYPES[name].__name__}"
                ) from error
    return FaultSpec(site=site, action=action, **fields)
