"""Seeded workload inputs: instances, arrival schedules, delta streams.

Every function takes an explicit ``random.Random`` (or a seed) and
nothing else that varies, so the same seed always yields the same
inputs.  The program under test only ever sees what these produce:
wire documents for the HTTP workloads, problems for the in-process
ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

#: The three greedy families every solve workload mixes.  Their wire
#: documents are what ``repro serve`` accepts; the batched kernels know
#: all three (``weighted-coverage`` is the ``coverage`` kernel family).
FAMILIES = ("homogeneous-detection", "detection", "weighted-coverage")

def problem_doc(rng: random.Random, family: str, n: int, rho: int) -> Dict[str, Any]:
    """One ``problem`` wire document of ``family`` with ``n`` sensors."""
    if family == "homogeneous-detection":
        utility: Dict[str, Any] = {"p": round(rng.uniform(0.2, 0.6), 4)}
    elif family == "detection":
        utility = {
            "kind": "detection",
            "probabilities": {
                str(v): round(rng.uniform(0.05, 0.6), 4) for v in range(n)
            },
        }
    elif family == "weighted-coverage":
        elements = max(8, n // 2)
        utility = {
            "kind": "weighted-coverage",
            "covers": {
                str(v): sorted(rng.sample(range(elements), rng.randint(1, 4)))
                for v in range(n)
            },
            "element_weights": {
                str(e): round(rng.uniform(0.5, 5.0), 3) for e in range(elements)
            },
        }
    else:
        raise ValueError(f"unknown family {family!r}")
    return {"num_sensors": n, "rho": rho, "utility": utility}


def random_doc(rng: random.Random, n_low: int, n_high: int) -> Dict[str, Any]:
    """A problem of a random family, size and sparse ``rho``."""
    family = FAMILIES[rng.randrange(len(FAMILIES))]
    return problem_doc(rng, family, rng.randint(n_low, n_high), rng.choice((2, 3)))


def solve_body(problem: Dict[str, Any]) -> bytes:
    return json.dumps({"problem": problem, "method": "greedy"}).encode("utf-8")


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

#: Repeated instances the warm pool holds; zipf-weighted draws hit it.
POOL_SIZE = 50
ZIPF_EXPONENT = 1.1
#: Requests come in shuffled blocks of four pool draws (cache hits
#: once warmed) and one fresh instance: exactly 80% repeats in every
#: block, so the hit/miss mix does not drift between seeds.
BLOCK = ("pool",) * 4 + ("fresh",)
SERVE_SIZES = (64, 256)


@dataclass(frozen=True)
class Request:
    """One scheduled solve: due offset (s), body, and its reference key.

    ``key`` names the instance for the correctness gate: ``("pool", i)``
    for warm-pool draws, ``("fresh", i)`` for distinct misses.
    """

    offset: float
    key: Tuple[str, int]
    body: bytes


class ServeInputs:
    """The warm pool and an endless seeded stream of solve requests.

    Each request is a pool draw (zipf over ranks) or a fresh instance no
    other request repeats, in the proportions of :data:`BLOCK`.  The
    stream is one sequence per seed: the fixed-rate schedule takes its
    head, the saturated phase draws on from there.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve-mixed/{seed}")
        self.pool = [random_doc(self._rng, *SERVE_SIZES) for _ in range(POOL_SIZE)]
        self.fresh: List[Dict[str, Any]] = []
        self._pool_bodies = [solve_body(doc) for doc in self.pool]
        self._weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(POOL_SIZE)]
        self._kinds: List[str] = []

    def next(self) -> Tuple[Tuple[str, int], bytes]:
        """The stream's next request as ``(key, body)``."""
        if not self._kinds:
            self._kinds = self._rng.sample(BLOCK, len(BLOCK))
        if self._kinds.pop() == "pool":
            index = self._rng.choices(range(POOL_SIZE), self._weights)[0]
            return ("pool", index), self._pool_bodies[index]
        doc = random_doc(self._rng, *SERVE_SIZES)
        self.fresh.append(doc)
        return ("fresh", len(self.fresh) - 1), solve_body(doc)

    def schedule(self, rate: float, seconds: float) -> List[Request]:
        """Poisson arrivals at ``rate`` over ``seconds``, drawn from the stream."""
        requests: List[Request] = []
        offset = self._rng.expovariate(rate)
        while offset < seconds:
            key, body = self.next()
            requests.append(Request(offset, key, body))
            offset += self._rng.expovariate(rate)
        return requests

    def problem(self, key: Tuple[str, int]) -> Dict[str, Any]:
        return (self.pool if key[0] == "pool" else self.fresh)[key[1]]


# ----------------------------------------------------------------------
# session-stream
# ----------------------------------------------------------------------

#: (family, sensors) of the long sessions; one per connection.  The
#: service's wire limit is 512 sensors.
SESSIONS = (("detection", 300), ("weighted-coverage", 500))
SESSION_RHO = 3
#: Sparse-regime rhos a rho-change moves between.
SESSION_RHOS = (2, 3, 4)
#: One block of the delta mix, shuffled per block.
DELTA_BLOCK = ("fail",) * 45 + ("recover",) * 35 + ("weight",) * 17 + ("rho",) * 3


@dataclass
class DeltaScript:
    """An endless, always-valid delta stream for one session.

    It tracks only what validity needs -- the failed set and the current
    rho -- so generating the next delta costs nothing on the timed path.
    The mix, exact in every shuffled block of :data:`DELTA_BLOCK`: 45%
    sensor-failed, 35% sensor-recovered, 17% weight edits
    (``weight-change`` on detection, ``target-weight-change`` on
    weighted coverage) and 3% ``rho-change`` (structural: a cold
    re-plan).  A failure with half the fleet down recovers instead, and
    a recovery with nothing failed fails instead.
    """

    rng: random.Random
    family: str
    num_sensors: int
    #: Elements some sensor covers: the utility keeps weights for those only.
    elements: Tuple[int, ...]
    rho: int = SESSION_RHO
    failed: Set[int] = field(default_factory=set)
    pending: List[str] = field(default_factory=list)

    def next(self) -> Dict[str, Any]:
        if not self.pending:
            self.pending = self.rng.sample(DELTA_BLOCK, len(DELTA_BLOCK))
        kind = self.pending.pop()
        if kind == "fail" and len(self.failed) < self.num_sensors // 2:
            return self._fail()
        if kind in ("fail", "recover"):
            return self._recover() if self.failed else self._fail()
        if kind == "weight":
            if self.family == "detection":
                return {
                    "kind": "weight-change",
                    "sensor": self.rng.randrange(self.num_sensors),
                    "value": round(self.rng.uniform(0.05, 0.6), 4),
                }
            return {
                "kind": "target-weight-change",
                "element": self.rng.choice(self.elements),
                "value": round(self.rng.uniform(0.5, 5.0), 3),
            }
        self.rho = self.rng.choice([r for r in SESSION_RHOS if r != self.rho])
        return {"kind": "rho-change", "rho": self.rho}

    def _fail(self) -> Dict[str, Any]:
        # Rejection-sample a live sensor; at most half are ever failed,
        # so this ends quickly.
        while True:
            sensor = self.rng.randrange(self.num_sensors)
            if sensor not in self.failed:
                break
        self.failed.add(sensor)
        return {"kind": "sensor-failed", "sensor": sensor}

    def _recover(self) -> Dict[str, Any]:
        sensor = self.rng.choice(sorted(self.failed))
        self.failed.discard(sensor)
        return {"kind": "sensor-recovered", "sensor": sensor}


def session_inputs(seed: int) -> List[Tuple[Dict[str, Any], DeltaScript]]:
    """Per connection: the session's creation problem and its delta script."""
    sessions = []
    for index, (family, n) in enumerate(SESSIONS):
        rng = random.Random(f"session-stream/{seed}/{index}")
        doc = problem_doc(rng, family, n, SESSION_RHO)
        covers = doc["utility"].get("covers", {})
        elements = tuple(sorted({e for covered in covers.values() for e in covered}))
        sessions.append(
            (doc, DeltaScript(rng=rng, family=family, num_sensors=n, elements=elements))
        )
    return sessions


# ----------------------------------------------------------------------
# batch-solve
# ----------------------------------------------------------------------

#: Instances per ``solve_many`` call: 4 per family, so each call forms
#: three batched groups of 4.  Short calls (about 40 ms) give a run
#: enough of them for its p95 to rest on 10 or more calls beyond it.
BATCH_SIZE = 12
#: Each family's 4 sizes in every batch.  Every batch has the same
#: sizes, so the seed changes the instances and not the batch's cost;
#: otherwise the lightest batch alone would set a run's p10.
BATCH_NS = (96, 117, 139, 160)
#: Distinct batches a run cycles through (no cache, so repeats
#: re-solve): 96 distinct instances in all.
BATCHES = 8


def batch_docs(seed: int, index: int) -> List[Dict[str, Any]]:
    """One batch: 4 instances per family, all with the batch's rho.

    Rho alternates 2/3 between batches, so every call's (family, T)
    groups have 4 members and none falls back to the serial path as a
    singleton.
    """
    rng = random.Random(f"batch-solve/{seed}/{index}")
    rho = 2 + index % 2
    return [
        problem_doc(rng, FAMILIES[position % len(FAMILIES)], n, rho)
        for position, n in enumerate(n for n in BATCH_NS for _ in FAMILIES)
    ]
