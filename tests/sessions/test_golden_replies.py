"""Golden session replies: the wire bytes of a seeded delta stream are pinned.

Two sessions with fixed ids -- detection and weighted coverage -- take a
seeded stream of every delta kind (failures, recoveries, weight edits,
sensor additions, harvest shifts and structural rho changes).  The
sha256 over the concatenated :func:`repro.serve.schemas.encode` bytes of
the creation reply, every delta reply and a schedule reply every
:data:`SCHEDULE_EVERY` deltas is pinned.  Fingerprints, lineage links,
period utilities, schedules and the reply layout all feed the digest,
so a change to any of them shows here.
"""

import hashlib
import random

import pytest

from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.serve import schemas
from repro.sessions import Session, delta_from_dict
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import DetectionUtility

DELTAS = 220
SCHEDULE_EVERY = 20
ELEMENTS = 90

#: sha256 of each family's reply stream.
GOLDEN = {
    "detection": (
        "79c699a6a407d2366db174c9234b315a60d433b08f97996771d489b146725304"
    ),
    "weighted-coverage": (
        "c571168d68fa139ce5f18d451fad236e9f836a7d77926001b7b09dc4fafd60b2"
    ),
}


def make_problem(family, rng):
    if family == "detection":
        n = 120
        utility = DetectionUtility(
            {v: round(rng.uniform(0.05, 0.6), 4) for v in range(n)}
        )
    else:
        n = 160
        utility = WeightedCoverageUtility(
            {
                v: rng.sample(range(ELEMENTS), rng.randint(1, 5))
                for v in range(n)
            },
            element_weights={
                e: round(rng.uniform(0.5, 5.0), 3) for e in range(ELEMENTS)
            },
        )
    return SchedulingProblem(
        num_sensors=n, period=ChargingPeriod.from_ratio(3.0), utility=utility
    )


def next_delta(rng, session, family):
    """A delta that is valid for the session's current state."""
    n = session.problem.num_sensors
    failed = sorted(session.failed)
    rho = round(session.problem.rho)
    roll = rng.random()
    if roll < 0.40 and len(failed) < n // 2 or roll < 0.70 and not failed:
        live = sorted(session.live_sensors())
        return {"kind": "sensor-failed", "sensor": rng.choice(live)}
    if roll < 0.70:
        return {"kind": "sensor-recovered", "sensor": rng.choice(failed)}
    if roll < 0.86:
        if family == "detection":
            return {
                "kind": "weight-change",
                "sensor": rng.randrange(n),
                "value": round(rng.uniform(0.05, 0.6), 4),
            }
        return {
            "kind": "target-weight-change",
            "element": rng.randrange(ELEMENTS),
            "value": round(rng.uniform(0.5, 5.0), 3),
        }
    if roll < 0.90:
        if family == "detection":
            p = round(rng.uniform(0.05, 0.6), 4)
            return {"kind": "sensor-added", "p": p}
        return {
            "kind": "sensor-added",
            "covers": sorted(rng.sample(range(ELEMENTS), 3)),
        }
    if roll < 0.94 and rho in (2, 4):
        # Halving or doubling T_r keeps rho integral: 2 <-> 4.
        return {"kind": "harvest-shift", "factor": 2.0 if rho == 2 else 0.5}
    others = [r for r in (2, 3, 4) if r != rho]
    return {"kind": "rho-change", "rho": rng.choice(others)}


def reply_stream(family):
    """The concatenated reply bytes of one seeded session."""
    rng = random.Random(f"golden-replies/{family}")
    session = Session(make_problem(family, rng), session_id=f"golden-{family}")
    replies = [schemas.encode(schemas.session_response(session))]
    for step in range(1, DELTAS + 1):
        delta = delta_from_dict(next_delta(rng, session, family))
        outcome = session.apply(delta)
        replies.append(
            schemas.encode(schemas.session_delta_response(session, outcome))
        )
        if step % SCHEDULE_EVERY == 0:
            replies.append(
                schemas.encode(schemas.session_schedule_response(session))
            )
    return b"".join(replies)


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_reply_stream_is_pinned(family):
    digest = hashlib.sha256(reply_stream(family)).hexdigest()
    assert digest == GOLDEN[family]
