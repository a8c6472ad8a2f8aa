"""A session's state fingerprint always equals the from-scratch key.

:meth:`Session._fingerprint` memoizes the canonical problem text per
problem object.  These walks drive one session per family through
every delta kind -- including a delta rolled back on an expired
deadline, which restores the previous problem object -- and after each
step recompute :func:`session_fingerprint` from scratch.  With no
failed sensor the key must also be the plain :func:`solve_fingerprint`,
which is what lets a session reuse the global schedule cache.  No
family takes both weight edits, hence one walk per family.
"""

import hashlib
import time

import pytest

from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.runtime.fingerprint import (
    FINGERPRINT_KIND,
    FINGERPRINT_VERSION,
    canonical_json,
    problem_to_dict,
    session_fingerprint,
    solve_fingerprint,
)
from repro.runtime.retry import DeadlineExceededError
from repro.sessions import Session, delta_from_dict
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import DetectionUtility

N = 12

#: (delta document, expect a rollback) per step; the rolled-back delta
#: replaces the problem, so the memo then holds a discarded problem.
WALKS = {
    "detection": [
        ({"kind": "sensor-failed", "sensor": 3}, False),
        ({"kind": "sensor-recovered", "sensor": 3}, False),
        ({"kind": "weight-change", "sensor": 5, "value": 0.9}, False),
        ({"kind": "weight-change", "sensor": 2, "value": 0.1}, True),
        ({"kind": "sensor-failed", "sensor": 7}, False),
        ({"kind": "rho-change", "rho": 4}, False),
        ({"kind": "sensor-added", "p": 0.35}, False),
        ({"kind": "harvest-shift", "factor": 0.5}, False),
        ({"kind": "sensor-recovered", "sensor": 7}, False),
    ],
    "weighted-coverage": [
        ({"kind": "sensor-failed", "sensor": 1}, False),
        ({"kind": "target-weight-change", "element": 2, "value": 4.0}, False),
        ({"kind": "target-weight-change", "element": 3, "value": 0.5}, True),
        ({"kind": "sensor-recovered", "sensor": 1}, False),
        ({"kind": "rho-change", "rho": 2}, False),
        ({"kind": "sensor-added", "covers": [0, 4]}, False),
        ({"kind": "harvest-shift", "factor": 2.0}, False),
        ({"kind": "sensor-failed", "sensor": 0}, False),
    ],
}


def make_problem(family):
    if family == "detection":
        utility = DetectionUtility({v: 0.2 + 0.05 * v for v in range(N)})
    else:
        utility = WeightedCoverageUtility(
            {v: {v % 6, (v * 5) % 6} for v in range(N)},
            element_weights={e: 1.0 + e for e in range(6)},
        )
    return SchedulingProblem(
        num_sensors=N, period=ChargingPeriod.from_ratio(3.0), utility=utility
    )


def assert_fresh_key(session):
    expected = session_fingerprint(
        session.problem, session.method, session.seed, session.failed
    )
    assert session.state_fingerprint == expected
    if not session.failed:
        assert expected == solve_fingerprint(
            session.problem, session.method, session.seed
        )


@pytest.mark.parametrize("family", sorted(WALKS))
def test_state_fingerprint_tracks_every_delta(family):
    session = Session(make_problem(family))
    assert_fresh_key(session)
    for document, rolls_back in WALKS[family]:
        delta = delta_from_dict(document)
        if rolls_back:
            before = session.problem
            with pytest.raises(DeadlineExceededError):
                session.apply(delta, deadline=time.monotonic() - 1.0)
            assert session.problem is before
        else:
            session.apply(delta)
        assert_fresh_key(session)
    assert session.seq == sum(not rolls for _, rolls in WALKS[family])


@pytest.mark.parametrize("failed", [(), (4, 1)])
@pytest.mark.parametrize("method, seed", [("greedy", None), ("random", 7)])
def test_spliced_key_is_the_whole_document_hash(failed, method, seed):
    problem = make_problem("detection")
    document = {
        "kind": FINGERPRINT_KIND,
        "version": FINGERPRINT_VERSION,
        "problem": problem_to_dict(problem),
        "method": method,
        "seed": seed,
    }
    if failed:
        document["failed"] = sorted(failed)
    expected = hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()
    assert session_fingerprint(problem, method, seed, failed) == expected
    text = canonical_json(problem_to_dict(problem))
    assert (
        session_fingerprint(problem, method, seed, failed, problem_text=text)
        == expected
    )
