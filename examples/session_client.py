#!/usr/bin/env python
"""A live session riding out a failure storm, end to end.

A deployed network does not re-plan from scratch every time a mote
browns out -- it keeps a *session* open against the planning service
(``docs/SESSIONS.md``) and streams deltas at it.  This example embeds
the ``repro serve`` HTTP service in-process and drives one session
through a storm over one persistent ``http.client`` connection -- a
long-lived session client should keep its connection alive, not pay a
TCP handshake per delta:

1. **create** -- ``POST /v1/session`` solves the instance once and
   returns the schedule plus the session envelope;
2. **storm** -- a burst of ``sensor-failed`` deltas, each answered by
   a warm scoped repair (watch the incumbent utility degrade
   gracefully, never a re-solve from scratch);
3. **recovery** -- sensors come back; fail->recover chains hit the
   session memo and restore the pre-failure plan without solving;
4. **weather** -- a ``harvest-shift`` changes rho and the period
   structure: the one genuinely structural edit pays a cold re-solve;
5. **teardown** -- ``DELETE`` releases the session; the id answers
   410 afterwards.

Run:  python examples/session_client.py
"""

import http.client
import json

from repro.serve.app import ServiceConfig, SolveService

CREATE = {
    "problem": {
        "num_sensors": 24,
        "rho": 3.0,
        "num_periods": 1,
        "utility": {"p": 0.4},
    },
    "method": "greedy",
    "consistency": "warm",
}

#: Fail a third of the fleet, then recover it in reverse order.
STORM = [4, 9, 13, 17, 2, 21, 7, 11]


def call(
    connection: http.client.HTTPConnection, path: str, body=None, method=None
) -> tuple:
    """One request on the shared connection; returns (status, body)."""
    connection.request(
        method or ("GET" if body is None else "POST"),
        path,
        body=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    reply = connection.getresponse()
    return reply.status, json.loads(reply.read())


def delta(
    connection: http.client.HTTPConnection, session_id: str, document: dict
) -> tuple:
    return call(
        connection, f"/v1/session/{session_id}/delta", {"delta": document}
    )


def main() -> None:
    with SolveService(ServiceConfig(port=0)) as service:
        url = service.url
        print(f"service listening on {url}\n")
        conn = http.client.HTTPConnection(*service.address, timeout=30)

        print("-- create -------------------------------------------")
        status, body = call(conn, "/v1/session", CREATE)
        assert status == 200, body
        session_id = body["session"]["id"]
        baseline = body["result"]["period_utility"]
        print(f"session {session_id[:12]}... created")
        print(f"incumbent period utility: {baseline:.4f}\n")

        print("-- failure storm ------------------------------------")
        for victim in STORM:
            status, body = delta(
                conn, session_id, {"kind": "sensor-failed", "sensor": victim}
            )
            assert status == 200, body
            utility = body["result"]["period_utility"]
            live = body["session"]["live_sensors"]
            bar = "#" * round(40 * utility / baseline)
            print(
                f"fail {victim:>2}  resolve={body['delta']['resolve']:<4} "
                f"live={live:>2}  U={utility:.4f} |{bar}"
            )

        print("\n-- recovery (memo hits) -----------------------------")
        for sensor in reversed(STORM):
            status, body = delta(
                conn,
                session_id,
                {"kind": "sensor-recovered", "sensor": sensor},
            )
            assert status == 200, body
            print(
                f"recover {sensor:>2}  resolve={body['delta']['resolve']:<4} "
                f"U={body['result']['period_utility']:.4f}"
            )
        restored = body["result"]["period_utility"]
        assert restored == baseline
        print("fleet restored: incumbent back at the pre-storm utility\n")

        print("-- weather: structural shift ------------------------")
        status, body = delta(
            conn, session_id, {"kind": "harvest-shift", "factor": 4.0 / 3.0}
        )
        assert status == 200, body
        print(
            f"harvest-shift x4/3  resolve={body['delta']['resolve']} "
            f"structural={body['delta']['structural']} "
            f"slots={body['session']['slots_per_period']}"
        )
        print("a changed period structure is the one edit that must pay")
        print("a cold re-solve; everything else stayed warm\n")

        print("-- teardown -----------------------------------------")
        status, body = call(
            conn, f"/v1/session/{session_id}", method="DELETE"
        )
        print(f"DELETE -> {status} ({body['kind']})")
        status, body = delta(
            conn, session_id, {"kind": "sensor-failed", "sensor": 0}
        )
        print(f"post-delete delta -> {status} ({body['error']['code']})")
        assert status == 410
        conn.close()


if __name__ == "__main__":
    main()
