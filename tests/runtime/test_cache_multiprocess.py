"""Multi-process cache hammer: N processes, one store, zero torn reads.

A store shared by several processes is only trustworthy if concurrent
writers re-writing the *same* keys never serve each other torn bytes.
This test runs several hammer subprocesses (see
``cache_hammer_worker.py``) against one directory and then audits the
store:

- no process ever read a payload that mismatched its key's content;
- every entry left on disk still verifies its checksum;
- processes actually read entries they never wrote (the store was
  *shared*, not just co-located).
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.runtime.backend import payload_checksum

WORKER = Path(__file__).parent / "cache_hammer_worker.py"
PROCESSES = 4
ITERATIONS = 250


def run_hammers(cache_dir, processes=PROCESSES, iterations=ITERATIONS):
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                str(WORKER),
                str(cache_dir),
                str(iterations),
                str(index),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for index in range(processes)
    ]
    summaries = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        summaries.append(json.loads(out))
    return summaries


class TestMultiprocessHammer:
    def test_no_torn_reads_and_consistent_accounting(self, tmp_path):
        cache_dir = tmp_path / "store"
        summaries = run_hammers(cache_dir)

        # 1. Nobody ever observed torn or foreign bytes.
        assert [s["corrupt"] for s in summaries] == [0] * PROCESSES
        assert all(s["stats"]["quarantined"] == 0 for s in summaries)

        # 2. Every surviving entry still checksum-verifies.
        entries = list(cache_dir.glob("*/*.json"))
        assert entries, "the hammers wrote nothing?"
        for path in entries:
            document = json.loads(path.read_text())
            assert document["checksum"] == payload_checksum(
                document["payload"]
            ), f"torn entry survived at {path}"

        # 3. The store was genuinely shared: entries written by one
        #    process were served to another.
        assert sum(s["foreign_reads"] for s in summaries) > 0
