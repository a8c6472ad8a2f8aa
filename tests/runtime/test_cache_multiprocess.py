"""Multi-process cache hammer: N processes, one store, zero torn reads.

A store shared by several processes is only trustworthy if concurrent
writers re-writing the *same* keys never serve each other torn bytes and never
lose counts.  This test runs several hammer subprocesses (see
``cache_hammer_worker.py``) against one directory and then audits the
store and the accounting:

- no process ever read a payload that mismatched its key's content;
- every entry left on disk still verifies its checksum;
- the stats sidecars agree exactly with what the processes reported;
- cross-process hits actually happened (the tier was *shared*, not
  just co-located).
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.runtime.backend import payload_checksum
from repro.runtime.cache import STATS_DIR, aggregate_sidecar_stats

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
                f"hammer-{index}",
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

        # 3. Sidecar aggregation matches the processes' own reports
        #    exactly (atexit flushed lifetime totals).
        totals = aggregate_sidecar_stats(cache_dir)
        assert totals is not None
        assert totals["writers"] == PROCESSES
        for field in ("hits", "misses", "stores", "disk_hits", "cross_hits"):
            reported = sum(s["stats"][field] for s in summaries)
            assert totals[field] == reported, field

        # 4. The tier was genuinely shared: entries written by one
        #    process were served to another.
        assert totals["cross_hits"] > 0

    def test_sidecar_per_process_files_present(self, tmp_path):
        cache_dir = tmp_path / "store"
        run_hammers(cache_dir, processes=2, iterations=40)
        names = sorted(
            path.name for path in (cache_dir / STATS_DIR).glob("*.stats")
        )
        assert names == ["hammer-0.stats", "hammer-1.stats"]
