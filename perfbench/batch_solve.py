"""batch-solve: in-process ``solve_many`` over batches of distinct instances.

Why it exists: with at most two requests in flight the serve path
rarely forms same-family groups, so this is the one workload where the
batched kernels do most of the work -- the way ``repro sweep
--no-cache`` solves.  No cache: every call solves every instance.
Each call is a 12-instance batch (three groups of 4), short enough
that a 15 s run times about 300 of them.
"""

from __future__ import annotations

from typing import List

from perfbench.affinity import CpuCycle
from perfbench.client import monotonic
from perfbench.inputs import BATCHES, batch_docs
from perfbench.layers import diff, fallbacks, registry_samples
from perfbench.outcome import Context, Outcome
from perfbench.spans import Recorder, install

#: Every (family, T) group has 4 members: nothing falls back.
EXPECTED_FALLBACKS = ()


def _problems(seed: int) -> List[list]:
    from repro.serve.schemas import problem_from_wire

    return [
        [problem_from_wire(doc) for doc in batch_docs(seed, index)]
        for index in range(BATCHES)
    ]


def _key(result):
    return (dict(result.periodic.assignment), result.total_utility)


def run(ctx: Context, seed: int, seconds: float, traced: bool, setups: int) -> Outcome:
    from repro.core.solver import solve
    from repro.runtime import executor
    from repro.serve.schemas import result_to_wire

    out = Outcome()
    recorder = Recorder()
    uninstall = install(recorder) if traced else None
    before = registry_samples()
    cpus = CpuCycle()
    try:
        for _ in range(setups):
            cpus.next()
            start = monotonic()
            batches = _problems(seed)
            # One warm-up call per batch: a user pays first-call costs
            # before the steady state the timed loop measures.
            for batch in batches:
                executor.solve_many([(p, "greedy", None) for p in batch])
            out.setup_s.append(monotonic() - start)

        timed = 0.0
        calls = []
        first_call = {}
        while timed < seconds:
            index = len(calls) % BATCHES
            tasks = [(p, "greedy", None) for p in batches[index]]
            cpus.next()
            start = monotonic()
            results, _telemetry = executor.solve_many(tasks)
            elapsed = monotonic() - start
            timed += elapsed
            out.latencies_ms.append(1000.0 * elapsed)
            # Keep full results only for the first call on each batch;
            # later calls keep a light key, so live memory (and with it
            # the collector's work) does not grow over the run.
            if index not in first_call:
                first_call[index] = results
            calls.append((index, [_key(r) for r in results]))
    finally:
        cpus.restore()
        if uninstall is not None:
            uninstall()
    after = registry_samples()

    # -- correctness gate: bit-for-bit against a serial solve -----------
    for index, batch in enumerate(batches):
        references = [solve(problem, method="greedy") for problem in batch]
        keys = [_key(r) for r in references]
        if index in first_call:
            for position, (got, want) in enumerate(zip(first_call[index], references)):
                if result_to_wire(got) != result_to_wire(want):
                    out.fail(f"batch {index} instance {position}: differs from serial")
        for call_index, got in calls:
            if call_index != index:
                continue
            out.attempted += len(got)
            for position, key in enumerate(got):
                if key != keys[position]:
                    out.fail(f"batch {index} instance {position}: differs from serial")
    out.check_fallbacks(fallbacks(diff(after, before)), EXPECTED_FALLBACKS)

    instances = sum(len(keys) for _index, keys in calls)
    out.throughput = instances / timed
    out.report.append(("batch.instances_per_s", out.throughput, "1/s", instances))
    if traced:
        out.spans = recorder.spans
        out.counters = diff(after, before)
    return out
