"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Spread is the interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles; each is
compared with the metric's bound from ``BENCHMARK.json``: acceptance
requires each spread but ``setup_s``'s to stay within its bound, and a
steady benchmark keeps it below a third of the bound.  Runs are
sequential: the benchmark assumes it has the host to itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.stats import spread  # noqa: E402


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def _verdict(name: str, share: float, bound: float) -> str:
    """Acceptance judges every spread but ``setup_s``'s against the
    bound; a steady benchmark keeps each below a third of it."""
    if name == "setup_s":
        return "not judged"
    if share > bound:
        return "OVER BOUND"
    return "steady" if share <= bound / 3 else "within bound, above a third of it"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in _seeds(args.seeds):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(output.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(output.stdout)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    if len(next(iter(values.values()))) < 2:
        return 0
    for name, samples in values.items():
        bound = bounds.get(name)
        share = spread(samples)
        verdict = "" if bound is None else f" bound {bound}: {_verdict(name, share, bound)}"
        print(f"{name:<24} median {statistics.median(samples):.6g} spread {share:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
