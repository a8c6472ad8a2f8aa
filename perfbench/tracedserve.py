"""``repro serve`` with the layer wrappers installed; spans out at exit.

Run as ``python -m perfbench.tracedserve --spans-out FILE`` with
``src`` and the repository root on ``PYTHONPATH``.  It is the plain
``repro serve --port 0`` command in every other respect: SIGTERM
drains it, and once it has stopped the recorded spans are written to
``FILE``.
"""

from __future__ import annotations

import argparse
import sys

from perfbench.spans import Recorder, install


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    from repro import cli

    recorder = Recorder()
    install(recorder)
    status = cli.main(["serve", "--port", "0"])
    recorder.write(args.spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
