"""Run the lapspec CLI while sampling the host's speed inside its process.

    python3 -m perfbench.launch SAMPLES.json [lapspec arguments...]

Runs ``lapspec.cli`` the way ``python -m lapspec.cli`` does, with the same
arguments, output and exit code, inside clock.sampling(): the calibration
kernel runs right after numpy is imported, every SAMPLE_EVERY_S of wall
time and at the end. The samples go to SAMPLES.json as a list of
``[start, seconds]``, start read from ``time.perf_counter``, which is the
same monotonic clock in every process, for Clock.run_child.
"""
from __future__ import annotations

import json
import runpy
import sys

from perfbench import clock


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit("usage: python3 -m perfbench.launch SAMPLES.json [lapspec arguments...]")
    path = sys.argv.pop(1)
    try:
        with clock.sampling():
            runpy.run_module("lapspec.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(path, "w") as fh:
            json.dump(clock.SAMPLES, fh)


if __name__ == "__main__":
    main()
