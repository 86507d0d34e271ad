"""Run the program's command line with the host-speed sampler on.

    python3 bench/sampled.py PREFIX serve --unix PATH

is ``python3 -m repro serve --unix PATH``, run the same way (``runpy``),
with ``hostspeed.SpeedSampler`` writing probes under ``PREFIX`` for as
long as the process lives.  The benchmark starts the daemon this way so
that its latencies can be scaled by the host's speed while it served
them.
"""

from __future__ import annotations

import runpy
import sys

from hostspeed import SpeedSampler


def main() -> None:
    SpeedSampler(sys.argv[1]).start()
    sys.argv = ["repro", *sys.argv[2:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
