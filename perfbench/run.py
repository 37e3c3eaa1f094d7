#!/usr/bin/env python3
"""Time-to-quality benchmark of mrcakit.

Usage:
    python3 perfbench/run.py --workload {desk64,mrca256-v1,mrca128-v2}
        --seed N --seconds S --trace {0,1}

Each workload runs as one closed loop in this process, one operation in
flight.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` measures the per-layer metrics from spans around the calls
into each layer.  The last line of standard output is the JSON result;
the spans and the full result, with the environment, go to
``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402

if __name__ == "__main__":
    bootstrap.prepare()
    import bench

    raise SystemExit(bench.main(__doc__))
