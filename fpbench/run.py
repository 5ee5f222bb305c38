"""freeprod benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 fpbench/run.py --workload conjugates --seed 1 --seconds 20 --trace 0

Each run is its own interpreter, so peak memory and import costs never leak
between workloads.  The library is imported from ``src/`` of the checkout;
generated problem files and span traces go under ``.fpbench-work/``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries details (sample counts, tail
percentiles, failure reasons, per-function trace summary).  Exits non-zero
without a result when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
from gen import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="freeprod benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = worker.ROOT / "src" / "freeprod"
    if not (lib / "__init__.py").is_file():
        print(f"no library at {lib}; run from a checkout", file=sys.stderr)
        return 2

    detail, result = worker.run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
