"""Benchmark entry point.

  python3 bench/run.py --workload tiling_ladder --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "stairtile", "__init__.py")):
        print(f"error: no stairtile sources under {src}", file=sys.stderr)
        return 2
    # One thread per process, as the run model says: stairtile never calls
    # BLAS, but numpy's import starts a BLAS thread pool that would compete
    # with the measured thread for the machine's two vCPUs.  Child processes
    # inherit this.  Set before stairtile, and so numpy, is imported.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    # Child interpreters load cached bytecode, as an installed package
    # would, instead of compiling stairtile on every CLI call.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, src)
    from stbench import runner
    from stbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result, lines = runner.run(root, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
