"""Write bench/golden.json: the digest of every op output that passes its
checks, for the seed-0 op lists.

    python3 bench/make_golden.py

Regenerate only when an output is meant to change, and say why in the
commit.  Ops that fail (the known failures) get no entry.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from stbench.core import call_with_limit, digest
    from stbench.workloads import OP_LIMIT_S, WORKLOADS, Context

    out_dir = os.path.join(root, "bench", "out")
    ctx = Context(root, out_dir, in_process=True)
    golden: dict[str, dict[str, str]] = {}
    for workload, build in WORKLOADS.items():
        entries = golden[workload] = {}
        for op in build(0, ctx):
            result, _, error = call_with_limit(op.call, OP_LIMIT_S)
            status = error or op.check(result)
            if status:
                print(f"{workload}: no entry for {op.name}: {status}",
                      file=sys.stderr)
                continue
            entries[op.name] = digest(op.encode(result))
    path = os.path.join(root, "bench", "golden.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
