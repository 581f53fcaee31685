"""Per-call costs by operation kind from a trace file written by ``run.py --trace 1``.

    python3 bench/layers.py bench/out/trace_distance_1.jsonl [more files]

Prints, for the spray, ``cartan`` and ``real_jet`` spans, the call count and
mean inclusive time per call grouped by the kind of operation that made the
call and the call's detail (metric family, jet order, curvature); then, per
operation kind, the ``rho`` calls and the integrations (all ``solve_ivp``
calls, Jacobi systems included) made inside it. Times include the tracing
overhead.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

KEYS = ("cartan.spray", "cartan.cartan", "geometry.real_jet")
COUNTED = ("geodesic.rho", "geodesic.solve_ivp")


def summarize(path):
    with open(path) as fp:
        header = json.loads(fp.readline())
        kinds = header["op_kinds"]
        stats = defaultdict(lambda: [0, 0.0])
        counted = defaultdict(int)
        for line in fp:
            sid, parent, op, key, t0, t1, detail = json.loads(line)
            if op < 0:
                continue
            if key in COUNTED:
                counted[(kinds[op], key)] += 1
            if key in KEYS:
                s = stats[(kinds[op], key, detail)]
                s[0] += 1
                s[1] += t1 - t0
    print(f"# {header['workload']} seed {header['seed']}: "
          f"{len(kinds)} traced operations, overhead "
          f"{header['metrics']['trace.overhead']:.2f}x, integrations per rho "
          f"{header['metrics']['geodesic.integrations_per_rho']:.3f}")
    print(f"{'operation kind':14s} {'span':18s} {'detail':48s} {'calls':>7s} {'ms/call':>8s}")
    for (kind, key, detail), (n, total) in sorted(stats.items()):
        print(f"{kind:14s} {key:18s} {detail or '':48s} {n:7d} {1e3 * total / n:8.3f}")
    for kind in sorted({k for k, _ in counted}):
        rhos = counted[(kind, "geodesic.rho")]
        ints = counted[(kind, "geodesic.solve_ivp")]
        per = f"{ints / rhos:.2f}" if rhos else "-"
        print(f"{kind:16s} rho calls {rhos:6d}  integrations {ints:6d}  per rho {per}")


if __name__ == "__main__":
    for p in sys.argv[1:]:
        summarize(p)
