"""Layered benchmark of the finsler engine.

    python3 bench/run.py --workload {distance,levi,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the engine is imported from ``src/``. A run is
a whole number of passes over one seeded batch (``round(S / nominal pass
time)``, at least one), so every run of a workload does the same work; only
a run still going after 1.5 S seconds of passes stops early, between passes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of several
fresh imports of ``finsler`` up to the end of one warm-up operation, each
divided by the reference loop measured around it and scaled to seconds at
the loop's nominal duration), ``ops_per_kref`` and ``op_p50_ref`` (operation
latencies divided by the reference loop of ``reference.py`` measured just
before and after each operation) and ``peak_rss_mb``.
``--trace 1`` wraps the public functions of every engine module (see
``tracing.py``), runs one untraced pass and two traced passes, checks that the
traced passes give identical counts and that spray calls match scipy's
``nfev``, and reports the per-layer metrics per operation plus the tracing
overhead. Spans go to ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5


def _import_dependencies():
    """Import what the engine imports, so set-up time is the engine's own."""
    import numpy as np
    import scipy.integrate
    import scipy.optimize  # noqa: F401
    import yaml  # noqa: F401

    scipy.integrate.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(2),
                              method="DOP853", dense_output=True)


def _purge_engine():
    for name in [n for n in sys.modules if n == "finsler" or n.startswith("finsler.")]:
        del sys.modules[name]
    importlib.invalidate_caches()


def _setup(workload):
    """Fresh import of the engine, instantiation and one warm-up operation."""
    _purge_engine()
    gc.collect()
    t0 = time.perf_counter()
    workload.setup()
    workload.warmup()
    return time.perf_counter() - t0


def _setup_seconds(workload, repeats):
    """Median set-up time, each repeat normalised by the reference samples
    around it and expressed in seconds at the nominal reference speed."""
    from reference import NOMINAL_S, ReferenceClock

    clock = ReferenceClock()
    timed = []
    for _ in range(repeats):
        index = clock.mark()
        timed.append((index, _setup(workload)))
        clock.mark()
    return statistics.median(s / clock.around(i) for i, s in timed) * NOMINAL_S


def _run_pass(workload, clock):
    records = workload.run_pass(clock)
    clock.mark()
    return records


def _tally(records):
    attempted = len(records)
    failed = sum(1 for r in records if r.failed)
    mismatches = [r.mismatch for r in records if r.mismatch and not r.failed]
    for r in records:
        if r.failed:
            print(f"operation {r.kind} failed:\n{r.failed}", file=sys.stderr)
    for m in mismatches[:5]:
        print(f"wrong result: {m}", file=sys.stderr)
    return attempted, failed, not mismatches


def run_untraced(workload, n_passes, setup_repeats, time_cap):
    from reference import ReferenceClock

    setup_s = _setup_seconds(workload, setup_repeats)
    records, normalized = [], []
    started = time.perf_counter()
    for k in range(n_passes):
        if time.perf_counter() - started > time_cap:
            print(f"stopping after {k} passes: over {time_cap:.0f} s", file=sys.stderr)
            break
        clock = ReferenceClock()
        recs = _run_pass(workload, clock)
        records.extend(recs)
        ratios = [r.seconds / clock.around(r.ref_index) for r in recs if not r.failed]
        normalized.extend(ratios)
        print(f"pass {k}: {sum(r.seconds for r in recs):.3f} s of operations, "
              f"{sum(ratios):.1f} ref", file=sys.stderr)
    attempted, failed, correct = _tally(records)
    done = attempted - failed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (1000.0 * done / sum(normalized) if normalized else 0.0, "1/kref"),
        "op_p50_ref": (statistics.median(normalized) if normalized else 0.0, "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return correct, attempted, failed, metrics


def run_traced(workload, seed):
    from reference import ReferenceClock
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    _purge_engine()
    importlib.import_module("finsler")
    tracer.install()
    workload.setup()
    workload.warmup()
    tracer.uninstall()

    clock = ReferenceClock()
    records = _run_pass(workload, clock)
    untraced_s = sum(r.seconds for r in records)

    tracer.install()
    tracer.reset()
    traced, traced_s, windows = [], [], []
    for _ in range(2):
        recs = _run_pass(workload, clock)
        traced.extend(recs)
        traced_s.append(sum(r.seconds for r in recs))
        windows.append(tracer.counts())
    tracer.uninstall()
    records.extend(traced)
    second = windows[1] - windows[0]

    attempted, failed, correct = _tally(records)
    problems = []
    if windows[0] != second:
        diff = {k: (windows[0][k], second[k]) for k in windows[0] | second
                if windows[0][k] != second[k]}
        problems.append(f"the two traced passes differ in counts: {diff}")
    if tracer.mismatches:
        problems.append(f"spray calls differ from nfev in {len(tracer.mismatches)} "
                        f"integrations, first (span, calls, nfev) {tracer.mismatches[0]}")
    if workload.name in ("distance", "levi") and not tracer.spray_integrations:
        problems.append("no spray integration was traced")
    for p in problems:
        print(f"trace check: {p}", file=sys.stderr)

    metrics = layer_metrics(tracer, sum(1 for r in traced if not r.failed))
    metrics["trace.overhead"] = (min(traced_s) / untraced_s, "ratio")

    header = {"workload": workload.name, "seed": seed, "counts_per_pass": dict(windows[0]),
              "op_kinds": [r.kind for r in traced],
              "traced_pass_s": traced_s, "untraced_pass_s": untraced_s,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    tracer.write(OUT / f"trace_{workload.name}_{seed}.jsonl", header,
                 [r.start for r in traced])
    return correct and not problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["distance", "levi", "certify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="one operation of each kind and one pass (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "finsler" / "__init__.py").is_file():
        print(f"engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _import_dependencies()
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    kwargs = {"outdir": OUT / args.workload} if args.workload == "certify" else {}
    workload = cls(args.seed, small=args.small, **kwargs)
    n_passes = 1 if args.small else max(1, round(args.seconds / cls.nominal_pass_s))

    if args.trace:
        correct, attempted, failed, metrics = run_traced(workload, args.seed)
    else:
        correct, attempted, failed, metrics = run_untraced(
            workload, n_passes, 2 if args.small else SETUP_REPEATS, 1.5 * args.seconds)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
