"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

For each workload, runs one small pass (one operation of each kind) with
every correctness check, untraced and twice traced, and asserts that:

- the last output line is the result object with exactly the end-to-end
  metrics of ``BENCHMARK.json`` (untraced) or its per-layer metrics (traced);
- every run is correct with no failed operation;
- the two traced runs give identical counts.

Finally it copies ``BENCHMARK.json`` and ``bench/`` alone into a scratch
directory under ``bench/out/`` and asserts that the benchmark exits nonzero
there without printing a result. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 300


def _run(cwd, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _result(workload, trace):
    rc, out, err = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--small")
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace} exited {rc}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _counts(result, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items()
            if units[k].startswith("count") or (units[k] == "ratio" and k != "trace.overhead")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        plain = _result(name, 0)
        traced = [_result(name, 1), _result(name, 1)]
        for res, want in [(plain, end_to_end)] + [(t, per_layer) for t in traced]:
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] is True and res["failed"] == 0, res
            assert res["attempted"] >= 1, res
            assert set(res["metrics"]) == want, set(res["metrics"]) ^ want
        assert _counts(traced[0], spec) == _counts(traced[1], spec), name
        print(f"smoke {name}: ok ({plain['attempted']} operations)")

    bare = BENCH_DIR / "out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, out, _ = _run(bare, "--workload", "distance", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert rc != 0 and not out.strip(), (rc, out)
    shutil.rmtree(bare)
    print("smoke bare checkout: exits", rc, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
