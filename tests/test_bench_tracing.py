"""The benchmark tracer's contract with the engine: every function it wraps exists.

``bench/tracing.py`` wraps engine functions and methods by module and
attribute name; renaming or deleting one of them breaks the traced
benchmark run. Loading the tracer by path, and one small traced run of the
``levi`` and of the ``certify`` workload, keep that contract in tier-1.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    targets = [(module, path) for _, module, path, _ in tracing.WRAPS]
    targets += list(tracing.TABLE_WRAPS)
    for module, path in targets:
        owner, attr = tracing._resolve(module, path)
        target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        assert callable(target), f"{module}.{path} is not a callable"


def test_tracer_installs_and_restores():
    tracing = _load_tracing()
    from finsler import geodesic
    from finsler.levi import LeviField
    originals = (geodesic.hessian_rho, LeviField.sample, geodesic.solve_ivp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert geodesic.hessian_rho.__wrapped__ is originals[0]
        assert LeviField.sample.__wrapped__ is originals[1]
        assert geodesic.solve_ivp.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (geodesic.hessian_rho, LeviField.sample, geodesic.solve_ivp) == originals


def _assert_traced_run_is_correct(workload):
    root = TRACING.parent.parent
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--small",
                           "--trace", "1"], cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr


def test_traced_levi_run_is_correct():
    # one traced pass of every Levi and Hessian operation: the tracer's checks
    # (spray calls against the integrations' nfev, equal counts on both traced passes)
    # hold on the Jacobi right-hand sides
    _assert_traced_run_is_correct("levi")


def test_traced_certify_run_is_correct():
    # the same checks over check, bounds, schwarz and replay: each stacked
    # right-hand side of a radial-flag fan is one batched spray call
    _assert_traced_run_is_correct("certify")
