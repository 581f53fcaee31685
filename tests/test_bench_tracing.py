"""The benchmark tracer's contract with the engine: every function it wraps exists.

``bench/tracing.py`` wraps engine functions and methods by module and
attribute name; renaming or deleting one of them breaks the traced
benchmark run. Loading the tracer by path keeps that contract in tier-1.
"""

import importlib.util
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
