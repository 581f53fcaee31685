"""Sample grids as stacked rows: one call per grid, each row bit for bit its
sample's per-point value, and a per-sample run when a sample fails."""

import dataclasses

import numpy as np
import pytest

from finsler import chern, kahler, schwarz
from finsler.chern import chern_finsler
from finsler.errors import DegenerateMetricError
from finsler.geometry import SamplePlan
from finsler.metrics import instantiate

DISK = {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}
CATALOG = {
    "disk": {"family": "hermitian", **DISK},
    "ball": {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
    "minkowski": {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}},
    "szabo": {"family": "szabo", "params": {"k": 2, "eps": 0.5, "factor1": DISK,
                                            "factor2": DISK}},
    "nonkahler": {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}},
    "un_invariant": {"family": "un_invariant", "complex_dim": 2,
                     "params": {"profile": {"form": "gradient", "f": "exp", "c": 0.5}}},
}
# 12 rows: more than one stacked product holds at order 4 over 8 variables
PLAN = SamplePlan(seed=5, n_points=4, n_dirs=3, radial_range=(0.1, 0.7))
GRIDS = {"holomorphic": (schwarz, schwarz.holomorphic_curvature_samples),
         "kahler": (kahler, kahler.classify)}


def _run_grid(monkeypatch, grid, m):
    """The grid's result and what it handed to ``evaluate_stacked``: the
    sample function, the points, the directions and the returned rows."""
    module, run = GRIDS[grid]
    real = module.evaluate_stacked
    seen = {}

    def capture(fn, points, dirs):
        out = real(fn, points, dirs)
        seen.update(fn=fn, points=points, dirs=dirs, rows=out[0], failures=out[1])
        return out

    monkeypatch.setattr(module, "evaluate_stacked", capture)
    return run(m, PLAN), seen


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", CATALOG)
def test_stacked_grid_equals_per_point_values(monkeypatch, name, grid):
    result, seen = _run_grid(monkeypatch, grid, instantiate(CATALOG[name]))
    assert result.stacked and result.grid == {"rows": 12, "stacked": True}
    fn = seen["fn"]
    want = [(iz, iv, _bits(fn(z, v))) for iz, z in enumerate(seen["points"])
            for iv, v in enumerate(seen["dirs"])]
    assert [(iz, iv, _bits(value)) for iz, iv, value in seen["rows"]] == want


@pytest.mark.parametrize("name", CATALOG)
def test_chern_finsler_rows_equal_points(name):
    m = instantiate(CATALOG[name])
    rng = np.random.default_rng(3)
    W = rng.standard_normal((5, m.n)) + 1j * rng.standard_normal((5, m.n))
    Z = rng.uniform(0.05, 0.6, (5, 1)) * W / np.linalg.norm(W, axis=1, keepdims=True)
    V = rng.standard_normal((5, m.n)) + 1j * rng.standard_normal((5, m.n))
    rows = chern_finsler(m, Z, V)
    k_rows = chern.holomorphic_sectional_curvature(m, Z, V)
    for b in range(5):
        point = chern_finsler(m, Z[b], V[b])
        for f in dataclasses.fields(point):
            assert np.asarray(getattr(rows, f.name))[b].tobytes() == \
                np.asarray(getattr(point, f.name)).tobytes(), f.name
        assert k_rows[b] == chern.holomorphic_sectional_curvature(m, Z[b], V[b])


def _fail_at(monkeypatch, z_bad, v_bad):
    """``chern_finsler`` raises at the sample (z_bad, v_bad): in a stacked call
    that holds it, and at its own point."""
    real = chern.chern_finsler

    def failing(m, z, v):
        hit = np.all(np.asarray(z) == z_bad, axis=-1) & np.all(np.asarray(v) == v_bad, axis=-1)
        if np.any(hit):
            raise DegenerateMetricError("Levi matrix singular")
        return real(m, z, v)

    monkeypatch.setattr(chern, "chern_finsler", failing)
    monkeypatch.setattr(kahler, "chern_finsler", failing)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", ["disk", "ball"])
def test_one_failing_sample_runs_the_grid_per_sample(monkeypatch, name, grid):
    m = instantiate(CATALOG[name])
    good, seen = _run_grid(monkeypatch, grid, m)
    good_rows = seen["rows"]
    _fail_at(monkeypatch, seen["points"][1], seen["dirs"][2])
    bad, seen = _run_grid(monkeypatch, grid, m)
    assert not bad.stacked and bad.grid == {"rows": 12, "stacked": False}
    assert [(iz, iv) for iz, iv, _ in seen["failures"]] == [(1, 2)]
    # the other samples keep the bits of the all-good grid
    assert [(iz, iv, _bits(value)) for iz, iv, value in seen["rows"]] == \
        [(iz, iv, _bits(value)) for iz, iv, value in good_rows if (iz, iv) != (1, 2)]
    if grid == "holomorphic":
        assert bad.failure_reasons == {"DegenerateMetricError": 1}
        assert bad.counts == {"attempted": 12, "ok": 11, "failed": 1,
                              "failure_reasons": {"DegenerateMetricError": 1}}
    else:
        assert bad.errors == ["DegenerateMetricError: Levi matrix singular"]
        assert bad.n_samples == 11


@pytest.mark.parametrize("grid", GRIDS)
def test_a_programming_error_in_the_stacked_call_propagates(monkeypatch, grid):
    def broken(m, z, v):
        raise KeyError("missing coefficient")

    monkeypatch.setattr(chern, "chern_finsler", broken)
    monkeypatch.setattr(kahler, "chern_finsler", broken)
    with pytest.raises(KeyError):
        GRIDS[grid][1](instantiate(CATALOG["disk"]), PLAN)
