"""Sample grids as stacked rows: one call per grid, each row bit for bit its
sample's one-row value, and a run of the same function one row at a time when
a sample fails."""

import dataclasses

import numpy as np
import pytest

from finsler import chern, kahler, metrics, schwarz
from finsler.chern import chern_finsler
from finsler.errors import DegenerateMetricError
from finsler.geometry import (MetricDef, SamplePlan, complex_to_real_components,
                              realify_metric, sample_points, sample_vectors)
from finsler.jets import JetProgram
from finsler.metrics import check_metric, instantiate
from finsler.report import canonical_json, evaluate_stacked

import oracles
from oracles import at_point, per_point_check_metric

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
        seen.update(fn=fn, points=points, dirs=dirs, rows=out.rows, failures=out.failures)
        return out

    monkeypatch.setattr(module, "evaluate_stacked", capture)
    return run(m, PLAN), seen


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", CATALOG)
def test_stacked_grid_equals_per_point_values(monkeypatch, name, grid):
    result, seen = _run_grid(monkeypatch, grid, instantiate(CATALOG[name]))
    samples = result.samples if grid == "kahler" else result
    assert samples.stacked and samples.grid == {"rows": 12, "stacked": True}
    fn = seen["fn"]
    want = [(iz, iv, _bits(at_point(fn, z, v))) for iz, z in enumerate(seen["points"])
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
        point = at_point(chern_finsler, m, Z[b], V[b])
        for f in dataclasses.fields(point):
            assert np.asarray(getattr(rows, f.name))[b].tobytes() == \
                np.asarray(getattr(point, f.name)).tobytes(), f.name
        assert k_rows[b] == at_point(chern.holomorphic_sectional_curvature, m, Z[b], V[b])


def _fail_at(monkeypatch, z_bad, v_bad):
    """``chern_finsler`` raises in every call whose rows hold the sample
    (z_bad, v_bad): the stacked call, and the sample's own one-row call."""
    real = chern.chern_finsler

    def failing(m, z, v):
        if np.any(np.all(z == z_bad, axis=-1) & np.all(v == v_bad, axis=-1)):
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
    samples = bad.samples if grid == "kahler" else bad
    assert not samples.stacked and samples.grid == {"rows": 12, "stacked": False}
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


# -- the validity grid of check_metric --------------------------------------------


VALIDITY = {
    "disk": CATALOG["disk"],
    "ball": CATALOG["ball"],
    "euclidean_c2": {"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "euclidean"}},
    "nonkahler": CATALOG["nonkahler"],
    "product_disks": {"family": "hermitian", "complex_dim": 2,
                      "params": {"catalog": "product_disks"}},
    "minkowski_k2_c2": CATALOG["minkowski"],
    "minkowski_k3_c3": {"family": "minkowski", "complex_dim": 3,
                        "params": {"k": 3, "eps": 0.25}},
    "szabo_default": {"family": "szabo"},
    "un_invariant": CATALOG["un_invariant"],
    "realified_disk": None,
}


def _validity_metric(name):
    spec = VALIDITY[name]
    return realify_metric(instantiate(CATALOG["disk"])) if spec is None else instantiate(spec)


def _payload(rep):
    return canonical_json(rep.to_dict())


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name", VALIDITY)
def test_validity_grid_equals_the_per_point_check(name):
    m = _validity_metric(name)
    rep = check_metric(m, PLAN)
    assert rep.passed and rep.grid == {"rows": 12, "stacked": True}
    assert _payload(rep) == _payload(per_point_check_metric(m, PLAN))


@pytest.mark.parametrize("name", ["disk", "ball", "minkowski_k3_c3", "realified_disk"])
def test_a_passing_validity_grid_makes_one_replay_per_tensor(monkeypatch, name):
    m = _validity_metric(name)
    calls = {}
    for owner, method in ((JetProgram, "replay_rows"), (MetricDef, "real_jet"),
                          (MetricDef, "complex_jet")):
        _count_calls(monkeypatch, owner, method, calls)
    rep = check_metric(m, PLAN)
    assert rep.passed and rep.grid["stacked"]
    # G with its homogeneity reference, the real fundamental tensor, and on
    # complex kinds the Levi matrix
    assert calls == {"replay_rows": 3 if m.is_complex else 2}


def _spoil_at(monkeypatch, m, method, sample, spoil):
    """``m.<method>``, and its point form ``oracles.point_<method>`` that the
    per-sample oracle reads, apply ``spoil`` to their result in every call
    whose rows, or point, hold the plan's ``sample`` (iz, iv): the stacked
    call, the sample's own one-row call and the oracle's call at it. Their
    arguments are complex or real components as ``method`` takes them."""
    iz, iv = sample
    z_bad, v_bad = sample_points(m, PLAN)[iz], sample_vectors(m, PLAN)[iv]
    if method == "fundamental_real" and m.is_complex:
        z_bad, v_bad = complex_to_real_components(z_bad), complex_to_real_components(v_bad)

    def spoiled(real):
        def call(*args):
            *_, z, v = args
            out = real(*args)
            hit = np.all(z == z_bad, axis=-1) & np.all(v == v_bad, axis=-1)
            return spoil(out, hit) if np.any(hit) else out
        return call

    monkeypatch.setattr(m, method, spoiled(getattr(m, method)))
    monkeypatch.setattr(oracles, f"point_{method}", spoiled(getattr(oracles, f"point_{method}")))


def _raise(out, hit):
    raise DegenerateMetricError("fundamental tensor singular")


def _nan(out, hit):
    out = np.array(out)
    out[hit] = np.nan
    return out


@pytest.mark.parametrize("method, spoil, reason", [
    ("fundamental_real", _raise, "DegenerateMetricError"),
    ("levi_matrix", _nan, "NonFiniteSampleError"),
])
@pytest.mark.parametrize("name", ["disk", "ball"])
def test_a_failed_validity_sample_runs_the_grid_per_point(monkeypatch, name, method,
                                                          spoil, reason):
    m = _validity_metric(name)
    _spoil_at(monkeypatch, m, method, (1, 2), spoil)
    rep = check_metric(m, PLAN)
    assert not rep.passed and rep.grid == {"rows": 12, "stacked": False}
    assert rep.stats["samples"] == {"attempted": 12, "ok": 11, "failed": 1,
                                    "failure_reasons": {reason: 1}}
    assert len(rep.errors) == 1 and rep.errors[0].startswith(f"sample (1,2): {reason}: ")
    # the other samples, their homogeneity scales included, as one at a time
    assert _payload(rep) == _payload(per_point_check_metric(m, PLAN))


# -- one row function on both paths ---------------------------------------------


@pytest.mark.parametrize("fail", [None, "raise", "nan"])
def test_the_fallback_calls_the_stacked_function_one_row_at_a_time(fail):
    points = [np.array([x, 0.0]) for x in (0.1, 0.2, 0.3)]
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    column = np.arange(6.0)
    shapes = []

    def fn(Z, V, S):
        shapes.append((Z.shape, V.shape, S.shape))
        bad = (Z[:, 0] == 0.2) & (V[:, 1] == 1.0)       # sample (1, 1)
        if fail == "raise" and bad.any():
            raise DegenerateMetricError("Levi matrix singular")
        values = np.column_stack([Z[:, 0] + S, V[:, 1]])
        if fail == "nan":
            values[bad] = np.nan
        return values

    grid = evaluate_stacked(fn, points, dirs, column)
    want = [(iz, iv, (points[iz][0] + column[2 * iz + iv], dirs[iv][1]))
            for iz in range(3) for iv in range(2)]
    if fail is None:
        assert shapes == [((6, 2), (6, 2), (6,))] and grid.stacked
        assert grid.rows == want and grid.failures == []
    else:
        assert shapes == [((6, 2), (6, 2), (6,))] + [((1, 2), (1, 2), (1,))] * 6
        assert not grid.stacked
        assert grid.rows == [row for row in want if row[:2] != (1, 1)]
        assert [(iz, iv) for iz, iv, _ in grid.failures] == [(1, 1)]


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", ["disk", "ball"])
def test_a_failed_grid_sample_writes_the_per_sample_bytes(monkeypatch, name, grid):
    # the oracle reads every sample's jet from its own point jet, complex_jet
    m = instantiate(CATALOG[name])
    _, seen = _run_grid(monkeypatch, grid, m)
    _fail_at(monkeypatch, seen["points"][1], seen["dirs"][2])
    point_rows = lambda z, v, order: np.array([m.complex_jet(a, b, order).coeffs
                                               for a, b in zip(z, v)])
    runs = []
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(m, "complex_rows", point_rows)
        result, seen = _run_grid(monkeypatch, grid, m)
        samples = result.samples if grid == "kahler" else result
        assert samples.grid == {"rows": 12, "stacked": False}
        payload = result.to_dict() if grid == "kahler" else result.counts
        runs.append((canonical_json(payload),
                     [(iz, iv, _bits(value)) for iz, iv, value in seen["rows"]]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("grid", [*GRIDS, "validity"])
@pytest.mark.parametrize("name", ["disk", "ball"])
def test_no_grid_reads_a_point_jet(monkeypatch, name, grid, fail):
    m = instantiate(CATALOG[name])
    if fail and grid == "validity":
        _spoil_at(monkeypatch, m, "levi_matrix", (1, 2), _raise)
    elif fail:
        _, seen = _run_grid(monkeypatch, grid, m)
        _fail_at(monkeypatch, seen["points"][1], seen["dirs"][2])
    calls = {}
    for method in ("real_jet", "complex_jet"):
        _count_calls(monkeypatch, MetricDef, method, calls)
    result = check_metric(m, PLAN) if grid == "validity" else GRIDS[grid][1](m, PLAN)
    stacked = (result.samples if grid == "kahler" else result).grid["stacked"]
    assert stacked != fail and calls == {}


@pytest.mark.parametrize("method, spoil", [("fundamental_real", _raise), ("levi_matrix", _nan)])
@pytest.mark.parametrize("name", ["disk", "ball"])
def test_a_failed_validity_sample_leaves_the_other_rows_alone(monkeypatch, name, method, spoil):
    # each sample reads the homogeneity scale of its index in plan order, so
    # a failed sample, raising or not, shifts no other sample's scale
    m = _validity_metric(name)
    real = metrics.evaluate_stacked
    grids = []

    def capture(*args):
        grids.append(real(*args))
        return grids[-1]

    monkeypatch.setattr(metrics, "evaluate_stacked", capture)
    check_metric(m, PLAN)
    _spoil_at(monkeypatch, m, method, (1, 2), spoil)
    check_metric(m, PLAN)
    good, bad = grids
    assert [(iz, iv) for iz, iv, _ in bad.failures] == [(1, 2)]
    assert [(iz, iv, _bits(value)) for iz, iv, value in bad.rows] == \
        [(iz, iv, _bits(value)) for iz, iv, value in good.rows if (iz, iv) != (1, 2)]
