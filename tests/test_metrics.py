"""Family instantiation, closed-form values, and the validation suite."""

import math

import numpy as np
import pytest

from finsler.errors import ConfigurationError
from finsler.geometry import SamplePlan, realify_metric
from finsler.metrics import build_map, build_profile, check_metric, instantiate

from oracles import ball_automorphism, probe_catalog


def test_poincare_disk_value_and_metadata():
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})
    z, v = np.array([0.5 + 0.0j]), np.array([1.0 + 0.0j])
    assert m.value(z, v) == pytest.approx(1.0 / (1 - 0.25) ** 2)
    assert m.metadata["holomorphic_curvature"] == -4.0


def test_szabo_value_at_origin():
    m = instantiate({"family": "szabo", "params": {
        "k": 2, "eps": 1.0,
        "factor1": {"complex_dim": 1, "params": {"catalog": "euclidean"}},
        "factor2": {"complex_dim": 1, "params": {"catalog": "euclidean"}}}})
    G = m.value(np.zeros(2, complex), np.array([1.0 + 0j, 1.0 + 0j]))
    assert G == pytest.approx(2.0 + math.sqrt(2.0))


def test_minkowski_is_point_independent():
    m = instantiate({"family": "minkowski", "complex_dim": 2,
                     "params": {"k": 2, "eps": 1.0}})
    v = np.array([0.3 - 0.1j, 1.2 + 0.4j])
    vals = [m.value(z, v) for z in (np.zeros(2, complex),
                                    np.array([3.0 + 1j, -2.0 + 0.5j]))]
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)


def test_invalid_parameters_are_named():
    with pytest.raises(ConfigurationError, match="eps"):
        instantiate({"family": "szabo", "params": {"k": 2, "eps": -1.0}})
    with pytest.raises(ConfigurationError, match="k must be"):
        instantiate({"family": "szabo", "params": {"k": 1.5, "eps": 1.0}})
    with pytest.raises(ConfigurationError, match="family"):
        instantiate({"family": "nope"})


@pytest.mark.parametrize("build, spec, key", [
    (instantiate, {"family": "hermitian", "complex_dim": 1.9}, "complex_dim"),
    (instantiate, {"family": "hermitian", "complex_dim": True}, "complex_dim"),
    (instantiate, {"family": "minkowski", "params": {"k": 2.5}}, "k"),
    (instantiate, {"family": "hermitian", "params": {"scale": math.inf}}, "scale"),
    (instantiate, {"family": "minkowski", "params": {"eps": math.inf}}, "eps"),
    (instantiate, {"family": "szabo", "params": {"eps": math.nan}}, "eps"),
    (instantiate, {"family": "un_invariant", "params": {"profile": {"f": "exp", "c": math.nan}}},
     "c"),
    (build_map, {"map": "identity", "params": {"n": 1.5}}, "n"),
    (build_map, {"map": "power", "params": {"m": 2.7}}, "m"),
    (build_map, {"map": "power", "params": {"m": True}}, "m"),
    (build_map, {"map": "constant", "params": {"n_in": 2.5}}, "n_in"),
])
def test_counts_are_integers_and_reals_finite(build, spec, key):
    # a fractional count would be truncated, and a non-finite real passes a sign check
    with pytest.raises(ConfigurationError, match=rf"\b{key} must be"):
        build(spec)


def test_check_metric_euclidean_levi_identity():
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "euclidean"}})
    rep = check_metric(m, SamplePlan(seed=1, n_points=5, n_dirs=3))
    assert rep.passed
    assert rep.stats["min_levi_eigenvalue"] == pytest.approx(1.0, abs=1e-12)


def test_check_metric_poincare_center():
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})
    L = m.levi_matrix(np.zeros(1, complex), np.array([0.4 + 0.2j]))
    assert L[0, 0] == pytest.approx(1.0)
    rep = check_metric(m, SamplePlan(seed=2, n_points=6, n_dirs=3))
    assert rep.passed
    # the realified disk takes the real-kind branch: real scalings of u
    real = check_metric(realify_metric(m), SamplePlan(seed=2, n_points=6, n_dirs=3))
    assert real.passed and real.stats["samples"]["ok"] > 0
    assert real.stats["homogeneity_residual"] < 1e-10


def test_check_metric_szabo_strong_convexity():
    m = instantiate({"family": "szabo", "params": {
        "k": 2, "eps": 0.5,
        "factor1": {"complex_dim": 1, "params": {"catalog": "euclidean"}},
        "factor2": {"complex_dim": 1, "params": {"catalog": "euclidean"}}}})
    rep = check_metric(m, SamplePlan(seed=3, n_points=6, n_dirs=4))
    assert rep.passed
    assert rep.stats["min_real_hessian_eigenvalue"] > 0


FULL_CATALOG = [
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "euclidean"}},
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "product_disks"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}},
    {"family": "hermitian", "complex_dim": 2,
     "params": {"catalog": "constant", "matrix": [[2.0, [0.0, 0.5]], [[0.0, -0.5], 1.0]]}},
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}},
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 3, "eps": 0.25}},
    {"family": "szabo", "params": {"k": 2, "eps": 0.5,
     "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
     "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}},
    {"family": "szabo", "params": {"k": 2, "eps": 1.0,
     "factors": [[[1.0]], [[1.5]]]}},
    {"family": "un_invariant", "complex_dim": 2,
     "params": {"profile": {"form": "gradient", "f": "exp", "c": 0.5}}},
    {"family": "un_invariant", "complex_dim": 2,
     "params": {"profile": {"form": "gradient", "f": "inv_one_minus_t"}}},
]


@pytest.mark.parametrize("spec", FULL_CATALOG,
                         ids=lambda s: instantiate(s).family_id)
def test_every_family_passes_validation(spec):
    m = instantiate(spec)
    rep = check_metric(m, SamplePlan(seed=5, n_points=5, n_dirs=3,
                                     radial_range=(0.1, 0.5)))
    assert rep.passed, rep.stats


def test_szabo_factor_matrix_shorthand():
    m = instantiate({"family": "szabo", "params": {
        "k": 2, "eps": 1.0, "factors": [[[1.0]], [[1.0]]]}})
    G = m.value(np.zeros(2, complex), np.array([1.0 + 0j, 1.0 + 0j]))
    assert G == pytest.approx(2.0 + math.sqrt(2.0))


def test_hermitian_families_are_quadratic_in_v():
    for catalog, n in (("poincare_ball", 2), ("nonkahler", 2)):
        m = instantiate({"family": "hermitian", "complex_dim": n,
                         "params": {"catalog": catalog}})
        z = np.full(n, 0.2 + 0.1j)
        v = np.array([0.5 - 0.2j, 1.0 + 0.3j])
        jet = m.complex_jet(z, v, 3)
        third = [abs(jet.partial([n + a, n + b, 3 * n + c]))
                 for a in range(n) for b in range(n) for c in range(n)]
        third += [abs(jet.partial([n + a, n + b, n + c]))
                  for a in range(n) for b in range(n) for c in range(n)]
        assert max(third) < 1e-12


def test_un_invariant_profiles():
    kp = build_profile({"form": "gradient", "f": "exp", "c": 0.7})
    assert kp.is_gradient_form
    phi = kp(0.2, 0.1)
    assert phi == pytest.approx(math.exp(0.14) * (1 + 0.07))
    free = build_profile({"form": "free", "expr": "one_plus_s2"})
    assert not free.is_gradient_form
    m = instantiate({"family": "un_invariant", "complex_dim": 2,
                     "params": {"profile": {"form": "gradient", "f": "inv_one_minus_t"}}})
    # f = 1/(1-t) gives exactly the unit-ball metric
    ball = instantiate({"family": "hermitian", "complex_dim": 2,
                        "params": {"catalog": "poincare_ball"}})
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert m.value(z, v) == pytest.approx(ball.value(z, v), rel=1e-12)


def test_map_catalog_jacobians():
    sq = build_map({"map": "power", "params": {"m": 2}})
    z = np.array([0.3 + 0.4j])
    assert sq.apply_values(z)[0] == pytest.approx(z[0] ** 2)
    assert sq.jacobian(z)[0, 0] == pytest.approx(2 * z[0])
    mob = build_map({"map": "mobius", "params": {"a": [0.5, 0.0]}})
    a = 0.5
    expect = (a - z[0]) / (1 - z[0] * a)
    assert mob.apply_values(z)[0] == pytest.approx(expect)
    lin = build_map({"map": "linear", "params": {"matrix": [[1, 0.5], [0, [0, 1.0]]]}})
    w = lin.apply_values(np.array([1 + 1j, 2.0]))
    assert w[0] == pytest.approx((1 + 1j) + 1.0)
    assert w[1] == pytest.approx(2j)


def test_ball_automorphism_moves_origin():
    psi = ball_automorphism(np.array([0.3 + 0.1j, -0.2 + 0.0j]))
    out = psi([0.0 + 0j, 0.0 + 0j])
    assert out[0] == pytest.approx(0.3 + 0.1j)
    assert out[1] == pytest.approx(-0.2)
    # image of a boundary-ish point stays inside the closed ball
    w = psi([0.6 + 0j, 0.2 + 0.5j])
    assert abs(w[0]) ** 2 + abs(w[1]) ** 2 < 1.0


def test_probe_catalog_tangency():
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "poincare_ball"}})
    z = np.array([0.2 + 0.1j, -0.3 + 0.2j])
    v = np.array([0.5 - 0.1j, 0.8 + 0.2j])
    probes = probe_catalog(m, z, v)
    assert set(probes) >= {"affine", "geodesic"}
    for p in probes.values():
        at0 = np.array([complex(w) for w in p(0.0 + 0.0j)])
        assert np.allclose(at0, z, atol=1e-12)
        # tangent direction parallel to v
        h = 1e-6
        der = (np.array([complex(w) for w in p(h + 0j)]) - at0) / h
        cross = der[0] * v[1] - der[1] * v[0]
        assert abs(cross) / max(1.0, np.linalg.norm(der)) < 1e-5


def test_check_metric_records_engine_errors(monkeypatch):
    from finsler.errors import DegenerateMetricError
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})

    def degenerate(z, v):
        raise DegenerateMetricError("Levi matrix singular")

    monkeypatch.setattr(m, "levi_matrix", degenerate)
    rep = check_metric(m, SamplePlan(n_points=2, n_dirs=2))
    assert not rep.passed
    assert len(rep.errors) == 4 and "DegenerateMetricError" in rep.errors[0]


def test_check_metric_counts_samples(monkeypatch):
    from finsler.errors import DegenerateMetricError
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})
    plan = SamplePlan(n_points=1, n_dirs=1)
    rep = check_metric(m, plan)
    assert rep.passed
    assert rep.stats["samples"] == {"attempted": 1, "ok": 1, "failed": 0,
                                    "failure_reasons": {}}

    def degenerate(z, v):
        raise DegenerateMetricError("Levi matrix singular")

    # the one sample fails: no sample evaluated, so the check fails
    monkeypatch.setattr(m, "levi_matrix", degenerate)
    rep = check_metric(m, plan)
    assert not rep.passed
    assert rep.stats["samples"] == {"attempted": 1, "ok": 0, "failed": 1,
                                    "failure_reasons": {"DegenerateMetricError": 1}}


def test_check_metric_fails_on_a_non_finite_levi_eigenvalue(monkeypatch):
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})
    real = m.levi_matrix
    calls = []

    def nan_first(z, v):
        # sample (0,0) is the first row of the stacked call and the first
        # call of the per-point run
        levi = real(z, v)
        if np.ndim(z) == 2:
            levi[0] = np.nan
            return levi
        calls.append(1)
        return np.full((1, 1), np.nan) if len(calls) == 1 else levi

    monkeypatch.setattr(m, "levi_matrix", nan_first)
    rep = check_metric(m, SamplePlan(n_points=2, n_dirs=2))
    assert not rep.passed
    assert rep.stats["samples"] == {"attempted": 4, "ok": 3, "failed": 1,
                                    "failure_reasons": {"NonFiniteSampleError": 1}}
    assert rep.errors[0].startswith("sample (0,0): NonFiniteSampleError: ")
    assert rep.stats["min_levi_eigenvalue"] > 0


def test_check_metric_surfaces_programming_errors(monkeypatch):
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})

    def broken(z, v):
        raise KeyError("missing coefficient")

    monkeypatch.setattr(m, "levi_matrix", broken)
    with pytest.raises(KeyError):
        check_metric(m, SamplePlan(n_points=2, n_dirs=2))
