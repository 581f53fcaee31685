"""Family instantiation, closed-form values, and the validation suite."""

import math

import numpy as np
import pytest

from finsler import metrics
from finsler.errors import ConfigurationError, DomainError, SlitBundleError
from finsler.geometry import (SamplePlan, complex_to_real_components, realify_metric,
                              sample_points, sample_vectors)
from finsler.metrics import build_map, build_profile, check_metric, instantiate

from oracles import (EagerSpace, ball_automorphism, holomorphic_jacobian, levi_at,
                     probe_catalog)


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


def _hermitian_spec(catalog, n=1, **params):
    return {"family": "hermitian", "complex_dim": n, "params": {"catalog": catalog, **params}}


ASYMMETRIC = [[2, 1], [1.00001, 2]]   # within np.allclose's default rtol of 1e-5


@pytest.mark.parametrize("build, spec, message", [
    (instantiate, _hermitian_spec("constant", 2, matrix=ASYMMETRIC), "must be Hermitian"),
    (instantiate, {"family": "minkowski", "complex_dim": 2,
                   "params": {"factors": [ASYMMETRIC]}}, "must be Hermitian"),
    (instantiate, _hermitian_spec("constant", 2, matrix=[[1, 0], [0, -1]]),
     "must be positive definite"),
    (instantiate, _hermitian_spec("euclidean", scale=0.0), "scale must be positive"),
    (instantiate, _hermitian_spec("poincare_disk", 2), "one-dimensional"),
    (instantiate, _hermitian_spec("product_disks"), "complex_dim >= 2"),
    (instantiate, _hermitian_spec("nonkahler"), "complex_dim >= 2"),
    (instantiate, _hermitian_spec("hyperbolic"), "unknown hermitian catalog entry"),
    (instantiate, {"family": "minkowski", "params": {"eps": -0.5}}, "eps must be >= 0"),
    (instantiate, {"family": "minkowski", "complex_dim": 2,
                   "params": {"factors": [[[1, 0], [0, -1]]]}}, "positive semidefinite"),
    (instantiate, {"family": "szabo", "params": {"factors": [[[1]]]}}, "two matrices"),
    (instantiate, {"family": "un_invariant", "params": {"profile": {"f": "log"}}},
     "unknown gradient profile"),
    (instantiate, {"family": "un_invariant", "params": {"profile": {"form": "free",
                                                                     "expr": "s3"}}},
     "unknown free profile"),
    (instantiate, {"family": "un_invariant", "params": {"profile": {"form": "cubic"}}},
     "unknown profile form"),
    (build_map, {"map": "exp"}, "unknown holomorphic map"),
], ids=["not_hermitian", "factor_not_hermitian", "not_positive_definite", "scale_zero",
        "poincare_disk_n2", "product_disks_n1", "nonkahler_n1", "unknown_catalog",
        "minkowski_eps_negative", "factor_not_psd", "szabo_one_factor", "unknown_gradient_f",
        "unknown_free_expr", "unknown_profile_form", "unknown_map"])
def test_the_catalogs_refuse_what_they_cannot_build(build, spec, message):
    with pytest.raises(ConfigurationError, match=message):
        build(spec)


def test_a_hermitian_matrix_is_checked_at_the_scale_of_its_entries():
    # an asymmetry of 1e-16 relative to the largest entry, rounding's size,
    # passes; the constant metric then reads the upper triangle
    m = instantiate(_hermitian_spec("constant", 2, matrix=[[1e6, [300, 2]],
                                                           [[300 + 1e-10, -2], 1]]))
    v = np.array([1.0 + 0.5j, -0.3 + 2.0j])
    H = np.array([[1e6, 300 + 2j], [300 - 2j, 1]])
    assert m.value(np.zeros(2, complex), v) == pytest.approx(float((v @ H @ v.conj()).real),
                                                             rel=1e-14)


def test_check_metric_euclidean_levi_identity():
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "euclidean"}})
    rep = check_metric(m, SamplePlan(seed=1, n_points=5, n_dirs=3))
    assert rep.passed
    assert rep.stats["min_levi_eigenvalue"] == pytest.approx(1.0, abs=1e-12)


def test_check_metric_poincare_center():
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})
    L = levi_at(m, np.zeros(1, complex), np.array([0.4 + 0.2j]))
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
    phi = kp(*EagerSpace.get(2, 0).variables([0.2, 0.1])).value
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


VALUE_SPECS = {
    "disk": {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    "ball": {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
    "minkowski": {"family": "minkowski", "complex_dim": 2, "params": {"k": 3, "eps": 0.25}},
    "un_invariant": {"family": "un_invariant", "complex_dim": 2,
                     "params": {"profile": {"form": "gradient", "f": "exp", "c": 0.5}}},
    "realified_disk": None,
}


def _value_metric(name):
    disk = instantiate(VALUE_SPECS["disk"])
    return realify_metric(disk) if VALUE_SPECS[name] is None else instantiate(VALUE_SPECS[name])


@pytest.mark.parametrize("name", VALUE_SPECS)
def test_value_rows_are_the_order_0_replay(name):
    # G is the constant coefficient of the program's order-0 replay: rows of
    # one call equal real_rows and each point's own call bit for bit
    m = _value_metric(name)
    plan = SamplePlan(seed=9, n_points=5, n_dirs=3, radial_range=(0.1, 0.8))
    points, dirs = sample_points(m, plan), sample_vectors(m, plan)
    Z = np.repeat(np.array(points), len(dirs), axis=0)
    V = np.tile(np.array(dirs), (len(points), 1))
    rows = m.value(Z, V)
    X, U = (complex_to_real_components(Z), complex_to_real_components(V)) if m.is_complex \
        else (Z, V)
    assert rows.shape == (15,)
    assert rows.tobytes() == m.real_rows(X, U, 0)[:, 0].tobytes()
    assert rows.tolist() == [m.value(z, v) for z, v in zip(Z, V)]
    # one point against rows of vectors reads the point in every row
    assert m.value(Z[0], V[:3]).tobytes() == rows[:3].tobytes()


@pytest.mark.parametrize("name", VALUE_SPECS)
def test_value_of_a_zero_or_slit_vector_follows_homogeneity(name):
    m = _value_metric(name)
    z = sample_points(m, SamplePlan(seed=9, n_points=1))[0]
    v = sample_vectors(m, SamplePlan(seed=9, n_dirs=1))[0]
    assert m.value(z, np.zeros_like(v)) == 0.0
    # |v| = 1e-10 is inside the slit guard that real_jet and real_rows keep
    tiny = 1e-10 * v
    norm = float(np.linalg.norm(tiny))
    x, u = map(complex_to_real_components, (z, tiny)) if m.is_complex else (z, tiny)
    with pytest.raises(SlitBundleError):
        m.real_rows(x[None], u[None], 0)
    got = m.value(np.array([z, z, z]), np.array([v, tiny, 0.0 * v]))
    assert got[0] == m.value(z, v) and got[2] == 0.0
    assert got[1] == pytest.approx(norm ** 2 * m.value(z, tiny / norm), rel=1e-15)
    assert got[1] == pytest.approx(1e-20 * got[0], rel=1e-14)


def test_value_refuses_a_row_outside_the_domain():
    m = instantiate(VALUE_SPECS["disk"])
    Z = np.array([[0.3 + 0.1j], [1.2 + 0.0j]])
    with pytest.raises(DomainError):
        m.value(Z, np.ones((2, 1), complex))
    with pytest.raises(DomainError):
        m.value(Z[1], np.zeros(1, complex))


def test_map_catalog_jacobians():
    sq = build_map({"map": "power", "params": {"m": 2}})
    z = np.array([0.3 + 0.4j])
    values, jac = sq.evaluate(z[None])
    assert values[0, 0] == pytest.approx(z[0] ** 2)
    assert jac[0, 0, 0] == pytest.approx(2 * z[0])
    mob = build_map({"map": "mobius", "params": {"a": [0.5, 0.0]}})
    a = 0.5
    expect = (a - z[0]) / (1 - z[0] * a)
    assert mob.evaluate(z[None])[0][0, 0] == pytest.approx(expect)
    lin = build_map({"map": "linear", "params": {"matrix": [[1, 0.5], [0, [0, 1.0]]]}})
    w = lin.evaluate(np.array([[1 + 1j, 2.0]]))[0][0]
    assert w[0] == pytest.approx((1 + 1j) + 1.0)
    assert w[1] == pytest.approx(2j)


def test_map_values_are_the_constant_coefficients():
    # f(z) is read from the same order-1 replays as f'(z), one row per point
    rng = np.random.default_rng(11)
    z = 0.8 * rng.uniform(0.0, 1.0, 9) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 9))
    a = complex(0.35, 0.15)
    for spec, closed in (({"map": "power", "params": {"m": 2}}, z * z),
                         ({"map": "mobius", "params": {"a": [0.35, 0.15]}},
                          (a - z) / (1.0 - z * a.conjugate()))):
        values, jac = build_map(spec).evaluate(z[:, None])
        assert values.shape == (9, 1) and jac.shape == (9, 1, 1)
        assert np.all(np.abs(values[:, 0] - closed) <= 1e-15 * np.abs(closed))


MAP_SPECS = {
    "identity": {"map": "identity"},
    "mobius_real": {"map": "mobius", "params": {"a": 0.3}},
    "mobius_complex": {"map": "mobius", "params": {"a": [0.35, 0.15]}},
    "power_2": {"map": "power", "params": {"m": 2}},
    "power_5": {"map": "power", "params": {"m": 5}},
    "linear": {"map": "linear", "params": {"matrix": [[0.5, [0.1, 0.2]], [0.0, [-0.3, 0.4]]]}},
    "constant": {"map": "constant", "params": {"value": [[0.1, 0.2]]}},
}


@pytest.mark.parametrize("spec", MAP_SPECS.values(), ids=MAP_SPECS.keys())
def test_jacobian_rows_equal_the_eager_jacobian_bitwise(spec):
    # one order-1 row replay per program, against the map run on first-order
    # eager jets at each point of a certificate plan
    f = build_map(spec)
    m = instantiate({"family": "hermitian", "complex_dim": f.n_in,
                     "params": {"catalog": "poincare_ball"}})
    points = sample_points(m, SamplePlan(seed=20240801, n_points=14, n_dirs=4,
                                         radial_range=(0.1, 0.7)))
    rows = f.evaluate(np.array(points))[1]
    assert rows.shape == (14, f.n_out, f.n_in)
    for z, row in zip(points, rows):
        assert row.tobytes() == holomorphic_jacobian(f._fn, z).tobytes()


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

    def degenerate(x, u):
        raise DegenerateMetricError("fundamental tensor singular")

    monkeypatch.setattr(m, "fundamental_real", degenerate)
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

    def degenerate(x, u):
        raise DegenerateMetricError("fundamental tensor singular")

    # the one sample fails: no sample evaluated, so the check fails
    monkeypatch.setattr(m, "fundamental_real", degenerate)
    rep = check_metric(m, plan)
    assert not rep.passed
    assert rep.stats["samples"] == {"attempted": 1, "ok": 0, "failed": 1,
                                    "failure_reasons": {"DegenerateMetricError": 1}}


def test_check_metric_fails_on_a_non_finite_levi_eigenvalue(monkeypatch):
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})
    plan = SamplePlan(n_points=2, n_dirs=2)
    z0, v0 = sample_points(m, plan)[0], sample_vectors(m, plan)[0]
    x0, u0 = complex_to_real_components(z0), complex_to_real_components(v0)
    real_g, real_levi = m.fundamental_real, metrics.levi_matrix
    hit = []

    def tagged(x, u):
        hit.append(np.all(x == x0, axis=-1) & np.all(u == u0, axis=-1))
        return real_g(x, u)

    def nan_first(g):
        # sample (0,0) reads a NaN Levi matrix, and a finite g, in every call
        # whose rows hold it: the stacked call and its own one-row call (the
        # disk's g does not depend on v, so the rows of g name the sample)
        levi = real_levi(g)
        levi[hit[-1]] = np.nan
        return levi

    monkeypatch.setattr(m, "fundamental_real", tagged)
    monkeypatch.setattr(metrics, "levi_matrix", nan_first)
    rep = check_metric(m, plan)
    assert not rep.passed
    assert rep.stats["samples"] == {"attempted": 4, "ok": 3, "failed": 1,
                                    "failure_reasons": {"NonFiniteSampleError": 1}}
    assert rep.errors[0].startswith("sample (0,0): NonFiniteSampleError: ")
    assert rep.stats["min_levi_eigenvalue"] > 0


def test_check_metric_surfaces_programming_errors(monkeypatch):
    m = instantiate({"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}})

    def broken(x, u):
        raise KeyError("missing coefficient")

    monkeypatch.setattr(m, "fundamental_real", broken)
    with pytest.raises(KeyError):
        check_metric(m, SamplePlan(n_points=2, n_dirs=2))
