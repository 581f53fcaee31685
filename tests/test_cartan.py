"""Real connection and flag curvature against flat and Riemannian oracles."""

import hashlib
import sys

import numpy as np
import pytest

from finsler.cartan import cartan, radial_flag_bounds, spray_coefficients, spray_jacobian
from finsler.errors import DegenerateFlagError, DegenerateMetricError, NoSamplesError
from finsler.geometry import MetricDef, SamplePlan, realify_metric
from finsler.metrics import instantiate

from finsler.jets import Jet, JetProgram, JetSpace

from oracles import (at_point, cartan_by_partials, flag_curvature, hermitian_matrix,
                     horizontal_coefficients, riemannian_sectional_curvature,
                     spray_by_partials)

EUCLID = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}}))
POINCARE = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}}))
MINKOWSKI = realify_metric(instantiate(
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}}))
NONKAHLER = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}}))

# the disk, C^2, the ball, Minkowski and the Szabo polydisk
SPRAY_SPECS = [
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}},
    {"family": "szabo", "params": {
        "k": 2, "eps": 0.5,
        "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
        "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}},
]


def hermitian_real_matrix(mc):
    """Realified matrix field of a Hermitian family, from its closed form
    (independent of jets and of the family's formula)."""
    params = mc.spec["params"]

    def a_fn(x):
        n = mc.n
        H = hermitian_matrix(params["catalog"], x[:n] + 1j * x[n:], params.get("scale", 1.0))
        A = H.real
        B = H.imag
        # realification of sum_ab H_ab v_a conj(v_b) with v = ux + i uy
        return np.block([[A, B], [-B, A]])

    return a_fn


def test_euclidean_connection_vanishes():
    x, u = np.zeros(4), np.array([1.0, 2.0, -0.5, 0.3])
    data = cartan(EUCLID, x, u)
    assert np.abs(data.spray).max() < 1e-14
    assert np.abs(horizontal_coefficients(EUCLID, x, u)).max() < 1e-12
    assert np.abs(data.riemann).max() < 1e-12
    assert np.allclose(data.g, np.eye(4))


def test_minkowski_connection_is_flat_but_not_quadratic():
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.standard_normal(4)
        u = rng.standard_normal(4)
        data = cartan(MINKOWSKI, x, u)
        assert np.abs(data.spray).max() < 1e-12
        assert np.abs(horizontal_coefficients(MINKOWSKI, x, u)).max() < 1e-10
        assert np.abs(data.riemann).max() < 1e-9
        # genuinely non-Riemannian: the vertical coefficients of the reference
        assert np.abs(cartan_by_partials(MINKOWSKI, x, u)[1]).max() > 1e-3


def test_cartan_tensor_annihilates_reference_vector():
    rng = np.random.default_rng(1)
    for m in (MINKOWSKI, POINCARE):
        x = np.zeros(m.dim)
        u = rng.standard_normal(m.dim)
        contraction = np.einsum("jik,k->ji", cartan_by_partials(m, x, u)[1], u)
        assert np.abs(contraction).max() < 1e-10


def test_riemannian_members_have_u_independent_connection():
    rng = np.random.default_rng(2)
    x = np.array([0.2, -0.1, 0.05, 0.15])
    vals = []
    for _ in range(3):
        u = rng.standard_normal(4)
        vals.append(horizontal_coefficients(NONKAHLER, x, u))
    assert np.abs(vals[0] - vals[1]).max() < 1e-10
    assert np.abs(vals[1] - vals[2]).max() < 1e-10


def test_poincare_center_nonlinear_connection_vanishes():
    data = cartan(POINCARE, np.zeros(2), np.array([0.8, 0.1]))
    assert np.abs(data.nonlinear).max() < 1e-13
    assert np.abs(data.riemann).max() > 0.1


def test_flag_curvature_euclidean_zero():
    k = flag_curvature(EUCLID, np.zeros(4), np.array([1.0, 0, 0, 0]),
                       np.array([0.0, 1.0, 0, 0]))
    assert abs(k) < 1e-12


def test_flag_curvature_minkowski_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(4)
        u = rng.standard_normal(4)
        X = rng.standard_normal(4)
        assert abs(flag_curvature(MINKOWSKI, x, u, X)) < 1e-7


def test_flag_curvature_hyperbolic_surface():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = 0.7 * rng.uniform(-1, 1, 2) / np.sqrt(2)
        u = rng.standard_normal(2)
        X = rng.standard_normal(2)
        if abs(u[0] * X[1] - u[1] * X[0]) < 0.1:
            X = np.array([-u[1], u[0]])
        k = flag_curvature(POINCARE, x, u, X)
        assert k == pytest.approx(-4.0, abs=1e-5)


@pytest.mark.parametrize("mc_spec", [
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
    {"family": "hermitian", "complex_dim": 2,
     "params": {"catalog": "poincare_ball", "scale": 2.0}},
])
def test_flag_curvature_matches_riemannian_oracle(mc_spec):
    mc = instantiate(mc_spec)
    m = realify_metric(mc)
    a_fn = hermitian_real_matrix(mc)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = 0.4 * rng.uniform(-1, 1, m.dim) / np.sqrt(m.dim)
        u = rng.standard_normal(m.dim)
        X = rng.standard_normal(m.dim)
        gram = np.array([[u @ u, u @ X], [X @ u, X @ X]])
        if np.linalg.det(gram) < 0.1 * (u @ u) * (X @ X):
            continue
        k_engine = flag_curvature(m, x, u, X)
        k_oracle = riemannian_sectional_curvature(a_fn, x, u, X)
        assert k_engine == pytest.approx(k_oracle, abs=2e-6, rel=1e-6)
        # pole independence for quadratic metrics
        k_swapped = flag_curvature(m, x, X, u)
        assert k_swapped == pytest.approx(k_engine, abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("mc_spec", SPRAY_SPECS)
def test_spray_gathers_match_partial_readout(mc_spec):
    m = realify_metric(instantiate(mc_spec))
    rng = np.random.default_rng(11)
    for _ in range(6):
        x = 0.6 * rng.uniform(-1, 1, m.dim) / np.sqrt(m.dim)
        u = rng.standard_normal(m.dim)
        want = spray_by_partials(m, x, u)
        got = at_point(spray_coefficients, m, x, u)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


ROW_SPECS = {
    "disk": SPRAY_SPECS[0], "ball": SPRAY_SPECS[2], "minkowski": SPRAY_SPECS[3],
    "nonkahler": {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}},
    "szabo": SPRAY_SPECS[4],
}


@pytest.mark.parametrize("name", ROW_SPECS)
def test_cartan_rows_are_their_points_bit_for_bit(name):
    m = realify_metric(instantiate(ROW_SPECS[name]))
    rng = np.random.default_rng(31)
    # 12 rows, as many as a fan of 4 directions and 3 radii holds
    x = 0.6 * rng.uniform(-1, 1, (12, m.dim)) / np.sqrt(m.dim)
    u = rng.standard_normal((12, m.dim))
    rows = cartan(m, x, u)
    for b in range(len(x)):
        point = cartan(m, x[b], u[b])
        for field in ("u", "g", "spray", "nonlinear", "riemann"):
            assert np.array_equal(getattr(rows, field)[b], getattr(point, field)), (b, field)


@pytest.mark.parametrize("mc_spec", SPRAY_SPECS)
def test_cartan_assembly_matches_partial_readout(mc_spec):
    m = realify_metric(instantiate(mc_spec))
    rng = np.random.default_rng(12)
    for _ in range(4):
        x = 0.6 * rng.uniform(-1, 1, m.dim) / np.sqrt(m.dim)
        u = rng.standard_normal(m.dim)
        data = cartan(m, x, u)
        gamma_h, _, riemann = cartan_by_partials(m, x, u)
        # the oracles' gathered gamma_h, and the riemann of cartan
        for name, g, w in (("gamma_h", horizontal_coefficients(m, x, u), gamma_h),
                           ("riemann", data.riemann, riemann)):
            assert np.allclose(g, w, rtol=1e-13, atol=1e-13 * np.abs(w).max()), name
        # the order-2 coefficients are a prefix of the order-4 jet
        assert np.array_equal(data.spray, at_point(spray_coefficients, m, x, u))


def test_spray_values_are_pinned():
    # a float.hex digest of the sprays at points and at rows, and of S and dS
    # from order-3 and order-4 jets, taken while the point and the row sprays
    # were two separate readouts: one shared readout must not move a bit
    rng = np.random.default_rng(22)
    digest = hashlib.sha256()
    for spec in SPRAY_SPECS:
        m = realify_metric(instantiate(spec))
        for rows in (1, 3, 8):
            x = 0.6 * rng.uniform(-1, 1, (rows, m.dim)) / np.sqrt(m.dim)
            u = rng.standard_normal((rows, m.dim))
            values = [spray_coefficients(m, x, u)]
            for b in range(rows):
                values.append(spray_coefficients(m, x[b:b + 1], u[b:b + 1]))
                for order in (3, 4):
                    values.extend(spray_jacobian(m.real_jet(x[b], u[b], order), u[b])[2:])
            for a in values:
                digest.update(" ".join(map(float.hex, a.ravel().tolist())).encode())
    assert digest.hexdigest() == "5a2c4c5e60621c8688395ec24cf7b876c0d0c8dadbd87d2cbdc7b0c45f5c58fc"


def test_cartan_reads_no_scalar_partials(monkeypatch):
    # cartan reads gathered derivative tensors of one jet: no scalar partials,
    # no products of Jet objects and no inverse over jets
    def refuse(*args, **kwargs):
        raise AssertionError("jet-object arithmetic in cartan")

    for name in ("partial", "__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, name, refuse)
    for m in (POINCARE, MINKOWSKI):
        x, u = np.full(m.dim, 0.1), np.linspace(1.0, 2.0, m.dim)
        data = cartan(m, x, u)
        assert np.all(np.isfinite(data.riemann))


def test_flag_invariance_under_pole_shift():
    rng = np.random.default_rng(8)
    for m in (POINCARE, MINKOWSKI):
        x = np.zeros(m.dim)
        u = rng.standard_normal(m.dim)
        X = rng.standard_normal(m.dim)
        if m is POINCARE:
            X = np.array([-u[1], u[0]])
        k0 = flag_curvature(m, x, u, X)
        for _ in range(3):
            c = rng.standard_normal()
            k1 = flag_curvature(m, x, u, X + c * u)
            assert abs(k1 - k0) < 1e-8 * max(1, abs(k0))
        k2 = flag_curvature(m, x, u, 2.3 * X)
        assert abs(k2 - k0) < 1e-8 * max(1, abs(k0))


def test_degenerate_flag_raises():
    with pytest.raises(DegenerateFlagError):
        flag_curvature(EUCLID, np.zeros(4), np.array([1.0, 0, 0, 0]),
                       np.array([2.0, 0, 0, 0]))


def test_radial_flag_bounds():
    plan = SamplePlan(seed=0, n_points=6, n_dirs=3, radial_range=(0.1, 0.6))
    b = radial_flag_bounds(EUCLID, np.zeros(4), plan)
    assert abs(b.k_inf) < 1e-10 and abs(b.k_sup) < 1e-10
    bp = radial_flag_bounds(POINCARE, np.zeros(2), plan)
    assert bp.k_inf == pytest.approx(-4.0, abs=1e-4)
    assert bp.k_sup == pytest.approx(-4.0, abs=1e-4)
    assert bp.lower_bound_constant == pytest.approx(2.0, abs=1e-4)
    bm = radial_flag_bounds(MINKOWSKI, np.zeros(4), plan)
    assert max(abs(bm.k_inf), abs(bm.k_sup)) < 1e-6


def test_radial_flag_bounds_refuse_an_all_degenerate_fan(monkeypatch):
    # a fan whose one flag direction is its one radial direction spans no
    # plane: no sample, so no K, not the K = 0 of an empty extreme (the
    # package re-exports the function cartan under the module's name)
    monkeypatch.setattr(sys.modules["finsler.cartan"], "unit_directions",
                        lambda n, d, seed: np.eye(d)[:1])
    plan = SamplePlan(seed=0, n_points=6, n_dirs=3, radial_range=(0.1, 0.6))
    with pytest.raises(NoSamplesError, match="every radial flag plane was degenerate"):
        radial_flag_bounds(POINCARE, np.zeros(2), plan)


# a constant Hermitian metric whose fundamental tensor and Levi matrix have
# 2-norm condition number 1e11
ILL_CONDITIONED = {"family": "hermitian", "complex_dim": 2,
                   "params": {"catalog": "constant", "matrix": [[1, 0], [0, 1e-11]]}}


def test_ill_conditioned_fundamental_tensor_is_degenerate():
    m = realify_metric(instantiate(ILL_CONDITIONED))
    with pytest.raises(DegenerateMetricError, match="condition number"):
        cartan(m, np.zeros(4), np.array([1.0, 0.3, 0.2, 0.5]))


def test_singular_fundamental_tensor_is_degenerate_not_linalg_error():
    # G = (x1 + x2 + u1 + u2)^2 / 2 has the Hessian of all ones, so
    # g = [[1/2, 1/2], [1/2, 1/2]]
    program = JetProgram.record(lambda s: 0.5 * (s[0] + s[1] + s[2] + s[3]) ** 2, 4)
    for coeffs, u in ((program.replay_rows(np.ones((1, 4)), 3)[0], np.ones(2)),
                      (program.replay_rows(np.ones((2, 4)), 3), np.ones((2, 2)))):
        with pytest.raises(DegenerateMetricError, match="singular"):
            spray_jacobian(Jet(JetSpace.get(4, 3), coeffs), u)
    # the spray alone solves g S = b / 4, with no inverse to check
    m = MetricDef("real", lambda x, u: 0.5 * (x[0] + x[1] + u[0] + u[1]) ** 2, dim_real=2)
    with pytest.raises(DegenerateMetricError, match="fundamental tensor singular"):
        spray_coefficients(m, np.ones((1, 2)), np.ones((1, 2)))
