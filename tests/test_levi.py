"""Levi form of rho^2, the Hessian/Levi identity, and gradient identities."""

import math

import numpy as np
import pytest

from finsler import geodesic
from finsler.geodesic import PoleDistance, distance_hessian
from finsler.geometry import MetricDef, complex_to_real_components, realify_metric
from finsler.levi import LeviField
from finsler.metrics import instantiate

from oracles import (gradient_identity, hyperbolic_distance, levi_identity_residual,
                     straight_levi_rho2)

EUCLID1 = instantiate({"family": "hermitian", "complex_dim": 1,
                       "params": {"catalog": "euclidean"}})
POINCARE = instantiate({"family": "hermitian", "complex_dim": 1,
                        "params": {"catalog": "poincare_disk"}})
MINKOWSKI = instantiate({"family": "minkowski", "complex_dim": 2,
                         "params": {"k": 2, "eps": 1.0}})
BALL2 = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "poincare_ball"}})
NONKAHLER = instantiate({"family": "hermitian", "complex_dim": 2,
                         "params": {"catalog": "nonkahler"}})


def test_levi_euclidean_is_one():
    field = LeviField(EUCLID1, np.zeros(1, complex), curvature_K=0.0)
    z, v = np.array([0.4 + 0.3j]), np.array([1.0 + 0.5j])
    s = field.sample(z, v)
    assert s.levi_value == pytest.approx(1.0, abs=1e-8)
    assert s.bound == pytest.approx(2.0)
    assert s.margin > 0
    assert abs(straight_levi_rho2(field, z, v) - s.levi_value) < 1e-5


def test_levi_poincare_bound():
    field = LeviField(POINCARE, np.zeros(1, complex), curvature_K=2.0)
    rng = np.random.default_rng(0)
    for _ in range(4):
        zr = rng.uniform(0.15, 0.7)
        ang = rng.uniform(0, 2 * math.pi)
        z = np.array([zr * np.exp(1j * ang)])
        v = np.array([np.exp(1j * rng.uniform(0, 2 * math.pi))])
        s = field.sample(z, v)
        rho = hyperbolic_distance(z[0])
        assert s.rho == pytest.approx(rho, abs=1e-8)
        assert s.levi_value == pytest.approx(0.5 + rho / math.tanh(2.0 * rho), abs=1e-8)
        # theorem bound with K = 2 and the quoted specialization 2(1 + 2 rho)
        assert s.levi_value <= 2.0 + 2.0 * rho + 1e-3
        assert s.levi_value <= 2.0 * (1.0 + 2.0 * rho) + 1e-3
        assert s.margin >= -1e-3
    assert abs(straight_levi_rho2(field, z, v) - s.levi_value) < 1e-5


def test_levi_sample_shoots_once(monkeypatch):
    rho = PoleDistance.rho
    calls = []

    def counted(self, q, **kwargs):
        calls.append(q)
        return rho(self, q, **kwargs)

    monkeypatch.setattr(PoleDistance, "rho", counted)
    for m, K in ((POINCARE, 2.0), (BALL2, 2.0)):
        field = LeviField(m, np.zeros(m.n, complex), curvature_K=K)
        calls.clear()
        field.sample(np.full(m.n, 0.3 + 0.2j), np.full(m.n, 1.0 - 0.5j))
        assert len(calls) == 1


def test_levi_samples_start_their_jacobi_systems_at_the_shots_step(monkeypatch):
    # eight C^1 samples on one field, as the benchmark's levi batch, then the
    # same systems integrated from scipy's initial-step probe
    angles, phases = np.random.default_rng(3).uniform(0, 2 * math.pi, (2, 8))
    points = [(np.array([r * np.exp(1j * a)]), np.array([np.exp(1j * b)]))
              for r, a, b in zip(np.linspace(0.2, 0.9, 8), angles, phases)]

    def jacobi_cost():
        field = LeviField(EUCLID1, np.zeros(1, complex), curvature_K=0.0)
        for z, v in points:
            assert field.sample(z, v).levi_value == pytest.approx(1.0, abs=1e-8)
        assert field.pd.jacobi_integrations == 8
        return field.pd.jacobi_rhs_evaluations

    continued = jacobi_cost()
    integrate = geodesic._integrate_jacobi

    def from_the_probe(*args, first_step=None, **kwargs):
        return integrate(*args, **kwargs)

    monkeypatch.setattr(geodesic, "_integrate_jacobi", from_the_probe)
    assert continued < jacobi_cost()


def test_levi_path_reads_no_order_4_jets(monkeypatch):
    # distance Hessians and Levi samples integrate the linearized geodesic
    # flow: order-3 jets, no curvature, no cartan
    real_jet = MetricDef.real_jet

    def order_3(self, x, u, order):
        if order > 3:
            raise AssertionError(f"order-{order} jet on the Levi path")
        return real_jet(self, x, u, order)

    def refuse(*args, **kwargs):
        raise AssertionError("cartan on the Levi path")

    monkeypatch.setattr(MetricDef, "real_jet", order_3)
    monkeypatch.setattr(geodesic, "cartan", refuse)
    for m, K in ((POINCARE, 2.0), (BALL2, 2.0), (MINKOWSKI, 0.0)):
        z, v = np.full(m.n, 0.3 + 0.2j), np.full(m.n, 1.0 - 0.5j)
        x = complex_to_real_components(z)
        system = distance_hessian(PoleDistance(realify_metric(m), np.zeros(2 * m.n)), x)
        assert np.isfinite(system.boundary_form()).all()
        s = LeviField(m, np.zeros(m.n, complex), curvature_K=K).sample(z, v)
        assert s.margin >= -1e-3
    with pytest.raises(AssertionError, match="order-4"):
        POINCARE.complex_jet(np.array([0.3 + 0.2j]), np.array([1.0 - 0.5j]), 4)


def test_levi_minkowski_flat_bound():
    field = LeviField(MINKOWSKI, np.zeros(2, complex), curvature_K=0.0)
    rng = np.random.default_rng(1)
    for _ in range(3):
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = field.sample(z, v)
        assert s.levi_value <= 2.0 + 1e-5
        assert abs(straight_levi_rho2(field, z, v) - s.levi_value) < 1e-4


def test_levi_near_pole_rejected():
    field = LeviField(EUCLID1, np.zeros(1, complex))
    with pytest.raises(Exception):
        field.sample(np.array([1e-5 + 0j]), np.array([1.0 + 0j]))


# -- identity between Wirtinger and covariant Hessians --------------------------


def f_norm2(xs):
    return sum(x * x for x in xs)


def f_re_z1(xs):
    return xs[0] * 1.0


def f_mixed(xs):
    n = len(xs) // 2
    return xs[0] * xs[n] + 0.3 * sum(x * x for x in xs) * xs[1 % n]


@pytest.mark.parametrize("f", [f_norm2, f_re_z1, f_mixed])
def test_levi_identity_flat(f):
    rng = np.random.default_rng(2)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    X = rng.standard_normal(4)
    out = levi_identity_residual(MINKOWSKI, f, z, X)
    assert out["relative_residual"] < 1e-10


@pytest.mark.parametrize("f", [f_norm2, f_re_z1])
def test_levi_identity_poincare_ball(f):
    rng = np.random.default_rng(3)
    for _ in range(3):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = 0.4 * rng.uniform(0.3, 1.0) * w / np.linalg.norm(w)
        X = rng.standard_normal(4)
        out = levi_identity_residual(BALL2, f, z, X)
        assert out["relative_residual"] < 1e-8, out


def test_levi_identity_nonkahler_negative_control():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        X = rng.standard_normal(4)
        out = levi_identity_residual(NONKAHLER, f_re_z1, z, X)
        worst = max(worst, out["relative_residual"])
    # reported, not asserted to vanish: the identity needs the weak symmetry
    assert worst > 1e-6


# -- gradient identities ----------------------------------------------------------


def assert_gradient_identity(m, z):
    # both radial pairings hold to 1e-6 relative
    rep = gradient_identity(m, np.zeros(m.n, complex), z)
    assert rep["relative_error_real"] < 1e-6 and rep["relative_error_complex"] < 1e-6, rep
    return rep


def test_gradient_identity_euclidean():
    assert_gradient_identity(EUCLID1, np.array([0.5 + 0.2j]))


def test_gradient_identity_poincare():
    rep = assert_gradient_identity(POINCARE, np.array([0.45 - 0.3j]))
    assert rep["rho"] == pytest.approx(hyperbolic_distance(0.45 - 0.3j), abs=1e-8)


def test_gradient_identity_minkowski():
    assert_gradient_identity(MINKOWSKI, np.array([0.4 + 0.1j, -0.3 + 0.5j]))
