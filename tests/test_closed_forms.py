"""Distances, flag curvatures and distance Hessians against closed forms.

The Funk disk (``oracles.FUNK_DISK``) is a real Randers metric, genuinely
Finsler and not reversible, of constant flag curvature -1/4 whose geodesics
are straight lines: its forward distance and its distance Hessian are known
exactly. The Szabo polydisk of two disks, the product of three disks, and the
disk and the ball from a pole off the origin have closed-form distances too,
and their shooting queries iterate, since their chords are not geodesics.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from finsler.cartan import radial_flag_bounds
from finsler.geodesic import PoleDistance, distance_hessian
from finsler.geometry import SamplePlan, complex_to_real_components, realify_metric
from finsler.metrics import instantiate

from oracles import (FUNK_DISK, ball_distance, funk_distance, mobius_distance,
                     product_disks_distance, szabo_distance)


FUNK_POLES = [(0.0, 0.0), (0.3, 0.0), (-0.2, 0.4)]
FUNK_TARGETS = [(0.5, 0.0), (-0.6, 0.3), (0.1, 0.8), (0.7, -0.5), (-0.9, -0.1)]


@pytest.mark.parametrize("pole", FUNK_POLES[:2])
def test_funk_flag_curvature_is_minus_a_quarter(pole):
    bounds = radial_flag_bounds(FUNK_DISK, np.array(pole), SamplePlan())
    assert bounds.n_samples == 80
    assert abs(bounds.k_inf + 0.25) < 1e-10 and abs(bounds.k_sup + 0.25) < 1e-10


def test_funk_distance_is_the_closed_form():
    for pole in FUNK_POLES:
        pd = PoleDistance(FUNK_DISK, np.array(pole))
        for q in FUNK_TARGETS:
            assert pd.rho(np.array(q)).value == pytest.approx(funk_distance(pole, q),
                                                              rel=1e-12), (pole, q)


def test_funk_distance_is_forward():
    # the Funk metric is not reversible, and rho is the forward distance
    out = PoleDistance(FUNK_DISK, np.zeros(2)).rho(np.array([0.5, 0.0])).value
    back = PoleDistance(FUNK_DISK, np.array([0.5, 0.0])).rho(np.zeros(2)).value
    assert out == pytest.approx(math.log(2.0), rel=1e-12)
    assert back == pytest.approx(math.log(1.5), rel=1e-12)


@pytest.mark.parametrize("pole, q", [((0.0, 0.0), (0.5, 0.2)), ((0.3, 0.0), (-0.4, 0.5)),
                                     ((-0.2, 0.4), (0.6, 0.1))])
def test_funk_hessian_is_half_coth_across_the_tangent(pole, q):
    # the equality case of the real Hessian comparison at K = -1/4: the
    # distance Hessian is 0 along T and (1/2) coth(rho/2) g_T across it
    system = distance_hessian(PoleDistance(FUNK_DISK, np.array(pole)), np.array(q))
    H = system.boundary_form()
    assert system.r == pytest.approx(funk_distance(pole, q), rel=1e-12)
    assert np.abs(H @ system.T).max() < 1e-8
    assert eigh(H, system.g, eigvals_only=True) == pytest.approx(
        [0.0, 0.5 / math.tanh(system.r / 2.0)], abs=1e-8)


DISK = {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}


def _targets(n, seed):
    """8 complex points of n coordinates, each of modulus 0.1 to 0.7."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 0.7, (8, n)) * np.exp(2j * math.pi * rng.uniform(size=(8, n)))


def _distances(spec, pole, Z):
    """The distances from the complex ``pole`` to the complex points Z, by one
    solver, and its Gauss-Newton iterations."""
    m = realify_metric(instantiate(spec))
    pd = PoleDistance(m, complex_to_real_components(pole))
    values = [pd.rho(complex_to_real_components(z)).value for z in Z]
    return np.array(values), pd.work["iterations"]


def _worst(values, closed):
    return float(np.max(np.abs(values / np.array(closed) - 1.0)))


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [2, 3])
def test_szabo_distance_is_the_norm_of_the_factor_distances(eps, k):
    Z = _targets(2, 11)
    values, iterations = _distances({"family": "szabo", "params": {
        "k": k, "eps": eps, "factor1": DISK, "factor2": DISK}}, np.zeros(2), Z)
    assert iterations > 0
    assert _worst(values, [szabo_distance(z, eps, k) for z in Z]) < 1e-10
    # a negative control: the closed form of another eps fails the comparison
    assert not _worst(values, [szabo_distance(z, 2.0 * eps, k) for z in Z]) < 1e-10


def test_product_disks_distance_is_the_root_sum_of_squares():
    Z = _targets(3, 12)
    values, iterations = _distances({"family": "hermitian", "complex_dim": 3,
                                     "params": {"catalog": "product_disks"}}, np.zeros(3), Z)
    assert iterations > 0
    assert _worst(values, [product_disks_distance(z) for z in Z]) < 1e-10


def test_disk_distance_from_an_off_origin_pole():
    a = 0.3 + 0.2j
    Z = _targets(1, 13)
    values, iterations = _distances({"family": "hermitian", **DISK}, np.array([a]), Z)
    assert iterations > 0
    assert _worst(values, [mobius_distance(a, z[0]) for z in Z]) < 1e-10


def test_ball_distance_from_an_off_origin_pole():
    a = np.array([0.3 + 0.2j, -0.1 + 0.25j])
    Z = _targets(2, 14) / math.sqrt(2.0)
    values, iterations = _distances({"family": "hermitian", "complex_dim": 2,
                                     "params": {"catalog": "poincare_ball"}}, a, Z)
    assert iterations > 0
    assert _worst(values, [ball_distance(complex_to_real_components(a),
                                         complex_to_real_components(z)) for z in Z]) < 1e-10
