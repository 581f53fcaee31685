"""Geodesic flow, shooting distance, Jacobi fields, index form, distance Hessians."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from scipy.linalg import eigh

from finsler import geodesic
from finsler.cartan import cartan, spray_coefficients
from finsler.errors import (SAMPLE_ERRORS, ConfigurationError, ConjugatePointError,
                            DomainError, ShootingError, StructuralError)
from finsler.geodesic import (SHOOT_ATOL, SHOOT_RTOL, BoundaryJacobiSystem,
                              IndexFormResult, PoleDistance,
                              _integrate_affine, distance_hessian,
                              hessian_rho, index_form,
                              integrate_geodesic, jacobi_field,
                              jacobi_boundary_field)
from finsler.geometry import MetricDef, realify_metric
from finsler.jets import spow
from finsler.metrics import instantiate

from oracles import (ball_distance, covariant_boundary_form, covariant_d2_rho,
                     fd_index_form, hyperbolic_distance, hyperbolic_hessian_tangential,
                     legendre_gradient)

EUCLID = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "euclidean"}}))
EUCLID2 = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}}))
HYPERBOLIC = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}}))
MINKOWSKI = realify_metric(instantiate(
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}}))
BALL2 = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}}))
SZABO = realify_metric(instantiate({"family": "szabo", "params": {
    "k": 2, "eps": 0.5, "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}}))
NONKAHLER = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}}))

# Every chord from the origin of the disk or the ball is a geodesic, so a
# query from there lands at its first shot. From this pole a chord is one only
# along the diameter through the pole, so a query to OFF_Q iterates.
OFF_POLE = np.array([0.3, 0.0])
OFF_Q = np.array([0.45, -0.3])


def _round_chart(x, u):
    # the curvature-4 round metric in an affine chart of the sphere (the
    # Fubini-Study metric of CP^1): geodesics meet their conjugate points at
    # distance pi/2, and z -> -1/conj(z) is the antipode
    return (u[0] * u[0] + u[1] * u[1]) * spow(1.0 + x[0] * x[0] + x[1] * x[1], -2)


ROUND = MetricDef("real", _round_chart, dim_real=2, family_id="round_chart")


def test_euclidean_straight_line():
    u0 = np.array([0.6, 0.8])
    path = integrate_geodesic(EUCLID, np.zeros(2), u0, 2.0)
    x, u = path.endpoint()
    assert np.allclose(x, 2.0 * u0, atol=1e-12)
    assert path.arc_length == pytest.approx(2.0)
    assert path.energy_drift() < 1e-12
    assert path.normal


def test_minkowski_rays():
    rng = np.random.default_rng(0)
    for _ in range(5):
        u0 = rng.standard_normal(4)
        G = MINKOWSKI.value(np.zeros(4), u0)
        u0 /= math.sqrt(G)
        path = integrate_geodesic(MINKOWSKI, np.zeros(4), u0, 1.5)
        x, _ = path.endpoint()
        assert np.linalg.norm(x - 1.5 * u0) < 1e-9
        assert path.energy_drift() < 1e-10


def test_poincare_radial_speed():
    path = integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), 1.2)
    # after arc length t the Euclidean radius is tanh(t)
    for t in (0.3, 0.7, 1.2):
        x, _ = path.state_at(t)
        assert np.linalg.norm(x) == pytest.approx(math.tanh(t), abs=1e-9)
    assert path.energy_drift() < 1e-8


@pytest.mark.parametrize("length", [0.0, -0.5, math.nan])
def test_geodesic_length_must_be_positive(length):
    with pytest.raises(ConfigurationError, match="length"):
        integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), length)


def test_domain_truncation():
    path = integrate_geodesic(HYPERBOLIC, np.array([0.9, 0.0]),
                              np.array([10.0, 0.0]), 50.0)
    assert path.truncated
    x, _ = path.endpoint()
    assert np.linalg.norm(x) <= 1.0


def _exp(m, p, v):
    """exp_p(v): the geodesic from (p, v) at unit affine time, arc length F(p, v)."""
    return integrate_geodesic(m, p, v, math.sqrt(m.value(p, v))).endpoint()[0]


def test_exp_map_closed_forms():
    assert np.allclose(_exp(EUCLID2, np.array([1.0, 0, 0, 2.0]), np.array([0.5, 1, -1, 0.25])),
                       [1.5, 1, -1, 2.25], atol=1e-10)
    v = np.array([0.3, -0.2, 0.7, 0.1])
    assert np.allclose(_exp(MINKOWSKI, np.zeros(4), v), v, atol=1e-10)
    w = np.array([0.8, 0.6])
    out = _exp(HYPERBOLIC, np.zeros(2), w)
    assert np.allclose(out, math.tanh(1.0) * w, atol=1e-9)


def test_distance_closed_forms():
    p = np.array([0.1, -0.2, 0.3, 0.0])
    q = np.array([0.9, 0.4, -0.1, 0.5])
    assert PoleDistance(EUCLID2, p).rho(q).value == pytest.approx(np.linalg.norm(q - p),
                                                                  abs=1e-9)

    zq = np.array([0.55, -0.3])
    assert PoleDistance(HYPERBOLIC, np.zeros(2)).rho(zq).value == pytest.approx(
        hyperbolic_distance(complex(*zq)), abs=1e-9)

    x = np.array([0.4, -0.7, 0.2, 0.9])
    dm = PoleDistance(MINKOWSKI, np.zeros(4)).rho(x).value
    assert dm == pytest.approx(math.sqrt(MINKOWSKI.value(np.zeros(4), x)), abs=1e-9)


def test_pole_distance_tangent_and_warm_start():
    q = np.array([0.5, 0.2])
    r1 = PoleDistance(HYPERBOLIC, np.zeros(2)).rho(q)
    # arriving tangent is radial and unit
    assert HYPERBOLIC.value(q, r1.T) == pytest.approx(1.0, abs=1e-9)
    assert abs(r1.T[0] * q[1] - r1.T[1] * q[0]) < 1e-9
    # off the pole's diameter the cold query iterates
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    pd.rho(q)
    n1 = pd.total_integrations
    assert n1 > 1
    q2 = q + np.array([1e-3, -2e-3])
    r2 = pd.rho(q2)
    assert pd.total_integrations - n1 <= n1  # warm start reuses work
    assert r2.value == pytest.approx(ball_distance(OFF_POLE, q2), abs=1e-9)


def test_cold_flat_query_integrates_once():
    # the straight-line start already hits the target, and the arriving
    # tangent comes from that same integration
    pd = PoleDistance(EUCLID2, np.zeros(4))
    q = np.array([0.3, -0.2, 0.1, 0.4])
    r = pd.rho(q)
    assert r.n_integrations == 1
    assert pd.total_integrations == 1
    assert r.value == pytest.approx(np.linalg.norm(q), abs=1e-12)
    assert np.allclose(r.T, q / np.linalg.norm(q), atol=1e-12)


def _chord_length(pd, q):
    """L = F(p, w_c) for the chord start w_c = (q - p) L / F(p, q - p)."""
    return math.sqrt(pd.m.value(pd.pole, pd._chord_start(q)))


@pytest.mark.parametrize("m", [SZABO, NONKAHLER], ids=["szabo", "nonkahler"])
def test_chord_length_bounds_rho(m):
    rng = np.random.default_rng(12)
    for pole in (np.zeros(4), np.array([0.1, -0.2, 0.05, 0.3])):
        pd = PoleDistance(m, pole)
        for radius in (0.2, 0.5, 0.8):
            v = rng.standard_normal(4)
            q = radius * v / np.linalg.norm(v)
            r = pd.rho(q)
            assert r.n_integrations > 1   # the chord is no geodesic
            assert _chord_length(pd, q) >= r.value - 1e-12


@pytest.mark.parametrize("m", [HYPERBOLIC, BALL2], ids=["disk", "ball"])
def test_chord_length_of_a_radius_is_rho(m):
    rng = np.random.default_rng(13)
    pd = PoleDistance(m, np.zeros(m.dim))
    for radius in (0.3, 0.7, 0.9):
        v = rng.standard_normal(m.dim)
        q = radius * v / np.linalg.norm(v)
        assert _chord_length(pd, q) == pytest.approx(math.atanh(radius), abs=1e-12)
        r = pd.rho(q)
        assert (r.n_integrations, r.iterations) == (1, 0)
        assert r.value == pytest.approx(math.atanh(radius), abs=1e-12)


def test_chord_length_of_a_minkowski_chord_is_rho():
    rng = np.random.default_rng(14)
    for pole in (np.zeros(4), np.array([0.4, -1.0, 0.3, 2.0])):
        pd = PoleDistance(MINKOWSKI, pole)
        for _ in range(3):
            q = pole + rng.standard_normal(4)
            exact = math.sqrt(MINKOWSKI.value(pole, q - pole))
            assert _chord_length(pd, q) == pytest.approx(exact, abs=1e-12)
            assert pd.rho(q).value == pytest.approx(exact, abs=1e-12)


def test_chord_start_falls_back_to_q_minus_p_where_the_chord_fails():
    # a target outside the disk: the chord raises DomainError, and q - p starts
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.6, 0.9])
    assert np.array_equal(pd._chord_start(q), q)


def test_one_shot_landing_caches_no_jacobian():
    # the diameter through the pole is a geodesic, so its chord start lands
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    on_diameter = np.array([0.7, 0.0])
    r = pd.rho(on_diameter)
    assert (r.n_integrations, r.iterations) == (1, 0)
    assert r.value == pytest.approx(ball_distance(OFF_POLE, on_diameter), abs=1e-12)
    assert pd._cache[-1][2] is None
    # a neighbour off the diameter costs what it costs cold, not more
    neighbour = np.array([0.68, 0.12])
    cold = PoleDistance(HYPERBOLIC, OFF_POLE).rho(neighbour)
    assert cold.n_integrations > 1
    warm = pd.rho(neighbour)
    assert warm.n_integrations <= cold.n_integrations
    assert warm.value == pytest.approx(ball_distance(OFF_POLE, neighbour), abs=1e-9)


def _record_first_steps(monkeypatch):
    """Record the ``first_step`` of each ``_integrate_affine`` call, so a test
    can integrate a shot again exactly as the solver did."""
    steps = []

    def recorded(*args, first_step=None, **kwargs):
        steps.append(first_step)
        return _integrate_affine(*args, first_step=first_step, **kwargs)

    monkeypatch.setattr(geodesic, "_integrate_affine", recorded)
    return steps


def test_arriving_tangent_is_the_converged_shot(monkeypatch):
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q)
    assert r.n_integrations > 1   # Gauss-Newton iterated before converging
    # the accepted shot is the last integration
    sol = _integrate_affine(HYPERBOLIC, OFF_POLE, r.w, 1.0, rtol=SHOOT_RTOL,
                            atol=SHOOT_ATOL, dense=False, first_step=steps[-1])
    u_end = sol.y[2:, -1]
    assert np.array_equal(r.T, u_end / r.value)


def test_jacobi_flat_linear():
    e = np.array([0.0, 1.0, 0, 0])
    J = jacobi_field(EUCLID2, np.zeros(4), np.array([1.0, 0, 0, 0]), 2.0, np.zeros(4), e)
    for t in (0.5, 1.0, 2.0):
        assert np.allclose(J(t)[0], t * e, atol=1e-9)


def test_jacobi_hyperbolic_sinh():
    x0, u0 = np.zeros(2), np.array([1.0, 0.0])
    e = np.array([0.0, 1.0])
    g0 = cartan(HYPERBOLIC, x0, u0, need_curvature=False).g
    e = e / math.sqrt(e @ g0 @ e)
    J = jacobi_field(HYPERBOLIC, x0, u0, 1.5, np.zeros(2), e)
    for t in (0.4, 0.9, 1.5):
        xt, ut = J.path.state_at(t)
        gt = cartan(HYPERBOLIC, xt, ut, need_curvature=False).g
        Jt = J(t)[0]
        norm = math.sqrt(float(Jt @ gt @ Jt))
        assert norm == pytest.approx(math.sinh(2 * t) / 2.0, abs=1e-7)


def test_jacobi_hyperbolic_cosh_off_the_origin():
    # off the origin N != 0, so both conversions between dx' and D_T J count:
    # across T with D_T J(0) = 0 the field is |J0| cosh 2t and its covariant
    # derivative 2 |J0| sinh 2t (curvature -4)
    x0, u0 = np.array([0.3, -0.2]), np.array([0.6, 0.8])
    u0 = u0 / math.sqrt(HYPERBOLIC.value(x0, u0))
    g0 = HYPERBOLIC.fundamental_real(x0, u0)
    J0 = np.array([-0.8, 0.6])
    J0 = 0.7 * (J0 - (J0 @ g0 @ u0) * u0) / math.sqrt(J0 @ g0 @ J0 - (J0 @ g0 @ u0) ** 2)
    J = jacobi_field(HYPERBOLIC, x0, u0, 1.0, J0, np.zeros(2))
    for t in (0.0, 0.3, 0.7, 1.0):
        xt, ut = J.path.state_at(t)
        gt = HYPERBOLIC.fundamental_real(xt, ut)
        Jt, dJt = J(t)
        DJt = dJt + cartan(HYPERBOLIC, xt, ut, need_curvature=False).nonlinear @ Jt
        assert math.sqrt(Jt @ gt @ Jt) == pytest.approx(0.7 * math.cosh(2 * t), abs=1e-8)
        assert math.sqrt(DJt @ gt @ DJt) == pytest.approx(0.7 * 2 * math.sinh(2 * t), abs=1e-8)


@pytest.mark.parametrize("m", [HYPERBOLIC, BALL2, EUCLID2, MINKOWSKI],
                         ids=["disk", "ball", "euclid2", "minkowski"])
@pytest.mark.parametrize("r", [0.3, 0.8, 1.5])
def test_boundary_form_matches_covariant_oracle(m, r):
    # the linearized geodesic flow against the Jacobi equation with R and
    # gamma_h, from a start off the origin
    x0 = 0.1 * np.arange(1, m.dim + 1) / m.dim
    u0 = np.array([0.3, -0.7, 0.5, 0.2][:m.dim])
    u0 = u0 / math.sqrt(m.value(x0, u0))
    H = jacobi_boundary_field(m, x0, u0, r).boundary_form()
    want = covariant_boundary_form(m, x0, u0, r)
    assert np.abs(H - want).max() <= 1e-10 * np.abs(want).max()


def test_a_jacobi_system_reads_the_metric_value_once(monkeypatch):
    # G(x0, u0) checks that the path is normal; the energy drift, one metric
    # value per step, is computed only where a caller asks for it
    value, calls = MetricDef.value, []

    def counted(self, point, vector):
        calls.append(1)
        return value(self, point, vector)

    monkeypatch.setattr(MetricDef, "value", counted)
    system = jacobi_boundary_field(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), 1.2)
    assert system.path.n_steps > 1 and len(calls) == 1


# a unit-speed disk geodesic off the origin, where N != 0, so D_T V = dV/ds + N V
# and the oracle's gamma_h route differ term by term
DISK_X0 = np.array([0.3, -0.2])
DISK_U0 = np.array([0.6, 0.8]) / math.sqrt(HYPERBOLIC.value(DISK_X0, np.array([0.6, 0.8])))


def _values(field):
    """The value part of a field that returns (V, dV/ds), for ``fd_index_form``."""
    return lambda t: field(t)[0]


def test_index_form_flat_linear_field():
    r = 2.0
    path = integrate_geodesic(EUCLID2, np.zeros(4), np.array([1.0, 0, 0, 0]), r)
    e = np.array([0.0, 1.0, 0.0, 0.0])
    xi = lambda t: ((t / r) * e, e / r)
    out = index_form(path, xi, xi)
    assert out.value == pytest.approx(1.0 / r, abs=1e-9)
    assert out.quadrature_error < 1e-9
    assert out.value == pytest.approx(fd_index_form(path, _values(xi), _values(xi)), abs=1e-7)
    disk = integrate_geodesic(HYPERBOLIC, DISK_X0, DISK_U0, 1.0)
    lin = lambda t: (t * np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert index_form(disk, lin, lin).value == pytest.approx(
        fd_index_form(disk, _values(lin), _values(lin)), abs=1e-7)


def test_index_form_symmetry_and_projection():
    r = 1.5
    xi = lambda t: (np.array([0.2 * t, (t / r) ** 2]), np.array([0.2, 2 * t / r ** 2]))
    eta = lambda t: (np.array([-0.1 * t * t, math.sin(t)]), np.array([-0.2 * t, math.cos(t)]))
    for x0, u0 in ((np.zeros(2), np.array([1.0, 0.0])), (DISK_X0, DISK_U0)):
        path = integrate_geodesic(HYPERBOLIC, x0, u0, r)
        a = index_form(path, xi, eta)
        b = index_form(path, eta, xi)
        assert abs(a.value - b.value) < 1e-9
        assert a.value == pytest.approx(fd_index_form(path, _values(xi), _values(eta)), abs=1e-7)

        # the tangential component is projected away; d/ds of f(s) u(s) is
        # f' u - 2 f G(x, u) along the unit-speed geodesic
        def tang(t, path=path):
            x, u = path.state_at(t)
            return u * (1 + 0.3 * t), 0.3 * u - 2.0 * (1 + 0.3 * t) * spray_coefficients(
                HYPERBOLIC, x, u)

        c = index_form(path, tang, tang)
        assert abs(c.value) < 1e-9


def test_conjugate_point_guard():
    # from 0.5 through the origin the unit-speed geodesic reaches the antipode
    # -2 of its start at distance pi/2, where M(r) is singular
    p, u = np.array([0.5, 0.0]), np.array([-1.25, 0.0])
    assert ROUND.value(p, u) == pytest.approx(1.0, abs=1e-15)
    at = jacobi_boundary_field(ROUND, p, u, math.pi / 2, dense=True)
    assert np.allclose(at.path.endpoint()[0], [-2.0, 0.0], atol=1e-9)
    with pytest.raises(ConjugatePointError) as info:
        at.boundary_form()
    assert isinstance(info.value, SAMPLE_ERRORS)
    assert info.value.cond > geodesic.CONJUGATE_COND
    with pytest.raises(ConjugatePointError):
        at.field(np.array([0.0, 1.0]))
    # across T the Jacobi field is sin(2s)/2, so the boundary form is 2 cot 2r
    # against g_T; before and past the conjugate point M(r) is regular
    for r in (1.0, math.pi / 2 + 0.3):
        system = jacobi_boundary_field(ROUND, p, u, r)
        ev = eigh(system.boundary_form(), system.g, eigvals_only=True)
        assert ev == pytest.approx(sorted([2.0 / math.tan(2.0 * r), 0.0]), abs=1e-8)


@pytest.mark.parametrize("m, q", [(HYPERBOLIC, (0.45, -0.3)), (EUCLID2, (0.3, -0.2, 0.1, 0.4))])
def test_distance_hessian_skips_dense_output(m, q):
    # a fresh solver for each system, since a Jacobi system starts at the
    # step its solver's last shot settled on
    plain = distance_hessian(PoleDistance(m, np.zeros(m.dim)), np.array(q))
    dense = distance_hessian(PoleDistance(m, np.zeros(m.dim)), np.array(q), dense=True)
    # DOP853 takes the same steps either way; dense output costs 3 more
    # right-hand sides per step
    assert plain.path.nfev == dense.path.nfev - 3 * plain.path.n_steps
    for a, b in ((plain.M, dense.M), (plain.W, dense.W), (plain.T, dense.T),
                 (plain.boundary_form(), dense.boundary_form())):
        assert np.array_equal(a, b)
    with pytest.raises(StructuralError, match="without dense output"):
        plain.path.state_at(0.1)
    with pytest.raises(StructuralError):
        plain.field(np.array(q)[::-1])(0.1)
    dense.path.state_at(0.1)


def test_jacobi_system_starts_at_the_shots_settled_step():
    # DOP853 accepts any step on flat C^2, so the first step is the one given:
    # the settled step of the last tight shot, in affine time, times rho
    pd = PoleDistance(EUCLID2, np.zeros(4))
    for q in ((0.3, -0.2, 0.1, 0.4), (0.5, 0.1, -0.2, 0.3)):
        system = distance_hessian(pd, np.array(q))
        assert system.path.sol.t[1] == pd._steps[False] * system.r


@pytest.mark.parametrize("m, pole, q", [
    (HYPERBOLIC, OFF_POLE, OFF_Q),
    (EUCLID2, np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4])),
    (BALL2, np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4])),
    (SZABO, np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4]))],
    ids=["disk", "euclid2", "ball", "szabo"])
def test_warm_distance_hessian_matches_a_fresh_one(m, pole, q):
    # the first step depends on the solver's earlier queries, the system only
    # in its last bits
    warm = PoleDistance(m, pole)
    for shift in (0.1, -0.15, 0.05):
        distance_hessian(warm, q + shift * (q - pole))
    a = distance_hessian(warm, q)
    b = distance_hessian(PoleDistance(m, pole), q)
    for x, y in ((a.boundary_form(), b.boundary_form()), (a.M, b.M), (a.W, b.W)):
        assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()
    assert warm.jacobi_integrations == 4


def test_jacobi_minimizes_index_form():
    r = 1.2
    for x0, u0 in ((np.zeros(2), np.array([1.0, 0.0])), (DISK_X0, DISK_U0)):
        system = jacobi_boundary_field(HYPERBOLIC, x0, u0, r, dense=True)
        path = system.path
        u_end = np.array([0.0, 1.0])
        xr, ur = path.state_at(r)
        g_r = cartan(HYPERBOLIC, xr, ur, need_curvature=False).g
        u_end = u_end / math.sqrt(u_end @ g_r @ u_end)
        bvp = system.field(u_end)
        i_jacobi = index_form(path, bvp, bvp).value
        assert i_jacobi == pytest.approx(fd_index_form(path, _values(bvp), _values(bvp)),
                                         abs=1e-7)
        J_r = bvp(r)[0]
        rng = np.random.default_rng(4)
        for _ in range(4):
            a, b = rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5)

            def eta(t, a=a, b=b):
                # competitor with the same endpoints as the Jacobi field
                e = np.array([0.0, 1.0])
                return (J_r * (t / r) ** a + math.sin(math.pi * t / r) * b * e,
                        J_r * a * (t / r) ** (a - 1) / r
                        + math.cos(math.pi * t / r) * math.pi / r * b * e)

            i_eta = index_form(path, eta, eta).value
            assert i_eta == pytest.approx(fd_index_form(path, _values(eta), _values(eta)),
                                          abs=1e-7)
            assert i_jacobi <= i_eta + 1e-7


def test_legendre_gradient_euclidean():
    x = np.array([0.3, -0.4, 0.1, 0.2])
    f = lambda xs: sum(xi * xi for xi in xs)
    Y = legendre_gradient(EUCLID2, f, x)
    assert np.allclose(Y, 2 * x, atol=1e-10)


def test_gradient_of_rho_is_radial_unit():
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.45, 0.35])
    base = pd.rho(q)
    h = 1e-4

    def rho_num(y):
        return pd.rho(y).value

    df = np.array([
        (rho_num(q + h * np.eye(2)[i]) - rho_num(q - h * np.eye(2)[i])) / (2 * h)
        for i in range(2)])
    Y = legendre_gradient(HYPERBOLIC, df, q)
    assert np.allclose(Y, base.T, atol=1e-5)
    assert HYPERBOLIC.value(q, Y) == pytest.approx(1.0, abs=1e-5)


def test_gradient_scaling_identity():
    # gradient of rho^2 equals 2 rho gradient of rho
    pd = PoleDistance(EUCLID2, np.zeros(4))
    q = np.array([0.3, 0.1, -0.2, 0.4])
    base = pd.rho(q)
    df_rho2 = 2 * q
    Y2 = legendre_gradient(EUCLID2, df_rho2, q)
    Y1 = legendre_gradient(EUCLID2, q / np.linalg.norm(q), q)
    assert np.allclose(Y2, 2 * base.value * Y1, atol=1e-9)


def test_gauss_lemma_orthogonality():
    pd = PoleDistance(MINKOWSKI, np.zeros(4))
    rng = np.random.default_rng(9)
    q = np.array([0.5, -0.2, 0.3, 0.6])
    base = pd.rho(q)
    data = cartan(MINKOWSKI, q, base.T, need_curvature=False)
    # vectors tangent to the geodesic sphere: numeric tangent via level set of rho
    for _ in range(3):
        w = rng.standard_normal(4)
        w -= (w @ data.g @ base.T) / (base.T @ data.g @ base.T) * base.T
        # w is g_T-orthogonal to T; verify rho is stationary along w
        h = 1e-5
        r_plus = pd.rho(q + h * w).value
        r_minus = pd.rho(q - h * w).value
        assert abs(r_plus - r_minus) / (2 * h) < 1e-6


def test_hessian_rho_euclidean():
    pd = PoleDistance(EUCLID2, np.zeros(4))
    q = np.array([0.8, 0.0, 0.0, 0.0])
    tang = np.array([0.0, 1.0, 0.0, 0.0])
    res = hessian_rho(EUCLID2, np.zeros(4), q, tang, pd=pd)
    assert res.value == pytest.approx(1.0 / 0.8, abs=1e-8)
    assert res.agreed
    radial = np.array([1.0, 0.0, 0.0, 0.0])
    res_r = hessian_rho(EUCLID2, np.zeros(4), q, radial, pd=pd)
    assert abs(res_r.value) < 1e-8


def test_hessian_rho_hyperbolic():
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.5, 0.0])
    rho = hyperbolic_distance(0.5)
    tang = np.array([0.0, 1.0])
    res = hessian_rho(HYPERBOLIC, np.zeros(2), q, tang, pd=pd)
    assert res.value == pytest.approx(hyperbolic_hessian_tangential(rho), abs=1e-8)
    assert res.value <= 1.0 / rho + 2.0 + 1e-3   # comparison bound with K = 2
    assert res.discrepancy < 1e-4 * max(1.0, abs(res.value))


@pytest.mark.parametrize("m, q", [(HYPERBOLIC, (0.45, -0.3)), (EUCLID2, (0.3, -0.2, 0.1, 0.4))])
def test_hessian_rho_reads_n_from_its_connection_data(monkeypatch, m, q):
    # order 3: the Jacobi system's right-hand sides and its readout at r;
    # order 4: one cartan call per index-form node, 4 on each of 12 + 6 panels,
    # whose N the covariant derivatives reuse
    real_jet, orders = MetricDef.real_jet, Counter()

    def counted(self, x, u, order):
        orders[order] += 1
        return real_jet(self, x, u, order)

    monkeypatch.setattr(MetricDef, "real_jet", counted)
    nfev = []
    distance_hessian = geodesic.distance_hessian

    def recorded(*args, **kwargs):
        system = distance_hessian(*args, **kwargs)
        nfev.append(system.path.nfev)
        return system

    monkeypatch.setattr(geodesic, "distance_hessian", recorded)
    hessian_rho(m, np.zeros(m.dim), np.array(q), np.array(q)[::-1])
    assert nfev and orders[3] == nfev[0] + 1 and orders[4] == 72


def test_hessian_rho_nan_index_form_does_not_agree(monkeypatch):
    nan = IndexFormResult(value=math.nan, quadrature_error=math.nan)
    monkeypatch.setattr(geodesic, "index_form", lambda *a, **k: nan)
    res = hessian_rho(HYPERBOLIC, np.zeros(2), np.array([0.5, 0.0]), np.array([0.0, 1.0]))
    assert math.isnan(res.discrepancy)
    assert not res.agreed


@pytest.mark.parametrize("m, q", [(HYPERBOLIC, [0.45, -0.3]), (BALL2, [0.3, -0.2, 0.1, 0.4])])
def test_distance_hessian_is_the_system_of_its_shot(m, q):
    q = np.array(q)
    system = distance_hessian(PoleDistance(m, np.zeros(m.dim)), q)
    assert isinstance(system, BoundaryJacobiSystem)
    assert system.r == PoleDistance(m, np.zeros(m.dim)).rho(q).value


@pytest.mark.parametrize("m, q", [
    (HYPERBOLIC, [0.3, 0.4]),
    (EUCLID2, [0.3, -0.2, 0.1, 0.4]),
    (BALL2, [0.3, -0.2, 0.1, 0.4]),
    (MINKOWSKI, [0.2, -0.35, 0.1, 0.45]),
])
def test_distance_hessian_symmetric_and_null_along_T(m, q):
    system = distance_hessian(PoleDistance(m, np.zeros(m.dim)), np.array(q))
    H = system.boundary_form()
    scale = np.abs(H).max()
    assert np.abs(H - H.T).max() < 1e-12 * scale
    assert np.abs(H @ system.T).max() < 1e-12 * scale


def test_distance_hessian_spectra():
    # eigenvalues against g_T: 0 along T, 2 coth 2 rho across it on the disk
    # (curvature -4), 1/|q| three times across T on C^2
    q = np.array([0.45, -0.3])
    system = distance_hessian(PoleDistance(HYPERBOLIC, np.zeros(2)), q)
    rho = hyperbolic_distance(complex(*q))
    assert system.r == pytest.approx(rho, abs=1e-9)
    ev = eigh(system.boundary_form(), system.g, eigvals_only=True)
    assert ev == pytest.approx([0.0, hyperbolic_hessian_tangential(rho)], abs=1e-8)

    q = np.array([0.3, -0.2, 0.1, 0.4])
    system = distance_hessian(PoleDistance(EUCLID2, np.zeros(4)), q)
    ev = eigh(system.boundary_form(), system.g, eigvals_only=True)
    assert ev == pytest.approx([0.0] + [1.0 / np.linalg.norm(q)] * 3, abs=1e-8)


@pytest.mark.parametrize("m, q", [
    (HYPERBOLIC, [0.3, 0.4]),
    (BALL2, [0.3, -0.2, 0.1, 0.4]),
    (MINKOWSKI, [0.2, -0.35, 0.1, 0.45]),
])
def test_distance_hessian_matches_stencil_oracle(m, q):
    q = np.array(q)
    pd = PoleDistance(m, np.zeros(m.dim))
    H = distance_hessian(pd, q).boundary_form()
    base = pd.rho(q)
    conn_T = cartan(m, q, base.T, need_curvature=False)
    rng = np.random.default_rng(6)
    for _ in range(2):
        w = rng.standard_normal(m.dim)
        w /= math.sqrt(w @ conn_T.g @ w)
        exact = float(w @ H @ w)
        # the stencil's own error is its O(h^4) truncation, about 3e-6 at h = 0.04
        assert abs(covariant_d2_rho(m, pd, q, w, base, conn_T) - exact) < \
            1e-5 * max(1.0, abs(exact))


def test_hessian_rho_factors_M_once(monkeypatch):
    systems, cond_args, solve_args = [], [], []
    hessian, cond, solve = geodesic.distance_hessian, np.linalg.cond, np.linalg.solve

    def kept(pd, x, **kw):
        systems.append(hessian(pd, x, **kw))
        return systems[-1]

    monkeypatch.setattr(geodesic, "distance_hessian", kept)
    monkeypatch.setattr(np.linalg, "cond", lambda a, *k: cond_args.append(a) or cond(a, *k))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve_args.append(a) or solve(a, b))
    res = hessian_rho(HYPERBOLIC, np.zeros(2), np.array([0.45, -0.3]), np.array([0.3, 0.45]))
    assert res.agreed
    M = systems[0].M
    assert sum(a is M for a in cond_args) == sum(a is M for a in solve_args) == 1


def test_rho_counts_gauss_newton_steps():
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q)
    assert r.iterations == pd.total_iterations > 0
    # one shot and two Jacobian probes, then one integration per full step
    assert r.n_integrations == 1 + 2 + r.iterations
    assert pd.rho(pd.pole).iterations == 0


def test_shooting_propagates_programming_errors(monkeypatch):
    def broken_spray(m, x, u):
        raise KeyError("spray")

    monkeypatch.setattr(geodesic, "spray_coefficients", broken_spray)
    with pytest.raises(KeyError):
        PoleDistance(HYPERBOLIC, np.zeros(2)).rho(np.array([0.45, -0.3]))


def test_shooting_error_on_one_start_tries_the_next(monkeypatch):
    endpoint = PoleDistance._endpoint
    failed = []

    def first_start_fails(self, w, loose=False):
        if not failed:
            failed.append(w.copy())
            raise ShootingError("injected")
        return endpoint(self, w)

    monkeypatch.setattr(PoleDistance, "_endpoint", first_start_fails)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q)
    assert np.array_equal(failed[0], pd._chord_start(OFF_Q))   # the chord start failed
    assert r.value == pytest.approx(ball_distance(OFF_POLE, OFF_Q), abs=1e-9)


def test_shooting_error_counts_starts_and_integrations(monkeypatch):
    from finsler.errors import DomainError

    def outside(self, w):
        self.total_integrations += 1
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "_endpoint", outside)
    q = np.array([0.45, -0.3])
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    with pytest.raises(ShootingError) as info:
        pd.rho(q)
    # a cold query starts from the chord start, from q itself, then the
    # direction grid
    n_starts = len(list(pd._starts(q, None)))
    assert info.value.starts == n_starts == 7
    assert pd.total_starts == n_starts
    assert info.value.integrations == n_starts   # one failed integration per start
    assert info.value.best_residual == math.inf
    assert info.value.iterations == 0
    assert f"{n_starts} starts, {n_starts} integrations, 0 Gauss-Newton steps" in str(info.value)


def _count_fd_jacobians(monkeypatch, make=None):
    """Record each ``_fd_jacobian`` call; ``make(real, self, w, F0)`` may
    replace the Jacobian it returns."""
    real = PoleDistance._fd_jacobian
    calls = []

    def fd(self, w, F0):
        calls.append(w.copy())
        return make(real, self, w, F0) if make else real(self, w, F0)

    monkeypatch.setattr(PoleDistance, "_fd_jacobian", fd)
    return calls


def _warm_query(monkeypatch, bend):
    """A warm query whose cached Jacobian is ``bend(J)``: its distance and the
    finite-difference Jacobians it spent."""
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    pd.rho(OFF_Q)
    pd._cache = [(q, w, bend(J)) for q, w, J in pd._cache]
    calls = _count_fd_jacobians(monkeypatch)
    q = np.array([0.451, -0.302])
    r = pd.rho(q)
    assert r.value == pytest.approx(ball_distance(OFF_POLE, q), abs=1e-9)
    return calls


def test_repeat_queries_replace_their_cache_entries():
    # off the pole's diameter, so only the cached velocity lands at once
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    targets = [OFF_Q, np.array([-0.1, 0.6])]
    first = [pd.rho(q) for q in targets]
    assert len(pd._cache) == 2
    for q, before in zip(targets, first):
        r = pd.rho(q)
        assert (r.n_integrations, r.iterations) == (1, 0)
        assert r.value == before.value and np.array_equal(r.w, before.w)
    assert len(pd._cache) == 2
    assert [entry[0].tolist() for entry in pd._cache] == [q.tolist() for q in targets]


def test_singular_cached_jacobian_is_refreshed(monkeypatch):
    assert len(_warm_query(monkeypatch, np.zeros_like)) == 1


def test_cached_jacobian_whose_steps_never_improve_is_refreshed(monkeypatch):
    # the reversed Jacobian steps away from the target at every trial length
    assert len(_warm_query(monkeypatch, np.negative)) == 1


def test_singular_refreshed_jacobian_gives_up_the_start(monkeypatch):
    calls = _count_fd_jacobians(monkeypatch, lambda real, self, w, F0: np.zeros((2, 2)))
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    with pytest.raises(ShootingError) as info:
        pd.rho(OFF_Q)
    # each start: one integration, one refresh, then no step to take
    assert info.value.starts == len(calls) == 7
    assert info.value.integrations == 7


def test_refreshed_jacobian_whose_steps_never_improve_gives_up(monkeypatch):
    calls = _count_fd_jacobians(monkeypatch, lambda real, self, w, F0: -real(self, w, F0))
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    with pytest.raises(ShootingError) as info:
        pd.rho(OFF_Q)
    # each start: one integration, two probes, three trial steps, no improvement
    assert info.value.starts == len(calls) == 7
    assert info.value.integrations == 7 * (1 + 2 + 3)


def test_failed_trial_step_is_halved(monkeypatch):
    endpoint = PoleDistance._endpoint
    shots = []

    def first_trial_fails(self, w, loose=False):
        shots.append(w.copy())
        if len(shots) == 4:   # the shot, two Jacobian probes, then the first trial
            raise DomainError("injected")
        return endpoint(self, w)

    monkeypatch.setattr(PoleDistance, "_endpoint", first_trial_fails)
    r = PoleDistance(HYPERBOLIC, OFF_POLE).rho(OFF_Q)
    assert np.allclose(shots[4] - shots[0], 0.5 * (shots[3] - shots[0]), atol=1e-15)
    assert r.value == pytest.approx(ball_distance(OFF_POLE, OFF_Q), abs=1e-9)


def test_gauss_newton_returns_its_last_iterate_after_max_iter(monkeypatch):
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.45, -0.3])
    w, y, _, res = pd._gauss_newton(q, q, None, 1e-12, max_iter=2)
    assert res > 1e-6   # two Broyden steps do not converge
    # y is the end state of the last integration, a tight one of w
    sol = _integrate_affine(HYPERBOLIC, np.zeros(2), w, 1.0, rtol=SHOOT_RTOL,
                            atol=SHOOT_ATOL, dense=False, first_step=steps[-1])
    assert np.array_equal(y, sol.y[:, -1])
    assert res == float(np.linalg.norm(y[:2] - q))


def _record_shots(monkeypatch):
    """Record each ``_endpoint`` call as (loose, calling function, the
    caller's current residual ``res`` or None, w): inside the Gauss-Newton
    loop ``res`` is the residual of the iterate the shot steps from."""
    endpoint = PoleDistance._endpoint
    shots = []

    def recorded(self, w, loose=False):
        caller = sys._getframe(1)
        shots.append((loose, caller.f_code.co_name, caller.f_locals.get("res"), w.copy()))
        return endpoint(self, w, loose)

    monkeypatch.setattr(PoleDistance, "_endpoint", recorded)
    return shots


@pytest.mark.parametrize("m, queries", [
    (HYPERBOLIC, [(0.45, -0.3), (0.452, -0.303), (-0.1, 0.6)]),
    (BALL2, [(0.3, -0.2, 0.1, 0.4)])])
def test_loose_shots_only_step_from_large_residuals(monkeypatch, m, queries):
    shots = _record_shots(monkeypatch)
    pole = np.zeros(m.dim)   # OFF_POLE on the disk, (0.3, 0) on the ball
    pole[0] = OFF_POLE[0]
    pd = PoleDistance(m, pole)
    for q in queries:
        del shots[:]
        r = pd.rho(np.array(q))
        assert not shots[0][0]   # the first shot of a start is tight
        for loose, caller, res, _ in shots:
            if caller == "_fd_jacobian":
                assert not loose
            if loose:
                assert caller == "_gauss_newton" and res > geodesic.LOOSE_ABOVE
        # the accepted iterate is the last shot, and a tight one
        assert not shots[-1][0] and np.array_equal(shots[-1][3], r.w)
    assert 0 < pd.loose_integrations < pd.total_integrations


def test_cold_flat_query_is_one_tight_integration(monkeypatch):
    shots = _record_shots(monkeypatch)
    pd = PoleDistance(EUCLID2, np.zeros(4))
    assert pd.rho(np.array([0.3, -0.2, 0.1, 0.4])).n_integrations == 1
    assert [loose for loose, *_ in shots] == [False]
    assert pd.loose_integrations == 0


def test_loose_iterate_below_tol_is_integrated_again_tight(monkeypatch):
    # loose shots as accurate as tight ones, taken at every residual, reach
    # tol on a loose iterate, which must not return as it is
    monkeypatch.setattr(geodesic, "LOOSE_ABOVE", 0.0)
    monkeypatch.setattr(geodesic, "LOOSE_RTOL", SHOOT_RTOL)
    monkeypatch.setattr(geodesic, "LOOSE_ATOL", SHOOT_ATOL)
    shots = _record_shots(monkeypatch)
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    q = OFF_Q
    r = pd.rho(q)
    loose, caller, res, w = shots[-1]
    assert not loose and res < 3e-12 * (1 + np.linalg.norm(q - OFF_POLE)) and np.array_equal(w, r.w)
    assert shots[-2][0] and np.array_equal(shots[-2][3], r.w)   # the same w, loose
    assert r.n_integrations == 1 + 2 + r.iterations + 1
    sol = _integrate_affine(HYPERBOLIC, OFF_POLE, r.w, 1.0, rtol=SHOOT_RTOL,
                            atol=SHOOT_ATOL, dense=False, first_step=steps[-1])
    assert np.array_equal(r.T, sol.y[2:, -1] / r.value)
    assert r.residual == float(np.linalg.norm(sol.y[:2, -1] - q))


def _batch_work(monkeypatch):
    """Total ``nfev`` and the (metric, target, result) triples of 8 Szabo
    polydisk and 3 ``nonkahler`` queries from the origin, laid out like the
    ``distance`` benchmark's C^2 kinds: radii in equal strata of [0.2, 0.7]
    along fixed complex directions, one warm-starting ``PoleDistance`` per
    metric. Their chords are no geodesics, so the queries iterate."""
    nfev = [0]
    solve = geodesic.solve_ivp

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        nfev[0] += sol.nfev
        return sol

    monkeypatch.setattr(geodesic, "solve_ivp", counted)
    rng = np.random.default_rng(101)
    out = []
    for m, count in ((SZABO, 8), (NONKAHLER, 3)):
        pd = PoleDistance(m, np.zeros(4))
        for k in range(count):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= (0.2 + (0.5 / count) * (k + 0.5)) / np.linalg.norm(z)
            q = np.concatenate([z.real, z.imag])
            out.append((m, q, pd.rho(q)))
    return nfev[0], out


def _speed_bound(m, q):
    """An upper bound of F(q, e) over the Euclidean unit vectors e, so of the
    change of rho per unit of endpoint error at q."""
    a, b = abs(complex(q[0], q[2])) ** 2, abs(complex(q[1], q[3])) ** 2
    if m is NONKAHLER:   # G = |v0|^2 + (1 + |z0|^2) |v1|^2
        return math.sqrt(1.0 + a)
    # Szabo: G = A + B + eps sqrt(A^2 + B^2) <= (1 + eps)(A + B), where A and B
    # are the factors' |v_k|^2 / (1 - |z_k|^2)^2
    return math.sqrt(1.5) / min(1.0 - a, 1.0 - b)


def _assert_batches_agree(results, other_results):
    for (m, q, r), (_, _, t) in zip(results, other_results):
        assert r.value <= math.sqrt(m.value(np.zeros(4), PoleDistance(m, np.zeros(4))
                                            ._chord_start(q))) + 1e-12
        # both solves accept an endpoint within 3e-12 (1 + |q|) of q
        assert abs(r.value - t.value) <= \
            2 * 3e-12 * (1 + np.linalg.norm(q)) * _speed_bound(m, q)


def test_loose_shots_cut_the_work_of_a_distance_batch(monkeypatch):
    work, results = _batch_work(monkeypatch)
    with monkeypatch.context() as tight:
        tight.setattr(geodesic, "LOOSE_ABOVE", math.inf)
        tight.setattr(geodesic, "LOOSE_RTOL", SHOOT_RTOL)
        tight.setattr(geodesic, "LOOSE_ATOL", SHOOT_ATOL)
        tight_work, tight_results = _batch_work(tight)
    assert work <= 0.85 * tight_work
    _assert_batches_agree(results, tight_results)


def test_step_continuation_cuts_the_work_of_a_distance_batch(monkeypatch):
    work, results = _batch_work(monkeypatch)
    with monkeypatch.context() as again:
        assert _batch_work(again)[0] == work
    with monkeypatch.context() as cold:
        # every shot starts from scipy's initial-step probe
        cold.setattr(geodesic, "_settled_step", lambda sol: None)
        cold_work, cold_results = _batch_work(cold)
    assert work <= 0.85 * cold_work
    _assert_batches_agree(results, cold_results)


def test_a_warm_flat_query_starts_at_the_settled_step():
    # the cold shot ramps up from scipy's initial-step probe; the next one
    # starts at the step the first settled on, which is exact on a line
    pd = PoleDistance(EUCLID2, np.zeros(4))
    costs = []
    for q in ([0.3, -0.2, 0.1, 0.4], [-0.5, 0.1, 0.2, 0.3]):
        before = pd.rhs_evaluations
        assert pd.rho(np.array(q)).n_integrations == 1
        costs.append(pd.rhs_evaluations - before)
    assert 2 * costs[1] < costs[0]


def test_step_continuation_survives_queries_near_the_edge(monkeypatch):
    # a step settled on near the pole starts a shot that ends near the edge,
    # and the other way round; no shot may leave the domain for it
    endpoint = PoleDistance._endpoint
    raised = []

    def recorded(self, w, loose=False):
        try:
            return endpoint(self, w, loose)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(PoleDistance, "_endpoint", recorded)
    z = np.array([0.6 + 0.3j, -0.2 + 0.7j]) / math.sqrt(0.98)
    for m, direction, radii in ((HYPERBOLIC, np.array([math.cos(1.0), math.sin(1.0)]),
                                 (0.2, 0.97, 0.2)),
                                (BALL2, np.concatenate([z.real, z.imag]), (0.2, 0.95))):
        pd = PoleDistance(m, np.zeros(m.dim))
        for radius in radii:
            r = pd.rho(radius * direction)
            assert r.value == pytest.approx(math.atanh(radius), abs=1e-9)
    assert raised == []


def test_path_csv_export(tmp_path):
    path = integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), 0.8)
    f = tmp_path / "path.csv"
    with open(f, "w") as fp:
        path.to_csv(fp, n=9)
    rows = f.read_text().strip().splitlines()
    assert rows[0].split(",")[:3] == ["t", "x0", "x1"]
    assert len(rows) == 10
    last = [float(v) for v in rows[-1].split(",")]
    assert last[-1] == pytest.approx(1.0, abs=1e-8)  # G stays 1 along the path
