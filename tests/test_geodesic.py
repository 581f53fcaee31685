"""Geodesic flow, shooting distance, Jacobi fields, index form, distance Hessians."""

import hashlib
import json
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from scipy.linalg import eigh

from finsler import geodesic
from finsler.cartan import cartan, spray_coefficients
from finsler.cli import main
from finsler.errors import (SAMPLE_ERRORS, ConfigurationError, ConjugatePointError,
                            DegenerateMetricError, DomainError, ShootingError)
from finsler.geodesic import (SHOOT_ATOL, SHOOT_RTOL, VARIATIONAL, BoundaryJacobiSystem,
                              IndexFormResult, PoleDistance,
                              _integrate, distance_hessian,
                              hessian_rho, index_form,
                              integrate_geodesic, jacobi_field,
                              jacobi_boundary_field)
from finsler.geometry import Domain, MetricDef, realify_metric
from finsler.jets import JetSpace
from finsler.metrics import instantiate

from oracles import (at_point, ball_distance, covariant_boundary_form, covariant_d2_rho,
                     endpoint, FD_SHOOTING_STEP, fd_index_form, fd_shooting_jacobian,
                     hyperbolic_distance,
                     hyperbolic_hessian_tangential, legendre_gradient)

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
    return (u[0] * u[0] + u[1] * u[1]) * (1.0 + x[0] * x[0] + x[1] * x[1]) ** -2


ROUND = MetricDef("real", _round_chart, dim_real=2, family_id="round_chart")


def test_euclidean_straight_line():
    u0 = np.array([0.6, 0.8])
    path = integrate_geodesic(EUCLID, np.zeros(2), u0, 2.0)
    x, u = endpoint(path)
    assert np.allclose(x, 2.0 * u0, atol=1e-12)
    assert path.arc_lengths[0] == pytest.approx(2.0)
    assert path.energy_drift() < 1e-12
    assert path.normal[0]


def test_minkowski_rays():
    rng = np.random.default_rng(0)
    for _ in range(5):
        u0 = rng.standard_normal(4)
        G = MINKOWSKI.value(np.zeros(4), u0)
        u0 /= math.sqrt(G)
        path = integrate_geodesic(MINKOWSKI, np.zeros(4), u0, 1.5)
        x, _ = endpoint(path)
        assert np.linalg.norm(x - 1.5 * u0) < 1e-9
        assert path.energy_drift() < 1e-10


def test_poincare_radial_speed():
    path = integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), 1.2)
    # after arc length t the Euclidean radius is tanh(t)
    for t in (0.3, 0.7, 1.2):
        x, _ = path.state_at(0, t)
        assert np.linalg.norm(x) == pytest.approx(math.tanh(t), abs=1e-9)
    assert path.energy_drift() < 1e-8


@pytest.mark.parametrize("length", [0.0, -0.5, math.nan])
def test_geodesic_length_must_be_positive(length):
    with pytest.raises(ConfigurationError, match="length"):
        integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), length)


def test_domain_truncation():
    path = integrate_geodesic(HYPERBOLIC, np.array([0.9, 0.0]),
                              np.array([10.0, 0.0]), 50.0)
    assert path.truncated[0]
    x, _ = endpoint(path)
    assert np.linalg.norm(x) <= 1.0


def _exp(m, p, v):
    """exp_p(v): the geodesic from (p, v) at unit affine time, arc length F(p, v)."""
    return endpoint(integrate_geodesic(m, p, v, math.sqrt(m.value(p, v))))[0]


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
    n1 = pd.work["integrations"]
    assert n1 > 1
    q2 = q + np.array([1e-3, -2e-3])
    r2 = pd.rho(q2)
    assert pd.work["integrations"] - n1 <= n1  # warm start reuses work
    assert r2.value == pytest.approx(ball_distance(OFF_POLE, q2), abs=1e-9)


def test_cold_flat_query_integrates_once():
    # the straight-line start already hits the target, and the arriving
    # tangent comes from that same integration
    pd = PoleDistance(EUCLID2, np.zeros(4))
    q = np.array([0.3, -0.2, 0.1, 0.4])
    r = pd.rho(q)
    assert r.work["integrations"] == 1
    assert pd.work["integrations"] == 1
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
            assert r.work["integrations"] > 1   # the chord is no geodesic
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
        assert (r.work["integrations"], r.work["iterations"]) == (1, 0)
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
    assert (r.work["integrations"], r.work["iterations"]) == (1, 0)
    assert r.value == pytest.approx(ball_distance(OFF_POLE, on_diameter), abs=1e-12)
    assert pd._cache[-1][2] is None
    # a neighbour off the diameter costs what it costs cold, not more
    neighbour = np.array([0.68, 0.12])
    cold = PoleDistance(HYPERBOLIC, OFF_POLE).rho(neighbour)
    assert cold.work["integrations"] > 1
    warm = pd.rho(neighbour)
    assert warm.work["integrations"] <= cold.work["integrations"]
    assert warm.value == pytest.approx(ball_distance(OFF_POLE, neighbour), abs=1e-9)


def _record_first_steps(monkeypatch):
    """Record the ``first_step`` of each plain ``_integrate`` call (no
    ``Y0``), so a test can integrate a shot again exactly as the solver did."""
    steps = []

    def recorded(*args, first_step=None, **kwargs):
        if kwargs.get("Y0") is None:
            steps.append(first_step)
        return _integrate(*args, first_step=first_step, **kwargs)

    monkeypatch.setattr(geodesic, "_integrate", recorded)
    return steps


def test_arriving_tangent_is_the_converged_shot(monkeypatch):
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q)
    assert r.work["integrations"] > 1   # Gauss-Newton iterated before converging
    # the accepted shot is the last integration
    sol, _ = _integrate(HYPERBOLIC, OFF_POLE, r.w, 1.0, rtol=SHOOT_RTOL,
                        atol=SHOOT_ATOL, first_step=steps[-1])
    u_end = sol.y[2:, -1]
    assert np.array_equal(r.T, u_end / r.value)


def test_jacobi_flat_linear():
    e = np.array([0.0, 1.0, 0, 0])
    J = jacobi_field(EUCLID2, np.zeros(4), np.array([1.0, 0, 0, 0]), 2.0, np.zeros(4), e)
    for t in (0.5, 1.0, 2.0):
        assert np.allclose(J(t)[0], t * e, atol=1e-9)


def test_arc_length_jacobi_fields_stop_at_the_domains_edge():
    # the Euclidean unit ball's radius from the origin reaches the exit margin
    # 1e-9 before arc length 1 - 5e-10, and a system read there would hold an
    # r that is not its path's arc length; well inside, the exit event leaves
    # the integration bit for bit as it was without one
    ball = MetricDef("real", lambda x, u: u[0] * u[0] + u[1] * u[1], dim_real=2,
                     domain=Domain("ball", 1.0))
    x0, u0, e = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    with pytest.raises(ShootingError, match="domain's edge"):
        jacobi_boundary_field(ball, x0, u0, 0.9999999995)
    with pytest.raises(ShootingError, match="domain's edge"):
        jacobi_field(ball, x0, u0, 0.9999999995, np.zeros(2), e)
    system = jacobi_boundary_field(ball, x0, u0, 0.5)
    assert (system.path.nfev, system.path.steps, system.path.truncated[0]) == (50, 4, False)
    half = float.fromhex("0x1.0000000000002p-1")   # 0.5 and two ulps
    for got, want in ((system.M, half * np.eye(2)), (system.W, np.eye(2)), (system.T, u0),
                      (system.g, np.eye(2))):
        assert got.tobytes() == want.tobytes()


def test_jacobi_hyperbolic_sinh():
    x0, u0 = np.zeros(2), np.array([1.0, 0.0])
    e = np.array([0.0, 1.0])
    g0 = cartan(HYPERBOLIC, x0, u0).g
    e = e / math.sqrt(e @ g0 @ e)
    J = jacobi_field(HYPERBOLIC, x0, u0, 1.5, np.zeros(2), e)
    for t in (0.4, 0.9, 1.5):
        xt, ut = J.path.state_at(0, t)
        gt = cartan(HYPERBOLIC, xt, ut).g
        Jt = J(t)[0]
        norm = math.sqrt(float(Jt @ gt @ Jt))
        assert norm == pytest.approx(math.sinh(2 * t) / 2.0, abs=1e-7)


def test_jacobi_hyperbolic_cosh_off_the_origin():
    # off the origin N != 0, so both conversions between dx' and D_T J count:
    # across T with D_T J(0) = 0 the field is |J0| cosh 2t and its covariant
    # derivative 2 |J0| sinh 2t (curvature -4)
    x0, u0 = np.array([0.3, -0.2]), np.array([0.6, 0.8])
    u0 = u0 / math.sqrt(HYPERBOLIC.value(x0, u0))
    g0 = at_point(HYPERBOLIC.fundamental_real, x0, u0)
    J0 = np.array([-0.8, 0.6])
    J0 = 0.7 * (J0 - (J0 @ g0 @ u0) * u0) / math.sqrt(J0 @ g0 @ J0 - (J0 @ g0 @ u0) ** 2)
    J = jacobi_field(HYPERBOLIC, x0, u0, 1.0, J0, np.zeros(2))
    for t in (0.0, 0.3, 0.7, 1.0):
        xt, ut = J.path.state_at(0, t)
        gt = at_point(HYPERBOLIC.fundamental_real, xt, ut)
        Jt, dJt = J(t)
        DJt = dJt + cartan(HYPERBOLIC, xt, ut).nonlinear @ Jt
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
    assert system.path.steps > 1 and len(calls) == 1


# a unit-speed disk geodesic off the origin, where N != 0, so D_T V = dV/ds + N V
# and the oracle's gamma_h route differ term by term
DISK_X0 = np.array([0.3, -0.2])
DISK_U0 = np.array([0.6, 0.8]) / math.sqrt(HYPERBOLIC.value(DISK_X0, np.array([0.6, 0.8])))


def _values(field):
    """The value at one arc length of a field that returns the rows (V, dV/ds)
    at an array of them, for ``fd_index_form``."""
    return lambda t: field(np.array([t]))[0][0]


def test_index_form_flat_linear_field():
    r = 2.0
    path = integrate_geodesic(EUCLID2, np.zeros(4), np.array([1.0, 0, 0, 0]), r)
    e = np.array([0.0, 1.0, 0.0, 0.0])
    xi = lambda t: (np.outer(t / r, e), np.broadcast_to(e / r, (len(t), 4)))
    out = index_form(path, xi, xi)
    assert out.value == pytest.approx(1.0 / r, abs=1e-9)
    assert out.quadrature_error < 1e-9
    assert out.value == pytest.approx(fd_index_form(path, _values(xi), _values(xi)), abs=1e-7)
    disk = integrate_geodesic(HYPERBOLIC, DISK_X0, DISK_U0, 1.0)
    lin = lambda t: (np.outer(t, [0.0, 1.0]), np.broadcast_to([0.0, 1.0], (len(t), 2)))
    assert index_form(disk, lin, lin).value == pytest.approx(
        fd_index_form(disk, _values(lin), _values(lin)), abs=1e-7)


def test_index_form_symmetry_and_projection():
    r = 1.5
    xi = lambda t: (np.stack([0.2 * t, (t / r) ** 2], axis=1),
                    np.stack([np.full_like(t, 0.2), 2 * t / r ** 2], axis=1))
    eta = lambda t: (np.stack([-0.1 * t * t, np.sin(t)], axis=1),
                     np.stack([-0.2 * t, np.cos(t)], axis=1))
    for x0, u0 in ((np.zeros(2), np.array([1.0, 0.0])), (DISK_X0, DISK_U0)):
        path = integrate_geodesic(HYPERBOLIC, x0, u0, r)
        a = index_form(path, xi, eta)
        b = index_form(path, eta, xi)
        assert abs(a.value - b.value) < 1e-9
        assert a.value == pytest.approx(fd_index_form(path, _values(xi), _values(eta)), abs=1e-7)

        # the tangential component is projected away; d/ds of f(s) u(s) is
        # f' u - 2 f G(x, u) along the unit-speed geodesic
        def tang(t, path=path):
            (x, u), f = path.state_at(0, t), (1 + 0.3 * t)[:, None]
            return u * f, 0.3 * u - 2.0 * f * spray_coefficients(HYPERBOLIC, x, u)

        c = index_form(path, tang, tang)
        assert abs(c.value) < 1e-9


def test_conjugate_point_guard():
    # from 0.5 through the origin the unit-speed geodesic reaches the antipode
    # -2 of its start at distance pi/2, where M(r) is singular
    p, u = np.array([0.5, 0.0]), np.array([-1.25, 0.0])
    assert ROUND.value(p, u) == pytest.approx(1.0, abs=1e-15)
    at = jacobi_boundary_field(ROUND, p, u, math.pi / 2)
    assert np.allclose(endpoint(at.path)[0], [-2.0, 0.0], atol=1e-9)
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
    # a step builds its 3 dense-output stages when it is first read, and
    # counts them in the path's nfev; the steps nobody reads cost none
    system = distance_hessian(PoleDistance(m, np.zeros(m.dim)), np.array(q))
    path, stepped = system.path, system.path.nfev
    first = path.segments[0][0].t[1] * path.speeds[0]   # the arc length of the first step
    x, _ = path.state_at(0, 0.5 * first)
    assert path.nfev == stepped + 3
    assert np.array_equal(path.state_at(0, 0.5 * first)[0], x)
    path.state_at(0, 0.25 * first)
    assert path.nfev == stepped + 3   # built once per step
    system.field(np.array(q)[::-1])(path.arc_lengths[0])   # read on the last step
    assert path.nfev == stepped + (6 if path.steps > 1 else 3)


def test_jacobi_system_starts_at_the_shots_settled_step(monkeypatch):
    # a solver's first variational shot starts at the initial-step probe; the
    # next starts at the step the last one left off at, accepted: its proposal
    # scaled to the next velocity w, in affine time; on flat C^2 that covers
    # the whole path
    for m, queries in ((HYPERBOLIC, ((0.45, -0.3), (0.5, -0.2))),
                       (EUCLID2, ((0.3, -0.2, 0.1, 0.4), (0.5, 0.1, -0.2, 0.3)))):
        pd = PoleDistance(m, np.zeros(m.dim))
        for k, q in enumerate(queries):
            step = pd._steps[geodesic.VARIATIONAL]
            system = distance_hessian(pd, np.array(q))
            assert (step is None) == (k == 0)
            if k:
                w = pd._cache[-1][1]   # the velocity of the query's landing shot
                assert system.path.segments[0][0].t[1] == min(step / np.linalg.norm(w), 1.0)
                assert system.path.steps == (1 if m is EUCLID2 else 8)
    # after a plain query, a solver's first variational shot starts from
    # the step of its last tight shot (which the variational state may
    # shrink), and that step stays as it was
    integrate, first_steps = geodesic._integrate, []

    def recorded(*args, first_step=None, **kwargs):
        if kwargs.get("Y0") is not None:
            first_steps.append(first_step)
        return integrate(*args, first_step=first_step, **kwargs)

    monkeypatch.setattr(geodesic, "_integrate", recorded)
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    pd.rho(np.array([0.5, -0.2]))
    step = pd._steps[False]
    distance_hessian(pd, np.array([0.45, -0.3]))
    assert first_steps == [step / np.linalg.norm(pd._cache[-1][1])]
    assert pd._steps[False] == step


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
    # each query's first shot is variational; off the disk's and the ball's
    # radii from the origin it misses, and the query's last Gauss-Newton step
    # is variational too; on the Szabo polydisk the last query's iterate
    # lands within 2e-16, which that step cannot lower, so its velocity is
    # shot variationally once more
    assert warm.work["jacobi_integrations"] == (8 if m is HYPERBOLIC else 9 if m is SZABO else 4)


Q4 = np.array([0.3, -0.2, 0.1, 0.4])


def _arc_length_system(monkeypatch, pd, x):
    """The arc-length Jacobi system that ``hessian_rho`` reads along a plain
    query to x on ``pd``: the oracle of ``distance_hessian``."""
    systems, build = [], geodesic.jacobi_boundary_field
    with monkeypatch.context() as patch:
        patch.setattr(geodesic, "jacobi_boundary_field",
                      lambda *args, **kwargs: systems.append(build(*args, **kwargs)) or systems[-1])
        hessian_rho(pd.m, pd.pole, x, np.roll(x - pd.pole, 1), pd=pd)
    return systems[-1]


ILL_CONDITIONED = realify_metric(instantiate(
    {"family": "hermitian", "complex_dim": 2,
     "params": {"catalog": "constant", "matrix": [[1, 0], [0, 1e-11]]}}))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("m, pole, q, lands", [
    (HYPERBOLIC, np.zeros(2), np.array([0.45, -0.3]), True),
    (BALL2, np.zeros(4), Q4, True),
    (EUCLID2, np.zeros(4), Q4, True),
    (MINKOWSKI, np.zeros(4), np.array([0.2, -0.35, 0.1, 0.45]), True),
    (NONKAHLER, np.zeros(4), Q4, False),
    (HYPERBOLIC, OFF_POLE, OFF_Q, False),
    (SZABO, np.zeros(4), Q4, False)],
    ids=["disk", "ball", "c2", "minkowski", "nonkahler", "off_pole_disk", "szabo"])
def test_distance_hessian_agrees_with_the_arc_length_oracle(monkeypatch, m, pole, q, lands,
                                                            warm):
    # the production route (variational shots in affine time) against the
    # oracle (a plain shot, then the arc-length Jacobi system of hessian_rho),
    # each on its own solver, warm after two nearby queries of its route
    pd, pd_oracle = PoleDistance(m, pole), PoleDistance(m, pole)
    for shift in (0.1, -0.15) if warm else ():
        distance_hessian(pd, q + shift * (q - pole))
        _arc_length_system(monkeypatch, pd_oracle, q + shift * (q - pole))
    before = pd.work["integrations"]
    a = distance_hessian(pd, q)
    b = _arc_length_system(monkeypatch, pd_oracle, q)
    # Both integrate the same linear Jacobi flow, whose Y block each
    # integrator holds at JACOBI_RTOL relative per step (the production route
    # tighter, by sqrt(1 + d)). A relative error e of M and W gives H =
    # P^T g W M^-1 P a relative error of at most e (1 + cond M), as
    # CONJUGATE_COND reads the same product, so the two routes agree within
    # twice that. Where the query iterates, each route's velocity lands
    # within 3e-12 (1 + |q - p|) of q, which moves H by that distance times
    # its relative variation along x, about 1/rho: some 1e-11, over an order
    # below the bound.
    bound = 2 * geodesic.JACOBI_RTOL * (1.0 + np.linalg.cond(b.M))
    for x, y in ((a.boundary_form(), b.boundary_form()), (a.M, b.M), (a.W, b.W)):
        assert np.abs(x - y).max() <= bound * np.abs(y).max()
    assert abs(a.r - b.r) <= bound * b.r and np.abs(a.T - b.T).max() <= bound
    if lands:
        # the same velocity: rho is bitwise the plain shot's, and no second
        # integration runs
        assert a.r == b.r and pd.work["integrations"] - before == 1
    # with Y(0) = (0, rho I) the affine-time Y_x(t) is M at arc length rho t,
    # and system.field(u) is the same Jacobi field on both routes
    d = m.dim
    u = np.roll(q - pole, 1)
    fa, fb = a.field(u), b.field(u)
    for s in np.linspace(0.0, b.r, 5):
        Ma = a.path.dense_state(0, s)[2 * d:3 * d]
        Mb = b.path.dense_state(0, s)[2 * d:3 * d]
        assert np.abs(Ma - Mb).max() <= bound * max(1.0, np.abs(Mb).max())
        (Ja, dJa), (Jb, dJb) = fa(s), fb(s)
        scale = max(1.0, np.abs(Jb).max(), np.abs(dJb).max())
        assert max(np.abs(Ja - Jb).max(), np.abs(dJa - dJb).max()) <= bound * scale


@pytest.mark.parametrize("m, points", [
    (HYPERBOLIC, [(0.45, -0.3), (-0.2, 0.6), (0.1, 0.3)]),
    (BALL2, [(0.3, -0.2, 0.1, 0.4), (-0.5, 0.1, 0.2, 0.3), (0.1, 0.4, -0.3, 0.2)])],
    ids=["disk", "ball"])
def test_plain_rho_after_hessian_queries_is_a_fresh_solvers(monkeypatch, m, points):
    # variational shots keep their own step-continuation slot: after Hessian
    # queries that land, a plain query takes the steps of a solver that made
    # none, and returns its bits
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(m, np.zeros(m.dim))
    for x in points[:-1]:
        distance_hessian(pd, np.array(x))
    assert steps == [] and pd._steps[False] is None
    q = np.array(points[-1])
    r = pd.rho(q)
    fresh = PoleDistance(m, np.zeros(m.dim)).rho(q)
    assert steps == [None, None]   # both shots from the initial-step probe
    assert r.value == fresh.value and r.residual == fresh.residual
    assert np.array_equal(r.T, fresh.T) and np.array_equal(r.w, fresh.w)


def test_hessian_queries_raise_the_jacobi_fields_errors():
    # the shooting guard catches a failed variational first shot and shoots
    # it again plain, so the errors of the Jacobi fields come out of the
    # Hessian query as they come out of the arc-length route, not as a
    # ShootingError: the ill-conditioned constant metric of test_cartan.py,
    # whose straight chords land at once, and the antipode of the round
    # sphere's chart, conjugate to the pole; hessian_rho's route raises them
    # from a plain query's velocity
    with pytest.raises(DegenerateMetricError, match="condition number"):
        distance_hessian(PoleDistance(ILL_CONDITIONED, np.zeros(4)), Q4)
    system = distance_hessian(PoleDistance(ROUND, np.array([0.5, 0.0])), np.array([-2.0, 0.0]))
    with pytest.raises(ConjugatePointError):
        system.boundary_form()
    with pytest.raises(DegenerateMetricError, match="condition number"):
        hessian_rho(ILL_CONDITIONED, np.zeros(4), Q4, np.roll(Q4, 1))
    with pytest.raises(ConjugatePointError):
        hessian_rho(ROUND, np.array([0.5, 0.0]), np.array([-2.0, 0.0]), np.array([0.0, 1.0]))


def test_a_hessian_query_whose_variational_shots_stop_raises(monkeypatch):
    # where no variational shot reaches t = 1 the Hessian query raises, and
    # the solver stays a plain one: its next query shoots plain, from the step
    # its one plain shot carried, and returns the bits of a fresh solver's
    # second query of q, whose distance is a fresh solver's
    solve = geodesic.solve_ivp

    def stopped(fun, t_span, y0, **kwargs):
        sol = solve(fun, t_span, y0, **kwargs)
        if len(y0) > 2 * HYPERBOLIC.dim:   # a shot that carries the Jacobi fields
            sol.status = 1   # as if an exit event had ended it at t = 1
        return sol

    pd, q = PoleDistance(HYPERBOLIC, np.zeros(2)), np.array([0.45, -0.3])
    with monkeypatch.context() as patch:
        patch.setattr(geodesic, "solve_ivp", stopped)
        with pytest.raises(ShootingError, match="stopped at the domain's edge"):
            distance_hessian(pd, q)
    # the chord start's variational shot stops, so it is shot again plain and
    # lands, and the converged velocity's variational shot stops too
    assert pd.work["integrations"] == 3 and pd.work["jacobi_integrations"] == 2
    r, fresh = pd.rho(q), PoleDistance(HYPERBOLIC, np.zeros(2))
    assert r.system is None and pd.work["jacobi_integrations"] == 2
    assert r.value == fresh.rho(q).value
    again = fresh.rho(q)
    assert r.value == again.value and r.residual == again.residual
    assert np.array_equal(r.T, again.T) and np.array_equal(r.w, again.w)


def _record_jacobians(monkeypatch):
    """Record each ``_jacobian`` call as (solver, w, whether the caller gave
    w's own system, the Jacobian returned)."""
    real, calls = PoleDistance._jacobian, []

    def recorded(self, w, system=None):
        calls.append((self, w.copy(), system is not None, real(self, w, system)))
        return calls[-1][3]

    monkeypatch.setattr(PoleDistance, "_jacobian", recorded)
    return calls


def _assert_exact_jacobians(calls):
    # Y_x(1) / rho against the oracle's forward differences of step h, which
    # are off by h/2 times the second derivative of x(1), within a few
    # |dx(1)/dw| on these metrics, plus twice the shooting tolerance over h;
    # measured: 0.1 h to 0.5 h
    assert calls
    for pd, w, _, J in calls:
        fd = fd_shooting_jacobian(pd, w)
        h = FD_SHOOTING_STEP * (1.0 + np.linalg.norm(w))
        assert np.abs(J - fd).max() <= (2 * h + 2 * SHOOT_RTOL / h) * np.abs(fd).max()


def test_a_hessian_query_that_misses_takes_the_exact_jacobian(monkeypatch):
    # a missed variational first shot gives the shooting Jacobian
    # dx(1)/dw = Y_x(1) / rho, so no other shot of its velocity runs: the
    # query's variational shots are its first shot and its settling step
    calls = _record_jacobians(monkeypatch)
    for m, pole, q in ((HYPERBOLIC, OFF_POLE, OFF_Q), (SZABO, np.zeros(4), Q4)):
        pd = PoleDistance(m, pole)
        distance_hessian(pd, q)
        assert pd.work["iterations"] > 0 and pd.work["jacobi_integrations"] == 2
    assert [given for _, _, given, _ in calls] == [True, True]
    _assert_exact_jacobians(calls)


@pytest.mark.parametrize("m, pole, q", [
    (HYPERBOLIC, OFF_POLE, OFF_Q),
    (SZABO, np.zeros(4), Q4),
    (NONKAHLER, np.zeros(4), Q4),
    (BALL2, np.array([0.3, 0.0, 0.0, 0.0]), Q4)],
    ids=["off_pole_disk", "szabo", "nonkahler", "off_pole_ball"])
def test_a_plain_query_that_misses_takes_the_exact_jacobian(monkeypatch, m, pole, q):
    # a plain first shot that misses with no cached Jacobian reads
    # dx(1)/dw = Y_x(1) / rho off one variational shot of its velocity
    calls = _record_jacobians(monkeypatch)
    r = PoleDistance(m, pole).rho(q)
    assert r.system is None and r.work["iterations"] > 0
    assert [given for _, _, given, _ in calls] == [False]
    assert r.work["jacobi_integrations"] == 1
    _assert_exact_jacobians(calls)


def test_a_jacobian_shot_that_exits_ends_its_start_not_the_query(monkeypatch):
    # the first start's Jacobian shot stops at the domain's edge, as if an
    # exit event had ended it at t = 1: the start ends, and the query goes on
    # to its next start and converges there
    want = PoleDistance(SZABO, np.zeros(4)).rho(Q4)
    solve, exits = geodesic.solve_ivp, []

    def stopped(fun, t_span, y0, **kwargs):
        sol = solve(fun, t_span, y0, **kwargs)
        if len(y0) > 2 * SZABO.dim and not exits:   # the first shot with Jacobi fields
            exits.append(1)
            sol.status = 1
        return sol

    monkeypatch.setattr(geodesic, "solve_ivp", stopped)
    r = PoleDistance(SZABO, np.zeros(4)).rho(Q4)
    assert exits == [1] and r.work["starts"] >= 2 and r.work["jacobi_integrations"] >= 2
    assert r.value == pytest.approx(want.value, abs=1e-9)


def test_a_failed_settling_step_returns_the_converged_iterates_system(monkeypatch):
    # the settling step's variational shot fails inside its integration: the
    # Hessian query shoots its converged velocity variationally once more and
    # returns that shot's system, and its work adds up to what it integrated
    integrate, solve, paths, nfev = geodesic._integrate, geodesic.solve_ivp, [], []

    def settle_fails(*args, **kwargs):
        if kwargs.get("Y0") is None:
            return integrate(*args, **kwargs)
        if sys._getframe(2).f_code.co_name == "_trial":   # only the settling trial is variational
            raise ShootingError("injected")
        sol, readout = integrate(*args, **kwargs)
        paths.append(sol)
        return sol, readout

    def counted(fun, t_span, y0, **kwargs):
        sol = solve(fun, t_span, y0, **kwargs)
        nfev.append((len(y0) > 2 * HYPERBOLIC.dim, sol.nfev))
        return sol

    fresh = distance_hessian(PoleDistance(HYPERBOLIC, OFF_POLE), OFF_Q)
    monkeypatch.setattr(geodesic, "solve_ivp", counted)
    monkeypatch.setattr(geodesic, "_integrate", settle_fails)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q, hessian=True)
    # the first shot and the last
    assert r.system.path.segments[0][0] is paths[-1] and len(paths) == 2
    assert r.work["iterations"] > 0 and r.residual < 3e-12 * (1 + np.linalg.norm(OFF_Q - OFF_POLE))
    # both velocities land within the acceptance residual, which moves H by
    # some 1e-11 relative
    assert np.abs(r.system.boundary_form() - fresh.boundary_form()).max() <= \
        1e-9 * np.abs(fresh.boundary_form()).max()
    # three variational shots, the failed one with no right-hand side counted
    assert r.work == pd.work and r.work["jacobi_integrations"] == 3
    assert r.work["rhs_evaluations"] == sum(n for _, n in nfev)
    assert r.work["jacobi_rhs_evaluations"] == sum(n for jacobi, n in nfev if jacobi)


def test_queries_that_miss_are_pinned():
    # a float.hex digest of queries whose first shot misses, so that they
    # iterate, take the shooting Jacobian and, in a Hessian query, try a
    # settling step (one lowers the residual, one does not, and that query
    # shoots its converged velocity once more): a cold query, its warm
    # repeat, a Hessian query at a nearby target and a cold Hessian query
    # from a fresh solver, with each query's work and each Hessian query's M
    # and W; no command's output reaches the settling step
    digest = hashlib.sha256()
    for m, pole, q in ((SZABO, np.zeros(4), Q4), (NONKAHLER, np.zeros(4), Q4),
                       (HYPERBOLIC, OFF_POLE, OFF_Q)):
        pd = PoleDistance(m, pole)
        results = [pd.rho(q), pd.rho(q), pd.rho(q + 0.01, hessian=True),
                   PoleDistance(m, pole).rho(q, hessian=True)]
        assert results[0].work["iterations"] > 0 and results[1].work["iterations"] == 0
        for r in results:
            values = [[r.value, r.residual], r.T, r.w]
            if r.system is not None:
                values += [r.system.M.ravel(), r.system.W.ravel()]
            for a in values:
                digest.update(" ".join(map(float.hex, np.ravel(a).tolist())).encode())
            digest.update(repr(sorted(r.work.items())).encode())
    assert digest.hexdigest() == "bdfe18308aa4f6793ebdd3920aee3fc9aa94042d57642504e03d833b606bca4f"


def test_jacobi_minimizes_index_form():
    r = 1.2
    for x0, u0 in ((np.zeros(2), np.array([1.0, 0.0])), (DISK_X0, DISK_U0)):
        system = jacobi_boundary_field(HYPERBOLIC, x0, u0, r)
        path = system.path
        u_end = np.array([0.0, 1.0])
        xr, ur = path.state_at(0, r)
        g_r = cartan(HYPERBOLIC, xr, ur).g
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
                e, t = np.array([0.0, 1.0]), t[:, None]
                return (J_r * (t / r) ** a + np.sin(math.pi * t / r) * b * e,
                        J_r * a * (t / r) ** (a - 1) / r
                        + np.cos(math.pi * t / r) * math.pi / r * b * e)

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
    data = cartan(MINKOWSKI, q, base.T)
    # vectors tangent to the geodesic sphere: numeric tangent via level set of rho
    for _ in range(3):
        w = rng.standard_normal(4)
        w -= (w @ data.g @ base.T) / (base.T @ data.g @ base.T) * base.T
        # w is g_T-orthogonal to T; verify rho is stationary along w
        h = 1e-5
        r_plus = pd.rho(q + h * w).value
        r_minus = pd.rho(q - h * w).value
        assert abs(r_plus - r_minus) / (2 * h) < 1e-6


@pytest.mark.parametrize("m, pole, q", [
    (HYPERBOLIC, np.zeros(2), np.array([0.45, -0.3])), (SZABO, np.zeros(4), Q4)],
    ids=["disk", "szabo"])
def test_hessian_rho_charges_the_solver_its_plain_query_alone(monkeypatch, m, pole, q):
    # the oracle's arc-length Jacobi system is not a shot of the solver, so a
    # hessian_rho call grows pd.work by exactly its plain query's work
    pd = PoleDistance(m, pole)
    queries, rho = [], pd.rho
    monkeypatch.setattr(pd, "rho", lambda x, **kw: queries.append(rho(x, **kw)) or queries[-1])
    before = pd.work.copy()
    hessian_rho(m, pole, q, np.roll(q - pole, 1), pd=pd)
    assert len(queries) == 1 and queries[0].work["integrations"] >= 1
    assert pd.work - before == queries[0].work


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
    # order 3: the Jacobi system's right-hand sides and its readout at r, one
    # one-row real_rows replay each; order 4: one stacked cartan call over
    # the index form's 72 nodes, 4 on each of 12 + 6 panels, one real_rows
    # replay whose N the covariant derivatives reuse
    real_rows, orders, replays = MetricDef.real_rows, Counter(), []

    def replayed(self, x, u, basis):
        if len(x) == 1:
            orders[basis] += 1
        if basis is m.fibre_space(4, 2):
            replays.append(len(x))
        return real_rows(self, x, u, basis)

    monkeypatch.setattr(MetricDef, "real_rows", replayed)
    systems = []
    jacobi_boundary_field = geodesic.jacobi_boundary_field

    def recorded(*args, **kwargs):
        system = jacobi_boundary_field(*args, **kwargs)
        systems.append((system, system.path.nfev))
        return system

    monkeypatch.setattr(geodesic, "jacobi_boundary_field", recorded)
    hessian_rho(m, np.zeros(m.dim), np.array(q), np.array(q)[::-1])
    (system, stepped), = systems
    # the index form reads every step of the path, which builds its dense
    # output then: 3 right-hand sides a step, in the path's nfev
    path = system.path
    assert path.nfev == stepped + 3 * path.steps
    # each over its reader's kept basis; the readout at r is the last
    # right-hand side's, so no jet is replayed there; the plain query's
    # one-row replays are of order 2 (its sprays) and 0 (its values)
    assert orders[m.fibre_space(3, 2)] == path.nfev and orders[m.fibre_space(4, 2)] == 0
    assert sum(n for basis, n in orders.items()
               if JetSpace.of(2 * m.dim, basis).order >= 3) == path.nfev
    assert replays == [72]


def test_both_hessian_routes_refuse_the_pole():
    # rho is not smooth at the pole, where neither route shoots
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    with pytest.raises(ConfigurationError, match="undefined at the pole"):
        distance_hessian(pd, OFF_POLE + 1e-7)
    with pytest.raises(ConfigurationError, match="undefined at the pole"):
        hessian_rho(HYPERBOLIC, OFF_POLE, OFF_POLE, np.array([0.0, 1.0]), pd=pd)
    assert pd.work["integrations"] == 0


# g = diag(1, (1 + x0)^20): the x0 axis is a unit-speed geodesic along which
# the condition number of g passes 1e10 at x0 = 10^0.5 - 1
STIFFENING = MetricDef("real", lambda x, u: u[0] * u[0] + u[1] * u[1] * (1.0 + x[0]) ** -20,
                       dim_real=2, family_id="stiffening")


def test_index_form_names_its_first_degenerate_node():
    path = integrate_geodesic(STIFFENING, np.zeros(2), np.array([1.0, 0.0]), 3.0)
    lin = lambda t: (np.outer(t, [0.0, 1.0]), np.broadcast_to([0.0, 1.0], (len(t), 2)))

    # the loop the stacked connection replaced: a cartan call per node, the
    # fine rule's nodes first, then the coarse rule's
    failures = []
    for n_panels in (12, 6):
        edges = np.linspace(0.0, 3.0, n_panels + 1)
        for a, b in zip(edges, edges[1:]):
            for t in np.polynomial.legendre.leggauss(4)[0]:
                try:
                    cartan(STIFFENING, *path.state_at(0, 0.5 * (a + b) + 0.5 * (b - a) * t))
                except DegenerateMetricError as exc:
                    failures.append(str(exc))
    # not every node fails, and the first failure is not the worst one
    assert 0 < len(failures) < 72 and failures[0] != failures[-1]
    for eta in (lin, lambda t: lin(t)):
        with pytest.raises(DegenerateMetricError, match=re.escape(failures[0]) + "$"):
            index_form(path, lin, eta)


def test_index_form_takes_one_stacked_connection(monkeypatch):
    # 72 rows in one cartan call, whether or not xi is eta
    path = integrate_geodesic(HYPERBOLIC, DISK_X0, DISK_U0, 1.0)
    lin = lambda t: (np.outer(t, [0.0, 1.0]), np.broadcast_to([0.0, 1.0], (len(t), 2)))
    calls = []
    monkeypatch.setattr(geodesic, "cartan", lambda m, x, u: calls.append(len(x)) or cartan(m, x, u))
    for eta in (lin, lambda t: lin(t)):
        calls.clear()
        index_form(path, lin, eta)
        assert calls == [72]


def test_hessian_rho_nan_index_form_does_not_agree(monkeypatch):
    nan = IndexFormResult(value=math.nan, quadrature_error=math.nan)
    monkeypatch.setattr(geodesic, "index_form", lambda *a, **k: nan)
    res = hessian_rho(HYPERBOLIC, np.zeros(2), np.array([0.5, 0.0]), np.array([0.0, 1.0]))
    assert math.isnan(res.discrepancy)
    assert not res.agreed


def test_index_form_results_are_pinned(monkeypatch):
    # float.hex of hessian_rho's value and discrepancy and of its index
    # form's value and quadrature error, from the origin to 3 seeded targets
    # on each metric, then one index form of two distinct Jacobi fields
    forms = []
    recorded = index_form

    def recording(*args):
        forms.append(recorded(*args))
        return forms[-1]

    monkeypatch.setattr(geodesic, "index_form", recording)
    rng = np.random.default_rng(51)
    digest = hashlib.sha256()
    for m in (HYPERBOLIC, EUCLID2, BALL2, NONKAHLER, MINKOWSKI):
        pd = PoleDistance(m, np.zeros(m.dim))
        for _ in range(3):
            q = rng.standard_normal(m.dim)
            q *= rng.uniform(0.2, 0.6) / np.linalg.norm(q)
            res = hessian_rho(m, pd.pole, q, rng.standard_normal(m.dim), pd=pd)
            (form,) = forms
            forms.clear()
            assert res.agreed
            digest.update(" ".join(float.hex(float(v)) for v in (
                res.value, res.discrepancy, form.value, form.quadrature_error)).encode())
    u0 = np.array([0.5, 0.2, 0.0, 0.0])
    system = jacobi_boundary_field(BALL2, np.zeros(4), u0 / math.sqrt(BALL2.value(np.zeros(4), u0)),
                                   0.9)
    form = recorded(system.path, system.field(np.array([0.0, 1.0, 0.0, 0.0])),
                    system.field(np.array([0.0, 0.3, 0.4, 0.1])))
    digest.update(" ".join(map(float.hex, (form.value, form.quadrature_error))).encode())
    assert digest.hexdigest() == "2b3ebd8c2facc1600b2fb203eba0d846ee16727ddb70d6e72589045ef909209e"


@pytest.mark.parametrize("m, q", [(HYPERBOLIC, [0.45, -0.3]), (BALL2, [0.3, -0.2, 0.1, 0.4])])
def test_distance_hessian_is_the_system_of_its_shot(m, q):
    q = np.array(q)
    system = distance_hessian(PoleDistance(m, np.zeros(m.dim)), q)
    assert isinstance(system, BoundaryJacobiSystem)
    assert system.r == PoleDistance(m, np.zeros(m.dim)).rho(q).value


def test_a_hessian_query_reads_rho_off_its_system(monkeypatch):
    # rho of a Hessian query is its landed system's r, bit for bit
    # sqrt(G(p, w)), with no value call of its own: a variational shot reads G
    # once and a plain query once; cold and warm queries, a first shot that
    # lands and queries that iterate
    value, calls = MetricDef.value, []
    monkeypatch.setattr(MetricDef, "value", lambda *args: calls.append(1) or value(*args))
    for m, pole, q in ((HYPERBOLIC, OFF_POLE, OFF_Q), (SZABO, np.zeros(4), Q4),
                       (NONKAHLER, np.zeros(4), Q4)):
        pd = PoleDistance(m, pole)
        for query, hessian in ((q, True), (q + 0.01, True), (q - 0.01, False)):
            calls.clear()
            r = pd.rho(query, hessian=hessian)
            assert len(calls) == (r.work["jacobi_integrations"] if hessian else 1)
            assert r.value == math.sqrt(value(m, pole, r.w))
            assert r.value == r.system.r if hessian else r.system is None


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
    conn_T = cartan(m, q, base.T)
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
    build, cond, solve = geodesic.jacobi_boundary_field, np.linalg.cond, np.linalg.solve

    def kept(*args, **kwargs):
        systems.append(build(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(geodesic, "jacobi_boundary_field", kept)
    monkeypatch.setattr(np.linalg, "cond", lambda a, *k: cond_args.append(a) or cond(a, *k))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve_args.append(a) or solve(a, b))
    res = hessian_rho(HYPERBOLIC, np.zeros(2), np.array([0.45, -0.3]), np.array([0.3, 0.45]))
    assert res.agreed
    M = systems[0].M
    assert sum(a is M for a in cond_args) == sum(a is M for a in solve_args) == 1


def test_rho_counts_gauss_newton_steps(monkeypatch):
    rho = PoleDistance.rho
    results = []

    def recorded(self, q, **kwargs):
        results.append(rho(self, q, **kwargs))
        return results[-1]

    def outside(*args, **kwargs):
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "rho", recorded)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q)
    assert r.work["iterations"] == pd.work["iterations"] > 0
    # one shot and one Jacobian shot, then one integration per full step
    assert r.work["integrations"] == 1 + 1 + r.work["iterations"]
    assert r.work["jacobi_integrations"] == 1
    warm = pd.rho(OFF_Q)
    assert (warm.work["starts"], warm.work["integrations"], warm.work["iterations"]) == (1, 1, 0)
    pole = pd.rho(pd.pole)
    assert pole.work["iterations"] == 0
    assert not pole.work
    system = distance_hessian(pd, np.array([0.2, 0.4]))
    # a query whose every integration fails counts each of them: one per
    # start, the nearest cached velocity and the seven of a cold query
    monkeypatch.setattr(geodesic, "_integrate", outside)
    with pytest.raises(ShootingError) as info:
        pd.rho(np.array([-0.2, 0.3]))
    assert info.value.work == Counter(starts=8, integrations=8)
    # the shares of the four results (the last the Hessian's own rho, whose
    # variational shots carry its Jacobi fields) and of the error add up to
    # the solver's record
    assert len(results) == 4
    shares = sum((res.work for res in results), info.value.work)
    assert results[-1].work["jacobi_rhs_evaluations"] >= system.path.nfev
    assert shares == pd.work


def test_shooting_propagates_programming_errors(monkeypatch):
    def broken_spray(m, x, u):
        raise KeyError("spray")

    monkeypatch.setattr(geodesic, "spray_coefficients", broken_spray)
    with pytest.raises(KeyError):
        PoleDistance(HYPERBOLIC, np.zeros(2)).rho(np.array([0.45, -0.3]))


def test_shooting_error_on_one_start_tries_the_next(monkeypatch):
    shoot = PoleDistance._shoot
    failed = []

    def first_start_fails(self, w, kind=False):
        if not failed:
            failed.append(w.copy())
            raise ShootingError("injected")
        return shoot(self, w, kind)

    monkeypatch.setattr(PoleDistance, "_shoot", first_start_fails)
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    r = pd.rho(OFF_Q)
    assert np.array_equal(failed[0], pd._chord_start(OFF_Q))   # the chord start failed
    assert r.value == pytest.approx(ball_distance(OFF_POLE, OFF_Q), abs=1e-9)


def test_shooting_error_counts_starts_and_integrations(monkeypatch):
    from finsler.errors import DomainError

    def outside(self, w, kind=False):
        self.work["integrations"] += 1
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "_shoot", outside)
    q = np.array([0.45, -0.3])
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    with pytest.raises(ShootingError) as info:
        pd.rho(q)
    # a cold query starts from the chord start, from q itself, then the
    # direction grid
    n_starts = len(list(pd._starts(q, None)))
    assert info.value.work["starts"] == n_starts == 7
    assert pd.work["starts"] == n_starts
    assert info.value.work["integrations"] == n_starts   # one failed integration per start
    assert info.value.best_residual == math.inf
    assert info.value.work["iterations"] == 0
    assert f"{n_starts} starts, {n_starts} integrations, 0 Gauss-Newton steps" in str(info.value)


@pytest.mark.parametrize("error", [DomainError("injected"), ShootingError("injected")])
@pytest.mark.parametrize("m", [SZABO, NONKAHLER], ids=["szabo", "nonkahler"])
def test_a_failed_probe_ends_its_start_not_the_query(monkeypatch, m, error):
    # the first start's Jacobian shot fails, as an integration raising out
    # of the domain or out of the integrator would; the query goes on to its
    # next start and converges there
    q = 0.4 * np.arange(1, m.dim + 1) / m.dim
    want = PoleDistance(m, np.zeros(m.dim)).rho(q)
    real, probes = PoleDistance._shoot, []

    def first_probe_fails(self, w, kind=False):
        if kind == VARIATIONAL:
            probes.append(1)
            if len(probes) == 1:
                raise error
        return real(self, w, kind)

    monkeypatch.setattr(PoleDistance, "_shoot", first_probe_fails)
    r = PoleDistance(m, np.zeros(m.dim)).rho(q)
    assert r.work["starts"] >= 2 and len(probes) >= 2
    assert r.value == pytest.approx(want.value, abs=1e-9)


@pytest.mark.parametrize("setting", [("MAX_ITERATIONS", 1), ("LOOSE_ABOVE", 0.0)],
                         ids=["last-iterate", "below-tol"])
def test_a_failed_tight_reintegration_ends_its_start_not_the_query(monkeypatch, setting):
    # every tight integration of an iterate that came from a loose one fails:
    # a loose last iterate (one iteration allowed) or a loose iterate below
    # tol (every trial loose) is integrated again tight; each start that
    # reaches one ends there, and the query reports its whole cost in its
    # own ShootingError
    monkeypatch.setattr(geodesic, *setting)
    real, loose_ws, failed = PoleDistance._shoot, [], []

    def shoot(self, w, kind=False):
        if kind is True:
            loose_ws.append(w.copy())
        elif kind is False and any(np.array_equal(w, lw) for lw in loose_ws):
            failed.append(1)
            self.work["integrations"] += 1
            raise DomainError("injected")
        return real(self, w, kind)

    monkeypatch.setattr(PoleDistance, "_shoot", shoot)
    q = 0.1 * np.arange(1, 5)
    pd = PoleDistance(NONKAHLER, np.zeros(4))
    with pytest.raises(ShootingError) as info:
        pd.rho(q)
    work = info.value.work
    assert len(failed) == work["starts"] >= 2
    assert all(type(work[k]) is int for k in geodesic.WORK)
    assert work == pd.work


def _count_jacobians(monkeypatch, make=None):
    """Record each ``_jacobian`` call; ``make(real, self, w, system)`` may
    replace the Jacobian it returns."""
    real = PoleDistance._jacobian
    calls = []

    def jacobian(self, w, system=None):
        calls.append(w.copy())
        return make(real, self, w, system) if make else real(self, w, system)

    monkeypatch.setattr(PoleDistance, "_jacobian", jacobian)
    return calls


def _warm_query(monkeypatch, bend):
    """A warm query whose cached Jacobian is ``bend(J)``: its distance and the
    Jacobians it took."""
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    pd.rho(OFF_Q)
    pd._cache = [(q, w, bend(J)) for q, w, J in pd._cache]
    calls = _count_jacobians(monkeypatch)
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
        assert (r.work["integrations"], r.work["iterations"]) == (1, 0)
        assert r.value == before.value and np.array_equal(r.w, before.w)
    assert len(pd._cache) == 2
    assert [entry[0].tolist() for entry in pd._cache] == [q.tolist() for q in targets]


def test_singular_cached_jacobian_is_refreshed(monkeypatch):
    assert len(_warm_query(monkeypatch, np.zeros_like)) == 1


def test_cached_jacobian_whose_steps_never_improve_is_refreshed(monkeypatch):
    # the reversed Jacobian steps away from the target at every trial length
    assert len(_warm_query(monkeypatch, np.negative)) == 1


def test_singular_refreshed_jacobian_gives_up_the_start(monkeypatch):
    calls = _count_jacobians(monkeypatch, lambda real, self, w, system: np.zeros((2, 2)))
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    with pytest.raises(ShootingError) as info:
        pd.rho(OFF_Q)
    # each start: one integration, one refresh, then no step to take
    assert info.value.work["starts"] == len(calls) == 7
    assert info.value.work["integrations"] == 7


def test_refreshed_jacobian_whose_steps_never_improve_gives_up(monkeypatch):
    calls = _count_jacobians(monkeypatch, lambda real, self, w, system: -real(self, w, system))
    pd = PoleDistance(HYPERBOLIC, OFF_POLE)
    with pytest.raises(ShootingError) as info:
        pd.rho(OFF_Q)
    # each start: one integration, one Jacobian shot, three trial steps, no
    # improvement
    assert info.value.work["starts"] == len(calls) == info.value.work["jacobi_integrations"] == 7
    assert info.value.work["integrations"] == 7 * (1 + 1 + 3)


def test_failed_trial_step_is_halved(monkeypatch):
    shoot = PoleDistance._shoot
    shots = []

    def first_trial_fails(self, w, kind=False):
        if kind != VARIATIONAL:
            shots.append(w.copy())
            if len(shots) == 2:   # the shot, then the first trial
                raise DomainError("injected")
        return shoot(self, w, kind)

    monkeypatch.setattr(PoleDistance, "_shoot", first_trial_fails)
    r = PoleDistance(HYPERBOLIC, OFF_POLE).rho(OFF_Q)
    assert np.allclose(shots[2] - shots[0], 0.5 * (shots[1] - shots[0]), atol=1e-15)
    assert r.value == pytest.approx(ball_distance(OFF_POLE, OFF_Q), abs=1e-9)


def test_gauss_newton_returns_its_last_iterate_after_max_iter(monkeypatch):
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.45, -0.3])
    monkeypatch.setattr("finsler.geodesic.MAX_ITERATIONS", 2)
    w, y, _, res, system = pd._gauss_newton(q, q, None, 1e-12, False)
    assert system is None   # a plain query's
    assert res > 1e-6   # two Broyden steps do not converge
    # y is the end state of the last integration, a tight one of w
    sol, _ = _integrate(HYPERBOLIC, np.zeros(2), w, 1.0, rtol=SHOOT_RTOL,
                        atol=SHOOT_ATOL, first_step=steps[-1])
    assert np.array_equal(y, sol.y[:, -1])
    assert res == float(np.linalg.norm(y[:2] - q))


def _record_shots(monkeypatch):
    """Record each plain ``_shoot`` call as (loose, calling function, the
    caller's current residual ``res`` or None, w): inside the Gauss-Newton
    loop and in a trial ``res`` is the residual of the iterate the shot
    steps from."""
    shoot = PoleDistance._shoot
    shots = []

    def recorded(self, w, kind=False):
        if kind != VARIATIONAL:
            caller = sys._getframe(1)
            shots.append((kind, caller.f_code.co_name, caller.f_locals.get("res"), w.copy()))
        return shoot(self, w, kind)

    monkeypatch.setattr(PoleDistance, "_shoot", recorded)
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
            if loose:
                assert caller == "_trial" and res > geodesic.LOOSE_ABOVE
        # the accepted iterate is the last shot, and a tight one
        assert not shots[-1][0] and np.array_equal(shots[-1][3], r.w)
    assert 0 < pd.work["loose_integrations"] < pd.work["integrations"]


def test_cold_flat_query_is_one_tight_integration(monkeypatch):
    shots = _record_shots(monkeypatch)
    pd = PoleDistance(EUCLID2, np.zeros(4))
    assert pd.rho(np.array([0.3, -0.2, 0.1, 0.4])).work["integrations"] == 1
    assert [loose for loose, *_ in shots] == [False]
    assert pd.work["loose_integrations"] == 0


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
    assert r.work["integrations"] == 1 + 1 + r.work["iterations"] + 1
    sol, _ = _integrate(HYPERBOLIC, OFF_POLE, r.w, 1.0, rtol=SHOOT_RTOL,
                        atol=SHOOT_ATOL, first_step=steps[-1])
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
    integrate = geodesic._integrate

    def from_the_probe(*args, first_step=None, **kwargs):
        return integrate(*args, first_step=first_step if kwargs.get("Y0") is not None else None,
                         **kwargs)

    with monkeypatch.context() as cold:
        # every plain shot starts from the initial-step probe
        cold.setattr(geodesic, "_integrate", from_the_probe)
        cold_work, cold_results = _batch_work(cold)
    assert work <= 0.85 * cold_work
    _assert_batches_agree(results, cold_results)


def test_a_warm_flat_query_starts_at_the_settled_step(monkeypatch):
    # the cold shot ramps up from the initial-step probe; the controller's
    # proposal after it, scaled to the next velocity, covers a whole chord,
    # which is exact on a line: every warm shot is one step of 13 right-hand
    # sides (the initial derivative and 12 stages)
    steps = _record_first_steps(monkeypatch)
    pd = PoleDistance(EUCLID2, np.zeros(4))
    costs = []
    for q in ([0.3, -0.2, 0.1, 0.4], [-0.5, 0.1, 0.2, 0.3], [0.1, 0.6, -0.3, 0.2]):
        before = pd.work["rhs_evaluations"]
        assert pd.rho(np.array(q)).work["integrations"] == 1
        costs.append(pd.work["rhs_evaluations"] - before)
    assert costs[0] > 13 and costs[1:] == [13, 13]
    assert steps[0] is None and all(step >= 1.0 for step in steps[1:])


def test_step_continuation_survives_queries_near_the_edge(monkeypatch):
    # a step settled on near the pole starts a shot that ends near the edge,
    # and the other way round; no shot may leave the domain for it
    shoot = PoleDistance._shoot
    raised = []

    def recorded(self, w, kind=False):
        try:
            return shoot(self, w, kind)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(PoleDistance, "_shoot", recorded)
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
    # ``finsler geodesic`` writes t, x, u and G over 65 even arc steps of its
    # unit-speed geodesic
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 1, "plans": {"default": {"radial_range": [0.1, 0.8]}},
        "metrics": [{"family": "hermitian", "complex_dim": 1,
                     "params": {"catalog": "poincare_disk"}, "id": "disk"}]}))
    assert main(["geodesic", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "geodesic" / "disk" / "path.csv").read_text().strip().splitlines()
    assert rows[0].split(",") == ["t", "x0", "x1", "u0", "u1", "G"]
    assert len(rows) == 66
    last = [float(v) for v in rows[-1].split(",")]
    assert last[0] == pytest.approx(0.8, rel=1e-14)
    assert last[-1] == pytest.approx(1.0, abs=1e-8)  # G stays 1 along the path
