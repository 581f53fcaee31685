"""Geodesic flow, shooting distance, Jacobi fields, index form, distance Hessians."""

import math

import numpy as np
import pytest

from scipy.linalg import eigh

from finsler import geodesic
from finsler.cartan import cartan
from finsler.errors import (SAMPLE_ERRORS, ConjugatePointError, DomainError,
                            ShootingError)
from finsler.geodesic import (SHOOT_ATOL, SHOOT_RTOL, PoleDistance,
                              _integrate_affine, distance, distance_hessian,
                              exp_map, hessian_rho, index_form,
                              integrate_geodesic, jacobi_field,
                              jacobi_boundary_field, legendre_gradient)
from finsler.geometry import MetricDef, realify_metric
from finsler.jets import spow
from finsler.metrics import instantiate

from oracles import (covariant_d2_rho, fd_covariant_derivatives,
                     hyperbolic_distance, hyperbolic_hessian_tangential)

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
    assert path.energy_drift < 1e-12
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
        assert path.energy_drift < 1e-10


def test_poincare_radial_speed():
    path = integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), 1.2)
    # after arc length t the Euclidean radius is tanh(t)
    for t in (0.3, 0.7, 1.2):
        x, _ = path.state_at(t)
        assert np.linalg.norm(x) == pytest.approx(math.tanh(t), abs=1e-9)
    assert path.energy_drift < 1e-8


def test_domain_truncation():
    path = integrate_geodesic(HYPERBOLIC, np.array([0.9, 0.0]),
                              np.array([10.0, 0.0]), 50.0)
    assert path.truncated
    x, _ = path.endpoint()
    assert np.linalg.norm(x) <= 1.0


def test_exp_map_closed_forms():
    assert np.allclose(exp_map(EUCLID2, np.array([1.0, 0, 0, 2.0]),
                               np.array([0.5, 1, -1, 0.25])),
                       [1.5, 1, -1, 2.25], atol=1e-10)
    v = np.array([0.3, -0.2, 0.7, 0.1])
    assert np.allclose(exp_map(MINKOWSKI, np.zeros(4), v), v, atol=1e-10)
    w = np.array([0.8, 0.6])
    out = exp_map(HYPERBOLIC, np.zeros(2), w)
    assert np.allclose(out, math.tanh(1.0) * w, atol=1e-9)


def test_distance_closed_forms():
    p = np.array([0.1, -0.2, 0.3, 0.0])
    q = np.array([0.9, 0.4, -0.1, 0.5])
    assert distance(EUCLID2, p, q) == pytest.approx(np.linalg.norm(q - p), abs=1e-9)

    zq = np.array([0.55, -0.3])
    assert distance(HYPERBOLIC, np.zeros(2), zq) == pytest.approx(
        hyperbolic_distance(complex(*zq)), abs=1e-9)

    x = np.array([0.4, -0.7, 0.2, 0.9])
    dm = distance(MINKOWSKI, np.zeros(4), x)
    assert dm == pytest.approx(math.sqrt(MINKOWSKI.value(np.zeros(4), x)), abs=1e-9)


def test_pole_distance_tangent_and_warm_start():
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.5, 0.2])
    r1 = pd.rho(q)
    n1 = pd.total_integrations
    # arriving tangent is radial and unit
    assert HYPERBOLIC.value(q, r1.T) == pytest.approx(1.0, abs=1e-9)
    assert abs(r1.T[0] * q[1] - r1.T[1] * q[0]) < 1e-9
    r2 = pd.rho(q + np.array([1e-3, -2e-3]))
    assert pd.total_integrations - n1 <= n1  # warm start reuses work
    assert r2.value == pytest.approx(
        hyperbolic_distance(complex(q[0] + 1e-3, q[1] - 2e-3)), abs=1e-9)


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


def test_arriving_tangent_is_the_converged_shot():
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    r = pd.rho(np.array([0.45, -0.3]))
    assert r.n_integrations > 1   # Gauss-Newton iterated before converging
    sol = _integrate_affine(HYPERBOLIC, np.zeros(2), r.w, 1.0,
                            rtol=SHOOT_RTOL, atol=SHOOT_ATOL, dense=False)
    u_end = sol.y[2:, -1]
    assert np.array_equal(r.T, u_end / r.value)


def test_jacobi_flat_linear():
    e = np.array([0.0, 1.0, 0, 0])
    J = jacobi_field(EUCLID2, np.zeros(4), np.array([1.0, 0, 0, 0]), 2.0, np.zeros(4), e)
    for t in (0.5, 1.0, 2.0):
        assert np.allclose(J.value(t), t * e, atol=1e-9)


def test_jacobi_hyperbolic_sinh():
    x0, u0 = np.zeros(2), np.array([1.0, 0.0])
    e = np.array([0.0, 1.0])
    g0 = cartan(HYPERBOLIC, x0, u0, need_curvature=False).g
    e = e / math.sqrt(e @ g0 @ e)
    J = jacobi_field(HYPERBOLIC, x0, u0, 1.5, np.zeros(2), e)
    for t in (0.4, 0.9, 1.5):
        xt, ut = J.path.state_at(t)
        gt = cartan(HYPERBOLIC, xt, ut, need_curvature=False).g
        norm = math.sqrt(float(J.value(t) @ gt @ J.value(t)))
        assert norm == pytest.approx(math.sinh(2 * t) / 2.0, abs=1e-7)


def test_index_form_flat_linear_field():
    r = 2.0
    path = integrate_geodesic(EUCLID2, np.zeros(4), np.array([1.0, 0, 0, 0]), r)
    e = np.array([0.0, 1.0, 0.0, 0.0])
    xi = lambda t: (t / r) * e
    out = index_form(path, xi, xi, *fd_covariant_derivatives(path, xi, xi))
    assert out.value == pytest.approx(1.0 / r, abs=1e-9)
    assert out.quadrature_error < 1e-9


def test_index_form_symmetry_and_projection():
    r = 1.5
    path = integrate_geodesic(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), r)
    xi = lambda t: np.array([0.2 * t, (t / r) ** 2])
    eta = lambda t: np.array([-0.1 * t * t, math.sin(t)])
    xi_cov, eta_cov = fd_covariant_derivatives(path, xi, eta)
    a = index_form(path, xi, eta, xi_cov, eta_cov)
    b = index_form(path, eta, xi, eta_cov, xi_cov)
    assert abs(a.value - b.value) < 1e-9
    # the tangential component is projected away
    tang = lambda t: path.state_at(t)[1] * (1 + 0.3 * t)
    c = index_form(path, tang, tang, *fd_covariant_derivatives(path, tang, tang))
    assert abs(c.value) < 1e-9


def test_conjugate_point_guard():
    # from 0.5 through the origin the unit-speed geodesic reaches the antipode
    # -2 of its start at distance pi/2, where M(r) is singular
    p, u = np.array([0.5, 0.0]), np.array([-1.25, 0.0])
    assert ROUND.value(p, u) == pytest.approx(1.0, abs=1e-15)
    at = jacobi_boundary_field(ROUND, p, u, math.pi / 2)
    assert np.allclose(at.path.endpoint()[0], [-2.0, 0.0], atol=1e-9)
    with pytest.raises(ConjugatePointError) as info:
        at.boundary_form()
    assert isinstance(info.value, SAMPLE_ERRORS)
    assert info.value.cond > geodesic.CONJUGATE_COND
    with pytest.raises(ConjugatePointError):
        at.field(np.array([0.0, 1.0]))
    # past the conjugate point M(r) is regular again; the monitor saw det M change sign
    assert jacobi_boundary_field(ROUND, p, u, math.pi / 2 + 0.3).zero_crossings == 1
    before = jacobi_boundary_field(ROUND, p, u, 1.0)
    assert before.zero_crossings == 0
    # across T the Jacobi field is sin(2s)/2, so H = 2 cot 2r against g_T
    ev = eigh(before.boundary_form(), before.g, eigvals_only=True)
    assert ev == pytest.approx([2.0 / math.tan(2.0), 0.0], abs=1e-8)


def test_jacobi_minimizes_index_form():
    r = 1.2
    system = jacobi_boundary_field(HYPERBOLIC, np.zeros(2), np.array([1.0, 0.0]), r)
    path = system.path
    u_end = np.array([0.0, 1.0])
    xr, ur = path.state_at(r)
    g_r = cartan(HYPERBOLIC, xr, ur, need_curvature=False).g
    u_end = u_end / math.sqrt(u_end @ g_r @ u_end)
    bvp = system.field(u_end)
    i_jacobi = index_form(path, bvp.value, bvp.value,
                          xi_cov=bvp.cov_deriv, eta_cov=bvp.cov_deriv).value
    rng = np.random.default_rng(4)
    for _ in range(4):
        a, b = rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5)

        def eta(t, a=a, b=b):
            # competitor with the same endpoints as the Jacobi field
            base = bvp.value(r) * (t / r) ** a
            bump = math.sin(math.pi * t / r) * b * np.array([0.0, 1.0])
            return base + bump

        i_eta = index_form(path, eta, eta, *fd_covariant_derivatives(path, eta, eta)).value
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


@pytest.mark.parametrize("m, q", [
    (HYPERBOLIC, [0.3, 0.4]),
    (EUCLID2, [0.3, -0.2, 0.1, 0.4]),
    (BALL2, [0.3, -0.2, 0.1, 0.4]),
    (MINKOWSKI, [0.2, -0.35, 0.1, 0.45]),
])
def test_distance_hessian_symmetric_and_null_along_T(m, q):
    dh = distance_hessian(PoleDistance(m, np.zeros(m.dim)), np.array(q))
    H = dh.matrix
    scale = np.abs(H).max()
    assert np.abs(H - H.T).max() < 1e-12 * scale
    assert np.abs(H @ dh.system.T).max() < 1e-12 * scale


def test_distance_hessian_spectra():
    # eigenvalues against g_T: 0 along T, 2 coth 2 rho across it on the disk
    # (curvature -4), 1/|q| three times across T on C^2
    q = np.array([0.45, -0.3])
    dh = distance_hessian(PoleDistance(HYPERBOLIC, np.zeros(2)), q)
    rho = hyperbolic_distance(complex(*q))
    assert dh.rho == pytest.approx(rho, abs=1e-9)
    ev = eigh(dh.matrix, dh.system.g, eigvals_only=True)
    assert ev == pytest.approx([0.0, hyperbolic_hessian_tangential(rho)], abs=1e-8)

    q = np.array([0.3, -0.2, 0.1, 0.4])
    dh = distance_hessian(PoleDistance(EUCLID2, np.zeros(4)), q)
    ev = eigh(dh.matrix, dh.system.g, eigvals_only=True)
    assert ev == pytest.approx([0.0] + [1.0 / np.linalg.norm(q)] * 3, abs=1e-8)


@pytest.mark.parametrize("m, q", [
    (HYPERBOLIC, [0.3, 0.4]),
    (BALL2, [0.3, -0.2, 0.1, 0.4]),
    (MINKOWSKI, [0.2, -0.35, 0.1, 0.45]),
])
def test_distance_hessian_matches_stencil_oracle(m, q):
    q = np.array(q)
    pd = PoleDistance(m, np.zeros(m.dim))
    H = distance_hessian(pd, q).matrix
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


def test_shooting_propagates_programming_errors(monkeypatch):
    def broken_spray(m, x, u):
        raise KeyError("spray")

    monkeypatch.setattr(geodesic, "spray_coefficients", broken_spray)
    with pytest.raises(KeyError):
        PoleDistance(HYPERBOLIC, np.zeros(2)).rho(np.array([0.45, -0.3]))


def test_shooting_error_on_one_start_tries_the_next(monkeypatch):
    endpoint = PoleDistance._endpoint
    failed = []

    def first_start_fails(self, w):
        if not failed:
            failed.append(w.copy())
            raise ShootingError("injected")
        return endpoint(self, w)

    monkeypatch.setattr(PoleDistance, "_endpoint", first_start_fails)
    q = np.array([0.45, -0.3])
    r = PoleDistance(HYPERBOLIC, np.zeros(2)).rho(q)
    assert np.array_equal(failed[0], q)   # the straight start failed
    assert r.value == pytest.approx(hyperbolic_distance(complex(*q)), abs=1e-9)


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
    # a cold query starts from q itself, then the direction grid
    n_starts = len(list(pd._starts(q, q - pd.pole)))
    assert info.value.starts == n_starts == 6
    assert info.value.integrations == n_starts   # one failed integration per start
    assert info.value.best_residual == math.inf
    assert f"{n_starts} starts, {n_starts} integrations" in str(info.value)


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
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    pd.rho(np.array([0.45, -0.3]))
    pd._cache = [(q, w, bend(J)) for q, w, J in pd._cache]
    calls = _count_fd_jacobians(monkeypatch)
    q = np.array([0.451, -0.302])
    r = pd.rho(q)
    assert r.value == pytest.approx(hyperbolic_distance(complex(*q)), abs=1e-9)
    return calls


def test_singular_cached_jacobian_is_refreshed(monkeypatch):
    assert len(_warm_query(monkeypatch, np.zeros_like)) == 1


def test_cached_jacobian_whose_steps_never_improve_is_refreshed(monkeypatch):
    # the reversed Jacobian steps away from the target at every trial length
    assert len(_warm_query(monkeypatch, np.negative)) == 1


def test_singular_refreshed_jacobian_gives_up_the_start(monkeypatch):
    calls = _count_fd_jacobians(monkeypatch, lambda real, self, w, F0: np.zeros((2, 2)))
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    with pytest.raises(ShootingError) as info:
        pd.rho(np.array([0.45, -0.3]))
    # each start: one integration, one refresh, then no step to take
    assert info.value.starts == len(calls) == 6
    assert info.value.integrations == 6


def test_refreshed_jacobian_whose_steps_never_improve_gives_up(monkeypatch):
    calls = _count_fd_jacobians(monkeypatch, lambda real, self, w, F0: -real(self, w, F0))
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    with pytest.raises(ShootingError) as info:
        pd.rho(np.array([0.45, -0.3]))
    # each start: one integration, two probes, three trial steps, no improvement
    assert info.value.starts == len(calls) == 6
    assert info.value.integrations == 6 * (1 + 2 + 3)


def test_failed_trial_step_is_halved(monkeypatch):
    endpoint = PoleDistance._endpoint
    shots = []

    def first_trial_fails(self, w):
        shots.append(w.copy())
        if len(shots) == 4:   # the shot, two Jacobian probes, then the first trial
            raise DomainError("injected")
        return endpoint(self, w)

    monkeypatch.setattr(PoleDistance, "_endpoint", first_trial_fails)
    q = np.array([0.45, -0.3])
    r = PoleDistance(HYPERBOLIC, np.zeros(2)).rho(q)
    assert np.allclose(shots[4] - shots[0], 0.5 * (shots[3] - shots[0]), atol=1e-15)
    assert r.value == pytest.approx(hyperbolic_distance(complex(*q)), abs=1e-9)


def test_gauss_newton_returns_its_last_iterate_after_max_iter():
    pd = PoleDistance(HYPERBOLIC, np.zeros(2))
    q = np.array([0.45, -0.3])
    w, y, _, res = pd._gauss_newton(q, q, None, 1e-12, max_iter=2)
    assert res > 1e-6   # two Broyden steps do not converge
    assert np.array_equal(y, pd._endpoint(w))
    assert res == float(np.linalg.norm(y[:2] - q))


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
