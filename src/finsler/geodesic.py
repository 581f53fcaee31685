"""Geodesic flow, exponential map, shooting distance, Jacobi fields, index form,
distance Hessians.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0 in an affine parameter; the energy
G(x, xdot) is a first integral and its drift along the integrated path is the
reported accuracy proxy. Covariant derivatives along a curve use the
connection coefficients evaluated at the reference vector T, the curve's own
velocity, which along geodesics makes the Cartan and Chern-type derivatives
coincide.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .cartan import cartan, spray_coefficients
from .errors import SAMPLE_ERRORS, ConfigurationError, ConjugatePointError, ShootingError
from .geometry import MetricDef, unit_directions
from .jets import JetSpace


def _rhs(m):
    d = m.dim

    def fn(t, y):
        x = y[:d]
        u = y[d:]
        return np.concatenate([u, -2.0 * spray_coefficients(m, x, u)])

    return fn


def _domain_events(m, x0):
    if m.domain.kind == "all" or not math.isfinite(m.domain.margin(x0)):
        return None

    def ev(t, y):
        return m.domain.margin(y[:len(y) // 2]) - 1e-9

    ev.terminal = True
    ev.direction = -1
    return [ev]


def _integrate_affine(m, x0, u0, t_end, *, rtol=1e-11, atol=1e-13, dense=True):
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    events = _domain_events(m, x0)
    sol = solve_ivp(_rhs(m), (0.0, t_end), np.concatenate([x0, u0]),
                    method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense, events=events)
    if not sol.success and sol.status != 1:
        raise ShootingError(f"geodesic integration failed: {sol.message}")
    return sol


@dataclass
class GeodesicPath:
    """Discretized geodesic with dense interpolation in an affine parameter.

    The dense state of ``sol`` starts with (x, u); a path integrated together
    with its Jacobi fields carries them in the components after these."""

    metric: MetricDef
    x0: np.ndarray
    u0: np.ndarray
    speed: float                     # sqrt(G(x0, u0)); arc length = speed * t
    t_end: float
    sol: object
    arc_length: float
    energy_drift: float
    n_steps: int
    nfev: int
    normal: bool
    truncated: bool

    def state_at(self, s):
        """(x, u) at arc-length parameter ``s`` (signed, within the path)."""
        d = self.metric.dim
        t = s / self.speed if self.speed > 0 else 0.0
        t = min(max(t, min(0.0, self.t_end)), max(0.0, self.t_end))
        y = self.sol.sol(t)
        return y[:d], y[d:2 * d]

    def endpoint(self):
        return self.state_at(self.arc_length if self.t_end >= 0 else -self.arc_length)

    def to_csv(self, fp, n=65):
        """Write t, x, u, G rows over an even arc grid."""
        w = csv.writer(fp)
        d = self.metric.dim
        w.writerow(["t"] + [f"x{i}" for i in range(d)] + [f"u{i}" for i in range(d)] + ["G"])
        lo = 0.0 if self.t_end >= 0 else -self.arc_length
        hi = self.arc_length if self.t_end >= 0 else 0.0
        for s in np.linspace(lo, hi, n):
            x, u = self.state_at(s)
            w.writerow([repr(float(s))] + [repr(float(c)) for c in x]
                       + [repr(float(c)) for c in u]
                       + [repr(self.metric.value(x, u))])


def _path(m: MetricDef, x0, u0, G0, sol) -> GeodesicPath:
    """The path of a solution starting at (x0, u0) with energy G0."""
    d = m.dim
    drift = max(abs(m.value(y[:d], y[d:2 * d]) - G0) for y in sol.y.T)
    speed = math.sqrt(G0)
    t_reached = sol.t[-1]
    return GeodesicPath(
        metric=m, x0=x0, u0=u0, speed=speed, t_end=t_reached, sol=sol,
        arc_length=abs(t_reached) * speed, energy_drift=drift,
        n_steps=len(sol.t) - 1, nfev=sol.nfev,
        normal=abs(G0 - 1.0) < 1e-9, truncated=sol.status == 1)


def integrate_geodesic(m: MetricDef, x0, u0, length) -> GeodesicPath:
    """Geodesic of arc length ``length`` (may be negative to extend backwards)."""
    if length == 0:
        raise ConfigurationError("geodesic length must be nonzero")
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    G0 = m.value(x0, u0)
    if G0 <= 0:
        raise ConfigurationError("initial velocity must be nonzero")
    return _path(m, x0, u0, G0, _integrate_affine(m, x0, u0, length / math.sqrt(G0)))


def exp_map(m: MetricDef, p, v):
    """Endpoint of the geodesic with initial velocity v after unit affine time."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if float(np.linalg.norm(v)) == 0.0:
        return p.copy()
    sol = _integrate_affine(m, p, v, 1.0, dense=False)
    return sol.y[:m.dim, -1]


# -- boundary-value geodesics (shooting) -----------------------------------------


@dataclass
class RhoResult:
    """Distance from the pole plus the arriving unit tangent."""

    value: float
    T: np.ndarray
    w: np.ndarray                 # initial velocity reaching the target at t=1
    residual: float
    n_integrations: int


# tolerances of the shooting integrations, tighter than a plain path
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14


class PoleDistance:
    """Shooting-based distance field from a fixed pole, with warm starts.

    Gauss-Newton on the endpoint mismatch with Broyden rank-one updates and a
    cache of the last ``CACHE_SIZE`` converged (target, velocity, jacobian)
    triples, so queries near an earlier one cost only a couple of extra
    integrations. Falls back to a deterministic direction grid when the local
    solve stalls.
    """

    CACHE_SIZE = 48

    def __init__(self, m: MetricDef, pole):
        self.m = m
        self.pole = np.asarray(pole, dtype=float)
        self._cache = []
        self.total_integrations = 0

    def _endpoint(self, w):
        """End state (x, u) at t = 1 of the geodesic leaving the pole with velocity w."""
        self.total_integrations += 1
        sol = _integrate_affine(self.m, self.pole, w, 1.0,
                                rtol=SHOOT_RTOL, atol=SHOOT_ATOL, dense=False)
        return sol.y[:, -1]

    def _fd_jacobian(self, w, F0):
        d = self.m.dim
        J = np.empty((d, d))
        h = 1e-6 * (1.0 + float(np.linalg.norm(w)))
        for j in range(d):
            wp = w.copy()
            wp[j] += h
            J[:, j] = (self._endpoint(wp)[:d] - F0) / h
        return J

    def _nearest(self, q):
        best, bd = None, math.inf
        for entry in self._cache:
            dist = float(np.linalg.norm(entry[0] - q))
            if dist < bd:
                best, bd = entry, dist
        return best

    def _remember(self, q, w, J):
        self._cache.append((q.copy(), w.copy(), J.copy()))
        if len(self._cache) > self.CACHE_SIZE:
            self._cache.pop(0)

    def rho(self, q) -> RhoResult:
        q = np.asarray(q, dtype=float)
        if float(np.linalg.norm(q - self.pole)) < 1e-14:
            return RhoResult(0.0, np.zeros_like(q), np.zeros_like(q), 0.0, 0)
        scale = 1.0 + float(np.linalg.norm(q - self.pole))
        # iterate toward the tight target; accept the documented tolerance
        tol = 3e-12 * scale
        tol_accept = 1e-9 * scale
        start = self.total_integrations

        near = self._nearest(q)
        if near is not None:
            w0 = near[1] + (q - near[0])
            J = near[2]
        else:
            w0, J = q - self.pole, None

        best_res = math.inf
        starts = 0
        for winit in self._starts(q, w0):
            starts += 1
            w, y, J_fin, resid = self._gauss_newton(winit, q, J, tol)
            J = None
            if resid is not None:
                best_res = min(best_res, resid)
            if resid is not None and resid < tol_accept:
                u_end = y[self.m.dim:]
                rho = math.sqrt(self.m.value(self.pole, w))
                self._remember(q, w, J_fin)
                return RhoResult(rho, u_end / rho, w, resid,
                                 self.total_integrations - start)
        spent = self.total_integrations - start
        raise ShootingError(
            f"shooting to {q} did not converge: {starts} starts, {spent} "
            f"integrations, best residual {best_res:.3g}",
            best_residual=best_res, starts=starts, integrations=spent)

    def _gauss_newton(self, w, q, J, tol, max_iter=40):
        """Solve endpoint(w) = q from ``w``; returns ``(w, y, J, residual)``.

        ``y`` is the end state (x, u) of the integration of the returned ``w``,
        so its arriving tangent needs no second integration. The residual is
        ``None`` when the first integration fails.
        """
        d = self.m.dim
        w = np.asarray(w, dtype=float).copy()
        try:
            y = self._endpoint(w)
        except SAMPLE_ERRORS:
            return w, None, None, None
        F = y[:d] - q
        refreshed = J is None
        if J is None:
            if float(np.linalg.norm(F)) < tol:
                J = np.eye(d)
                return w, y, J, float(np.linalg.norm(F))
            J = self._fd_jacobian(w, F + q)
        for _ in range(max_iter):
            res = float(np.linalg.norm(F))
            if res < tol:
                return w, y, J, res
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                if refreshed:
                    return w, y, J, res
                J = self._fd_jacobian(w, F + q)
                refreshed = True
                continue
            lam = 1.0
            improved = False
            while lam >= 0.25:
                w_new = w - lam * step
                try:
                    y_new = self._endpoint(w_new)
                except SAMPLE_ERRORS:
                    lam *= 0.5
                    continue
                F_new = y_new[:d] - q
                if float(np.linalg.norm(F_new)) < res:
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                if refreshed:
                    return w, y, J, res
                J = self._fd_jacobian(w, F + q)
                refreshed = True
                continue
            dw = w_new - w
            dF = F_new - F
            denom = float(dw @ dw)
            if denom > 0:
                J = J + np.outer(dF - J @ dw, dw) / denom
            w, y, F = w_new, y_new, F_new
        return w, y, J, float(np.linalg.norm(F))

    def _starts(self, q, w0):
        yield w0
        base = q - self.pole
        if float(np.linalg.norm(w0 - base)) > 1e-12:
            yield base
        r = float(np.linalg.norm(base))
        for dvec in unit_directions(2 * self.m.dim + 1, self.m.dim, seed=5):
            yield r * dvec


def distance(m: MetricDef, p, q) -> float:
    """Arc length of the connecting geodesic found by shooting from p."""
    return PoleDistance(m, p).rho(q).value


# -- fields along geodesics --------------------------------------------------------


@dataclass
class JacobiField:
    """Dense Jacobi field J = Y_J c with covariant derivative W = Y_W c along a
    normal geodesic, whose dense state (x, u, Y_J, Y_W) ``path`` holds."""

    path: GeodesicPath
    r: float
    c: np.ndarray

    def at(self, s):
        d = self.path.metric.dim
        Y = self.path.sol.sol(min(max(s, 0.0), self.r))[2 * d:].reshape(2 * d, -1)
        return Y[:d] @ self.c, Y[d:] @ self.c

    def value(self, s):
        return self.at(s)[0]

    def cov_deriv(self, s):
        return self.at(s)[1]


# cond M(r) beyond which the endpoint counts as conjugate to the start: the Jacobi
# integration's rtol 1e-10 times cond M(r) would exceed AGREEMENT_TOL
CONJUGATE_COND = 1e6


@dataclass
class BoundaryJacobiSystem:
    """Fundamental system Y = (M, W) of the Jacobi fields J = M c with J(0) = 0,
    D_T J(0) = c along a normal path, with M = M(r), W = W(r) and the unit
    tangent T and fundamental tensor g = g_T at the endpoint. The field
    reaching u at r has c = M(r)^-1 u. ``zero_crossings`` counts sign changes
    of det M along the path (conjugate-point monitor)."""

    path: GeodesicPath
    r: float
    M: np.ndarray
    W: np.ndarray
    T: np.ndarray
    g: np.ndarray
    zero_crossings: int

    def _perp(self) -> np.ndarray:
        """P u = u - g_T(u, T) / g_T(T, T) T, the part of u across T."""
        gT = self.g @ self.T
        return np.eye(self.T.size) - np.outer(self.T, gT) / float(self.T @ gT)

    def _initial_derivatives(self, U):
        """M(r)^-1 U; raises ``ConjugatePointError`` when M(r) is singular."""
        cond = float(np.linalg.cond(self.M))
        if not cond < CONJUGATE_COND:
            raise ConjugatePointError(f"cond M(r) = {cond:.3g} at r = {self.r:.6g}: "
                                      "the endpoint is conjugate to the start", cond=cond)
        return np.linalg.solve(self.M, U)

    def field(self, u_target) -> JacobiField:
        """The Jacobi field with J(0) = 0 and J(r) the part of u_target across T."""
        c = self._initial_derivatives(self._perp() @ np.asarray(u_target, dtype=float))
        return JacobiField(path=self.path, r=self.r, c=c)

    def boundary_form(self) -> np.ndarray:
        """P^T g_T W M^-1 P: the index form's boundary term g_T(D_T J_u, J_u) at r
        of the field J_u reaching u."""
        P = self._perp()
        return P.T @ self.g @ self.W @ self._initial_derivatives(P)


def _integrate_jacobi(m: MetricDef, x0, u0, r, Y0) -> GeodesicPath:
    """The unit-speed geodesic from (x0, u0) and the Jacobi fields along it
    with initial data the columns of Y0 = (J(0), D_T J(0)), a (2d, k) array,
    integrated together to arc length r as one dense state (x, u, Y): the
    variational equations in the trajectory's own state (Hairer, Norsett &
    Wanner, Solving ODEs I, sec. I.14). Each right-hand side evaluates the
    Cartan data once; its spray moves (x, u) and its ``gamma_h`` and
    ``riemann`` move Y."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    G0 = m.value(x0, u0)
    if not abs(G0 - 1.0) < 1e-9:
        raise ConfigurationError("Jacobi fields are integrated along normal paths")
    d = m.dim

    def rhs(t, y):
        data = cartan(m, y[:d], y[d:2 * d])
        Y = y[2 * d:].reshape(2, d, -1)
        GY = np.einsum("ijk,ajc,k->aic", data.gamma_h, Y, data.u)
        return np.concatenate([data.u, -2.0 * data.spray, (Y[1] - GY[0]).ravel(),
                               (-data.riemann @ Y[0] - GY[1]).ravel()])

    sol = solve_ivp(rhs, (0.0, r), np.concatenate([x0, u0, np.ravel(Y0)]),
                    method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise ShootingError(f"Jacobi integration failed: {sol.message}")
    return _path(m, x0, u0, G0, sol)


def jacobi_field(m: MetricDef, x0, u0, r, J0, dJ0) -> JacobiField:
    """The Jacobi field with J(0) = J0, D_T J(0) = dJ0 along the unit-speed
    geodesic from (x0, u0), to arc length r."""
    path = _integrate_jacobi(m, x0, u0, r, np.concatenate([J0, dJ0]))
    return JacobiField(path=path, r=r, c=np.ones(1))


def jacobi_boundary_field(m: MetricDef, x0, u0, r) -> BoundaryJacobiSystem:
    """Fundamental system of the Jacobi fields vanishing at x0 along the
    unit-speed geodesic from (x0, u0), integrated with it to arc length r; its
    ``field(u)`` is the Jacobi field with J(0) = 0 and J(r) the part of u
    across T."""
    d = m.dim
    path = _integrate_jacobi(m, x0, u0, r, np.concatenate([np.zeros((d, d)), np.eye(d)]))
    dets = [np.linalg.det(path.sol.sol(t)[2 * d:].reshape(2 * d, d)[:d])
            for t in np.linspace(r * 1e-3, r, 33)]
    zero_crossings = sum(1 for a, b in zip(dets, dets[1:]) if a * b < 0)
    y_r = path.sol.y[:, -1]
    x_r, u_r = y_r[:d], y_r[d:2 * d]
    Y_r = y_r[2 * d:].reshape(2 * d, d)
    return BoundaryJacobiSystem(path=path, r=r, M=Y_r[:d], W=Y_r[d:], T=u_r,
                                g=m.fundamental_real(x_r, u_r),
                                zero_crossings=zero_crossings)


@dataclass
class IndexFormResult:
    value: float
    quadrature_error: float


def index_form(path: GeodesicPath, xi, eta, xi_cov, eta_cov) -> IndexFormResult:
    """Morse index form I(xi, eta) along a normal geodesic.

    Fields are callables of the arc parameter; their component along T is
    projected out pointwise, and ``xi_cov``, ``eta_cov`` are the covariant
    derivatives of the projected fields, callables of the same parameter.
    The Cartan data are evaluated once per quadrature node. Quadrature is
    composite Gauss-Legendre over 12 panels with the error estimated from
    one coarsening step.
    """
    if not path.normal:
        raise ConfigurationError("the index form is defined along normal paths")
    r = path.arc_length

    def integrand(s):
        data = cartan(path.metric, *path.state_at(s))
        T = data.u

        def perp(f):
            val = np.asarray(f(s), dtype=float)
            return val - (float(val @ data.g @ T) / float(T @ data.g @ T)) * T

        xv, ev_ = perp(xi), perp(eta)
        dx = np.asarray(xi_cov(s), dtype=float)
        de = np.asarray(eta_cov(s), dtype=float)
        return float(dx @ data.g @ de) - float((data.riemann @ xv) @ data.g @ ev_)

    nodes, weights = np.polynomial.legendre.leggauss(4)

    def quad(n_panels):
        total = 0.0
        edges = np.linspace(0.0, r, n_panels + 1)
        for a, b in zip(edges, edges[1:]):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            for t, w in zip(nodes, weights):
                total += w * half * integrand(mid + half * t)
        return total

    fine = quad(12)
    coarse = quad(6)
    return IndexFormResult(value=fine, quadrature_error=abs(fine - coarse))


# -- Legendre transform and gradients -----------------------------------------------


def legendre_gradient(m: MetricDef, df, x):
    """Solve g_ij(x, Y) Y^j = df_i for Y (the metric gradient of f at x).

    ``df`` is the differential as a covector array, or a callable point
    function differentiated exactly through jets. Damped Newton from a few
    seeds, at most 60 steps each, to a residual below 1e-10 |df|.
    """
    x = np.asarray(x, dtype=float)
    d = m.dim
    if callable(df):
        df = df(JetSpace.get(d, 1, False).variables(x)).gradient()
    df = np.asarray(df, dtype=float)
    if float(np.linalg.norm(df)) == 0.0:
        raise ConfigurationError("gradient undefined where df = 0")
    scale = float(np.linalg.norm(df))

    best_res = math.inf
    seeds = [df, np.ones(d)]
    seeds.extend(unit_directions(3, d, seed=2) * scale)
    for Y in seeds:
        Y = np.asarray(Y, dtype=float).copy()
        if float(np.linalg.norm(Y)) < 1e-12:
            continue
        for _ in range(60):
            jet = m.real_jet(x, Y, 2)
            F = 0.5 * jet.gradient()[d:] - df
            res = float(np.linalg.norm(F))
            best_res = min(best_res, res)
            if res < 1e-10 * scale:
                return Y
            g = 0.5 * jet.hessian()[d:, d:]
            try:
                step = np.linalg.solve(g, F)
            except np.linalg.LinAlgError:
                break
            # damped Newton keeps iterates on the slit bundle
            lam = 1.0
            while lam > 1e-4 and float(np.linalg.norm(Y - lam * step)) < 1e-10 * scale:
                lam *= 0.5
            Y = Y - lam * step
    raise ShootingError("Legendre gradient Newton iteration did not converge",
                        best_residual=best_res)


# -- distance Hessian ---------------------------------------------------------------

# relative discrepancy at which the two routes of ``hessian_rho`` count as agreeing
AGREEMENT_TOL = 1e-4


@dataclass
class DistanceHessian:
    """Covariant Hessian of rho at x (reference vector T), as a matrix."""

    matrix: np.ndarray
    rho: float
    system: BoundaryJacobiSystem   # along the radial geodesic; ``T``, ``g`` at x


def distance_hessian(pd: PoleDistance, x) -> DistanceHessian:
    """Hessian of the distance from ``pd.pole`` at x, in every direction at once.

    One shot gives rho and the initial velocity of the radial geodesic; one
    integration from the pole then carries that geodesic together with the
    Jacobi fields vanishing at the pole to x. H(rho)(u, u) is the boundary
    term g_T(D_T J_u, J_u) at x of the index form of the field J_u reaching u
    (Bao-Chern-Shen, GTM 200, ch. 5 and 7): H = P^T g_T W M^-1 P.
    """
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x - pd.pole)) < 1e-6:
        raise ConfigurationError("distance Hessian undefined at the pole")
    base = pd.rho(x)
    system = jacobi_boundary_field(pd.m, pd.pole, base.w / base.value, base.value)
    return DistanceHessian(matrix=system.boundary_form(), rho=base.value, system=system)


@dataclass
class HessianRhoResult:
    """Distance Hessian H(rho)(u,u) computed along two independent routes."""

    value: float                 # u.H.u with H from the Jacobi fundamental system
    value_index_form: float      # I(J, J) by quadrature along the boundary Jacobi field
    discrepancy: float
    rho: float
    agreed: bool
    zero_crossings: int


def hessian_rho(m: MetricDef, pole, x, u, *, pd: PoleDistance | None = None,
                both_routes=True) -> HessianRhoResult:
    """H(rho)(u,u) at x for the g_T-unit rescaling of u, rho the distance from the pole.

    Route one reads u.H.u off ``distance_hessian``, the boundary term of the
    index form. Route two integrates the index form by quadrature along the
    Jacobi field of the same fundamental system that reaches u at x.
    Disagreement beyond ``AGREEMENT_TOL`` is reported, not hidden.
    ``both_routes=False`` skips the quadrature for bulk scans.
    """
    u = np.asarray(u, dtype=float)
    dh = distance_hessian(pd or PoleDistance(m, pole), x)
    system = dh.system
    u = u / math.sqrt(float(u @ system.g @ u))
    value_a = float(u @ dh.matrix @ u)

    value_b = math.nan
    if both_routes:
        bvp = system.field(u)
        value_b = index_form(system.path, bvp.value, bvp.value,
                             xi_cov=bvp.cov_deriv, eta_cov=bvp.cov_deriv).value
    disc = abs(value_a - value_b)
    # a skipped route leaves disc = nan, which counts as agreeing
    return HessianRhoResult(value=value_a, value_index_form=value_b,
                            discrepancy=disc, rho=dh.rho,
                            agreed=not disc > AGREEMENT_TOL * max(1.0, abs(value_a)),
                            zero_crossings=system.zero_crossings)
