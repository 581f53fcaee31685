"""Geodesic flow, shooting distance, Jacobi fields, index form, distance Hessians.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0 in an affine parameter; the energy
G(x, xdot) is a first integral. Its drift along an integrated path, which a
path computes on request (``GeodesicPath.energy_drift``), is the accuracy
proxy that ``finsler geodesic`` reports. A shooting query first shoots from
the chord start: the velocity along the straight chord from the pole to the
target whose length is the chord's Finsler length, which lands at once where
the chord is a geodesic. A warm query also tries the nearest cached velocity,
moved by the change of target, and shoots first whichever the cached
Jacobian predicts lands closer. Shooting is inexact Newton: trial
shots from an iterate far from the target integrate at loose tolerances,
and every returned iterate, so every distance, comes from a tight
integration. Each shot of a solver starts at the step size its previous
shot at the same tolerances settled on, as a fan's segments do, in place of
scipy's initial-step probe, and so does the Jacobi system of a distance
Hessian, at its shot's settled step scaled to arc length.
Covariant derivatives along a geodesic use the connection at the reference
vector T, the geodesic's own velocity, which makes the Cartan and
Chern-type derivatives coincide: D_T V = dV/ds + N V with N = dG/du, the
nonlinear connection ``cartan`` returns. Jacobi fields are geodesic
variations: they solve the linearized geodesic equation
dx'' = -2 (dG/dx dx + dG/du dx') in coordinates, which needs an order-3 jet
and no curvature, and D_T J = dx' + N dx.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .cartan import cartan, spray_coefficients, spray_jacobian
from .errors import (SAMPLE_ERRORS, ConfigurationError, ConjugatePointError, ShootingError,
                     StructuralError)
from .geometry import MetricDef, unit_directions


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use: most commands never integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


_EXIT_MARGIN = 1e-9   # domain margin at which an integrated geodesic stops


def _domain_events(m, x0):
    """Terminal events at domain margin ``_EXIT_MARGIN``, one for the (x, u)
    block of each row of x0 in a stacked state (one for a single point);
    None on an unbounded domain."""
    x0 = np.atleast_2d(x0)
    if m.domain.kind == "all" or not math.isfinite(m.domain.margin(x0[0])):
        return None
    d = m.dim

    def exit_of(j):
        def ev(t, y):
            return m.domain.margin(y[2 * d * j:2 * d * j + d]) - _EXIT_MARGIN

        ev.terminal = True
        ev.direction = -1
        return ev

    return [exit_of(j) for j in range(len(x0))]


def _integrate_affine(m, x0, u0, t_end, *, rtol=1e-11, atol=1e-13, dense=True, t0=0.0,
                      first_step=None):
    """DOP853 solution of the geodesic flow from (x0, u0) at affine time t0
    to t_end, stopped where the domain margin falls to ``_EXIT_MARGIN``.

    Rows x0, u0 of shape (k, d) integrate k geodesics as one stacked state,
    (x, u) block j for row j, with one batched spray per right-hand side and
    one exit event per block. The tolerances are then divided by sqrt(k),
    which bounds the stacked RMS error norm by each member's. A
    ``first_step`` is capped at the time to integrate.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    d = m.dim
    if x0.ndim == 1:
        k = 1

        def rhs(t, y):
            return np.concatenate([y[d:], -2.0 * spray_coefficients(m, y[:d], y[d:])])
    else:
        k = len(x0)

        def rhs(t, y):
            Y = y.reshape(k, 2 * d)
            S = spray_coefficients(m, Y[:, :d], Y[:, d:])
            return np.concatenate([Y[:, d:], -2.0 * S], axis=1).ravel()

    sol = solve_ivp(rhs, (t0, t_end), np.concatenate([x0, u0], axis=-1).ravel(),
                    method="DOP853", rtol=rtol / math.sqrt(k), atol=atol / math.sqrt(k),
                    dense_output=dense, events=_domain_events(m, x0),
                    first_step=None if first_step is None else min(first_step, abs(t_end - t0)))
    if not sol.success and sol.status != 1:
        raise ShootingError(f"geodesic integration failed: {sol.message}")
    return sol


def _settled_step(sol):
    """The step size an integration's error controller settled on, to start
    the next integration of a like geodesic with: the larger of its last two
    steps, since the last one is cut short to reach the end time."""
    return float(np.diff(sol.t)[-2:].max())


@dataclass
class GeodesicPath:
    """Discretized geodesic with dense interpolation in an affine parameter.

    The dense state of ``sol`` starts with (x, u); a path integrated together
    with its Jacobi fields carries them in the components after these."""

    metric: MetricDef
    energy: float                    # G(x0, u0), a first integral of the flow
    t_end: float
    sol: object
    arc_length: float
    n_steps: int
    nfev: int
    normal: bool
    truncated: bool

    @property
    def speed(self) -> float:
        """sqrt(G(x0, u0)); arc length = speed * t."""
        return math.sqrt(self.energy)

    def energy_drift(self) -> float:
        """max |G(x, u) - G(x0, u0)| over the integrator's steps, one metric
        value per step."""
        d, m = self.metric.dim, self.metric
        return max(abs(m.value(y[:d], y[d:2 * d]) - self.energy) for y in self.sol.y.T)

    def _dense_state(self, t):
        """The whole dense state at affine time ``t``, clamped to the path."""
        if self.sol.sol is None:
            raise StructuralError("the path was integrated without dense output, "
                                  "so only its endpoint state sol.y[:, -1] is known")
        return self.sol.sol(min(max(t, 0.0), self.t_end))

    def state_at(self, s):
        """(x, u) at arc-length parameter ``s``, clamped to the path."""
        d = self.metric.dim
        y = self._dense_state(s / self.speed)
        return y[:d], y[d:2 * d]

    def endpoint(self):
        return self.state_at(self.arc_length)

    def to_csv(self, fp, n=65):
        """Write t, x, u, G rows over an even arc grid."""
        w = csv.writer(fp)
        d = self.metric.dim
        w.writerow(["t"] + [f"x{i}" for i in range(d)] + [f"u{i}" for i in range(d)] + ["G"])
        for s in np.linspace(0.0, self.arc_length, n):
            x, u = self.state_at(s)
            w.writerow([repr(float(c)) for c in (s, *x, *u)] + [repr(self.metric.value(x, u))])


def _path(m: MetricDef, G0, sol) -> GeodesicPath:
    """The path of a solution with energy G0."""
    t_reached = sol.t[-1]
    return GeodesicPath(
        metric=m, energy=G0, t_end=t_reached, sol=sol, arc_length=t_reached * math.sqrt(G0),
        n_steps=len(sol.t) - 1, nfev=sol.nfev,
        normal=abs(G0 - 1.0) < 1e-9, truncated=sol.status == 1)


def integrate_geodesic(m: MetricDef, x0, u0, length) -> GeodesicPath:
    """Geodesic from (x0, u0) forward to arc length ``length`` > 0."""
    if not length > 0:
        raise ConfigurationError(f"geodesic length must be positive, got {length!r}")
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    G0 = m.value(x0, u0)
    if G0 <= 0:
        raise ConfigurationError("initial velocity must be nonzero")
    return _path(m, G0, _integrate_affine(m, x0, u0, length / math.sqrt(G0)))


@dataclass
class GeodesicFan:
    """Geodesics from one point, integrated as one stacked state.

    Member b reaches affine time ``t_ends[b]`` at speed ``speeds[b]``: its
    full length, or where it left the domain. ``segments`` holds, in time
    order, each stacked solution with the members it carries; a member that
    leaves the domain ends its segment, and the others go on from there."""

    metric: MetricDef
    speeds: np.ndarray
    t_ends: np.ndarray
    segments: list

    @property
    def arc_lengths(self) -> np.ndarray:
        return self.t_ends * self.speeds

    def state_at(self, b, s):
        """(x, u) of member ``b`` at arc-length parameter ``s``, clamped to its path."""
        d = self.metric.dim
        t = min(max(s / self.speeds[b], 0.0), self.t_ends[b])
        sol, members = next((sol, members) for sol, members in self.segments
                            if b in members and t <= sol.t[-1])
        j = members.index(b)
        y = sol.sol(t)[2 * d * j:2 * d * (j + 1)]
        return y[:d], y[d:]


def integrate_fan(m: MetricDef, x0, U0, length) -> GeodesicFan:
    """Geodesics from x0 with the initial velocities of the rows of U0, each
    forward to arc length ``length`` > 0, as one stacked state whose
    right-hand side is one batched spray (``_integrate_affine``).

    A member ends at its own exit event, at its exit margin, or where it has
    reached its own length; when one leaves the domain, the others restart
    from the event state with the last step size, since scipy's first-step
    probe would overshoot the domain from so close to its edge.
    """
    if not length > 0:
        raise ConfigurationError(f"geodesic length must be positive, got {length!r}")
    x0 = np.asarray(x0, dtype=float)
    U0 = np.asarray(U0, dtype=float)
    d = m.dim
    G0 = np.array([m.value(x0, u) for u in U0])
    if not np.all(G0 > 0):
        raise ConfigurationError("initial velocities must be nonzero")
    speeds = np.sqrt(G0)
    t_ends = length / speeds
    members = list(range(len(U0)))
    x, u = np.broadcast_to(x0, U0.shape), U0
    t0, first_step, segments = 0.0, None, []
    while members:
        t_end = float(t_ends[members].max())
        sol = _integrate_affine(m, x, u, t_end, t0=t0, first_step=first_step)
        segments.append((sol, members))
        if sol.status != 1:
            break
        t0, y = sol.t[-1], sol.y[:, -1].reshape(len(members), 2 * d)
        stay = [j for j, b in enumerate(members)
                if not len(sol.t_events[j]) and t_ends[b] > t0
                and m.domain.margin(y[j, :d]) > _EXIT_MARGIN]
        ended = [b for j, b in enumerate(members) if j not in stay]
        t_ends[ended] = np.minimum(t_ends[ended], t0)
        x, u = y[stay, :d], y[stay, d:]
        members = [members[j] for j in stay]
        first_step = _settled_step(sol)
    return GeodesicFan(metric=m, speeds=speeds, t_ends=t_ends, segments=segments)


# -- boundary-value geodesics (shooting) -----------------------------------------


@dataclass
class RhoResult:
    """Distance from the pole plus the arriving unit tangent."""

    value: float
    T: np.ndarray
    w: np.ndarray                 # initial velocity reaching the target at t=1
    residual: float
    n_integrations: int
    iterations: int               # Gauss-Newton steps taken over all starts


# tolerances of the shooting integrations, tighter than a plain path
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14
# a Gauss-Newton trial from an iterate whose residual exceeds LOOSE_ABOVE
# integrates at the loose tolerances (inexact Newton)
LOOSE_ABOVE = 1e-5
LOOSE_RTOL = 1e-8
LOOSE_ATOL = 1e-10
# the parameters t of the chord p + t (q - p) at which its length is read: 0
# for the pole, then the nodes of the 32-point Gauss-Legendre rule on [0, 1],
# whose weights are _CHORD_WEIGHTS
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CHORD_T = np.concatenate([[0.0], 0.5 * (_GAUSS_NODES + 1.0)])
_CHORD_WEIGHTS = 0.5 * _GAUSS_WEIGHTS


class PoleDistance:
    """Shooting-based distance field from a fixed pole, with warm starts.

    Gauss-Newton on the endpoint mismatch with Broyden rank-one updates and a
    cache of every converged (target, velocity, Jacobian) triple, O(d^2)
    floats each for a solver that lives for one command, so queries near an
    earlier one cost only a couple of extra integrations, and a repeated one
    a single integration.

    Starts, in order (``_starts``; ``total_starts`` counts those tried):
    the chord start (q - p) L / F(p, q - p), L the Finsler length of the
    straight chord from the pole p to q by a 32-point Gauss-Legendre rule;
    L >= rho, with equality where the chord is a geodesic (radii of the disk
    and the ball from the origin, every chord of a Minkowski norm), where
    the first shot lands. A warm query adds the nearest entry's velocity
    moved by q - near_q, and shoots the first of the two with the entry's
    Jacobian; where the entry has one, the two go in the order of the
    residuals it predicts. Then q - p, then a deterministic direction grid
    when the local solve stalls. A first shot that lands caches no
    Jacobian: the identity it once cached is exact only for flat metrics.

    Inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
    1982): a trial step from an iterate whose residual exceeds
    ``LOOSE_ABOVE`` integrates at ``LOOSE_RTOL``/``LOOSE_ATOL``; the first
    shot of every start, the finite-difference probes and every other trial
    integrate at ``SHOOT_RTOL``/``SHOOT_ATOL``. A returned iterate, and so
    every ``RhoResult``, comes from a tight integration of its ``w``: a loose
    iterate is integrated again at the tight tolerances before it may
    converge or end the solve.
    ``loose_integrations`` counts the loose share of ``total_integrations``,
    and ``rhs_evaluations`` sums their right-hand sides (scipy's ``nfev``);
    ``jacobi_integrations`` and ``jacobi_rhs_evaluations`` count the Jacobi
    systems of the distance Hessians shot with the solver.

    Step continuation (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4):
    all shots leave the same pole along nearby geodesics, so each starts at
    the step size the solver's previous shot at the same tolerances, tight or
    loose, settled on, in place of scipy's initial-step probe and its
    ramp-up. Every step, the first included, still passes DOP853's error test
    at the same tolerances.
    """

    def __init__(self, m: MetricDef, pole):
        self.m = m
        self.pole = np.asarray(pole, dtype=float)
        self._cache = []
        self._targets = np.empty((0, m.dim))   # the targets of ``_cache``, in its order
        self.total_starts = 0
        self.total_integrations = 0
        self.loose_integrations = 0
        self.total_iterations = 0
        self.rhs_evaluations = 0
        self.jacobi_integrations = 0      # counted by ``distance_hessian``
        self.jacobi_rhs_evaluations = 0
        self._steps = {False: None, True: None}   # settled step, by looseness

    def _endpoint(self, w, loose=False):
        """End state (x, u) at t = 1 of the geodesic leaving the pole with
        velocity w, integrated at the loose or the tight shooting tolerances."""
        self.total_integrations += 1
        self.loose_integrations += loose
        sol = _integrate_affine(self.m, self.pole, w, 1.0, dense=False,
                                rtol=LOOSE_RTOL if loose else SHOOT_RTOL,
                                atol=LOOSE_ATOL if loose else SHOOT_ATOL,
                                first_step=self._steps[loose])
        self.rhs_evaluations += sol.nfev
        self._steps[loose] = _settled_step(sol)
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
        if not self._cache:
            return None
        return self._cache[int(np.argmin(np.linalg.norm(self._targets - q, axis=1)))]

    def _remember(self, q, w, J):
        """Cache (q, w, J) as the newest entry, in place of an entry with the
        same target; J is None where no Jacobian was computed."""
        keep = ~(self._targets == q).all(axis=1)
        if not keep.all():
            self._cache = [entry for entry, k in zip(self._cache, keep) if k]
            self._targets = self._targets[keep]
        self._cache.append((q.copy(), w.copy(), None if J is None else J.copy()))
        self._targets = np.concatenate([self._targets, q[None]])

    def rho(self, q) -> RhoResult:
        q = np.asarray(q, dtype=float)
        if float(np.linalg.norm(q - self.pole)) < 1e-14:
            return RhoResult(0.0, np.zeros_like(q), np.zeros_like(q), 0.0, 0, 0)
        scale = 1.0 + float(np.linalg.norm(q - self.pole))
        # iterate toward the tight target; accept the documented tolerance
        tol = 3e-12 * scale
        tol_accept = 1e-9 * scale
        start, start_iterations = self.total_integrations, self.total_iterations

        near = self._nearest(q)
        J = None if near is None else near[2]
        best_res = math.inf
        starts = 0
        for winit in self._starts(q, near):
            starts += 1
            self.total_starts += 1
            w, y, J_fin, resid = self._gauss_newton(winit, q, J, tol)
            J = None
            if resid is not None:
                best_res = min(best_res, resid)
            if resid is not None and resid < tol_accept:
                u_end = y[self.m.dim:]
                rho = math.sqrt(self.m.value(self.pole, w))
                self._remember(q, w, J_fin)
                return RhoResult(rho, u_end / rho, w, resid,
                                 self.total_integrations - start,
                                 self.total_iterations - start_iterations)
        spent, steps = self.total_integrations - start, self.total_iterations - start_iterations
        raise ShootingError(
            f"shooting to {q} did not converge: {starts} starts, {spent} "
            f"integrations, {steps} Gauss-Newton steps, best residual {best_res:.3g}",
            best_residual=best_res, starts=starts, integrations=spent, iterations=steps)

    def _gauss_newton(self, w, q, J, tol, max_iter=40):
        """Solve endpoint(w) = q from ``w``; returns ``(w, y, J, residual)``.

        ``y`` is the end state (x, u) of the tight integration of the returned
        ``w``, so its arriving tangent needs no second integration, and the
        residual is read from it. The residual is ``None`` when the first
        integration fails.
        """
        d = self.m.dim
        w = np.asarray(w, dtype=float).copy()
        try:
            y = self._endpoint(w)
        except SAMPLE_ERRORS:
            return w, None, None, None
        F = y[:d] - q
        loose = False   # y, F come from a loose integration
        refreshed = J is None
        if J is None:
            if float(np.linalg.norm(F)) < tol:
                return w, y, None, float(np.linalg.norm(F))
            J = self._fd_jacobian(w, F + q)
        for _ in range(max_iter):
            res = float(np.linalg.norm(F))
            if res < tol:
                if not loose:
                    return w, y, J, res
                # below tol a loose residual is within its own integration error
                y, loose = self._endpoint(w), False
                F = y[:d] - q
                continue
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                step = None
            # trial steps of length 1, 1/2 and 1/4 until one improves
            trial_loose = res > LOOSE_ABOVE
            for lam in (1.0, 0.5, 0.25) if step is not None else ():
                w_new = w - lam * step
                try:
                    y_new = self._endpoint(w_new, trial_loose)
                except SAMPLE_ERRORS:
                    continue
                F_new = y_new[:d] - q
                if float(np.linalg.norm(F_new)) < res:
                    break
            else:
                if refreshed:
                    break
                J = self._fd_jacobian(w, F + q)
                refreshed = True
                continue
            dw = w_new - w
            dF = F_new - F
            denom = float(dw @ dw)
            if denom > 0:
                J = J + np.outer(dF - J @ dw, dw) / denom
            w, y, F, loose = w_new, y_new, F_new, trial_loose
            self.total_iterations += 1
        if loose:
            y = self._endpoint(w)
            F = y[:d] - q
        return w, y, J, float(np.linalg.norm(F))

    def _chord_start(self, q):
        """The chord start (q - p) L / F(p, q - p), whose length F(p, .) is
        L, the Finsler length of the chord from the pole p to q by
        Gauss-Legendre quadrature. L >= rho, with equality where the chord is
        a geodesic; there the geodesic leaving p with the chord start reaches
        q at t = 1. The pole and the nodes are the rows of one ``real_rows`` call.
        Where the chord cannot be evaluated, q - p."""
        v = q - self.pole
        X = self.pole + np.outer(_CHORD_T, v)
        try:
            F = np.sqrt(self.m.real_rows(X, np.broadcast_to(v, X.shape), 0)[:, 0])
        except SAMPLE_ERRORS:
            return v
        scale = float(_CHORD_WEIGHTS @ F[1:]) / F[0]
        return v * scale if math.isfinite(scale) and scale > 0 else v

    def _starts(self, q, near):
        """The initial velocities to shoot from, in order, each more than
        1e-12 from every earlier one: the chord start; with a nearest cached
        entry ``near`` = (near_q, near_w, J), near_w moved by q - near_q; then
        q - p and a direction grid. Where the entry has a Jacobian J, the
        first two go in the order of the residuals |near_q + J (w - near_w) - q|
        of its linear model, so a repeated target shoots its cached velocity
        first.
        """
        first = [self._chord_start(q)]
        if near is not None:
            near_q, near_w, J = near
            first.append(near_w + (q - near_q))
            if J is not None:
                first.sort(key=lambda w: float(np.linalg.norm(near_q + J @ (w - near_w) - q)))
        base = q - self.pole

        def grid():
            r = float(np.linalg.norm(base))
            for dvec in unit_directions(2 * self.m.dim + 1, self.m.dim, seed=5):
                yield r * dvec

        tried = []
        for w in chain(first, [base], grid()):
            if all(float(np.linalg.norm(w - t)) > 1e-12 for t in tried):
                tried.append(w)
                yield w


# -- fields along geodesics --------------------------------------------------------


@dataclass
class JacobiField:
    """Dense Jacobi field J = Y_x c along a normal geodesic, whose dense state
    (x, u, Y_x, Y_v) ``path`` holds: the fundamental system of the linearized
    geodesic flow, with J = dx = Y_x c and dx' = Y_v c in affine time. Called
    at arc length s, it returns (J, dJ/ds), the form ``index_form`` takes, from
    one dense evaluation at affine time s / speed, as ``path.state_at`` reads."""

    path: GeodesicPath
    c: np.ndarray

    def __call__(self, s):
        d, speed = self.path.metric.dim, self.path.speed
        J, dJ = self.path._dense_state(s / speed)[2 * d:].reshape(2, d, -1) @ self.c
        return J, dJ / speed


# cond M(r) beyond which the endpoint counts as conjugate to the start: the Jacobi
# integration's rtol 1e-10 times cond M(r) would exceed AGREEMENT_TOL
CONJUGATE_COND = 1e6


@dataclass
class BoundaryJacobiSystem:
    """Fundamental system Y = (M, W) of the Jacobi fields J = M c with J(0) = 0,
    D_T J(0) = c along a normal path, with M = M(r), W = W(r) = D_T M(r) and
    the unit tangent T and fundamental tensor g = g_T at the endpoint. The
    field reaching u at r has c = M(r)^-1 u."""

    path: GeodesicPath
    r: float
    M: np.ndarray
    W: np.ndarray
    T: np.ndarray
    g: np.ndarray

    @cached_property
    def _perp_solution(self):
        """(P, M(r)^-1 P), with P u = u - g_T(u, T) / g_T(T, T) T the part of u
        across T; M(r) is factored once per system. Raises
        ``ConjugatePointError`` when M(r) is singular."""
        gT = self.g @ self.T
        P = np.eye(self.T.size) - np.outer(self.T, gT) / float(self.T @ gT)
        cond = float(np.linalg.cond(self.M))
        if not cond < CONJUGATE_COND:
            raise ConjugatePointError(f"cond M(r) = {cond:.3g} at r = {self.r:.6g}: "
                                      "the endpoint is conjugate to the start", cond=cond)
        return P, np.linalg.solve(self.M, P)

    def field(self, u_target) -> JacobiField:
        """The Jacobi field with J(0) = 0 and J(r) the part of u_target across T."""
        c = self._perp_solution[1] @ np.asarray(u_target, dtype=float)
        return JacobiField(path=self.path, c=c)

    def boundary_form(self) -> np.ndarray:
        """P^T g_T W M^-1 P: the index form's boundary term g_T(D_T J_u, J_u) at r
        of the field J_u reaching u."""
        P, M_inv_P = self._perp_solution
        return P.T @ self.g @ self.W @ M_inv_P


def _integrate_jacobi(m: MetricDef, x0, u0, r, Y0, *, dense=True,
                      first_step=None) -> GeodesicPath:
    """The unit-speed geodesic from (x0, u0) and the variations of it with
    initial data the columns of Y0 = (dx(0), dx'(0)), a (2d, k) array,
    integrated together to arc length r as one state (x, u, Y), with dense
    output if ``dense``: the variational equations in the trajectory's own
    state (Hairer, Norsett & Wanner, Solving ODEs I, sec. I.14). Each
    right-hand side reads S and dS = dG/d(x, u) from one order-3 jet; S moves
    (x, u) and dx'' = -2 dS (dx, dx') moves Y. A ``first_step``, in arc
    length, is capped at r."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    G0 = m.value(x0, u0)
    if not abs(G0 - 1.0) < 1e-9:
        raise ConfigurationError("Jacobi fields are integrated along normal paths")
    d = m.dim

    def rhs(t, y):
        u = y[d:2 * d]
        _, _, spray, dS = spray_jacobian(m.real_jet(y[:d], u, 3), u, d)
        Y = y[2 * d:].reshape(2 * d, -1)
        return np.concatenate([u, -2.0 * spray, Y[d:].ravel(), (-2.0 * dS @ Y).ravel()])

    sol = solve_ivp(rhs, (0.0, r), np.concatenate([x0, u0, np.ravel(Y0)]),
                    method="DOP853", rtol=1e-10, atol=1e-12, dense_output=dense,
                    first_step=None if first_step is None else min(first_step, r))
    if not sol.success:
        raise ShootingError(f"Jacobi integration failed: {sol.message}")
    return _path(m, G0, sol)


def jacobi_field(m: MetricDef, x0, u0, r, J0, dJ0) -> JacobiField:
    """The Jacobi field with J(0) = J0, D_T J(0) = dJ0 along the unit-speed
    geodesic from (x0, u0), to arc length r: the variation with dx(0) = J0 and
    dx'(0) = dJ0 - N J0."""
    N0 = cartan(m, x0, u0, need_curvature=False).nonlinear
    path = _integrate_jacobi(m, x0, u0, r, np.concatenate([J0, dJ0 - N0 @ J0]))
    return JacobiField(path=path, c=np.ones(1))


def jacobi_boundary_field(m: MetricDef, x0, u0, r, *, dense=False,
                          first_step=None) -> BoundaryJacobiSystem:
    """Fundamental system of the Jacobi fields vanishing at x0 along the
    unit-speed geodesic from (x0, u0), integrated with it to arc length r; its
    ``field(u)`` is the Jacobi field with J(0) = 0 and J(r) the part of u
    across T, whose values along the path need ``dense``. At r, W = dx' + N M
    with N and g_T from one order-3 jet. The integration starts at
    ``first_step`` (arc length, capped at r) where one is given, and at
    scipy's initial-step probe otherwise."""
    d = m.dim
    path = _integrate_jacobi(m, x0, u0, r, np.concatenate([np.zeros((d, d)), np.eye(d)]),
                             dense=dense, first_step=first_step)
    y_r = path.sol.y[:, -1]
    x_r, u_r = y_r[:d], y_r[d:2 * d]
    Y_r = y_r[2 * d:].reshape(2 * d, d)
    g, _, _, dS = spray_jacobian(m.real_jet(x_r, u_r, 3), u_r, d)
    return BoundaryJacobiSystem(path=path, r=r, M=Y_r[:d], W=Y_r[d:] + dS[:, d:] @ Y_r[:d],
                                T=u_r, g=g)


@dataclass
class IndexFormResult:
    value: float
    quadrature_error: float


def index_form(path: GeodesicPath, xi, eta) -> IndexFormResult:
    """Morse index form I(xi, eta) along a normal geodesic.

    A field is a callable of the arc parameter s returning (V, dV/ds), its
    value and coordinate derivative; a ``JacobiField`` is one. At each
    quadrature node one ``cartan`` call, curvature included, gives g_T, R
    and N at (x, T), and D_T V = dV/ds + N V. Both V and D_T V lose their
    component along T: projecting commutes with D_T, since D_T T = 0 along
    a geodesic. A field is read once per node when xi and eta are the same
    callable. Quadrature is composite Gauss-Legendre over 12 panels with the
    error estimated from one coarsening step.
    """
    if not path.normal:
        raise ConfigurationError("the index form is defined along normal paths")
    r = path.arc_length

    def integrand(s):
        data = cartan(path.metric, *path.state_at(s))
        T, g = data.u, data.g

        def across(f):
            V, dV = (np.asarray(a, dtype=float) for a in f(s))
            return [v - (float(v @ g @ T) / float(T @ g @ T)) * T
                    for v in (V, dV + data.nonlinear @ V)]

        xv, dx = across(xi)
        ev_, de = (xv, dx) if xi is eta else across(eta)
        return float(dx @ g @ de) - float((data.riemann @ xv) @ g @ ev_)

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


# -- distance Hessian ---------------------------------------------------------------

# relative discrepancy at which the two routes of ``hessian_rho`` count as agreeing
AGREEMENT_TOL = 1e-4


def distance_hessian(pd: PoleDistance, x, *, dense=False) -> BoundaryJacobiSystem:
    """Hessian of the distance from ``pd.pole`` at x, in every direction at once.

    One shot gives rho and the initial velocity of the radial geodesic; one
    integration from the pole then carries that geodesic together with the
    Jacobi fields vanishing at the pole to x, as solutions of the linearized
    geodesic flow: no curvature and no order-4 jet. The returned system holds
    rho = ``r`` and the unit tangent ``T`` and g_T = ``g`` at x. H(rho)(u, u)
    is the boundary term g_T(D_T J_u, J_u) at x of the index form of the field
    J_u reaching u (Bao-Chern-Shen, GTM 200, ch. 5 and 7): the covariant
    Hessian at reference vector T is H = P^T g_T W M^-1 P = ``boundary_form()``.
    The Jacobi integration keeps dense output, which ``system.field(u)`` reads
    along the path, only if ``dense``.

    Step continuation, as for the shots: the Jacobi integration starts at
    the step the solver's last tight shot settled on, in affine time on
    [0, 1], times rho, since the system runs in arc length. Every step still
    passes DOP853's error test, so H depends on the solver's history only in
    its last bits. ``pd.jacobi_integrations`` and ``pd.jacobi_rhs_evaluations``
    count the systems and their right-hand sides.
    """
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x - pd.pole)) < 1e-6:
        raise ConfigurationError("distance Hessian undefined at the pole")
    base = pd.rho(x)
    system = jacobi_boundary_field(pd.m, pd.pole, base.w / base.value, base.value, dense=dense,
                                   first_step=pd._steps[False] * base.value)
    pd.jacobi_integrations += 1
    pd.jacobi_rhs_evaluations += system.path.nfev
    return system


@dataclass
class HessianRhoResult:
    """Distance Hessian H(rho)(u,u) computed along two independent routes."""

    value: float                 # u.H.u with H from the Jacobi fundamental system
    discrepancy: float           # |value - I(J, J)|, I by quadrature along the Jacobi field
    rho: float
    agreed: bool


def hessian_rho(m: MetricDef, pole, x, u, *,
                pd: PoleDistance | None = None) -> HessianRhoResult:
    """H(rho)(u,u) at x for the g_T-unit rescaling of u, rho the distance from the pole.

    Route one reads u.H.u off ``distance_hessian``, the boundary term of the
    index form, which needs no curvature. Route two integrates the index form,
    with the curvature R at its nodes, by quadrature along the Jacobi field of
    the same fundamental system that reaches u at x.
    Disagreement beyond ``AGREEMENT_TOL`` is reported, not hidden; a NaN on
    either route never agrees.
    """
    u = np.asarray(u, dtype=float)
    system = distance_hessian(pd or PoleDistance(m, pole), x, dense=True)
    u = u / math.sqrt(float(u @ system.g @ u))
    value_a = float(u @ system.boundary_form() @ u)
    bvp = system.field(u)
    disc = abs(value_a - index_form(system.path, bvp, bvp).value)
    return HessianRhoResult(value=value_a, discrepancy=disc, rho=system.r,
                            agreed=disc <= AGREEMENT_TOL * max(1.0, abs(value_a)))
