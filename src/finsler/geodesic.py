"""Geodesic flow, shooting distance, Jacobi fields, index form, distance Hessians.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0 in an affine parameter; the energy
G(x, xdot) is a first integral. ``integrate_geodesic`` integrates one
geodesic or a fan of them from one point as one stacked state; a single
geodesic is a ``GeodesicFan`` of one. The energy's drift along a fan, which
it computes on request (``GeodesicFan.energy_drift``), is the accuracy proxy
that ``finsler geodesic`` reports. A shooting query first shoots from
the chord start: the velocity along the straight chord from the pole to the
target whose length is the chord's Finsler length, which lands at once where
the chord is a geodesic. A warm query also tries the nearest cached velocity,
moved by the change of target, and shoots first whichever the cached
Jacobian predicts lands closer. Shooting is inexact Newton with exact
Jacobians, Y_x(1) / rho of shots that carry the Jacobi fields: trial shots
from an iterate far from the target integrate at loose tolerances, and
every returned iterate, so every distance, comes from a tight integration.
Every integration, plain or with Jacobi fields, is one call of ``_integrate``
on the package's own DOP853 (``dop853``), which builds dense output only for
the steps a caller reads. Each shot of a solver starts where the solver's
last shot of the same kind left off, scaled to arc length, in place of the
initial-step probe.
A Hessian query (``rho(q, hessian=True)``, ``distance_hessian``) returns
the system of the shot that landed, which carried the Jacobi fields; the
arc-length Jacobi system along a plain shot (``hessian_rho``) checks it.
Covariant derivatives along a geodesic use the connection at the reference
vector T, the geodesic's own velocity, which makes the Cartan and
Chern-type derivatives coincide: D_T V = dV/ds + N V with N = dG/du, the
nonlinear connection ``cartan`` returns. Jacobi fields are geodesic
variations: they solve the linearized geodesic equation
dx'' = -2 (dG/dx dx + dG/du dx') in coordinates, which needs an order-3 jet
and no curvature, and D_T J = dx' + N dx.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .cartan import cartan, spray_coefficients, spray_jacobian
from .dop853 import solve_ivp
from .errors import SAMPLE_ERRORS, ConfigurationError, ConjugatePointError, ShootingError
from .geometry import MetricDef, unit_directions
from .jets import Jet


_EXIT_MARGIN = 1e-9   # domain margin at which an integrated geodesic stops
PATH_RTOL, PATH_ATOL = 1e-11, 1e-13   # tolerances of a plain path (``integrate_geodesic``)


def _integrate(m, x0, u0, t_end, *, Y0=None, rtol, atol, t0=0.0, first_step=None):
    """``(sol, readout)``: the DOP853 solution from rows (x0, u0) of shape
    (k, d), a point being one row, at affine time t0 to t_end, as one stacked
    state whose block j is row j's (x, u), followed, where variations Y0 of
    shape (k, 2d, c) are given, a row's (2d, c) being one, by its columns
    Y = (dx, dx'): the variational equations dx'' = -2 dS (dx, dx'),
    dS = dG/d(x, u), in the trajectory's own state (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. I.14). A plain right-hand side is one
    ``spray_coefficients`` call; a variational one is one order-3
    ``real_rows`` replay and one stacked ``spray_jacobian``, whose rows
    (g, dS) at the end state are the ``readout`` (None for a plain one).
    Each block stops at its own exit event, where its domain margin falls to
    ``_EXIT_MARGIN``. ``rtol`` and ``atol``, scalars or arrays of the state's
    shape, are divided by sqrt(k), which bounds the stacked RMS error norm by
    each block's. A ``first_step`` is capped at the time to integrate."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    u0 = np.atleast_2d(np.asarray(u0, dtype=float))
    d, k = m.dim, len(x0)
    y0 = np.concatenate([x0, u0] if Y0 is None else [x0, u0, np.reshape(Y0, (k, -1))], axis=1)
    n, sp = y0.shape[1], m.fibre_space(3, 2)
    last = [None]   # the state of the latest variational right-hand side, with its g and dS

    def rhs(t, y):
        Z = y.reshape(k, n)
        x, u = Z[:, :d], Z[:, d:2 * d]
        if Y0 is None:
            return np.concatenate([u, -2.0 * spray_coefficients(m, x, u)], axis=1).ravel()
        g, _, spray, dS = spray_jacobian(Jet(sp, m.real_rows(x, u, sp)), u)
        last[0] = (y, g, dS)
        Y = Z[:, 2 * d:].reshape(k, 2 * d, -1)
        return np.concatenate([u, -2.0 * spray, Y[:, d:].reshape(k, -1),
                               (-2.0 * dS @ Y).reshape(k, -1)], axis=1).ravel()

    bounded = m.domain.kind != "all" and math.isfinite(m.domain.margin(x0[0]))
    events = [lambda t, y, j=j: m.domain.margin(y[n * j:n * j + d]) - _EXIT_MARGIN
              for j in range(k) if bounded]
    sol = solve_ivp(rhs, (t0, t_end), y0.ravel(), rtol=rtol / math.sqrt(k),
                    atol=atol / math.sqrt(k), first_step=first_step, events=events)
    if not sol.success:
        raise ShootingError(f"geodesic integration failed: {sol.message}")
    if Y0 is None:
        return sol, None
    if not np.array_equal(last[0][0], sol.y[:, -1]):   # an exit root, or a later dense stage
        rhs(sol.t[-1], sol.y[:, -1])
    return sol, last[0][1:]


@dataclass
class GeodesicFan:
    """Geodesics from one point, integrated as one stacked state; a single
    geodesic is a fan of one.

    Member b has energy ``energies[b]`` = G(x0, u0), a first integral of the
    flow, and reaches affine time ``t_ends[b]``: its full length, or its own
    exit root, where it is ``truncated``. ``segments`` holds, in time order,
    each stacked solution with its members; each ends at its earliest root,
    and the members without one in its last step go on from there. A
    member's block of the dense state starts with its (x, u); a path
    integrated together with its Jacobi fields carries them after these."""

    metric: MetricDef
    energies: np.ndarray
    t_ends: np.ndarray
    truncated: np.ndarray
    segments: list

    @classmethod
    def of_one(cls, m, G0, sol) -> GeodesicFan:
        """The fan of the one member, of energy G0, that ``sol`` integrated."""
        return cls(m, np.array([G0]), sol.t[-1:], np.array([sol.status == 1]), [(sol, [0])])

    @property
    def speeds(self) -> np.ndarray:
        """sqrt(G(x0, u0)); arc length = speed * t."""
        return np.sqrt(self.energies)

    @property
    def arc_lengths(self) -> np.ndarray:
        return self.t_ends * self.speeds

    @property
    def normal(self) -> np.ndarray:
        """Whether each member has unit speed."""
        return np.abs(self.energies - 1.0) < 1e-9

    @property
    def steps(self) -> int:
        """The integrator's accepted steps over all segments."""
        return sum(len(sol.t) - 1 for sol, _ in self.segments)

    @property
    def nfev(self) -> int:
        """The right-hand sides spent, the dense output built so far included."""
        return sum(sol.nfev for sol, _ in self.segments)

    def energy_drift(self) -> float:
        """max |G(x, u) - G(x0, u0)| over the members' states at the
        integrator's steps, one ``value`` call per segment."""
        d, drift = self.metric.dim, 0.0
        for sol, members in self.segments:
            Y = sol.y.T.reshape(len(sol.t), len(members), -1)
            G = self.metric.value(Y[..., :d].reshape(-1, d), Y[..., d:2 * d].reshape(-1, d))
            dG = G.reshape(Y.shape[:2]) - self.energies[members]
            drift = max(drift, float(np.abs(dG).max()))
        return drift

    def dense_state(self, b, s):
        """Member ``b``'s block of the dense state at arc length ``s``, clamped
        to its path, by the last segment holding b from before it, whose last
        step spans b's root. Arrays b and s, broadcast together, read a row
        per pair, each bit for bit its point's, with one ``sol`` call per
        segment."""
        b, s = np.broadcast_arrays(b, s)
        t = np.clip(s / self.speeds[b], 0.0, self.t_ends[b])
        first, members = self.segments[0]
        n = len(first.y) // len(members)
        out = np.empty(t.shape + (n,))
        for sol, members in self.segments:   # members in increasing order
            at = np.isin(b, members) & (t >= sol.t[0])
            block = n * np.searchsorted(members, b[at])[:, None] + np.arange(n)
            out[at] = np.take_along_axis(sol.sol(t[at]), block, axis=1)
        return out

    def state_at(self, b, s):
        """(x, u) of member ``b`` at arc length ``s``, clamped to its path: for
        arrays b and s, the rows of ``dense_state``."""
        return np.split(self.dense_state(b, s)[..., :2 * self.metric.dim], 2, axis=-1)


def integrate_geodesic(m: MetricDef, x0, u0, length) -> GeodesicFan:
    """Geodesics from x0 with the initial velocity u0, or with each row of a
    (B, d) array u0, a velocity (d,) being one row, forward to arc length
    ``length`` > 0 as one stacked state whose right-hand side is one batched
    spray (``_integrate``).

    A member ends at its own exit root or at its own length. A segment ends
    at its earliest exit root, and every member whose exit event falls in the
    segment's last step ends at its own root there. The others restart from
    the earliest at the controller's proposal (``h_next``), since the
    initial-step probe would overshoot the domain from so close to its edge.
    """
    if not length > 0:
        raise ConfigurationError(f"geodesic length must be positive, got {length!r}")
    x0 = np.asarray(x0, dtype=float)
    U0 = np.atleast_2d(np.asarray(u0, dtype=float))
    d = m.dim
    G0 = m.value(x0, U0)
    if not np.all(G0 > 0):
        raise ConfigurationError("initial velocities must be nonzero")
    t_ends = length / np.sqrt(G0)
    truncated = np.zeros(len(U0), dtype=bool)
    members = list(range(len(U0)))
    x, u = np.broadcast_to(x0, U0.shape), U0
    t0, first_step, segments = 0.0, None, []
    while members:
        sol, _ = _integrate(m, x, u, float(t_ends[members].max()), rtol=PATH_RTOL,
                            atol=PATH_ATOL, t0=t0, first_step=first_step)
        segments.append((sol, members))
        if sol.status != 1:
            break
        t0, y = sol.t[-1], sol.y[:, -1].reshape(len(members), 2 * d)
        for roots, b in zip(sol.t_events, members):
            if roots and roots[0] <= t_ends[b]:
                t_ends[b], truncated[b] = roots[0], True
        stay = [j for j, b in enumerate(members) if not sol.t_events[j] and t_ends[b] > t0]
        x, u = y[stay, :d], y[stay, d:]
        members = [members[j] for j in stay]
        first_step = sol.h_next
    return GeodesicFan(metric=m, energies=G0, t_ends=t_ends, truncated=truncated,
                       segments=segments)


# -- boundary-value geodesics (shooting) -----------------------------------------


@dataclass
class RhoResult:
    """Distance from the pole plus the arriving unit tangent."""

    value: float
    T: np.ndarray
    w: np.ndarray                 # initial velocity reaching the target at t=1
    residual: float
    work: Counter                 # this query's share of its solver's ``work``
    system: BoundaryJacobiSystem | None = None   # a Hessian query's (``distance_hessian``)


# the names of the counts that ``PoleDistance.work`` keeps
WORK = ("starts", "integrations", "loose_integrations", "iterations", "rhs_evaluations",
        "jacobi_integrations", "jacobi_rhs_evaluations")

# tolerances of the shooting integrations, tighter than a plain path
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14
# a Gauss-Newton trial from an iterate whose residual exceeds LOOSE_ABOVE
# integrates at the loose tolerances (inexact Newton)
LOOSE_ABOVE = 1e-5
LOOSE_RTOL = 1e-8
LOOSE_ATOL = 1e-10
# tolerances of the Jacobi fields
JACOBI_RTOL = 1e-10
JACOBI_ATOL = 1e-12
# the ``PoleDistance._steps`` slot of the shots that carry the Jacobi fields
VARIATIONAL = "variational"
# Gauss-Newton iterations of one start before it returns its last iterate
MAX_ITERATIONS = 40
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

    Starts, in order (``_starts``; ``work["starts"]`` counts those tried):
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
    shot of every start and every other trial integrate at
    ``SHOOT_RTOL``/``SHOOT_ATOL``. A returned iterate, and so
    every ``RhoResult``, comes from a tight integration of its ``w``: a loose
    iterate is integrated again at the tight tolerances before it may
    converge or end the solve.

    Every shot is a ``_shoot`` of one of three kinds: tight, loose, or
    variational, which carries the Jacobi fields; it reaches t = 1 or raises,
    also where it stops at the domain's edge. Every Newton step is a
    ``_trial``: the first w - lam J^-1 F, lam in its list, whose shot lowers
    the residual. Every Jacobian is the exact dx(1)/dw = Y_x(1) / rho of a
    variational shot of the iterate, taken where a first shot misses with
    no cached Jacobian or a line search stalls. In a Hessian query
    (``rho(q, hessian=True)``) each start's first shot is one: where it
    lands, its end state is the result's ``system``; where it misses, it
    gives the Jacobian, and the accepted iterate takes one more step, a
    variational trial at lam = 1, so that the Hessian does not depend on how
    far below tol the iteration stopped; or, where that fails, is shot so again.

    ``work`` is the solver's one record of its cost, a ``Counter`` over
    ``WORK`` of its own shots (``_shoot``) alone, every count starting at 0:
    ``rhs_evaluations`` sums the right-hand sides (``nfev``) of the
    ``integrations``, whose loose share is ``loose_integrations`` and whose
    variational share, with their right-hand sides, is
    ``jacobi_integrations`` and ``jacobi_rhs_evaluations``. A ``RhoResult``
    or ``ShootingError`` holds its query's share, ``work`` after the query
    minus before.

    Step continuation (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4):
    all shots leave the same pole along nearby geodesics, so each starts at
    the step its predecessor of the same kind (tight, loose or variational)
    ended with, times |w_prev| / |w| to carry it over in arc length, in place
    of the initial-step probe and its ramp-up: the controller's proposal
    (``h_next``), so a shot that needs one step takes one. A solver's first
    variational shot starts at its last tight shot's step.
    Every step passes DOP853's error test.
    """

    def __init__(self, m: MetricDef, pole):
        self.m = m
        self.pole = np.asarray(pole, dtype=float)
        self._cache = []
        self._targets = np.empty((0, m.dim))   # the targets of ``_cache``, in its order
        self.work = Counter(dict.fromkeys(WORK, 0))
        # last shot's step times |w|, by kind: tight (False), loose (True), VARIATIONAL
        self._steps = dict.fromkeys((False, True, VARIATIONAL))

    def _shoot(self, w, kind=False):
        """``(y, system)``: the end state y = (x, u) at t = 1 of the geodesic
        leaving the pole with velocity w, shot at the tight (``kind`` False)
        or the loose (True) shooting tolerances, or (``VARIATIONAL``) in
        affine time with the Jacobi fields Y(0) = (0, rho I),
        rho = sqrt(G(p, w)), so that Y_x(t) = M(rho t): (x, u) at the
        shooting tolerances and Y at the Jacobi ones, each over sqrt(1 + d),
        which bounds each block's RMS error norm by the stacked one.
        ``system`` is a variational shot's ``BoundaryJacobiSystem`` at speed
        rho, else None. The shot starts at the step continued from ``_steps``
        (the class docstring), or at the initial-step probe where there is
        none; it is counted in ``work`` before it runs, and its right-hand
        sides and step after. A shot of any kind that stops at its exit root
        before t = 1 then raises ``ShootingError``."""
        m, d, norm = self.m, self.m.dim, float(np.linalg.norm(w))
        variational = kind == VARIATIONAL
        step = self._steps[kind]
        if step is None and variational:
            step = self._steps[False]
        first_step = None if step is None else step / norm
        if variational:
            G0 = m.value(self.pole, w)
            rho, blocks, scale = math.sqrt(G0), (2 * d, 2 * d * d), math.sqrt(1 + d)
            Y0 = np.concatenate([np.zeros((d, d)), rho * np.eye(d)])
            rtol, atol = (np.repeat(tols, blocks) / scale
                          for tols in ((SHOOT_RTOL, JACOBI_RTOL), (SHOOT_ATOL, JACOBI_ATOL)))
        else:
            Y0, rtol, atol = None, *((LOOSE_RTOL, LOOSE_ATOL) if kind else (SHOOT_RTOL, SHOOT_ATOL))
        self.work.update(integrations=1, loose_integrations=kind is True,
                         jacobi_integrations=variational)
        sol, readout = _integrate(m, self.pole, w, 1.0, Y0=Y0, rtol=rtol, atol=atol,
                                  first_step=first_step)
        self.work.update(rhs_evaluations=sol.nfev,
                         jacobi_rhs_evaluations=sol.nfev if variational else 0)
        self._steps[kind] = sol.h_next * norm
        if sol.status == 1:
            raise ShootingError(f"the shot of {w} stopped at the domain's edge")
        system = (BoundaryJacobiSystem.at_end(GeodesicFan.of_one(m, G0, sol), rho, rho, readout)
                  if variational else None)
        return sol.y[:2 * d, -1], system

    def _jacobian(self, w, system=None):
        """dx(1)/dw = Y_x(1) / rho at w, off w's ``system`` or a new shot's."""
        system = system or self._shoot(w, VARIATIONAL)[1]
        return system.M / system.r

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

    def rho(self, q, *, hessian=False) -> RhoResult:
        """Distance from the pole to q; with ``hessian``, the result carries
        the ``system`` of the distance Hessian at q (``distance_hessian``)."""
        q = np.asarray(q, dtype=float)
        if float(np.linalg.norm(q - self.pole)) < 1e-14:
            return RhoResult(0.0, np.zeros_like(q), np.zeros_like(q), 0.0, Counter())
        scale = 1.0 + float(np.linalg.norm(q - self.pole))
        # iterate toward the tight target; accept the documented tolerance
        tol = 3e-12 * scale
        tol_accept = 1e-9 * scale
        before = self.work.copy()

        near = self._nearest(q)
        J = None if near is None else near[2]
        best_res = math.inf
        for winit in self._starts(q, near):
            self.work["starts"] += 1
            try:
                w, y, J_fin, resid, system = self._gauss_newton(winit, q, J, tol, hessian)
            except SAMPLE_ERRORS:
                resid = math.inf   # a failed shot or re-integration ends its start only
            J = None
            best_res = min(best_res, resid)
            if resid < tol_accept:
                u_end = y[self.m.dim:]
                self._remember(q, w, J_fin)
                if hessian and system is None:   # no variational shot landed at w
                    system = self._shoot(w, VARIATIONAL)[1]
                rho = system.r if hessian else math.sqrt(self.m.value(self.pole, w))  # r: that sqrt
                return RhoResult(rho, u_end / rho, w, resid, self.work - before, system)
        work = self.work - before
        raise ShootingError(
            f"shooting to {q} did not converge: {work['starts']} starts, {work['integrations']} "
            f"integrations, {work['iterations']} Gauss-Newton steps, best residual {best_res:.3g}",
            best_res, work)

    def _gauss_newton(self, w, q, J, tol, hessian):
        """Solve endpoint(w) = q from ``w``; returns ``(w, y, J, residual, system)``.

        ``y`` is the end state (x, u) of the tight integration of the returned
        ``w``, so its arriving tangent needs no second integration, and the
        residual is read from it; ``system`` is a variational shot's of ``w``,
        or None. A trial shot that fails, or stops at the domain's edge, is
        skipped (``_trial``); any other such shot (the first shot, a Jacobian
        shot, a tight re-integration) raises, which ends the start (``rho``).
        A Hessian query's first shot is variational, and plain where that
        shot fails.
        """
        d = self.m.dim
        w = np.asarray(w, dtype=float).copy()
        try:
            y, system = self._shoot(w, VARIATIONAL) if hessian else (None, None)
        except SAMPLE_ERRORS:
            y = system = None
        if y is None:
            y, system = self._shoot(w)
        F = y[:d] - q
        if float(np.linalg.norm(F)) < tol:
            return w, y, J, float(np.linalg.norm(F)), system
        loose = False   # y, F come from a loose integration
        refreshed = J is None or system is not None
        if refreshed:
            J = self._jacobian(w, system)
        for _ in range(MAX_ITERATIONS):
            res = float(np.linalg.norm(F))
            if res < tol and not loose:   # a Hessian query's iterate takes one more step
                trial = self._trial(w, F, J, q, VARIATIONAL, (1.0,)) if hessian else None
                if trial is not None:
                    w, y, F, system = trial
                return w, y, J, float(np.linalg.norm(F)), system
            if res < tol:
                # below tol a loose residual is within its own integration error
                (y, _), loose = self._shoot(w), False
                F = y[:d] - q
                continue
            trial_loose = res > LOOSE_ABOVE
            trial = self._trial(w, F, J, q, trial_loose, (1.0, 0.5, 0.25))
            if trial is None:
                if refreshed:
                    break
                J, refreshed = self._jacobian(w), True
                continue
            dw, dF = trial[0] - w, trial[2] - F
            denom = float(dw @ dw)
            if denom > 0:
                J = J + np.outer(dF - J @ dw, dw) / denom
            (w, y, F, system), loose = trial, trial_loose
        if loose:
            y, _ = self._shoot(w)
            F = y[:d] - q
        return w, y, J, float(np.linalg.norm(F)), system

    def _trial(self, w, F, J, q, kind, lams):
        """The Newton step from w, residual F = x(1) - q: ``(w_new, y, F_new,
        system)`` for the first w_new = w - lam J^-1 F, lam in ``lams`` in
        turn, whose shot of ``kind`` (``_shoot``) lowers |F|, counted as a
        Gauss-Newton iteration; None where J is singular or no lam does. A
        shot that fails or stops at the domain's edge is skipped."""
        res = float(np.linalg.norm(F))
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        for lam in lams:
            w_new = w - lam * step
            try:
                y, system = self._shoot(w_new, kind)
            except SAMPLE_ERRORS:
                continue
            F_new = y[:self.m.dim] - q
            if float(np.linalg.norm(F_new)) < res:
                self.work["iterations"] += 1
                return w_new, y, F_new, system
        return None

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
    """Dense Jacobi field J = Y_x c along a geodesic, the one-member fan
    ``path`` whose dense state is (x, u, Y_x, Y_v): the fundamental system of
    the linearized geodesic flow, with J = dx = Y_x c and dx' = Y_v c in
    affine time. Called at an arc length s, or an array of them, it returns
    (J, dJ/ds), vectors or their rows, the form ``index_form`` takes, from
    one ``path.dense_state`` read."""

    path: GeodesicFan
    c: np.ndarray

    def __call__(self, s):
        d = self.path.metric.dim
        Y = self.path.dense_state(0, s)[..., 2 * d:]
        J, dJ = np.moveaxis(Y.reshape(Y.shape[:-1] + (2, d, -1)) @ self.c, -2, 0)
        return J, dJ / self.path.speeds[0]


# cond M(r) beyond which the endpoint counts as conjugate to the start: the Jacobi
# integration's rtol 1e-10 times cond M(r) would exceed AGREEMENT_TOL
CONJUGATE_COND = 1e6


@dataclass
class BoundaryJacobiSystem:
    """Fundamental system Y = (M, W) of the Jacobi fields J = M c with J(0) = 0,
    D_T J(0) = c along a path, a one-member fan in arc length
    (``jacobi_boundary_field``) or in affine time (a variational shot), with
    M = M(r),
    W = W(r) = D_T M(r) and the unit tangent T and fundamental tensor g = g_T
    at the endpoint. The field reaching u at r has c = M(r)^-1 u."""

    path: GeodesicFan
    r: float
    M: np.ndarray
    W: np.ndarray
    T: np.ndarray
    g: np.ndarray

    @classmethod
    def at_end(cls, path, r, speed, readout) -> BoundaryJacobiSystem:
        """The system at the end of ``path``, integrated from Y(0) = (0, speed I)
        with the one-row ``readout`` (g, dS) at its end state (``_integrate``):
        M = Y_x, W = (Y_u + N M) / speed and T = u / speed, N = dS/du."""
        d = path.metric.dim
        g, dS = (rows[0] for rows in readout)
        y = path.segments[0][0].y[:, -1]
        M, Yu = y[2 * d:].reshape(2, d, d)
        return cls(path=path, r=r, M=M, W=(Yu + dS[:, d:] @ M) / speed,
                   T=y[d:2 * d] / speed, g=g)

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


def _integrate_jacobi(m: MetricDef, x0, u0, r, Y0, *, first_step=None):
    """The unit-speed geodesic from (x0, u0) and its variations with initial
    data Y0 to arc length r, at the Jacobi tolerances: the one-member fan and
    the (g, dS) rows at its end of ``_integrate``. A ``first_step``, in arc
    length, is capped at r. Raises ``ShootingError`` where the geodesic
    stops at the domain's edge before r."""
    G0 = m.value(x0, u0)
    if not abs(G0 - 1.0) < 1e-9:
        raise ConfigurationError("Jacobi fields are integrated along normal paths")
    sol, readout = _integrate(m, x0, u0, r, Y0=Y0, rtol=JACOBI_RTOL, atol=JACOBI_ATOL,
                              first_step=first_step)
    if sol.status == 1:
        raise ShootingError(f"the Jacobi fields from {x0} stopped at the domain's edge before {r}")
    return GeodesicFan.of_one(m, G0, sol), readout


def jacobi_field(m: MetricDef, x0, u0, r, J0, dJ0) -> JacobiField:
    """The Jacobi field with J(0) = J0, D_T J(0) = dJ0 along the unit-speed
    geodesic from (x0, u0), to arc length r: the variation with dx(0) = J0 and
    dx'(0) = dJ0 - N J0."""
    N0 = spray_jacobian(m.real_jet(x0, u0, m.fibre_space(3, 2)), u0)[3][:, m.dim:]
    path, _ = _integrate_jacobi(m, x0, u0, r, np.concatenate([J0, dJ0 - N0 @ J0]))
    return JacobiField(path=path, c=np.ones(1))


def jacobi_boundary_field(m: MetricDef, x0, u0, r, *, first_step=None) -> BoundaryJacobiSystem:
    """Fundamental system of the Jacobi fields vanishing at x0 along the
    unit-speed geodesic from (x0, u0), integrated with it to arc length r; its
    ``field(u)`` is the Jacobi field with J(0) = 0 and J(r) the part of u
    across T. At r, W = dx' + N M with N and g_T from the order-3 jet of the
    last right-hand side. The integration starts at ``first_step`` (arc
    length, capped at r) where one is given, and at the initial-step probe
    otherwise."""
    d = m.dim
    path, readout = _integrate_jacobi(m, x0, u0, r,
                                      np.concatenate([np.zeros((d, d)), np.eye(d)]),
                                      first_step=first_step)
    return BoundaryJacobiSystem.at_end(path, r, 1.0, readout)


@dataclass
class IndexFormResult:
    value: float
    quadrature_error: float


def index_form(path: GeodesicFan, xi, eta) -> IndexFormResult:
    """Morse index form I(xi, eta) along a normal geodesic, a one-member fan.

    A field is a callable of an array of arc lengths s returning (V, dV/ds),
    its values and coordinate derivatives as rows; a ``JacobiField`` is one.
    Quadrature is composite Gauss-Legendre over 12 panels, its error
    estimated from 6. One read of the path gives (x, T) at the 72 nodes, the
    fine rule's first, and one stacked ``cartan`` call g_T, R and N there,
    each row bit for bit its node's: a degenerate node is named as a loop
    over the nodes meets it. D_T V = dV/ds + N V. Both V and D_T V lose their
    component along T: projecting commutes with D_T, since D_T T = 0 along a
    geodesic. Each field is read once, at all the nodes, and once in all
    when xi and eta are the same callable. The integrand is formed at all
    the nodes at once by stacked products, each node's bit for bit as on
    its own; each rule adds its terms in node order.
    """
    if not path.normal[0]:
        raise ConfigurationError("the index form is defined along normal paths")
    r = path.arc_lengths[0]
    nodes, weights = np.polynomial.legendre.leggauss(4)
    rule = []   # (panels, s, w * half) at each node, the fine rule's first
    for n_panels in (12, 6):
        edges = np.linspace(0.0, r, n_panels + 1)
        for a, b in zip(edges, edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            rule += [(n_panels, mid + half * t, w * half) for t, w in zip(nodes, weights)]
    S = np.array([s for _, s, _ in rule])
    data = cartan(path.metric, *path.state_at(0, S))
    T, g = data.u, data.g

    def form(a, b):   # a^T g b at each node, each row's products as at a point's
        return (a[:, None, :] @ g @ b[:, :, None])[:, 0, 0]

    def across(f):
        V, dV = (np.asarray(a, dtype=float) for a in f(S))
        return [v - (form(v, T) / form(T, T))[:, None] * T
                for v in (V, dV + (data.nonlinear @ V[:, :, None])[..., 0])]

    xv, dx = across(xi)
    ev_, de = (xv, dx) if xi is eta else across(eta)
    values = form(dx, de) - form((data.riemann @ xv[:, :, None])[..., 0], ev_)
    totals = {12: 0.0, 6: 0.0}
    for (n_panels, _, weight), value in zip(rule, values.tolist()):
        totals[n_panels] += weight * value
    fine, coarse = totals[12], totals[6]
    return IndexFormResult(value=fine, quadrature_error=abs(fine - coarse))


# -- distance Hessian ---------------------------------------------------------------

# relative discrepancy at which the two routes of ``hessian_rho`` count as agreeing
AGREEMENT_TOL = 1e-4


def distance_hessian(pd: PoleDistance, x) -> BoundaryJacobiSystem:
    """Hessian of the distance from ``pd.pole`` at x, in every direction at once.

    One integration from the pole carries the radial geodesic together with
    the Jacobi fields vanishing at the pole to x, as solutions of the
    linearized geodesic flow: no curvature and no order-4 jet. The returned
    system holds rho = ``r`` and the unit tangent ``T`` and g_T = ``g`` at x.
    H(rho)(u, u) is the boundary term g_T(D_T J_u, J_u) at x of the index
    form of the field J_u reaching u (Bao-Chern-Shen, GTM 200, ch. 5 and 7):
    the covariant Hessian at reference vector T is
    H = P^T g_T W M^-1 P = ``boundary_form()``.

    The integration is the query's landing shot: ``pd.rho(x, hessian=True)``
    (``PoleDistance``) returns the system of its variational shot that
    landed, so no second integration runs; where none landed, the converged
    velocity is shot once more, and a ``ShootingError`` is raised where that
    shot stops at the domain's edge. H depends on the solver's history only
    in its last bits; its integrations count into ``pd.work``.
    """
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x - pd.pole)) < 1e-6:
        raise ConfigurationError("distance Hessian undefined at the pole")
    return pd.rho(x, hessian=True).system


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

    The arc-length oracle of ``distance_hessian``: a plain query, then the
    Jacobi system ``jacobi_boundary_field`` along its velocity in arc length,
    from the proposal of the solver's last tight shot scaled to the velocity
    and times rho; only the query's shots count into ``pd.work``. Route one
    reads u.H.u off its boundary form, the boundary term of the index form,
    which needs no curvature. Route two integrates the index form along the
    Jacobi field of the same fundamental system that reaches u at x, with R,
    N and g_T at its 72 nodes from one stacked ``cartan`` call.
    Disagreement beyond ``AGREEMENT_TOL`` is reported, not hidden; a NaN on
    either route never agrees.
    """
    pd = pd or PoleDistance(m, pole)
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if float(np.linalg.norm(x - pd.pole)) < 1e-6:
        raise ConfigurationError("distance Hessian undefined at the pole")
    base = pd.rho(x)
    system = jacobi_boundary_field(
        pd.m, pd.pole, base.w / base.value, base.value,
        first_step=pd._steps[False] / float(np.linalg.norm(base.w)) * base.value)
    u = u / math.sqrt(float(u @ system.g @ u))
    value_a = float(u @ system.boundary_form() @ u)
    bvp = system.field(u)
    disc = abs(value_a - index_form(system.path, bvp, bvp).value)
    return HessianRhoResult(value=value_a, discrepancy=disc, rho=system.r,
                            agreed=disc <= AGREEMENT_TOL * max(1.0, abs(value_a)))
