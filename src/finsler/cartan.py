"""Cartan connection, horizontal frame, and flag curvature of real Finsler metrics.

The geodesic spray is computed from the order-2 vertical/mixed derivatives of
G, the nonlinear connection as its vertical derivative, and the curvature as
the spray's Riemann operator

    R^i_k = 2 dG^i/dx^k - u^j d2G^i/dx^j du^k
            + 2 G^j d2G^i/du^j du^k - dG^i/du^j dG^j/du^k,

which the order-4 jet of G determines exactly. The operator annihilates the
flag pole, g(R u, .) = 0, so the flag-curvature ratio is invariant under
X -> X + c u by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFlagError, DegenerateMetricError
from .geometry import MetricDef, SamplePlan, unit_directions
from .jets import invert_jet_matrix


@dataclass
class CartanData:
    """Connection and curvature coefficients at a fixed (x, u)."""

    x: np.ndarray
    u: np.ndarray
    G: float
    g: np.ndarray              # fundamental tensor g_ij = (1/2) G_ij
    g_inv: np.ndarray
    spray: np.ndarray          # G^i, geodesic equation xddot + 2 G = 0
    nonlinear: np.ndarray      # N^i_j = dG^i/du^j
    gamma_h: np.ndarray | None  # horizontal coefficients Gamma^j_{i;k}
    gamma_v: np.ndarray | None  # vertical coefficients Gamma^j_{ik}
    riemann: np.ndarray | None  # R^i_k of the spray


def _spray_jets(m: MetricDef, x, u, order):
    """Spray coefficients G^i as jets of the given order (<= 2)."""
    jet = m.real_jet(x, u, order + 2)
    d = m.dim
    sp = jet.space
    g_rows = [[jet.extract(d + i).extract(d + j) * 0.5 for j in range(d)]
              for i in range(d)]
    g_inv = invert_jet_matrix(g_rows)
    useed = [sp.sibling(order).variable(d + k, float(u[k])) for k in range(d)]
    b = []
    for l in range(d):
        dG_l = jet.extract(d + l)
        acc = None
        for k in range(d):
            t = dG_l.extract(k) * useed[k]
            acc = t if acc is None else acc + t
        acc = acc - jet.extract(l).truncate(order)
        b.append(acc)
    spray = []
    for i in range(d):
        acc = None
        for l in range(d):
            t = g_inv[i][l] * b[l]
            acc = t if acc is None else acc + t
        spray.append(acc * 0.25)
    return jet, g_rows, g_inv, spray


def spray_coefficients(m: MetricDef, x, u) -> np.ndarray:
    """Values of the geodesic coefficients G^i(x, u) (fast path for ODEs)."""
    jet = m.real_jet(x, u, 2)
    d = m.dim
    H = jet.hessian()
    g = 0.5 * H[d:, d:]
    # (d^2 G / du^l dx^k) u^k; cumsum adds over k in order, as a scalar loop
    # does, where a pairwise sum would round differently
    rhs = np.cumsum(H[d:, :d] * u, axis=1)[:, -1] - jet.gradient()[:d]
    try:
        y = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"fundamental tensor singular at x={x}") from exc
    return 0.25 * y


def cartan(m: MetricDef, x, u, *, need_curvature=True) -> CartanData:
    """Cartan connection data at (x, u); curvature optional (cheaper without)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = m.dim
    order = 2 if need_curvature else 1
    jet, g_rows, g_inv_rows, spray_j = _spray_jets(m, x, u, order)
    g = np.array([[g_rows[i][j].value for j in range(d)] for i in range(d)])
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e10:
        raise DegenerateMetricError(f"fundamental tensor condition number {cond:.2e}")
    g_inv = np.linalg.inv(g)
    spray = np.array([s.value for s in spray_j])
    dg = np.array([[gij.gradient() for gij in row] for row in g_rows])
    dS = np.array([s.gradient() for s in spray_j])
    N = dS[:, d:]

    # delta_k g_il = d_k g_il - N^m_k d_{u^m} g_il
    delta = dg[..., :d] - np.einsum("mk,ilm->ilk", N, dg[..., d:])
    gamma_h = 0.5 * np.einsum(
        "jl,ilk->jik", g_inv,
        delta + delta.transpose(2, 0, 1) - delta.transpose(0, 2, 1))
    gamma_v = 0.5 * np.einsum("jl,ikl->jik", g_inv, dg[..., d:])

    riemann = None
    if need_curvature:
        H = np.array([s.hessian() for s in spray_j])
        riemann = (2.0 * dS[:, :d] - np.einsum("j,ijk->ik", u, H[:, :d, d:])
                   + 2.0 * np.einsum("j,ijk->ik", spray, H[:, d:, d:]) - N @ N)
    return CartanData(x=x, u=u, G=jet.value, g=g, g_inv=g_inv, spray=spray,
                      nonlinear=N, gamma_h=gamma_h, gamma_v=gamma_v,
                      riemann=riemann)


def flag_curvature(m: MetricDef, x, u, X, *, data: CartanData | None = None) -> float:
    """Flag curvature of the plane span{u, X} with flag pole u."""
    data = data if data is not None else cartan(m, x, u, need_curvature=True)
    X = np.asarray(X, dtype=float)
    g = data.g
    RX = data.riemann @ X
    num = float(X @ g @ RX)
    gu = float(data.u @ g @ data.u)
    gX = float(X @ g @ X)
    guX = float(data.u @ g @ X)
    den = gu * gX - guX ** 2
    if den <= 1e-12 * max(1.0, gu * gX):
        raise DegenerateFlagError("flag plane numerically degenerate")
    return num / den


@dataclass
class RadialFlagBounds:
    """Extremes of the flag curvature over radial planes from a pole."""

    k_inf: float
    k_sup: float
    n_samples: int

    @property
    def lower_bound_constant(self) -> float:
        """K >= 0 with radial flag curvature >= -K^2."""
        return math.sqrt(max(0.0, -self.k_inf))


def radial_flag_bounds(m: MetricDef, pole,
                       plan: SamplePlan | None = None) -> RadialFlagBounds:
    """Sample flag curvatures of radial planes along geodesic fans from the pole.

    Radial tangents are transported along geodesics (integrated by the
    geodesic module); flags are completed with deterministic directions.
    """
    from . import geodesic as geo
    plan = plan or SamplePlan()
    pole = np.asarray(pole, dtype=float)
    d = m.dim
    dirs = unit_directions(max(plan.n_dirs, 3), d, plan.seed)
    lo, hi = plan.radial_range
    ts = np.linspace(lo, hi, max(3, plan.n_points // len(dirs) + 1))
    flags = unit_directions(2 * d, d, plan.seed + 1)
    k_inf, k_sup = math.inf, -math.inf
    count = 0
    for w in dirs:
        G0 = m.value(pole, w)
        path = geo.integrate_geodesic(m, pole, w / math.sqrt(G0), hi * 1.05)
        for t in ts:
            xt, ut = path.state_at(min(t, path.arc_length * 0.999))
            data = cartan(m, xt, ut, need_curvature=True)
            for X in flags:
                gu = float(ut @ data.g @ ut)
                gX = float(X @ data.g @ X)
                guX = float(ut @ data.g @ X)
                if gu * gX - guX ** 2 < 1e-8 * gu * gX:
                    continue
                k = flag_curvature(m, xt, ut, X, data=data)
                k_inf = min(k_inf, k)
                k_sup = max(k_sup, k)
                count += 1
    return RadialFlagBounds(k_inf=k_inf, k_sup=k_sup, n_samples=count)
