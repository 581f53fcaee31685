"""Cartan connection, horizontal frame, and flag curvature of real Finsler metrics.

All data are read from the gathered derivative tensors of one jet of G over
z = (x, u). The spray S^i = G^i solves g S = b/4, with g = (1/2) d2G/du du and
b_l = u^k d2G/du^l dx^k - dG/dx^l; differentiating g S = b/4 in z gives

    dS  = g^-1 (db/4 - dg.S)
    d2S = g^-1 (d2b/4 - d2g.S - dg.dS - (dg.dS)^T),   (dg.dS)^i_ac = d_a g_il d_c S^l,

from the order-3 and order-4 jets; ``spray_jacobian`` is the one route to dS,
and needs order 3 only. N = dS/du is the nonlinear connection, and
the curvature is the spray's Riemann operator

    R^i_k = 2 dS^i/dx^k - u^j d2S^i/dx^j du^k + 2 S^j d2S^i/du^j du^k - N^i_j N^j_k,

which annihilates the flag pole, g(R u, .) = 0, so the flag-curvature ratio is
invariant under X -> X + c u by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFlagError, DegenerateMetricError
from .geometry import MetricDef, SamplePlan, unit_directions, well_conditioned_inverse
from .jets import JetSpace
from .report import require_finite


@dataclass
class CartanData:
    """Connection and curvature coefficients at a fixed (x, u)."""

    u: np.ndarray
    g: np.ndarray              # fundamental tensor g_ij = (1/2) G_ij
    spray: np.ndarray          # G^i, geodesic equation xddot + 2 G = 0
    nonlinear: np.ndarray      # N^i_j = dG^i/du^j
    gamma_h: np.ndarray | None  # horizontal coefficients Gamma^j_{i;k}
    gamma_v: np.ndarray | None  # vertical coefficients Gamma^j_{ik}
    riemann: np.ndarray | None  # R^i_k of the spray


def _spray(H, dG, u, d) -> np.ndarray:
    """G^i, the solution of g S = b / 4, from the Hessian H and the gradient dG
    of G over (x, u), with any leading shape: (2d, 2d) and (2d) for a point,
    (B, 2d, 2d) and (B, 2d) for B rows, each row summed and solved as a point."""
    # (d^2 G / du^l dx^k) u^k; cumsum adds over k in order, as a scalar loop
    # does, where a pairwise sum would round differently
    rhs = np.cumsum(H[..., d:, :d] * u[..., None, :], axis=-1)[..., -1] - dG[..., :d]
    try:
        return 0.25 * np.linalg.solve(0.5 * H[..., d:, d:], rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError("fundamental tensor singular") from exc


def spray_coefficients(m: MetricDef, x, u) -> np.ndarray:
    """Values of the geodesic coefficients G^i(x, u) (fast path for ODEs); rows
    x, u of shape (B, d) give the B sprays from one batched order-2 replay,
    each bit for bit its point's."""
    u = np.asarray(u, dtype=float)
    coeffs = m.real_rows(x, u, 2) if np.ndim(x) == 2 else m.real_jet(x, u, 2).coeffs
    sp = JetSpace.get(2 * m.dim, 2)
    (i1, s1), (i2, s2) = sp.derivative_table(1), sp.derivative_table(2)
    return _spray(coeffs.take(i2, axis=-1) * s2, coeffs.take(i1, axis=-1) * s1, u, m.dim)


def spray_jacobian(jet, u, d):
    """(g, g^-1, S, dS) from a jet of G over (x, u) of order >= 3, dS the d x 2d
    derivative of the spray in (x, u); raises ``DegenerateMetricError`` when g
    is singular or ill-conditioned."""
    D2 = jet.hessian()
    g = 0.5 * D2[d:, d:]
    g_inv = well_conditioned_inverse(g, "fundamental tensor")
    spray = _spray(D2, jet.gradient(), u, d)
    D3 = jet.derivatives(3)
    dg = 0.5 * D3[d:, d:]      # dg[i, l, a] = d_a g_il over a = (x, u)
    # d_a b_l, where b_l = u^k d^2 G / du^l dx^k - dG / dx^l
    db = np.einsum("lka,k->la", D3[d:, :d], u) - D2[:d]
    db[:, d:] += D2[d:, :d]
    return g, g_inv, spray, g_inv @ (0.25 * db - np.einsum("ila,l->ia", dg, spray))


def cartan(m: MetricDef, x, u, *, need_curvature=True) -> CartanData:
    """Cartan connection data at (x, u); curvature optional (cheaper without)."""
    u = np.asarray(u, dtype=float)
    d = m.dim
    jet = m.real_jet(x, u, 4 if need_curvature else 3)
    g, g_inv, spray, dS = spray_jacobian(jet, u, d)
    N = dS[:, d:]
    D3 = jet.derivatives(3)
    dg = 0.5 * D3[d:, d:]

    # delta_k g_il = d_k g_il - N^m_k d_{u^m} g_il
    delta = dg[..., :d] - np.einsum("mk,ilm->ilk", N, dg[..., d:])
    gamma_h = 0.5 * np.einsum(
        "jl,ilk->jik", g_inv,
        delta + delta.transpose(2, 0, 1) - delta.transpose(0, 2, 1))
    gamma_v = 0.5 * np.einsum("jl,ikl->jik", g_inv, dg[..., d:])

    riemann = None
    if need_curvature:
        D4 = jet.derivatives(4)
        d2b = np.einsum("lkac,k->lac", D4[d:, :d], u) - D3[:d]
        d2b[:, d:] += D3[d:, :d]
        d2b[:, :, d:] += D3[d:, :d].transpose(0, 2, 1)
        dg_dS = np.einsum("ila,lc->iac", dg, dS)
        d2S = np.einsum("jl,lac->jac", g_inv,
                        0.25 * d2b - np.einsum("ilac,l->iac", 0.5 * D4[d:, d:], spray)
                        - dg_dS - dg_dS.transpose(0, 2, 1))
        riemann = (2.0 * dS[:, :d] - np.einsum("j,ijk->ik", u, d2S[:, :d, d:])
                   + 2.0 * np.einsum("j,ijk->ik", spray, d2S[:, d:, d:]) - N @ N)
    return CartanData(u=u, g=g, spray=spray, nonlinear=N, gamma_h=gamma_h,
                      gamma_v=gamma_v, riemann=riemann)


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

    Radial tangents are transported along the fan's geodesics, integrated as
    one stacked state (``geodesic.integrate_fan``); a geodesic that leaves
    the domain is sampled up to 0.999 of its own exit length. Flags are
    completed with deterministic directions. A NaN or infinite flag curvature
    raises ``NonFiniteSampleError``.
    """
    from . import geodesic as geo
    plan = plan or SamplePlan()
    pole = np.asarray(pole, dtype=float)
    d = m.dim
    dirs = unit_directions(max(plan.n_dirs, 3), d, plan.seed)
    lo, hi = plan.radial_range
    ts = np.linspace(lo, hi, max(3, plan.n_points // len(dirs) + 1))
    flags = unit_directions(2 * d, d, plan.seed + 1)
    fan = geo.integrate_fan(m, pole, [w / math.sqrt(m.value(pole, w)) for w in dirs], hi * 1.05)
    ks = []
    for b, arc_length in enumerate(fan.arc_lengths):
        for t in ts:
            xt, ut = fan.state_at(b, min(t, arc_length * 0.999))
            data = cartan(m, xt, ut, need_curvature=True)
            for X in flags:
                gu = float(ut @ data.g @ ut)
                gX = float(X @ data.g @ X)
                guX = float(ut @ data.g @ X)
                if gu * gX - guX ** 2 < 1e-8 * gu * gX:
                    continue
                ks.append(require_finite(flag_curvature(m, xt, ut, X, data=data)))
    return RadialFlagBounds(k_inf=min(ks, default=math.inf), k_sup=max(ks, default=-math.inf),
                            n_samples=len(ks))
