"""Cartan connection, horizontal frame, and flag curvature of real Finsler metrics.

All data are read from the derivative tensors of a jet of G over z = (x, u),
each gathered once from the jet's coefficients at a point, or from the
coefficient rows of a stack of points (one ``real_rows`` replay). The spray
is S = g^-1 b/4 from one inverse of g on every route, g = (1/2) d2G/du du and
b_l = u^k d2G/du^l dx^k - dG/dx^l; differentiating g S = b/4 in z gives

    dS  = g^-1 (db/4 - dg.S)
    d2S = g^-1 (d2b/4 - d2g.S - dg.dS - (dg.dS)^T),   (dg.dS)^i_ac = d_a g_il d_c S^l,

from the order-3 and order-4 jets; dS needs order 3 only, and
``spray_jacobian`` reads it without the curvature. Both jets keep only the
monomials of u-degree >= degree - 2 (the spray's, of order 2, >= degree - 1):
every block read has a u index, and d2S is formed on its u columns. N = dS/du
is the nonlinear connection, and the curvature is the spray's Riemann operator

    R^i_k = 2 dS^i/dx^k - u^j d2S^i/dx^j du^k + 2 S^j d2S^i/du^j du^k - N^i_j N^j_k,

which annihilates the flag pole, g(R u, .) = 0, so the flag-curvature ratio is
invariant under X -> X + c u by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFlagError, DegenerateMetricError, NoSamplesError
from .geometry import MetricDef, SamplePlan, unit_directions, well_conditioned_inverse
from .jets import Jet
from .report import require_finite


@dataclass
class CartanData:
    """The fundamental tensor, spray, nonlinear connection and spray curvature
    at a point (x, u), or at each row of x, u: every field then has a leading
    row axis. The connection's own coefficients Gamma, which no route reads,
    are not formed."""

    u: np.ndarray
    g: np.ndarray              # fundamental tensor g_ij = (1/2) G_ij
    spray: np.ndarray          # G^i, geodesic equation xddot + 2 G = 0
    nonlinear: np.ndarray      # N^i_j = dG^i/du^j
    riemann: np.ndarray        # R^i_k of the spray


def _spray(g_inv, Hu, dG, u, d) -> np.ndarray:
    """G^i = g^-1 b / 4 from the inverse of g, the u rows Hu of the Hessian and
    the gradient dG of G over (x, u), with any leading shape: (d, d), (d, 2d)
    and (2d) for a point, (B, d, d), (B, d, 2d) and (B, 2d) for B rows, each
    row as a point; b_l = (d^2 G / du^l dx^k) u^k - dG / dx^l."""
    b = (Hu[..., :d] @ u[..., None])[..., 0] - dG[..., :d]
    return (g_inv @ (0.25 * b)[..., None])[..., 0]


def spray_coefficients(m: MetricDef, x, u) -> np.ndarray:
    """Values of the geodesic coefficients G^i at each row of x, u of shape
    (B, d), a point being one row (fast path for ODEs): the B sprays from one
    order-2 ``real_rows`` replay over ``fibre_space(2, 1)`` (``spray_space``),
    row b independent of the other rows."""
    u = np.asarray(u, dtype=float)
    sp, d = m.spray_space, m.dim
    coeffs = m.real_rows(x, u, sp)
    Hu = sp.gather(coeffs, 2, slice(d, None))
    return _spray(_inverse(0.5 * Hu[..., d:], "fundamental tensor"), Hu, sp.gather(coeffs, 1), u, d)


def _inverse(a, what) -> np.ndarray:
    """Ungated ``np.linalg.inv`` of ``what``; a singular one raises ``DegenerateMetricError``."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"{what} singular") from exc


@functools.cache
def _jacobian_table(sp):
    """``(idx, scale)`` gathering D1 and the 2d-long rows of D2 and D3's u rows over ``sp``."""
    D1, D2, D3 = (sp.derivative_table(k) for k in (1, 2, 3))
    return tuple(np.concatenate([D1[i][None], D2[i], D3[i][sp.nvars // 2:].reshape(-1, sp.nvars)])
                 for i in (0, 1))


def _jacobian(sp, coeffs, u, inverse):
    """(g, g^-1, S, dS, D3u, dg) from coefficients over ``sp`` of jets of G over
    (x, u) by one gather and ``inverse`` of g; dg[..., i, l, a] = d_a g_il."""
    d = u.shape[-1]
    idx, scale = _jacobian_table(sp)
    D = coeffs.take(idx, axis=-1) * scale
    D2, D3u = D[..., 1:2 * d + 1, :], D[..., 2 * d + 1:, :].reshape(*D.shape[:-2], d, 2 * d, -1)
    g = 0.5 * D2[..., d:, d:]
    g_inv = inverse(g, "fundamental tensor")
    S = _spray(g_inv, D2[..., d:, :], D[..., 0, :], u, d)
    dg = 0.5 * D3u[..., d:, :]
    # d_a b_l, where b_l = u^k d^2 G / du^l dx^k - dG / dx^l
    db = (u[..., None, None, :] @ D3u[..., :d, :])[..., 0, :] - D2[..., :d, :]
    db[..., d:] += D2[..., d:, :d]
    return g, g_inv, S, g_inv @ (0.25 * db - (S[..., None, None, :] @ dg)[..., 0, :]), D3u, dg


def spray_jacobian(jet: Jet, u):
    """(g, g^-1, S, dS) from a jet of G over (x, u) of order >= 3 whose basis
    keeps u-degree >= degree - 2 (``fibre_space(3, 2)`` is the least), its
    coefficients a point's, shape (n,), or B rows, shape (B, n), with u of
    shape (d,) or (B, d); dS is the d x 2d derivative of the spray in (x, u).
    Raises ``DegenerateMetricError`` where g is singular, or ill-conditioned at
    a point: rows, a variational integration's states, are gated at its readout."""
    inverse = _inverse if jet.coeffs.ndim > 1 else well_conditioned_inverse
    return _jacobian(jet.space, jet.coeffs, np.asarray(u, dtype=float), inverse)[:4]


def cartan(m: MetricDef, x, u) -> CartanData:
    """The Cartan data (``CartanData``: g, spray, N and the spray curvature)
    at (x, u) of shape (d,), or at each row of x, u of shape (B, d) from one
    order-4 ``real_rows`` replay, each row bit for bit its point's."""
    u = np.asarray(u, dtype=float)
    d = m.dim
    sp, U = m.fibre_space(4, 2), slice(d, None)
    coeffs = m.real_rows(x, u, sp) if np.ndim(x) == 2 else m.real_jet(x, u, sp).coeffs
    g, g_inv, spray, dS, D3u, dg = _jacobian(sp, coeffs, u, well_conditioned_inverse)
    D4 = sp.gather(coeffs, 4, U, slice(None), slice(None), U)   # its u rows and columns
    N = dS[..., d:]

    # d2b and d2S on the u columns riemann reads; D3[x, :, u] is D3u moved
    d2b = (np.einsum("...lkac,...k->...lac", D4[..., :d, :, :], u)
           - np.moveaxis(D3u[..., :d, :], -3, -1))
    d2b[..., d:, :] += D3u[..., :d, d:]
    d2b += np.swapaxes(D3u[..., :d, :], -1, -2)
    dg_dS = np.einsum("...ila,...lc->...iac", dg, dS)
    d2g_S = np.einsum("...ilac,...l->...iac", 0.5 * D4[..., d:, :, :], spray)
    d2S = np.einsum("...jl,...lac->...jac", g_inv, 0.25 * d2b - d2g_S - dg_dS[..., d:]
                    - np.swapaxes(dg_dS, -1, -2)[..., d:])
    riemann = (2.0 * dS[..., :d] - np.einsum("...j,...ijk->...ik", u, d2S[..., :d, :])
               + 2.0 * np.einsum("...j,...ijk->...ik", spray, d2S[..., d:, :]) - N @ N)
    return CartanData(u=u, g=g, spray=spray, nonlinear=N, riemann=riemann)


def _flag_ratio(g, R, X, gu, gX, guX) -> float:
    """The flag curvature of span{u, X} with flag pole u: g(X, R X) over the
    area gu gX - guX^2 of the plane, from its Gram entries gu = g(u, u),
    gX = g(X, X) and guX = g(u, X); raises ``DegenerateFlagError`` when the
    area is numerically zero."""
    den = gu * gX - guX ** 2
    if den <= 1e-12 * max(1.0, gu * gX):
        raise DegenerateFlagError("flag plane numerically degenerate")
    return float(X @ g @ (R @ X)) / den


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


def radial_flag_bounds(m: MetricDef, pole, plan: SamplePlan) -> RadialFlagBounds:
    """Sample flag curvatures of radial planes along geodesic fans from the pole.

    Radial tangents are transported along the fan's geodesics, integrated as
    one stacked state (``geodesic.integrate_geodesic``); a geodesic that leaves
    the domain is sampled up to 0.999 of its own exit length. One read of
    the fan gives every sample, and one stacked ``cartan`` call their Cartan
    data. Flags are
    completed with deterministic directions; a flag plane whose Gram
    determinant is below 1e-8 g(u, u) g(X, X) is skipped, and a fan whose
    planes are all skipped raises ``NoSamplesError``. A NaN or infinite flag
    curvature raises ``NonFiniteSampleError``.
    """
    from . import geodesic as geo
    pole = np.asarray(pole, dtype=float)
    d = m.dim
    dirs = unit_directions(max(plan.n_dirs, 3), d, plan.seed)
    lo, hi = plan.radial_range
    ts = np.linspace(lo, hi, max(3, plan.n_points // len(dirs) + 1))
    flags = unit_directions(2 * d, d, plan.seed + 1)
    fan = geo.integrate_geodesic(m, pole, dirs / np.sqrt(m.value(pole, dirs))[:, None], hi * 1.05)
    X, U = fan.state_at(np.arange(len(dirs))[:, None],   # member b's at row b
                        np.minimum(ts, fan.arc_lengths[:, None] * 0.999))
    data = cartan(m, X.reshape(-1, d), U.reshape(-1, d))
    ks = []
    for g, R, u in zip(data.g, data.riemann, data.u):
        for X in flags:
            gu, gX, guX = float(u @ g @ u), float(X @ g @ X), float(u @ g @ X)
            if gu * gX - guX ** 2 < 1e-8 * gu * gX:
                continue
            ks.append(require_finite(_flag_ratio(g, R, X, gu, gX, guX)))
    if not ks:
        raise NoSamplesError("every radial flag plane was degenerate")
    return RadialFlagBounds(k_inf=min(ks), k_sup=max(ks), n_samples=len(ks))
