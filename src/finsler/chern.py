"""Chern-Finsler connection, torsion, curvature, holomorphic sectional curvature.

All coefficients are assembled from one Wirtinger jet of G per base point.
Variables of the complexified jet are ordered [z_a, v_a, zbar_a, vbar_a].
The horizontal frame is delta_mu = d_mu - Gamma^s_{;mu} dot d_s, its conjugate
acts with the conjugated nonlinear coefficients, and the curvature components
follow the standard component formulas of the connection's curvature form.

The pairing entering the holomorphic sectional curvature is contracted as

    <Omega(chi, chibar) chi, chi> = G_{a gbar} R^a_{b; m nbar} v^b v^m
                                    conj(v^n) conj(v^g),

the (dz, dzbar) block of the curvature evaluated on the radial horizontal
direction; the Hermitian special case reduces to the classical curvature
tensor and is oracle-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError
from .geometry import MetricDef
from .jets import invert_jet_matrix
from .report import VerificationReport


@dataclass
class ChernFinslerData:
    """Connection and curvature coefficients at a fixed (z, v)."""

    z: np.ndarray
    v: np.ndarray
    G: float
    G_alpha: np.ndarray          # dG/dv^a
    levi: np.ndarray             # G_{a bbar}
    levi_inv: np.ndarray         # G^{bbar a} as inv[b][a]
    levi_cond: float
    nonlinear: np.ndarray        # Gamma^b_{;a}
    gamma_h: np.ndarray          # Gamma^a_{b;mu}, indexed [a, b, mu]
    gamma_v: np.ndarray          # Gamma^a_{b g}
    torsion_h: np.ndarray        # Gamma^a_{n;m} - Gamma^a_{m;n}
    R_zz: np.ndarray             # R^a_{b; m nbar}, indexed [a, b, m, n]


def chern_finsler(m: MetricDef, z, v) -> ChernFinslerData:
    """All Chern-Finsler connection data at (z, v)."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = m.n
    jet = m.complex_jet(z, v, 4)

    iz = lambda a: a
    iv = lambda a: n + a
    ivb = lambda a: 3 * n + a

    G = jet.value.real
    G_alpha = jet.gradient()[n:2 * n]

    # order-2 jets of the Levi matrix and its inverse
    levi_jets = [[jet.extract(iv(a)).extract(ivb(b)) for b in range(n)]
                 for a in range(n)]
    levi = np.array([[levi_jets[a][b].value for b in range(n)] for a in range(n)])
    cond = float(np.linalg.cond(levi))
    if not np.isfinite(cond) or cond > 1e10:
        raise DegenerateMetricError(f"Levi matrix condition number {cond:.2e}")
    inv_jets = invert_jet_matrix(levi_jets)
    levi_inv = np.array([[inv_jets[a][b].value for b in range(n)] for a in range(n)])

    # nonlinear coefficients Gamma^s_{;mu} = G^{gbar s} G_{gbar; mu} (order 2)
    nl_jets = [[None] * n for _ in range(n)]
    for s in range(n):
        for mu in range(n):
            acc = None
            for g in range(n):
                t = inv_jets[g][s] * jet.extract(ivb(g)).extract(iz(mu))
                acc = t if acc is None else acc + t
            nl_jets[s][mu] = acc
    nonlinear = np.array([[nl_jets[s][mu].value for mu in range(n)]
                          for s in range(n)])

    # delta_mu(G_{b tbar}) as order-1 jets
    def delta_of_levi(b, t_, mu):
        out = levi_jets[b][t_].extract(iz(mu))
        for s in range(n):
            out = out - nl_jets[s][mu].truncate(1) * levi_jets[b][t_].extract(iv(s))
        return out

    delta_levi = [[[delta_of_levi(b, t_, mu) for mu in range(n)] for t_ in range(n)]
                  for b in range(n)]
    gamma_h_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for mu in range(n):
                acc = None
                for t_ in range(n):
                    t = inv_jets[t_][a].truncate(1) * delta_levi[b][t_][mu]
                    acc = t if acc is None else acc + t
                gamma_h_jets[a][b][mu] = acc
    gamma_h = np.array([[[gamma_h_jets[a][b][mu].value for mu in range(n)]
                         for b in range(n)] for a in range(n)])
    torsion_h = gamma_h - gamma_h.transpose(0, 2, 1)

    # Gamma^a_{b g} = G^{tbar a} d_{v^g} G_{b tbar}, from values alone
    dv_levi = np.array([[lj.gradient()[n:2 * n] for lj in row] for row in levi_jets])
    gamma_v = np.einsum("ta,btg->abg", levi_inv, dv_levi)

    # conjugate horizontal frame delta_nubar = d_zbar - conj(N^s_nu) d_vbar^s on
    # gathered gradients; the s sum subtracts term by term, as a scalar loop does
    nl_conj = nonlinear.conj()

    def delta_bar(grad):
        out = grad[..., 2 * n:3 * n]  # d_zbar
        for s in range(n):
            out = out - nl_conj[s] * grad[..., ivb(s), None]
        return out

    dbar_gamma_h = delta_bar(np.array(
        [[[gj.gradient() for gj in row] for row in plane] for plane in gamma_h_jets]))
    dbar_nl = delta_bar(np.array([[nj.gradient() for nj in row] for row in nl_jets]))
    R_zz = -dbar_gamma_h
    for s in range(n):
        R_zz = R_zz - gamma_v[:, :, s, None, None] * dbar_nl[s]

    return ChernFinslerData(
        z=z, v=v, G=G, G_alpha=G_alpha, levi=levi, levi_inv=levi_inv,
        levi_cond=cond, nonlinear=nonlinear, gamma_h=gamma_h, gamma_v=gamma_v,
        torsion_h=torsion_h, R_zz=R_zz)


def curvature_pairing(data: ChernFinslerData) -> complex:
    """<Omega(chi, chibar) chi, chi> on the radial horizontal direction."""
    v = data.v
    return np.einsum("ag,abmn,b,m,n,g->", data.levi, data.R_zz,
                     v, v, v.conj(), v.conj())


def holomorphic_sectional_curvature(m: MetricDef, z, v, *,
                                    data: ChernFinslerData | None = None,
                                    return_imag=False):
    """K_G(v) = 2 <Omega(chi,chibar)chi,chi> / G(v)^2 (real scalar)."""
    data = data if data is not None else chern_finsler(m, z, v)
    num = curvature_pairing(data)
    k = 2.0 * num / data.G ** 2
    if return_imag:
        return float(k.real), abs(float(k.imag))
    return float(k.real)


def scale_invariance_check(m: MetricDef, z, v, zeta) -> VerificationReport:
    """K_G(v) equals K_G(zeta v) to 1e-8 for nonzero complex zeta (homogeneity)."""
    tol = 1e-8
    zeta = complex(zeta)
    if zeta == 0:
        raise ValueError("zeta must be nonzero")
    v = np.asarray(v, dtype=complex)
    w = zeta * v
    # stay on the slit bundle for tiny rescalings
    nw = float(np.linalg.norm(w))
    renormalized = False
    if nw < 1e-6:
        w = w / nw
        renormalized = True
    k1 = holomorphic_sectional_curvature(m, z, v)
    k2 = holomorphic_sectional_curvature(m, z, w)
    diff = abs(k1 - k2)
    return VerificationReport(
        name=f"holomorphic_curvature_scale_invariance:{m.family_id}",
        passed=diff < tol, tolerance=tol,
        stats={"K_v": k1, "K_scaled": k2, "difference": diff,
               "zeta": zeta, "renormalized": renormalized})
