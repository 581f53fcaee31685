"""Chern-Finsler connection, torsion, curvature, holomorphic sectional curvature.

All data are read from the gathered derivative tensors D2, D3, D4 of one
order-4 Wirtinger jet of G over [z, v, zbar, vbar]; write Z, V, ZB, VB for the
four blocks, d for a derivative in any of the 4n variables, and contract with
einsum. The Levi matrix and its derivatives are slices,

    L = D2[V, VB],  dL = D3[V, VB, :],  d2L = D4[V, VB, :, :],

and the inverse is differentiated implicitly, d(L^-1) = -L^-1 dL L^-1. With
G^{tbar a} = (L^-1)[t, a] the nonlinear connection and the horizontal
derivative of the Levi matrix are

    N^s_mu   = G^{gbar s} D2[VB, Z]_{g mu},
    dN       = d(L^-1)^T D2[VB, Z] + L^-T D3[VB, Z, :],
    delta_mu L_{b tbar} = d_{z^mu} L_{b tbar} - N^s_mu d_{v^s} L_{b tbar},

and the connection is Gamma^a_{b;mu} = G^{tbar a} delta_mu L_{b tbar},
Gamma^a_{b g} = G^{tbar a} d_{v^g} L_{b tbar}, with torsion
Gamma^a_{n;m} - Gamma^a_{m;n}. Only first derivatives of L^-1 and N are read:
the conjugate frame delta_nubar = d_zbar^nu - conj(N^s_nu) d_vbar^s applied to
Gamma_h and N gives the (dz, dzbar) curvature block

    R^a_{b; mu nubar} = -delta_nubar Gamma^a_{b;mu} - Gamma^a_{b s} delta_nubar N^s_mu.

The pairing entering the holomorphic sectional curvature is contracted as

    <Omega(chi, chibar) chi, chi> = G_{a gbar} R^a_{b; m nbar} v^b v^m
                                    conj(v^n) conj(v^g),

the (dz, dzbar) block of the curvature evaluated on the radial horizontal
direction; the Hermitian special case reduces to the classical curvature
tensor and is oracle-tested.

Every function takes B rows z, v of shape (B, n), one point being one row.
The jets come from one ``MetricDef.complex_rows`` replay, and the contractions
run with a leading axis of rows, each row's result independent of the others.
The replay keeps only the monomials of (v, vbar)-degree >= degree - 2: the
algebra reads D3 only with a V or VB index and D4 only with both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import MetricDef, well_conditioned_inverse
from .jets import JetSpace


@dataclass
class ChernFinslerData:
    """Connection and curvature coefficients at B rows (z, v), each field with
    a leading axis of length B."""

    v: np.ndarray
    G: np.ndarray
    G_alpha: np.ndarray          # dG/dv^a
    levi: np.ndarray             # G_{a bbar}
    levi_inv: np.ndarray         # G^{bbar a} as inv[b][a]
    nonlinear: np.ndarray        # Gamma^b_{;a}
    gamma_h: np.ndarray          # Gamma^a_{b;mu}, indexed [a, b, mu]
    gamma_v: np.ndarray          # Gamma^a_{b g}
    torsion_h: np.ndarray        # Gamma^a_{n;m} - Gamma^a_{m;n}
    R_zz: np.ndarray             # R^a_{b; m nbar}, indexed [a, b, m, n]


def chern_finsler(m: MetricDef, z, v) -> ChernFinslerData:
    """All Chern-Finsler connection data at each row of z, v of shape (B, n),
    from one order-4 replay."""
    v = np.asarray(v, dtype=complex)
    n = m.n
    Z, V, ZB, VB = (slice(k * n, (k + 1) * n) for k in range(4))
    coeffs = m.complex_rows(z, v, JetSpace.get(4 * n, 4, fibre=range(2 * n, 4 * n), reach=2))
    sp = JetSpace.get(4 * n, 4, True, 2 * n, (*range(n, 2 * n), *range(3 * n, 4 * n)), 2)
    partials = functools.partial(sp.gather, coeffs)
    # the blocks the algebra reads, each with the bits of the full tensor's slice
    D2 = partials(2)
    levi = D2[..., V, VB]
    levi_inv = well_conditioned_inverse(levi, "Levi matrix")
    dL = partials(3, V, VB)        # dL[b, t, c] = d_c G_{b tbar}
    d2L = partials(4, V, VB)
    # d_inv[a, d, e] = d_e (L^-1)[a, d]; the two inverses multiply first, as
    # the reciprocal's coefficient -1/L^2 does at n = 1
    d_inv = -np.einsum("...ab,...cd,...bce->...ade", levi_inv, levi_inv, dL)

    # N^s_mu = G^{gbar s} G_{gbar; mu} and its gradient
    X = D2[..., VB, Z]
    nonlinear = np.einsum("...gs,...gm->...sm", levi_inv, X)
    dN = (np.einsum("...gse,...gm->...sme", d_inv, X)
          + np.einsum("...gs,...gme->...sme", levi_inv, partials(3, VB, Z)))

    # delta_mu G_{b tbar} and its gradient, whose two product terms add before
    # they are subtracted, as one jet product's do
    delta = dL[..., Z] - np.einsum("...sm,...bts->...btm", nonlinear, dL[..., V])
    d_delta = d2L[..., Z, :] - (
        np.einsum("...sme,...bts->...btme", dN, dL[..., V])
        + np.einsum("...sm,...btse->...btme", nonlinear, d2L[..., V, :]))
    # Gamma^a_{b;mu} = G^{tbar a} delta_mu G_{b tbar} and its gradient
    gamma_h = np.einsum("...ta,...btm->...abm", levi_inv, delta)
    d_gamma_h = (np.einsum("...tae,...btm->...abme", d_inv, delta)
                 + np.einsum("...ta,...btme->...abme", levi_inv, d_delta))
    torsion_h = gamma_h - np.swapaxes(gamma_h, -1, -2)
    gamma_v = np.einsum("...ta,...btg->...abg", levi_inv, dL[..., V])

    # conjugate horizontal frame delta_nubar = d_zbar - conj(N^s_nu) d_vbar^s on
    # gradients; the s sum subtracts term by term, as a scalar loop does
    nl_conj = nonlinear.conj()

    def delta_bar(grad):
        out, d_vbar = grad[..., ZB], grad[..., VB]
        # conj(N^s_nu) broadcast over the axes of grad between rows and nu
        across = (None,) * (grad.ndim - nl_conj.ndim + 1)
        for s in range(n):
            out = out - nl_conj[(..., s) + across + (slice(None),)] * d_vbar[..., s, None]
        return out

    dbar_nl = delta_bar(dN)
    R_zz = -delta_bar(d_gamma_h)
    for s in range(n):
        R_zz = R_zz - gamma_v[..., s, None, None] * dbar_nl[..., s, None, None, :, :]

    return ChernFinslerData(
        v=v, G=coeffs[:, 0].real,
        G_alpha=partials(1, V), levi=levi,
        levi_inv=levi_inv, nonlinear=nonlinear, gamma_h=gamma_h,
        gamma_v=gamma_v, torsion_h=torsion_h, R_zz=R_zz)


def curvature_pairing(data: ChernFinslerData):
    """<Omega(chi, chibar) chi, chi> on the radial horizontal direction, one
    complex number per row."""
    v = data.v
    return np.einsum("...ag,...abmn,...b,...m,...n,...g->...", data.levi, data.R_zz,
                     v, v, v.conj(), v.conj())


def holomorphic_sectional_curvature(m: MetricDef, z, v) -> np.ndarray:
    """K_G(v) = 2 <Omega(chi,chibar)chi,chi> / G(v)^2 at each row of z, v."""
    data = chern_finsler(m, z, v)
    # G^2 per sample as a float power, which libm's pow rounds; numpy squares
    # an array as x * x, which can differ in the last bit
    square = np.array([g ** 2 for g in data.G.tolist()])
    return (2.0 * curvature_pairing(data) / square).real
