"""Complex-side distance analytics: Levi forms of rho^2 and gradient identities.

The Levi form of the squared distance contracted against a unit (1,0) vector
is computed through the realification identity

    4 d^2 rho^2 / dz dzbar (v, vbar) = D^2 rho^2(u, u) + D^2 rho^2(Ju, Ju),

with u the realification of v and D^2 the covariant Hessian at reference
vector T. Both terms come from one distance Hessian, the boundary form H of
the system that ``geodesic.distance_hessian`` returns: one shot to the point,
the radial geodesic and the fundamental system of Jacobi fields along it give
H = P^T g_T W M^-1 P, and D^2 rho^2(w, w) = 2 g_T(T, w)^2 + 2 rho H(w, w).
The Jacobi fields solve the linearized geodesic flow, so a sample reads
order-3 jets only. The distance function is kept away from the pole, where
it is not smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cartan import cartan
from .errors import ConfigurationError
from .geodesic import PoleDistance, distance_hessian, legendre_gradient
from .geometry import (MetricDef, apply_J, complex_to_real_components,
                       realify_metric)
from .jets import JetSpace, wirtinger
from .report import VerificationReport


@dataclass
class LeviSample:
    """One Levi-form sample of rho^2 with its comparison bound."""

    z: np.ndarray
    v: np.ndarray
    levi_value: float
    rho: float
    bound: float                 # 2 + rho K
    margin: float


class LeviField:
    """Levi-form evaluator of rho^2 for a strongly convex complex metric."""

    def __init__(self, m: MetricDef, pole, *, curvature_K=0.0):
        if not m.is_complex:
            raise ConfigurationError("Levi analytics need a complex metric")
        self.m = m
        self.mr = realify_metric(m)
        self.pole_z = np.asarray(pole, dtype=complex)
        self.pole = complex_to_real_components(self.pole_z)
        self.pd = PoleDistance(self.mr, self.pole)
        self.K = float(curvature_K)

    def sample(self, z, v) -> LeviSample:
        """Levi value of rho^2 at (z, v) with the bound 2 + rho K."""
        return self.samples(z, [v])[0]

    def samples(self, z, dirs) -> list:
        """Levi samples at z in each direction of ``dirs``, all read from the
        one distance Hessian at z."""
        z = np.asarray(z, dtype=complex)
        x = complex_to_real_components(z)
        if float(np.linalg.norm(x - self.pole)) < 1e-3:
            raise ConfigurationError("Levi sampling excludes a neighborhood of the pole")
        system = distance_hessian(self.pd, x)
        H = system.boundary_form()
        drho = system.g @ system.T

        def d2_rho2(w):
            return 2.0 * float(drho @ w) ** 2 + 2.0 * system.r * float(w @ H @ w)

        bound = 2.0 + system.r * self.K
        out = []
        for v in dirs:
            v = np.asarray(v, dtype=complex)
            # normalize to a metric-unit vector
            v = v / math.sqrt(self.m.value(z, v))
            u = complex_to_real_components(v)
            levi_value = 0.25 * (d2_rho2(u) + d2_rho2(apply_J(u)))
            out.append(LeviSample(z=z, v=v, levi_value=levi_value, rho=system.r,
                                  bound=bound, margin=bound - levi_value))
        return out


# -- Hessian/Levi identity for smooth test functions ---------------------------------


def levi_identity_residual(m: MetricDef, f, z, X) -> dict:
    """Residual of 4 f_{;a bbar} Xo Xobar = D^2 f(X, X) + D^2 f(JX, JX).

    ``f`` is a smooth closed-form function of the real point coordinates,
    evaluable on jets. The left side uses Wirtinger derivatives of f, the
    right side the covariant Hessian at reference vector grad f; both sides
    are assembled through unrelated code paths.
    """
    mr = realify_metric(m)
    z = np.asarray(z, dtype=complex)
    x = complex_to_real_components(z)
    X = np.asarray(X, dtype=float)
    d = mr.dim
    n = m.n

    sp = JetSpace.get(d, 2, False)
    fj = f(sp.variables(x))
    grad = fj.gradient()
    hess = fj.hessian()

    # f_{;a bbar}: the (z, zbar) block of the Wirtinger Hessian
    f_abar = wirtinger(fj, [(a, n + a) for a in range(n)]).hessian()[:n, n:]
    Xo = X[:n] + 1j * X[n:]       # (1,0)-part of X in the d/dz frame
    lhs = 4.0 * np.einsum("ab,a,b->", f_abar, Xo, Xo.conj())

    Y = legendre_gradient(mr, grad, x)
    conn = cartan(mr, x, Y, need_curvature=False)

    def d2(wv):
        quad = float(wv @ hess @ wv)
        corr = float(np.einsum("kij,i,j->k", conn.gamma_h, wv, wv) @ grad)
        return quad - corr

    rhs = d2(X) + d2(apply_J(X))
    scale = max(1.0, abs(lhs), abs(rhs))
    return {"lhs": complex(lhs), "rhs": float(rhs),
            "residual": abs(lhs.real - rhs) + abs(lhs.imag),
            "relative_residual": (abs(lhs.real - rhs) + abs(lhs.imag)) / scale}


# -- gradient identities ---------------------------------------------------------------


def gradient_identity(m: MetricDef, pole, z) -> VerificationReport:
    """Radial pairing identities of the distance gradient.

    Checks that the real pairing of grad(rho^2) with the arriving unit tangent
    is 2 rho, and that half of the complex pairing against the (1,0) part of
    the tangent is rho. The gradient is recovered from numerically
    differentiated rho^2 through the Legendre transform, independently of the
    shooting tangent. Both pairings must hold to 1e-6 relative.
    """
    tol = 1e-6
    mr = realify_metric(m)
    pole_x = complex_to_real_components(np.asarray(pole, dtype=complex))
    pd = PoleDistance(mr, pole_x)
    z = np.asarray(z, dtype=complex)
    x = complex_to_real_components(z)
    base = pd.rho(x)
    d = mr.dim

    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    df = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fp = pd.rho(x + e).value ** 2
        fm = pd.rho(x - e).value ** 2
        fp2 = pd.rho(x + 0.5 * e).value ** 2
        fm2 = pd.rho(x - 0.5 * e).value ** 2
        d_h = (fp - fm) / (2 * h)
        d_h2 = (fp2 - fm2) / h
        df[i] = (4.0 * d_h2 - d_h) / 3.0

    Y = legendre_gradient(mr, df, x)
    conn_T = cartan(mr, x, base.T, need_curvature=False)
    real_pairing = float(Y @ conn_T.g @ base.T)

    T_c = base.T[:m.n] + 1j * base.T[m.n:]
    Y_c = Y[:m.n] + 1j * Y[m.n:]
    levi_T = m.levi_matrix(z, T_c)
    complex_pairing = 0.5 * np.einsum("ab,a,b->", levi_T, Y_c, T_c.conj())

    rho = base.value
    err_real = abs(real_pairing - 2.0 * rho) / max(1.0, 2.0 * rho)
    err_complex = abs(complex_pairing - rho) / max(1.0, rho)
    return VerificationReport(
        name=f"gradient_identity:{m.family_id}",
        passed=err_real < tol and err_complex < tol,
        tolerance=tol,
        stats={"rho": rho, "real_pairing": real_pairing,
               "complex_pairing_re": float(complex_pairing.real),
               "complex_pairing_im": float(complex_pairing.imag),
               "relative_error_real": err_real,
               "relative_error_complex": err_complex})
