"""Complex-side distance analytics: Levi forms of rho^2.

The Levi form of the squared distance contracted against a unit (1,0) vector
is computed through the realification identity

    4 d^2 rho^2 / dz dzbar (v, vbar) = D^2 rho^2(u, u) + D^2 rho^2(Ju, Ju),

with u the realification of v and D^2 the covariant Hessian at reference
vector T. Both terms come from one distance Hessian, the boundary form H of
the system that ``geodesic.distance_hessian`` returns: the shot that lands at
the point carries the fundamental system of Jacobi fields along the radial
geodesic, which gives H = P^T g_T W M^-1 P, so a point whose shot lands at
once costs one integration, and D^2 rho^2(w, w) = 2 g_T(T, w)^2 + 2 rho H(w, w).
The Jacobi fields solve the linearized geodesic flow, so a sample reads
order-3 jets only. The distance function is kept away from the pole, where
it is not smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geodesic import PoleDistance, distance_hessian
from .geometry import (MetricDef, apply_J, complex_to_real_components,
                       realify_metric)


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
        self.pole = complex_to_real_components(np.asarray(pole, dtype=complex))
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
        dirs = np.asarray(dirs, dtype=complex)
        out = []
        # each direction normalized to a metric-unit vector
        for v in dirs / np.sqrt(self.m.value(z, dirs))[:, None]:
            u = complex_to_real_components(v)
            levi_value = 0.25 * (d2_rho2(u) + d2_rho2(apply_J(u)))
            out.append(LeviSample(z=z, v=v, levi_value=levi_value, rho=system.r,
                                  bound=bound, margin=bound - levi_value))
        return out

