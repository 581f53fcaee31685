"""Kaehler-class residuals and the weakly-Kaehler PDE of unitary-invariant profiles.

The three residuals measure symmetry failures of the horizontal connection
coefficients: full index symmetry, symmetry after radial contraction, and
symmetry after radial contraction paired against the vertical gradient of G.
Each pass implies the next by construction, so the classification chain is
monotone. Residuals are normalized by the sampled magnitude of the
coefficients to stay dimensionless across families. For a unitary-invariant
metric the weakly Kaehler condition is also a PDE in its profile, which
``weakly_kahler_pde_residual`` evaluates without the connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chern import chern_finsler
from .geometry import MetricDef, SamplePlan, sample_points, sample_vectors
from .jets import JetSpace
from .metrics import UnitaryProfile
from .report import VerificationReport, evaluate_samples

CLASS_ORDER = ["strongly_kahler", "kahler", "weakly_kahler", "none"]


@dataclass
class KahlerReport:
    """Torsion-symmetry residuals and the resulting classification."""

    metric_id: str
    residual_strong: float
    residual_kahler: float
    residual_weak: float
    scale: float
    tolerance: float
    classification: str
    n_samples: int
    errors: list = field(default_factory=list)

    @property
    def passes(self):
        """Whether each level holds; no level holds on zero samples, whose
        residuals prove nothing."""
        if not self.n_samples:
            return dict.fromkeys(CLASS_ORDER[:-1], False)
        tol = self.tolerance * self.scale
        strong = self.residual_strong < tol
        kahler = strong or self.residual_kahler < tol
        weak = kahler or self.residual_weak < tol
        return {"strongly_kahler": strong, "kahler": kahler, "weakly_kahler": weak}

    def to_dict(self):
        return {
            "metric_id": self.metric_id,
            "residual_strong": self.residual_strong,
            "residual_kahler": self.residual_kahler,
            "residual_weak": self.residual_weak,
            "scale": self.scale,
            "tolerance": self.tolerance,
            "classification": self.classification,
            "n_samples": self.n_samples,
            "errors": list(self.errors),
        }


def classify(m: MetricDef, plan: SamplePlan | None = None) -> KahlerReport:
    """Classify the metric by its torsion residuals over a sample plan.

    A residual passes below 1e-7 times the sampled coefficient magnitude.
    """
    tolerance = 1e-7
    plan = plan or SamplePlan(n_points=8, n_dirs=4)

    def residuals(z, v):
        """The three torsion residuals and max|Gamma_h| of one sample."""
        data = chern_finsler(m, z, v)
        vn = np.asarray(v) / math.sqrt(data.G)
        tor = data.torsion_h
        contracted = np.einsum("anm,m->an", tor, vn)
        weak = np.einsum("a,an->n", data.G_alpha / math.sqrt(data.G), contracted)
        return (float(np.abs(tor).max()), float(np.abs(contracted).max()),
                float(np.abs(weak).max()), float(np.abs(data.gamma_h).max()))

    rows, failures = evaluate_samples(residuals, sample_points(m, plan),
                                      sample_vectors(m, plan))
    res_strong, res_kahler, res_weak, scale = (
        max((value[k] for _, _, value in rows), default=0.0) for k in range(4))
    rep = KahlerReport(
        metric_id=m.family_id, residual_strong=res_strong,
        residual_kahler=res_kahler, residual_weak=res_weak,
        scale=max(scale, 1.0), tolerance=tolerance, classification="none",
        n_samples=len(rows),
        errors=[f"{type(exc).__name__}: {exc}" for _, _, exc in failures])
    # the first level that holds, in CLASS_ORDER
    rep.classification = next((level for level, ok in rep.passes.items() if ok), "none")
    return rep


def is_at_least(classification: str, level: str) -> bool:
    return CLASS_ORDER.index(classification) <= CLASS_ORDER.index(level)


def weakly_kahler_pde_residual(profile: UnitaryProfile) -> VerificationReport:
    """Residual of the weakly-Kaehler characterization for profile metrics.

    Evaluates, over a 20 x 20 (t, s) grid with 0 <= s <= t,

        (phi - s phi_s)(phi + (t - s) phi_s)(phi_s - phi_t + s(phi_st + phi_ss))
        + s (t - s) phi_ss (phi (phi_s - phi_t) + s phi_s (phi_t + phi_s))

    and reports the maximum absolute value with its grid location; it passes
    below 1e-8 times the cube of the largest sampled derivative sum.
    """
    t_hi = min(0.9, 0.9 * profile.t_max) if math.isfinite(profile.t_max) else 0.9
    sp = JetSpace.get(2, 2, False)
    worst = 0.0
    argmax = (None, None)
    scale_terms = 1.0
    n_eval = 0
    fracs = np.linspace(0.0, 1.0, 20)
    for t in np.linspace(1e-3, t_hi, 20):
        for sfrac in fracs:
            s = float(sfrac * t)
            phi_jet = profile(*sp.variables([float(t), s]))
            phi = phi_jet.value
            pt, ps = (float(d) for d in phi_jet.gradient())
            hess = phi_jet.hessian()
            pss = float(hess[1, 1])
            pst = float(hess[0, 1])
            term1 = (phi - s * ps) * (phi + (t - s) * ps) * (ps - pt + s * (pst + pss))
            term2 = s * (t - s) * pss * (phi * (ps - pt) + s * ps * (pt + ps))
            lhs = term1 + term2
            n_eval += 1
            scale_terms = max(scale_terms,
                              (abs(phi) + abs(pt) + abs(ps) + abs(pss) + abs(pst)) ** 3)
            if abs(lhs) > worst:
                worst = abs(lhs)
                argmax = (float(t), s)
    tol = 1e-8 * scale_terms
    return VerificationReport(
        name=f"weakly_kahler_pde:{profile.id}",
        passed=worst < tol,
        tolerance=tol,
        stats={"max_residual": worst, "argmax_t": argmax[0], "argmax_s": argmax[1],
               "scale": scale_terms, "n_grid": n_eval})
