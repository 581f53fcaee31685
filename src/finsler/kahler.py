"""Kaehler-class residuals and the unitary-invariant characterizations.

The three residuals measure symmetry failures of the horizontal connection
coefficients: full index symmetry, symmetry after radial contraction, and
symmetry after radial contraction paired against the vertical gradient of G.
Each pass implies the next by construction, so the classification chain is
monotone. Residuals are normalized by the sampled magnitude of the
coefficients to stay dimensionless across families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chern import chern_finsler
from .geometry import MetricDef, SamplePlan, sample_points, sample_vectors
from .jets import JetSpace
from .metrics import UnitaryProfile, un_invariant_metric
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
    scale = max(scale, 1.0)
    tol = tolerance * scale
    if not rows:
        cls = "none"  # residuals of zero samples prove nothing
    elif res_strong < tol:
        cls = "strongly_kahler"
    elif res_kahler < tol:
        cls = "kahler"
    elif res_weak < tol:
        cls = "weakly_kahler"
    else:
        cls = "none"
    return KahlerReport(
        metric_id=m.family_id, residual_strong=res_strong,
        residual_kahler=res_kahler, residual_weak=res_weak,
        scale=scale, tolerance=tolerance, classification=cls, n_samples=len(rows),
        errors=[f"{type(exc).__name__}: {exc}" for _, _, exc in failures])


def is_at_least(classification: str, level: str) -> bool:
    return CLASS_ORDER.index(classification) <= CLASS_ORDER.index(level)


def un_invariant_kahler_check(profile: UnitaryProfile) -> VerificationReport:
    """Compare the torsion classification with the closed-form profile shape.

    A unitary-invariant metric is Kaehler exactly when its profile has the
    gradient form f(t) + f'(t) s; the check builds the profile's metric on C^2
    and runs the residual classification against that predicate.
    """
    m = un_invariant_metric(profile, 2, {})
    rep = classify(m, SamplePlan(n_points=6, n_dirs=4, radial_range=(0.1, 0.6)))
    predicted = profile.is_gradient_form
    observed = is_at_least(rep.classification, "kahler")
    return VerificationReport(
        name=f"un_invariant_kahler_check:{profile.id}",
        passed=predicted == observed,
        tolerance=rep.tolerance,
        stats={"predicted_kahler": predicted, "observed_class": rep.classification,
               "residual_strong": rep.residual_strong,
               "residual_kahler": rep.residual_kahler,
               "residual_weak": rep.residual_weak},
        errors=rep.errors)


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
            phi_jet = profile(sp.variable(0, float(t)), sp.variable(1, s))
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
