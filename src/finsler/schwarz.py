"""Holomorphic sectional curvature bounds and Schwarz-ratio certificates.

The Schwarz lemma compares a holomorphic map f from a complete, weakly
Kaehler domain metric G with K_G >= K1 into a target metric H with
K_H <= K2 < 0:

    H(f(z); df_z v) <= (K1 / K2) G(z; v).

``certify_schwarz`` samples the ratio H(f(z); df_z v) / G(z; v) over a plan's
points and directions and compares its supremum with K1/K2, where K1 is the
clamped K_G infimum of the domain and K2 the K_G supremum of the target, both
sampled on the plan. The hypotheses are checked and recorded, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import HypothesisViolationError, NoSamplesError
from .geometry import MetricDef, SamplePlan, sample_points
from .kahler import KahlerReport, classify, is_at_least
from .metrics import HoloMap, check_metric, plan_directions
from .report import SampleGrid, VerificationReport, evaluate_stacked, record, require_finite


@dataclass
class CurvatureBound:
    """Holomorphic sectional curvature extreme over a sample grid."""

    value: float
    raw_inf: float
    raw_sup: float
    clamped: bool


class CurvatureSamples(SampleGrid):
    """K_G over a plan's points x directions: rows ``(iz, iv, K_G)``."""

    def extremes(self):
        """(inf, sup) of the evaluated samples; none evaluated is an error."""
        if not self.rows:
            raise NoSamplesError(
                f"no K_G sample evaluated: {self.counts['attempted']} attempted, "
                f"failures {self.failure_reasons}")
        values = [k for _, _, k in self.rows]
        return min(values), max(values)

    def bound(self, role: str) -> CurvatureBound:
        """Domain role: inf clamped to <= 0. Target role: sup, which must be < 0."""
        lo, hi = self.extremes()
        if role == "domain":
            return CurvatureBound(min(lo, 0.0), lo, hi, lo > 0)
        if role == "target":
            if hi >= 0:
                raise HypothesisViolationError(
                    f"target curvature supremum {hi:.3e} is not negative")
            return CurvatureBound(hi, lo, hi, False)
        raise ValueError(f"unknown role {role!r}")


def holomorphic_curvature_samples(m: MetricDef, plan: SamplePlan) -> CurvatureSamples:
    """K_G at the plan's points in ``plan_directions(seed + 3)``, all in one
    stacked call unless a sample fails; failed samples are as
    ``evaluate_samples`` defines them."""
    from .chern import holomorphic_sectional_curvature
    grid = evaluate_stacked(
        lambda z, v: holomorphic_sectional_curvature(m, z, v), sample_points(m, plan),
        plan_directions(m, plan.n_dirs, plan.seed + 3))
    return CurvatureSamples(grid.rows, grid.failures, grid.stacked)


def curvature_bounds(m: MetricDef, role: str, plan: SamplePlan) -> CurvatureBound:
    """Sampled inf (domain role, clamped to <= 0) or sup (target role) of K_G."""
    return holomorphic_curvature_samples(m, plan).bound(role)


class MetricAnalysis:
    """What a Schwarz certificate needs to know of one metric on one plan.

    The parts are the validity report on the plan's 6 x 4 sub-plan, the
    Kaehler class on its 5 x 4 sub-plan, and one K_G grid on the plan, read
    for both the domain bound and the target bound. Each part is computed
    when first read and then kept, so certificates that share an analysis
    evaluate each metric once. ``hypotheses`` reads the lemma's hypotheses off them.
    """

    def __init__(self, m: MetricDef, plan: SamplePlan):
        self.m = m
        self.plan = plan

    def _sub_plan(self, n_points):
        return replace(self.plan, n_points=n_points, n_dirs=4)

    @cached_property
    def validity(self) -> VerificationReport:
        return check_metric(self.m, self._sub_plan(6))

    @cached_property
    def kahler(self) -> KahlerReport:
        return classify(self.m, self._sub_plan(5))

    @cached_property
    def curvature(self) -> CurvatureSamples:
        return holomorphic_curvature_samples(self.m, self.plan)

    def hypotheses(self, role: str) -> dict:
        """The lemma's hypotheses in ``role``, name to verdict, in order: a
        domain is valid, weakly Kaehler and complete, a target valid (the
        curvature ones are ``CurvatureSamples.bound``'s). Reads no other part."""
        if role == "target":
            return {"target_valid_metric": bool(self.validity.passed)}
        return {"domain_valid_metric": bool(self.validity.passed),
                "domain_weakly_kahler": is_at_least(self.kahler.classification, "weakly_kahler"),
                "domain_complete": bool(self.m.metadata.get("complete", False))}


@dataclass
class SchwarzCertificate:
    """Replayable record of one Schwarz-quotient certification."""

    map_id: str
    domain_id: str
    target_id: str
    K1: float
    K2: float
    bound: float
    max_ratio: float
    argmax: dict
    passed: bool
    hypotheses: dict
    plan: dict
    tolerance: float
    schema: int = 1
    # the names of the hypotheses not met, domain's then target's, and the
    # report's metadata; kept out of the payload, which goldens pin
    unmet: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_payload(self):
        return record(self, "unmet", "metadata")


def certify_schwarz(f: HoloMap, domain: MetricAnalysis, target: MetricAnalysis,
                    *, tolerance=1e-6) -> SchwarzCertificate:
    """Certify sup H(f(z); df v) / G(z; v) <= K1/K2 over a sample grid.

    ``domain`` and ``target`` are the two metrics' ``MetricAnalysis`` on one
    plan, which is the certificate's: its points and directions make the
    ratio grid. A target analysed on another plan is a ``ValueError``. The
    hypotheses (``MetricAnalysis.hypotheses``) and K1, the clamped K_G
    infimum of the domain, come from the domain analysis; the target's
    hypotheses and K2, its K_G supremum, from the target analysis.
    ``met`` is all of both roles' verdicts, ``unmet`` names the false ones,
    and the payload's ``hypotheses`` holds the domain's with its Kaehler
    class. The ratio grid reads G and H over all its rows in one ``value``
    call each, and f(z) with df_z from one ``HoloMap.evaluate``. Certifying
    several pairs with one analysis per metric computes each metric's
    validity, class and K_G grid once, and a pair whose domain and target
    are one analysis samples K_G once.
    Hypothesis failures are recorded in the certificate; the comparison is
    still executed and labeled. A NaN or infinite ratio raises
    ``NonFiniteSampleError``.

    The bound is K1/K2 + 0.0, so a flat domain (K1 = 0, as the paper's
    Minkowski corollary has it) writes +0.0. The certificate passes when
    ``max_ratio <= bound + tolerance * min(1, bound)``, so the least excess
    over the bound it tells apart is ``tolerance`` at a bound >= 1 and
    ``tolerance * bound`` below. A zero bound allows no slack: only a ratio
    of 0 on every sample (f*H = 0, as a constant map gives) passes.
    """
    plan, m_domain, m_target = domain.plan, domain.m, target.m
    if target.plan != plan:
        raise ValueError(f"analysis of {m_target.family_id} was made on another plan")
    held = domain.hypotheses("domain")
    hyp = {"checked": True, "domain_kahler_class": domain.kahler.classification, **held}
    held.update(target.hypotheses("target"))
    unmet = [name for name, verdict in held.items() if not verdict]
    hyp["met"] = not unmet
    k1 = domain.curvature.bound("domain")
    k2 = target.curvature.bound("target")
    bound = k1.value / k2.value + 0.0

    # the ratio grid as rows, point by point in plan order, each point's
    # value and Jacobian repeated over the directions
    pts = np.asarray(sample_points(m_domain, plan))
    dirs = np.asarray(plan_directions(m_domain, plan.n_dirs, plan.seed + 17))
    fz, jac = (np.repeat(a, len(dirs), axis=0) for a in f.evaluate(pts))
    Z, V = np.repeat(pts, len(dirs), axis=0), np.tile(dirs, (len(pts), 1))
    W = (jac @ V[:, :, None])[:, :, 0]
    ratios = m_target.value(fz, W) / m_domain.value(Z, V)
    for ratio in ratios.tolist():
        require_finite(ratio)
    b = int(np.argmax(ratios))
    max_ratio = float(ratios[b])
    iz, iv = divmod(b, len(dirs))
    argmax = {"point_index": iz, "dir_index": iv, "z": list(pts[iz]), "ratio": max_ratio}
    passed = max_ratio <= bound + tolerance * min(1.0, bound)
    grids = {"domain_validity": domain.validity.grid, "domain_kahler": domain.kahler.samples.grid,
             "domain_holomorphic": domain.curvature.grid, "target_validity": target.validity.grid,
             "target_holomorphic": target.curvature.grid}
    return SchwarzCertificate(
        map_id=f.id, domain_id=m_domain.family_id, target_id=m_target.family_id,
        K1=k1.value, K2=k2.value, bound=bound, max_ratio=max_ratio,
        argmax=argmax, passed=bool(passed), hypotheses=hyp,
        plan=plan.to_dict(), tolerance=tolerance, unmet=unmet, metadata={
            "holomorphic_samples": {"domain": domain.curvature.counts,
                                    "target": target.curvature.counts},
            "target_valid_metric": held["target_valid_metric"], "grids": grids})

