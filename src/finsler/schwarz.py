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

import math
from dataclasses import dataclass, field
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

    role: str
    value: float
    raw_inf: float
    raw_sup: float
    clamped: bool
    n_samples: int


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
        count = len(self.rows)
        if role == "domain":
            clamped = lo > 0
            return CurvatureBound("domain", min(lo, 0.0), lo, hi, clamped, count)
        if role == "target":
            if hi >= 0:
                raise HypothesisViolationError(
                    f"target curvature supremum {hi:.3e} is not negative")
            return CurvatureBound("target", hi, lo, hi, False, count)
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


def curvature_bounds(m: MetricDef, role: str,
                     plan: SamplePlan | None = None) -> CurvatureBound:
    """Sampled inf (domain role, clamped to <= 0) or sup (target role) of K_G."""
    plan = plan or SamplePlan(n_points=12, n_dirs=6)
    return holomorphic_curvature_samples(m, plan).bound(role)


class MetricAnalysis:
    """What a Schwarz certificate needs to know of one metric on one plan.

    The parts are the validity report on the plan's 6 x 4 sub-plan, the
    Kaehler class on its 5 x 4 sub-plan, and one K_G grid on the plan, read
    for both the domain bound and the target bound. Each part is computed
    when first read and then kept, so certificates that share an analysis
    evaluate each metric once.
    """

    def __init__(self, m: MetricDef, plan: SamplePlan):
        self.m = m
        self.plan = plan

    def _sub_plan(self, n_points):
        return SamplePlan(seed=self.plan.seed, n_points=n_points, n_dirs=4,
                          radial_range=self.plan.radial_range)

    @cached_property
    def validity(self) -> VerificationReport:
        return check_metric(self.m, self._sub_plan(6))

    @cached_property
    def kahler(self) -> KahlerReport:
        return classify(self.m, self._sub_plan(5))

    @cached_property
    def curvature(self) -> CurvatureSamples:
        return holomorphic_curvature_samples(self.m, self.plan)


def _analysis(m, plan: SamplePlan) -> MetricAnalysis:
    if not isinstance(m, MetricAnalysis):
        return MetricAnalysis(m, plan)
    if m.plan != plan:
        raise ValueError(f"analysis of {m.m.family_id} was made on another plan")
    return m


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
    # K_G sample counts per role, and the rows of each stacked grid with
    # whether one call evaluated them; kept out of the payload, which goldens pin
    curvature_samples: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)

    def to_payload(self):
        return record(self, "curvature_samples", "grids")


def certify_schwarz(f: HoloMap, domain, target, plan: SamplePlan | None = None,
                    *, tolerance=1e-6) -> SchwarzCertificate:
    """Certify sup H(f(z); df v) / G(z; v) <= K1/K2 over a sample grid.

    ``domain`` and ``target`` are metrics or their ``MetricAnalysis`` on
    ``plan``. The hypotheses (domain validity, weakly Kaehler class,
    completeness) and K1, the clamped K_G infimum of the domain, come from the
    domain analysis; K2, the K_G supremum of the target, from the target
    analysis. Certifying several pairs with one analysis per metric computes
    each metric's validity, class and K_G grid once, and a pair whose domain
    and target are one analysis samples K_G once. Hypothesis failures are
    recorded in the certificate; the comparison is still executed and
    labeled. A NaN or infinite ratio raises ``NonFiniteSampleError``.
    """
    if plan is None:
        plan = (domain.plan if isinstance(domain, MetricAnalysis)
                else SamplePlan(n_points=14, n_dirs=17))
    dom = _analysis(domain, plan)
    tgt = dom if target is domain else _analysis(target, plan)
    m_domain, m_target = dom.m, tgt.m
    kah = dom.kahler
    hyp = {"checked": True,
           "domain_valid_metric": bool(dom.validity.passed),
           "domain_kahler_class": kah.classification,
           "domain_weakly_kahler": is_at_least(kah.classification, "weakly_kahler"),
           "domain_complete": bool(m_domain.metadata.get("complete", False))}
    hyp["met"] = all((hyp["domain_valid_metric"], hyp["domain_weakly_kahler"],
                      hyp["domain_complete"]))
    k1 = dom.curvature.bound("domain")
    k2 = tgt.curvature.bound("target")
    bound = k1.value / k2.value

    pts = sample_points(m_domain, plan)
    dirs = plan_directions(m_domain, plan.n_dirs, plan.seed + 17)
    max_ratio = -math.inf
    argmax = {}
    for iz, z in enumerate(pts):
        jac = f.jacobian(z)
        fz = f.apply_values(z)
        for iv, v in enumerate(dirs):
            G = m_domain.value(z, v)
            w = jac @ v
            # != 0, not > 0: a NaN derivative must reach the finite check
            H = m_target.value(fz, w) if float(np.linalg.norm(w)) != 0 else 0.0
            ratio = require_finite(H / G)
            if ratio > max_ratio:
                max_ratio = ratio
                argmax = {"point_index": iz, "dir_index": iv,
                          "z": list(z), "ratio": ratio}
    passed = max_ratio <= bound + tolerance
    return SchwarzCertificate(
        map_id=f.id, domain_id=m_domain.family_id, target_id=m_target.family_id,
        K1=k1.value, K2=k2.value, bound=bound, max_ratio=max_ratio,
        argmax=argmax, passed=bool(passed), hypotheses=hyp,
        plan=plan.to_dict(), tolerance=tolerance,
        curvature_samples={"domain": dom.curvature.counts,
                           "target": tgt.curvature.counts},
        grids={"domain_validity": dom.validity.grid, "domain_kahler": kah.samples.grid,
               "domain_holomorphic": dom.curvature.grid,
               "target_holomorphic": tgt.curvature.grid})

