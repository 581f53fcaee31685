"""Pullback densities, Gaussian curvature of disk metrics, Schwarz certification.

A holomorphic probe phi from the disk and a holomorphic map f between metric
domains induce conformal densities

    lambda^2(zeta) = G(phi(zeta); phi'(zeta)),
    sigma^2(zeta)  = H(f(phi(zeta)); (f o phi)'(zeta)),

composed here through jets over the disk parameter, so their logarithmic
Laplacians are exact. The certified inequality compares the pointwise ratio
sigma^2 / lambda^2 against the curvature-bound quotient K1/K2.

Sign conventions are pinned by the constant-curvature disk density, for which
the comparison d^2 log sigma^2 / dzeta dzetabar >= -(1/2) K2 sigma^2 holds
with equality; the one-half factor ties the comparison to the normalization
K = -(2/g) d^2 log g / dzeta dzetabar of the Gaussian curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SAMPLE_ERRORS, HypothesisViolationError, NoSamplesError
from .geometry import MetricDef, SamplePlan, sample_points
from .jets import CJet, Jet, JetSpace
from .kahler import KahlerReport, classify, is_at_least
from .metrics import HoloMap, check_metric, plan_directions
from .report import (VerificationReport, evaluate_samples, failure_reasons,
                     sample_counts)


def _disk_cjet(zeta, order):
    sp = JetSpace.get(2, order, False)
    zeta = complex(zeta)
    return CJet(sp.variable(0, zeta.real), sp.variable(1, zeta.imag))


def _as_cjet(w, space):
    if isinstance(w, CJet):
        return w
    z = complex(w)
    return CJet(space.constant(z.real), space.constant(z.imag))


def _holo_derivative(w: CJet) -> CJet:
    """d/dzeta of a holomorphic CJet over (Re zeta, Im zeta); drops one order."""
    re_a = w.re.extract(0)
    re_b = w.re.extract(1)
    im_a = w.im.extract(0)
    im_b = w.im.extract(1)
    return CJet((re_a + im_b) * 0.5, (im_a - re_b) * 0.5)


def density_jet(density, zeta) -> Jet:
    """Order-2 jet of a disk density over (Re zeta, Im zeta).

    Seeds at order 3 so densities defined through a probe derivative still
    carry order 2. A density that returns a plain number is constant.
    """
    zc = _disk_cjet(zeta, 3)
    out = density(zc)
    if isinstance(out, CJet):
        out = out.re
    elif not isinstance(out, Jet):
        out = zc.re.space.constant(float(out))
    return out.truncate(2) if out.order > 2 else out


def gaussian_curvature(density, zeta) -> float:
    """K = -(2/g) d^2 log g / dzeta dzetabar for a positive disk density."""
    g = density_jet(density, zeta)
    if g.value <= 0:
        raise ValueError(f"density must be positive, got {g.value}")
    lap_quarter = 0.25 * float(np.trace(g.log().hessian()))
    return -2.0 / g.value * lap_quarter


def pullback_density(m: MetricDef, probe):
    """zeta -> G(phi(zeta); phi'(zeta)) as a CJet-evaluable density."""
    return mapped_density(m, lambda z: z, probe)


def mapped_density(m_target: MetricDef, f: HoloMap, probe):
    """zeta -> H((f o phi)(zeta); (f o phi)'(zeta)) as a CJet density."""

    def density(zc: CJet):
        sp = zc.re.space
        pt = [_as_cjet(w, sp) for w in probe(zc)]
        fz = [_as_cjet(w, sp) for w in f(pt)]
        dcomp = [_holo_derivative(w) for w in fz]
        return m_target.formula(fz, dcomp)

    return density


@dataclass
class PullbackRow:
    zeta: complex
    lam2: float
    sigma2: float
    ratio: float
    flag: str = ""


def _densities_at(f, m_domain, m_target, probe, zeta):
    zc = _disk_cjet(zeta, 1)
    sp = zc.re.space
    pt = [_as_cjet(w, sp) for w in probe(zc)]
    pt_vals = np.array([w.value for w in pt])
    dphi = np.array([_holo_derivative(w).value for w in pt])
    lam2 = m_domain.value(pt_vals, dphi) if float(np.linalg.norm(dphi)) > 0 else 0.0
    fz = f.apply_values(pt_vals)
    dfz = f.jacobian(pt_vals) @ dphi
    sigma2 = m_target.value(fz, dfz) if float(np.linalg.norm(dfz)) > 0 else 0.0
    return float(lam2), float(sigma2)


def pullback(f: HoloMap, m_domain: MetricDef, m_target: MetricDef, probe,
             grid) -> list:
    """Density table over a zeta grid.

    Points where the image derivative vanishes get the ratio as a refined
    limit when both densities vanish and zero when only the image density
    does; per-point evaluation failures are flagged, not raised.
    """
    rows = []
    for zeta in grid:
        zeta = complex(zeta)
        try:
            lam2, sigma2 = _densities_at(f, m_domain, m_target, probe, zeta)
        except SAMPLE_ERRORS as exc:
            rows.append(PullbackRow(zeta, math.nan, math.nan, math.nan,
                                    flag=f"error:{type(exc).__name__}"))
            continue
        eps = 1e-12
        if lam2 > eps:
            rows.append(PullbackRow(zeta, lam2, sigma2, sigma2 / lam2))
        elif sigma2 <= eps:
            vals = []
            for k in range(4):
                zz = zeta + 1e-4 * np.exp(2j * math.pi * k / 4)
                try:
                    l2, s2 = _densities_at(f, m_domain, m_target, probe, zz)
                    if l2 > eps:
                        vals.append(s2 / l2)
                except SAMPLE_ERRORS:
                    pass
            ratio = float(np.mean(vals)) if vals else 0.0
            rows.append(PullbackRow(zeta, lam2, sigma2, ratio, flag="limit"))
        else:
            rows.append(PullbackRow(zeta, lam2, sigma2, math.inf, flag="degenerate"))
    return rows


@dataclass
class CurvatureBound:
    """Holomorphic sectional curvature extreme over a sample grid."""

    role: str
    value: float
    raw_inf: float
    raw_sup: float
    clamped: bool
    n_samples: int


@dataclass
class CurvatureSamples:
    """K_G over a plan's points x directions, every sample accounted for."""

    rows: list              # (point index, direction index, K_G) of evaluated samples
    failure_reasons: dict   # error type name -> number of failed samples

    @property
    def counts(self) -> dict:
        return sample_counts(len(self.rows), self.failure_reasons)

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
    """K_G at the plan's points in ``plan_directions(seed + 3)``; failed
    samples, as ``evaluate_samples`` defines them, are tallied by error type."""
    from .chern import holomorphic_sectional_curvature
    rows, failures = evaluate_samples(
        lambda z, v: holomorphic_sectional_curvature(m, z, v), sample_points(m, plan),
        plan_directions(m, plan.n_dirs, plan.seed + 3))
    return CurvatureSamples(rows, failure_reasons(failures))


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
    # K_G sample counts per role; kept out of the payload, which goldens pin
    curvature_samples: dict = field(default_factory=dict)

    def to_payload(self):
        from .report import _clean
        return _clean({
            "schema": self.schema,
            "map_id": self.map_id,
            "domain_id": self.domain_id,
            "target_id": self.target_id,
            "K1": self.K1,
            "K2": self.K2,
            "bound": self.bound,
            "max_ratio": self.max_ratio,
            "argmax": self.argmax,
            "passed": self.passed,
            "hypotheses": self.hypotheses,
            "plan": self.plan,
            "tolerance": self.tolerance,
        })


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
    labeled.
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
            H = m_target.value(fz, w) if float(np.linalg.norm(w)) > 0 else 0.0
            ratio = H / G
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
                           "target": tgt.curvature.counts})


def log_density_comparison(m_target: MetricDef, f: HoloMap, probe, K2,
                           grid, *, tolerance=1e-6) -> VerificationReport:
    """Check d^2 log sigma^2 / dzeta dzetabar >= -(1/2) K2 sigma^2 on a grid.

    Equality holds for the constant-curvature disk density, which pins the
    one-half convention.
    """
    density = mapped_density(m_target, f, probe)
    worst = math.inf
    rows = []
    for zeta in grid:
        sig_jet = density_jet(density, zeta)
        if sig_jet.value <= 1e-14:
            continue
        lhs = 0.25 * float(np.trace(sig_jet.log().hessian()))
        rhs = -0.5 * K2 * sig_jet.value
        margin = lhs - rhs
        worst = min(worst, margin)
        rows.append({"zeta": complex(zeta), "lhs": lhs, "rhs": rhs})
    return VerificationReport(
        name=f"log_density_comparison:{f.id}->{m_target.family_id}",
        passed=worst > -tolerance,
        tolerance=tolerance,
        stats={"min_margin": worst, "n_grid": len(rows)},
        samples=rows[:5])
