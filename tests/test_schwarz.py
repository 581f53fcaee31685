"""Schwarz ratios, K_G bounds and certificates; the disk-density K_G oracle."""

import math

import numpy as np
import pytest

from finsler.errors import (DegenerateMetricError, HypothesisViolationError,
                            NoSamplesError, NonFiniteSampleError)
from finsler.geometry import SamplePlan
from finsler.jets import cabs2
from finsler.metrics import build_map, instantiate
from finsler.report import canonical_json
from finsler.schwarz import (MetricAnalysis, certify_schwarz, curvature_bounds,
                             holomorphic_curvature_samples)

from oracles import (_disk_cjet, gaussian_curvature, log_density_comparison,
                     probe_catalog, pullback_density)

POINCARE = instantiate({"family": "hermitian", "complex_dim": 1,
                        "params": {"catalog": "poincare_disk"}})
BALL2 = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "poincare_ball"}})
EUCLID2 = instantiate({"family": "hermitian", "complex_dim": 2,
                       "params": {"catalog": "euclidean"}})
MINKOWSKI = instantiate({"family": "minkowski", "complex_dim": 2,
                         "params": {"k": 2, "eps": 1.0}})
SZABO = instantiate({"family": "szabo", "params": {
    "k": 2, "eps": 0.5,
    "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}})

IDENTITY1 = build_map({"map": "identity", "params": {"n": 1}})


def poincare_density(zc):
    return (1.0 - cabs2(zc)) ** -2


def test_gaussian_curvature_poincare_density():
    rng = np.random.default_rng(0)
    for _ in range(6):
        zeta = 0.8 * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform(0, 1))
        assert gaussian_curvature(poincare_density, zeta) == pytest.approx(-4.0, abs=1e-8)


def test_gaussian_curvature_constant_density():
    assert gaussian_curvature(lambda zc: 3.0 + 0.0 * cabs2(zc), 0.2 + 0.1j) == \
        pytest.approx(0.0, abs=1e-12)
    # a density returning a plain number, not a jet
    assert gaussian_curvature(lambda zc: 3.0, 0.1 + 0.2j) == 0.0


def test_gaussian_curvature_exp_density():
    density = lambda zc: cabs2(zc).exp()
    assert gaussian_curvature(density, 0.0 + 0.0j) == pytest.approx(-2.0, abs=1e-10)


def test_pullback_density_matches_direct_formula():
    # affine probe through the disk center: expect exactly the disk density
    probe = lambda zc: [zc]
    density = pullback_density(POINCARE, probe)
    for zeta in (0.1 + 0.2j, -0.4 + 0.1j):
        g = density(_disk_cjet(zeta, 3))
        g = g.re if hasattr(g, "re") else g
        expect = 1.0 / (1 - abs(zeta) ** 2) ** 2
        assert g.value == pytest.approx(expect, rel=1e-12)
    assert gaussian_curvature(density, 0.3 - 0.2j) == pytest.approx(-4.0, abs=1e-8)


def _ratio(f, zeta):
    """H(f(z); df_z v) / G(z; v) on the disk at z = zeta, v = 1, as the certificate
    computes it."""
    z, v = np.array([zeta]), np.array([1.0])
    return POINCARE.value(f.apply_values(z), f.jacobian(z) @ v) / POINCARE.value(z, v)


def test_pullback_ratio_identity_map():
    for zeta in [0.1 + 0.0j, 0.3 + 0.2j, -0.5 + 0.1j]:
        assert _ratio(IDENTITY1, zeta) == pytest.approx(1.0, abs=1e-12)


def test_pullback_ratio_square_map_closed_form():
    sq = build_map({"map": "power", "params": {"m": 2}})
    for zeta in [0.2 + 0.1j, 0.5 - 0.3j, 0.05 + 0.6j]:
        t = abs(zeta) ** 2
        assert _ratio(sq, zeta) == pytest.approx(4 * t / (1 + t) ** 2, rel=1e-10)


def test_curvature_bounds_poincare():
    plan = SamplePlan(seed=0, n_points=8, n_dirs=4, radial_range=(0.1, 0.7))
    dom = curvature_bounds(POINCARE, "domain", plan)
    tgt = curvature_bounds(POINCARE, "target", plan)
    assert dom.value == pytest.approx(-4.0, abs=1e-6)
    assert tgt.value == pytest.approx(-4.0, abs=1e-6)


def test_curvature_bounds_minkowski_domain_and_bad_target():
    plan = SamplePlan(seed=0, n_points=5, n_dirs=4)
    dom = curvature_bounds(MINKOWSKI, "domain", plan)
    assert abs(dom.value) < 1e-7
    with pytest.raises(HypothesisViolationError):
        curvature_bounds(MINKOWSKI, "target", plan)


def test_scaled_metric_scales_curvature():
    scaled = instantiate({"family": "hermitian", "complex_dim": 1,
                          "params": {"catalog": "poincare_disk", "scale": 2.0}})
    plan = SamplePlan(seed=1, n_points=5, n_dirs=3, radial_range=(0.1, 0.6))
    b = curvature_bounds(scaled, "target", plan)
    assert b.value == pytest.approx(-2.0, abs=1e-6)


def _failing_curvature(monkeypatch, fails, exc=DegenerateMetricError):
    """Make the K_G samples whose call index is in ``fails`` raise ``exc``, or
    return it when it is a number."""
    from finsler import chern
    real = chern.holomorphic_sectional_curvature
    calls = []

    def flaky(m, z, v, **kw):
        calls.append(1)
        if len(calls) - 1 in fails:
            if isinstance(exc, float):
                return exc
            raise exc("singular Levi matrix")
        return real(m, z, v, **kw)

    monkeypatch.setattr(chern, "holomorphic_sectional_curvature", flaky)


def test_curvature_samples_record_a_failing_sample(monkeypatch):
    _failing_curvature(monkeypatch, {2})
    plan = SamplePlan(seed=0, n_points=3, n_dirs=2, radial_range=(0.1, 0.7))
    samples = holomorphic_curvature_samples(POINCARE, plan)
    assert samples.counts == {"attempted": 6, "ok": 5, "failed": 1,
                              "failure_reasons": {"DegenerateMetricError": 1}}
    assert [(iz, iv) for iz, iv, _ in samples.rows] == [(0, 0), (0, 1), (1, 1),
                                                         (2, 0), (2, 1)]
    bound = samples.bound("domain")
    assert bound.value == pytest.approx(-4.0, abs=1e-6) and bound.n_samples == 5


def test_curvature_samples_count_a_nan_sample_as_failed(monkeypatch):
    _failing_curvature(monkeypatch, {1}, exc=math.nan)
    plan = SamplePlan(seed=0, n_points=3, n_dirs=2, radial_range=(0.1, 0.7))
    samples = holomorphic_curvature_samples(POINCARE, plan)
    assert samples.counts == {"attempted": 6, "ok": 5, "failed": 1,
                              "failure_reasons": {"NonFiniteSampleError": 1}}
    assert [(iz, iv) for iz, iv, _ in samples.rows] == [(0, 0), (1, 0), (1, 1),
                                                         (2, 0), (2, 1)]
    assert samples.extremes() == pytest.approx((-4.0, -4.0), abs=1e-6)


def test_curvature_bounds_refuse_zero_evaluated_samples(monkeypatch):
    _failing_curvature(monkeypatch, range(100))
    plan = SamplePlan(seed=0, n_points=3, n_dirs=2, radial_range=(0.1, 0.7))
    for role in ("domain", "target"):
        with pytest.raises(NoSamplesError, match="6 attempted"):
            curvature_bounds(POINCARE, role, plan)


def test_curvature_samples_propagate_programming_errors(monkeypatch):
    _failing_curvature(monkeypatch, {0}, exc=KeyError)
    with pytest.raises(KeyError):
        holomorphic_curvature_samples(POINCARE, SamplePlan(n_points=2, n_dirs=2))


def test_analysis_is_tied_to_its_plan():
    plan = SamplePlan(seed=3, n_points=4, n_dirs=2, radial_range=(0.1, 0.7))
    analysis = MetricAnalysis(POINCARE, plan)
    cert = certify_schwarz(IDENTITY1, analysis, analysis)
    assert cert.plan == plan.to_dict()
    assert cert.curvature_samples["domain"]["ok"] == 8
    assert canonical_json(cert.to_payload()) == canonical_json(
        certify_schwarz(IDENTITY1, POINCARE, POINCARE, plan).to_payload())
    with pytest.raises(ValueError, match="another plan"):
        certify_schwarz(IDENTITY1, analysis, POINCARE,
                        SamplePlan(seed=4, n_points=4, n_dirs=2))


def test_certificate_identity_poincare():
    cert = certify_schwarz(IDENTITY1, POINCARE, POINCARE,
                           SamplePlan(seed=3, n_points=8, n_dirs=4,
                                      radial_range=(0.1, 0.7)))
    assert cert.bound == pytest.approx(1.0, abs=1e-9)
    assert cert.max_ratio == pytest.approx(1.0, abs=1e-6)
    assert cert.passed
    assert cert.hypotheses["met"]


@pytest.mark.parametrize("broken", ["target_value", "map_derivative"])
def test_certificate_fails_on_non_finite_ratios(monkeypatch, broken):
    target = instantiate({"family": "hermitian", "complex_dim": 1,
                          "params": {"catalog": "poincare_disk"}})
    f = build_map({"map": "identity", "params": {"n": 1}})
    if broken == "target_value":
        monkeypatch.setattr(target, "value", lambda z, v: math.nan)
    else:
        monkeypatch.setattr(f, "jacobian", lambda z: np.full((1, 1), np.nan, complex))
    with pytest.raises(NonFiniteSampleError):
        certify_schwarz(f, POINCARE, target,
                        SamplePlan(seed=3, n_points=3, n_dirs=2, radial_range=(0.1, 0.7)))


def test_certificate_mobius_isometry():
    mob = build_map({"map": "mobius", "params": {"a": [0.4, 0.1]}})
    cert = certify_schwarz(mob, POINCARE, POINCARE,
                           SamplePlan(seed=4, n_points=8, n_dirs=4,
                                      radial_range=(0.1, 0.6)))
    assert cert.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert cert.passed


def test_certificate_square_map_passes_inside():
    sq = build_map({"map": "power", "params": {"m": 2}})
    cert = certify_schwarz(sq, POINCARE, POINCARE,
                           SamplePlan(seed=5, n_points=10, n_dirs=3,
                                      radial_range=(0.05, 0.8)))
    assert cert.max_ratio < 1.0
    assert cert.passed


def test_certificate_minkowski_to_poincare_fails():
    lin = build_map({"map": "linear", "params": {"matrix": [[0.25, 0.1]]},
                     "id": "row_linear"})
    cert = certify_schwarz(lin, MINKOWSKI, POINCARE,
                           SamplePlan(seed=6, n_points=6, n_dirs=4))
    assert cert.bound == pytest.approx(0.0, abs=1e-7)
    assert cert.max_ratio > 1e-3
    assert not cert.passed


def test_certificate_constant_map_from_minkowski_passes():
    # with K1 = 0 the Schwarz bound is 0: only a constant map satisfies it
    const = build_map({"map": "constant", "params": {"value": [[0.3, 0.1]], "n_in": 2}})
    cert = certify_schwarz(const, MINKOWSKI, POINCARE,
                           SamplePlan(seed=6, n_points=6, n_dirs=4))
    assert cert.bound == 0.0
    assert cert.max_ratio == 0.0
    assert cert.passed


def test_log_density_comparison_poincare_equality():
    probe = lambda zc: [zc]
    grid = [0.1 + 0.05j, 0.4 - 0.2j, -0.3 + 0.3j]
    margins = log_density_comparison(POINCARE, IDENTITY1, probe, -4.0, grid)
    assert len(margins) == 3
    assert abs(min(margins)) < 1e-9  # equality pins the convention


def test_log_density_comparison_square_map():
    sq = build_map({"map": "power", "params": {"m": 2}})
    probe = lambda zc: [zc]
    grid = [0.3 + 0.1j, 0.5 + 0.2j]
    assert min(log_density_comparison(POINCARE, sq, probe, -4.0, grid)) > -1e-9


def probe_curvatures_below_K(metric, z, v, quadratic_coeff=None):
    from finsler.chern import holomorphic_sectional_curvature
    kg = holomorphic_sectional_curvature(metric, z, v)
    out = []
    for pid, p in probe_catalog(metric, z, v, quadratic_coeff=quadratic_coeff).items():
        out.append((pid, gaussian_curvature(pullback_density(metric, p), 0.0 + 0.0j), kg))
    return out


def test_probe_maximality_poincare_ball():
    rng = np.random.default_rng(7)
    for _ in range(3):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = 0.4 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rows = probe_curvatures_below_K(BALL2, z, v, quadratic_coeff=b)
        geo = {pid: k for pid, k, _ in rows}
        for pid, k, kg in rows:
            assert k <= kg + 1e-6
        # the totally geodesic probe attains the maximum for the ball
        assert geo["geodesic"] == pytest.approx(rows[0][2], abs=1e-4)


def test_probe_maximality_minkowski_affine_attains():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rows = probe_curvatures_below_K(MINKOWSKI, z, v)
    for pid, k, kg in rows:
        assert k <= kg + 1e-6
        if pid == "affine":
            assert k == pytest.approx(kg, abs=1e-8)


def test_probe_maximality_szabo():
    rng = np.random.default_rng(9)
    for _ in range(2):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = 0.3 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rows = probe_curvatures_below_K(SZABO, z, v, quadratic_coeff=b)
        for pid, k, kg in rows:
            assert k <= kg + 1e-6

