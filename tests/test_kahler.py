"""Kaehler classification chain and the unitary-invariant characterizations."""

import dataclasses

import numpy as np
import pytest

from finsler import kahler
from finsler.errors import DegenerateMetricError
from finsler.geometry import SamplePlan
from finsler.kahler import classify, is_at_least, weakly_kahler_pde_residual
from finsler.metrics import build_profile, instantiate
from finsler.report import SampleGrid

from oracles import un_invariant_kahler_check

PLAN = SamplePlan(seed=0, n_points=6, n_dirs=4, radial_range=(0.1, 0.55))


def test_poincare_ball_is_strongly_kahler():
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "poincare_ball"}})
    rep = classify(m, PLAN)
    assert rep.classification == "strongly_kahler"
    assert rep.residual_strong < 1e-9
    assert not rep.errors


def test_minkowski_is_strongly_kahler():
    m = instantiate({"family": "minkowski", "complex_dim": 2,
                     "params": {"k": 2, "eps": 1.0}})
    rep = classify(m, PLAN)
    assert rep.classification == "strongly_kahler"
    assert rep.residual_strong < 1e-10


def test_szabo_disk_factors_kahler():
    m = instantiate({"family": "szabo", "params": {
        "k": 2, "eps": 0.5,
        "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
        "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}})
    rep = classify(m, SamplePlan(seed=1, n_points=5, n_dirs=4, radial_range=(0.1, 0.45)))
    assert is_at_least(rep.classification, "kahler"), rep.to_dict()


def test_nonkahler_hermitian_detected():
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "nonkahler"}})
    rep = classify(m, PLAN)
    assert rep.classification == "none"
    assert rep.residual_weak > rep.tolerance * rep.scale


def test_pass_chain_is_monotone():
    for spec in (
        {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
        {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}},
        {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}},
    ):
        rep = classify(instantiate(spec), PLAN)
        p = rep.passes
        assert (not p["strongly_kahler"]) or p["kahler"]
        assert (not p["kahler"]) or p["weakly_kahler"]


def test_un_invariant_check_euclidean_profile():
    assert un_invariant_kahler_check(build_profile({"form": "gradient", "f": "one"})) == \
        (True, "strongly_kahler")


def test_un_invariant_check_exponential_profile():
    predicted, observed = un_invariant_kahler_check(
        build_profile({"form": "gradient", "f": "exp", "c": 1.0}))
    assert predicted and is_at_least(observed, "kahler"), observed


def test_un_invariant_check_free_profile_not_kahler():
    predicted, observed = un_invariant_kahler_check(
        build_profile({"form": "free", "expr": "one_plus_ts2"}))
    assert not predicted and observed in ("weakly_kahler", "none"), observed


def test_pde_residual_constant_profile():
    rep = weakly_kahler_pde_residual(build_profile({"form": "gradient", "f": "one"}))
    assert rep.passed
    assert rep.stats["max_residual"] == 0.0


def test_pde_residual_gradient_profile_disk():
    rep = weakly_kahler_pde_residual(
        build_profile({"form": "gradient", "f": "inv_one_minus_t"}))
    assert rep.passed
    assert rep.stats["max_residual"] < 1e-10 * rep.stats["scale"]


def test_pde_residual_gradient_profile_exp():
    rep = weakly_kahler_pde_residual(
        build_profile({"form": "gradient", "f": "exp", "c": 0.8}))
    assert rep.passed, rep.stats


def test_pde_residual_violated_profile():
    rep = weakly_kahler_pde_residual(build_profile({"form": "free", "expr": "one_plus_s2"}))
    assert not rep.passed
    assert rep.stats["max_residual"] > 1e-3
    assert rep.stats["argmax_t"] is not None


def test_cross_validation_pde_vs_classify():
    # the residual route and the connection route agree on the catalog
    for params, expect in (
        ({"form": "gradient", "f": "exp", "c": 0.5}, True),
        ({"form": "free", "expr": "one_plus_s2"}, False),
    ):
        profile = build_profile(params)
        pde = weakly_kahler_pde_residual(profile)
        predicted, observed = un_invariant_kahler_check(profile)
        assert pde.passed == expect
        assert predicted == is_at_least(observed, "kahler")


DISK = {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}}


def test_classify_with_no_evaluated_sample_is_none(monkeypatch):
    def degenerate(m, z, v):
        raise DegenerateMetricError("Levi matrix singular")

    monkeypatch.setattr(kahler, "chern_finsler", degenerate)
    rep = classify(instantiate(DISK), PLAN)
    assert rep.n_samples == 0
    assert rep.classification == "none"
    assert rep.errors and rep.errors[0].startswith("DegenerateMetricError")


def test_zero_samples_pass_no_level():
    # zero residuals over zero samples: nothing was measured, so nothing holds
    empty = kahler.KahlerReport("empty", 0.0, 0.0, 0.0, 1.0, 1e-7, "none")
    assert empty.passes == {"strongly_kahler": False, "kahler": False,
                            "weakly_kahler": False}


def test_classify_counts_non_finite_residuals_as_failed(monkeypatch):
    real = kahler.chern_finsler

    def nan_torsion(m, z, v):
        data = real(m, z, v)
        return dataclasses.replace(data, torsion_h=np.full_like(data.torsion_h, np.nan))

    monkeypatch.setattr(kahler, "chern_finsler", nan_torsion)
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "nonkahler"}})
    rep = classify(m, PLAN)
    # residuals of NaN torsion prove nothing, not even the strong class
    assert rep.classification == "none"
    assert rep.n_samples == 0
    assert len(rep.errors) == 24
    assert all(e.startswith("NonFiniteSampleError: ") for e in rep.errors)


def test_classify_surfaces_programming_errors(monkeypatch):
    def broken(m, z, v):
        raise KeyError("missing coefficient")

    monkeypatch.setattr(kahler, "chern_finsler", broken)
    with pytest.raises(KeyError):
        classify(instantiate(DISK), PLAN)


@pytest.mark.parametrize("params", [
    {"form": "gradient", "f": "one"},
    {"form": "gradient", "f": "exp", "c": 0.7},
    {"form": "gradient", "f": "inv_one_minus_t"},
    {"form": "free", "expr": "one_plus_ts2"},
])
def test_un_invariant_check_builds_the_profile_metric(monkeypatch, params):
    # the check classifies the same metric that instantiate builds for the profile
    seen = []

    def record(m, plan):
        seen.append(m)
        return kahler.KahlerReport(m.family_id, 0.0, 0.0, 0.0, 1.0, 1e-7,
                                   "strongly_kahler", SampleGrid([(0, 0, (0.0,) * 4)], []))

    monkeypatch.setattr(kahler, "classify", record)
    un_invariant_kahler_check(build_profile(params))
    want = instantiate({"family": "un_invariant", "complex_dim": 2,
                        "params": {"profile": params}})
    (m,) = seen
    assert m.family_id == want.family_id
    assert (m.domain.kind, m.domain.radius) == (want.domain.kind, want.domain.radius)
    rng = np.random.default_rng(5)
    for _ in range(4):
        z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert m.value(z, v) == want.value(z, v)
        assert np.array_equal(m.complex_jet(z, v, 2).coeffs,
                              want.complex_jet(z, v, 2).coeffs)


def synthetic_torsion(kind):
    """A chern_finsler whose torsion at (z, v), over C^2, is nonzero but has
    zero contraction with v ("kahler"), or a nonzero contraction whose
    G_alpha-weighted sum is zero ("weakly_kahler"), or neither ("none")."""
    real = kahler.chern_finsler

    def patched(m, z, v):
        # z, v are one sample or rows of them; so are the fields of data
        data = real(m, z, v)
        v = np.asarray(v)
        across_v = np.stack([v[..., 1], -v[..., 0]], axis=-1)      # sum_m w_m v^m = 0
        ga = data.G_alpha
        across_ga = np.stack([ga[..., 1], -ga[..., 0]], axis=-1)
        ones = np.ones(v.shape)
        torsion = {"kahler": np.einsum("...a,...n,...m->...anm", ones, ones, across_v),
                   "weakly_kahler": np.einsum("...a,nm->...anm", across_ga, np.eye(2)),
                   "none": np.einsum("...a,nm->...anm", ones, np.eye(2))}[kind]
        return dataclasses.replace(data, torsion_h=torsion)

    return patched


@pytest.mark.parametrize("kind", ["kahler", "weakly_kahler", "none"])
def test_classify_reaches_every_level_below_strong(monkeypatch, kind):
    # no catalog metric is Kaehler or weakly Kaehler without being strongly
    # Kaehler, so synthetic torsion drives the two middle levels
    monkeypatch.setattr(kahler, "chern_finsler", synthetic_torsion(kind))
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "nonkahler"}})
    rep = classify(m, PLAN)
    assert rep.classification == kind
    assert rep.n_samples == 24 and not rep.errors
    tol = rep.tolerance * rep.scale
    assert rep.residual_strong >= tol
    assert (rep.residual_kahler < tol) == (kind == "kahler")
    assert (rep.residual_weak < tol) == (kind != "none")
    assert rep.passes == {"strongly_kahler": False, "kahler": kind == "kahler",
                          "weakly_kahler": kind != "none"}
