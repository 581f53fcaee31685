"""Complex structure, realification maps, and metric-interface invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsler.errors import DegenerateMetricError, DomainError, SlitBundleError, StructuralError
from finsler.geometry import (SamplePlan, _norm, apply_J, complex_to_real_components,
                              one_norm_condition, real_to_complex_components,
                              realify_metric, sample_points, well_conditioned_inverse)
from finsler.metrics import instantiate

from oracles import at_point

POINCARE = {"family": "hermitian", "complex_dim": 1,
            "params": {"catalog": "poincare_disk"}}
EUCLID2 = {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}}
MINKOWSKI2 = {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}}
# a product of two disks: its domain is a polydisk over complex coordinates
SZABO = {"family": "szabo", "params": {
    "k": 2, "eps": 0.5,
    "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4))
def test_round_trip_and_J_squared(vals):
    u = np.asarray(vals)
    back = complex_to_real_components(real_to_complex_components(u))
    assert np.allclose(back, u)
    assert np.allclose(apply_J(apply_J(u)), -u)


def test_J_matches_multiplication_by_i():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6)
    v = real_to_complex_components(u)
    assert np.allclose(real_to_complex_components(apply_J(u)), 1j * v)


def test_odd_dimension_rejected():
    with pytest.raises(StructuralError):
        apply_J(np.ones(3))


def test_realified_value_matches_complex_value():
    m = instantiate(MINKOWSKI2)
    mr = realify_metric(m)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        u = complex_to_real_components(v)
        x = complex_to_real_components(z)
        assert mr.value(x, u) == pytest.approx(m.value(z, v), rel=1e-12)


def test_euclidean_realification_quadratic_form():
    m = instantiate(EUCLID2)
    mr = realify_metric(m)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(4)
    assert mr.value(np.zeros(4), u) == pytest.approx(float(u @ u))
    g = at_point(mr.fundamental_real, np.zeros(4), u)
    assert np.allclose(g, np.eye(4), atol=1e-12)


def test_poincare_realified_center_fundamental_tensor():
    m = instantiate(POINCARE)
    mr = realify_metric(m)
    g = at_point(mr.fundamental_real, np.zeros(2), np.array([0.7, 0.2]))
    assert np.allclose(g, np.eye(2), atol=1e-12)


def test_slit_guard():
    m = instantiate(EUCLID2)
    with pytest.raises(SlitBundleError):
        m.real_jet(np.zeros(4), np.zeros(4), 2)
    # value at the zero section extends by homogeneity
    assert m.value(np.zeros(2), np.zeros(2)) == 0.0


def euler_residuals(m, z, v):
    cj = m.complex_jet(z, v, 2)
    n = m.n
    G = cj.value.real
    g_alpha_v = sum(cj.partial([n + a]) * v[a] for a in range(n))
    levi_vv = sum(cj.partial([n + a, 3 * n + b]) * v[a] * np.conj(v[b])
                  for a in range(n) for b in range(n))
    return abs(g_alpha_v - G) / max(1, abs(G)), abs(levi_vv - G) / max(1, abs(G))


@pytest.mark.parametrize("spec", [POINCARE, EUCLID2, MINKOWSKI2])
def test_euler_homogeneity_identities(spec):
    m = instantiate(spec)
    rng = np.random.default_rng(11)
    for _ in range(6):
        z = 0.25 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        v = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        r1, r2 = euler_residuals(m, z, v)
        assert r1 < 1e-10 and r2 < 1e-10
    # real side: g_ij u^i u^j = G
    mr = realify_metric(m)
    x = np.zeros(2 * m.n)
    u = rng.standard_normal(2 * m.n)
    g = at_point(mr.fundamental_real, x, u)
    assert float(u @ g @ u) == pytest.approx(mr.value(x, u), rel=1e-10)


def realification_pairing_residual(m, z, v, V, W):
    """|<Vo|Wo> - Re[<V,W> + <<V,W>>]| over independent jet routes."""
    n = m.n
    cj = m.complex_jet(z, v, 2)
    levi = np.array([[cj.partial([n + a, 3 * n + b]) for b in range(n)]
                     for a in range(n)])
    sym = np.array([[cj.partial([n + a, n + b]) for b in range(n)]
                    for a in range(n)])
    lhs_c = np.einsum("ab,a,b->", levi, V, np.conj(W)) + np.einsum("ab,a,b->", sym, V, W)
    mr = realify_metric(m)
    x = complex_to_real_components(z)
    u = complex_to_real_components(v)
    gr = at_point(mr.fundamental_real, x, u)
    Vo = complex_to_real_components(V)
    Wo = complex_to_real_components(W)
    lhs_r = float(Vo @ gr @ Wo)
    return abs(lhs_r - lhs_c.real) / max(1.0, abs(lhs_r))


@pytest.mark.parametrize("spec", [POINCARE, EUCLID2, MINKOWSKI2])
def test_realification_pairing_identity(spec):
    m = instantiate(spec)
    rng = np.random.default_rng(23)
    for _ in range(8):
        z = 0.2 * (rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        v = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        V = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        W = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        assert realification_pairing_residual(m, z, v, V, W) < 1e-8


def test_realified_metric_shares_the_domain():
    m = instantiate(SZABO)
    assert realify_metric(m).domain is m.domain


@pytest.mark.parametrize("z", [[0.3 + 0.2j, -0.5j], [0.9 + 0.6j, 0.2j], [0.1, 0.6 - 0.9j]],
                         ids=["inside", "outside_first_disk", "outside_second_disk"])
def test_polydisk_margin_of_real_components(z):
    m = instantiate(SZABO)
    z = np.asarray(z, dtype=complex)
    margin = m.domain.margin(z)
    assert margin == pytest.approx(min(1.0 - abs(z[0]), 1.0 - abs(z[1])), abs=1e-15)
    assert realify_metric(m).domain.margin(complex_to_real_components(z)) == margin
    assert (margin > 0) == bool(np.all(np.abs(z) < 1.0))


def test_polydisk_row_margins_keep_a_nan_block():
    # a NaN in either disk makes its row's margin NaN, as ``margin`` does,
    # whether or not the other disk's margin is smaller
    domain = instantiate(SZABO).domain
    rows = complex_to_real_components(np.array([
        [0.3 + 0.2j, -0.5j], [np.nan, -0.5j], [0.1, complex(np.nan, 0.2)], [0.99, np.nan]]))
    got = domain.row_margins(rows)
    assert got[0] == pytest.approx(0.5, abs=1e-15)
    assert np.isnan(got[1:]).all()
    assert all(np.isnan(domain.margin(row)) for row in rows[1:])


@pytest.mark.parametrize("spec", [POINCARE, SZABO])
def test_jets_outside_the_domain_raise(spec):
    m = instantiate(spec)
    z = np.zeros(m.n, complex)
    z[-1] = 0.8 + 0.8j
    v = np.ones(m.n, complex)
    with pytest.raises(DomainError):
        m.real_jet(complex_to_real_components(z), complex_to_real_components(v), 2)
    with pytest.raises(DomainError):
        m.complex_jet(z, v, 2)


def test_sample_points_of_a_realified_polydisk_metric_stay_inside():
    mr = realify_metric(instantiate(SZABO))
    # radii up to 1.3 put some draws outside a factor disk, which are rejected
    pts = sample_points(mr, SamplePlan(seed=4, n_points=30, radial_range=(0.5, 1.3)))
    assert len(pts) == 30
    assert all(np.all(np.abs(real_to_complex_components(x)) < 1.0) for x in pts)


# -- the condition gate of the connection inverses --------------------------------


def conditioned(rng, n, cond, hermitian):
    """A random symmetric (or Hermitian) positive definite n x n matrix with
    2-norm condition number ``cond``."""
    a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if hermitian else 0)
    q = np.linalg.qr(a)[0]
    m = (q * np.geomspace(1.0, cond, n)) @ q.conj().T
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("hermitian", [False, True])
def test_condition_estimate_bounds_the_two_norm_condition(hermitian):
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 8):
        for cond in np.geomspace(1.0, 1e12, 25):
            a = conditioned(rng, n, cond, hermitian)
            estimate = np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
            # |a|_1 bounds the spectral radius, which is |a|_2 for a Hermitian a
            assert estimate >= np.linalg.cond(a) * (1.0 - 1e-6)
            if estimate > 1e10:
                with pytest.raises(DegenerateMetricError, match="condition number"):
                    well_conditioned_inverse(a, "test matrix")
            else:
                # the gate only tightens: it never admits a matrix the 2-norm gate refused
                assert np.linalg.cond(a) <= 1e10
                assert np.array_equal(well_conditioned_inverse(a, "test matrix"),
                                      np.linalg.inv(a))


def test_a_stack_reports_its_first_failing_row():
    # rows in order: fine, condition 1e12, NaN, condition 1e14; the error
    # names the first failure in row order, not the worst one
    stack = np.array([np.eye(2), np.diag([1.0, 1e-12]), np.full((2, 2), np.nan),
                      np.diag([1.0, 1e-14])])
    for rows, cond in ((stack, "1.00e+12"), (stack[[0, 2, 3]], "nan"),
                       (stack[[3, 1]], "1.00e+14"), (stack[:2].reshape(1, 2, 2, 2), "1.00e+12")):
        with pytest.raises(DegenerateMetricError, match=re.escape(f"number {cond}") + "$"):
            well_conditioned_inverse(rows, "test matrix")
    assert np.array_equal(well_conditioned_inverse(stack[[0, 0]], "test matrix"), stack[[0, 0]])


@pytest.mark.parametrize("hermitian", [False, True])
def test_the_condition_number_is_the_norm_product_bit_for_bit(hermitian):
    # real and Hermitian stacks, a NaN row among them, and one matrix
    rng = np.random.default_rng(23)
    for n in (2, 4, 8):
        stack = np.array([conditioned(rng, n, cond, hermitian)
                          for cond in np.geomspace(1.0, 1e12, 7)])
        stack[3] = np.nan
        inv = np.linalg.inv(stack)
        norms = np.linalg.norm(stack, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
        got = one_norm_condition(stack, inv)
        assert got.shape == (7,) and np.isnan(got[3])
        assert got.tobytes() == norms.tobytes()
        for a in stack:
            assert one_norm_condition(a, np.linalg.inv(a)).tobytes() == np.ravel(
                np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)).tobytes()


def test_singular_and_non_finite_matrices_are_degenerate():
    for a in (np.ones((2, 2)), np.zeros((3, 3), complex), np.full((2, 2), np.nan)):
        with pytest.raises(DegenerateMetricError):
            well_conditioned_inverse(a, "test matrix")


def test_point_guards_take_numpys_norms_bit_for_bit():
    # Domain.margin and the slit guard take their norms without
    # np.linalg.norm's dispatch; exit events read the margin, so it must
    # not move by a bit
    rng = np.random.default_rng(41)
    for size in (1, 2, 3, 4, 8):
        for _ in range(300):
            x = rng.standard_normal(2 * size) * 10.0 ** rng.uniform(-8, 8)
            z = x[:size] + 1j * x[size:]
            for a in (x, z, x[::2], np.stack([x, x], axis=1)[:, 0]):
                assert _norm(a) == float(np.linalg.norm(a))
