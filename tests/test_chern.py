"""Complex connection and holomorphic sectional curvature tests."""

import numpy as np
import pytest

from finsler.chern import (chern_finsler, curvature_pairing,
                           holomorphic_sectional_curvature)
from finsler.errors import DegenerateMetricError
from finsler.metrics import instantiate

from finsler.jets import Jet, wirtinger_coeffs

from oracles import (at_point, chern_by_partials, hermitian_holomorphic_curvature,
                     hermitian_matrix, levi_at)

POINCARE = instantiate({"family": "hermitian", "complex_dim": 1,
                        "params": {"catalog": "poincare_disk"}})
BALL2 = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "poincare_ball"}})
EUCLID2 = instantiate({"family": "hermitian", "complex_dim": 2,
                       "params": {"catalog": "euclidean"}})
MINKOWSKI = instantiate({"family": "minkowski", "complex_dim": 2,
                         "params": {"k": 2, "eps": 1.0}})
NONKAHLER = instantiate({"family": "hermitian", "complex_dim": 2,
                         "params": {"catalog": "nonkahler"}})
SZABO = instantiate({"family": "szabo", "params": {
    "k": 2, "eps": 0.5,
    "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}})


def rand_zv(rng, n, r=0.3):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = r * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z, v


def test_euclidean_everything_vanishes():
    rng = np.random.default_rng(0)
    z, v = rand_zv(rng, 2)
    d = at_point(chern_finsler, EUCLID2, z, v)
    assert np.abs(d.nonlinear).max() < 1e-13
    assert np.abs(d.gamma_h).max() < 1e-13
    assert np.abs(d.R_zz).max() < 1e-13
    assert np.allclose(d.levi, np.eye(2))


def test_minkowski_horizontal_coefficients_vanish():
    rng = np.random.default_rng(1)
    for _ in range(5):
        z, v = rand_zv(rng, 2, r=1.5)
        d = at_point(chern_finsler, MINKOWSKI, z, v)
        assert np.abs(d.gamma_h).max() < 1e-10
        assert np.abs(d.R_zz).max() < 1e-9
        assert np.abs(d.gamma_v).max() > 1e-3   # non-Hermitian vertical part
        k = at_point(holomorphic_sectional_curvature, MINKOWSKI, z, v)
        assert abs(k) < 1e-8


def test_poincare_disk_connection_and_curvature():
    d0 = at_point(chern_finsler, POINCARE, np.zeros(1, complex), np.array([1.0 + 0j]))
    assert abs(d0.nonlinear[0, 0]) < 1e-13
    assert at_point(holomorphic_sectional_curvature, POINCARE, np.zeros(1, complex),
                    np.array([1.0 + 0j])) == pytest.approx(-4.0, abs=1e-10)
    rng = np.random.default_rng(2)
    for _ in range(8):
        z, v = rand_zv(rng, 1, r=0.7)
        d = at_point(chern_finsler, POINCARE, z, v)
        k = 2 * curvature_pairing(d) / d.G ** 2
        assert k.real == pytest.approx(-4.0, abs=1e-6)
        assert abs(k.imag) < 1e-10
        # classical coefficient 2 zbar / (1 - |z|^2)
        expect = 2 * np.conj(z[0]) / (1 - abs(z[0]) ** 2)
        assert d.gamma_h[0, 0, 0] == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("metric", [POINCARE, BALL2, MINKOWSKI, NONKAHLER])
def test_chern_assembly_matches_partial_readout(metric):
    rng = np.random.default_rng(9)
    for _ in range(4):
        z, v = rand_zv(rng, metric.n, r=0.5)
        d = at_point(chern_finsler, metric, z, v)
        want = dict(zip(("gamma_h", "gamma_v", "torsion_h", "R_zz"),
                        chern_by_partials(metric, z, v)))
        # the torsion is gamma_h minus its transpose, so gamma_h sets its
        # rounding scale; on a Kaehler metric both sides are pure roundoff
        scale = dict(want, torsion_h=want["gamma_h"])
        for name, w in want.items():
            g = getattr(d, name)
            assert np.allclose(g, w, rtol=1e-14,
                               atol=1e-14 * np.abs(scale[name]).max()), name
    if metric is NONKAHLER:
        assert np.abs(d.torsion_h).max() > 1e-3


def test_chern_one_dimensional_outputs_bitwise():
    # the golden certificates hang on the n=1 evaluation order. R_zz is held
    # to the 1e-14 oracle bound, not to bits: the oracle's jet products round
    # some vector lanes unlike a scalar product, so its bits depend on lane
    # position. The golden replay guards the certificate bits.
    rng = np.random.default_rng(10)
    for _ in range(12):
        z, v = rand_zv(rng, 1, r=0.8)
        d = at_point(chern_finsler, POINCARE, z, v)
        gamma_h, gamma_v, torsion_h, R_zz = chern_by_partials(POINCARE, z, v)
        for g, w in ((d.gamma_h, gamma_h), (d.gamma_v, gamma_v),
                     (d.torsion_h, torsion_h)):
            assert g.tobytes() == w.tobytes()
        assert np.allclose(d.R_zz, R_zz, rtol=1e-14, atol=0.0)


def test_chern_reads_no_scalar_partials(monkeypatch):
    # chern_finsler reads gathered derivative tensors of one jet: no scalar
    # partials and no products of Jet objects
    def refuse(*args, **kwargs):
        raise AssertionError("jet-object arithmetic in chern_finsler")

    for name in ("partial", "__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, name, refuse)
    rng = np.random.default_rng(11)
    for metric in (POINCARE, MINKOWSKI):
        z, v = rand_zv(rng, metric.n)
        assert np.isfinite(at_point(holomorphic_sectional_curvature, metric, z, v))


def test_poincare_ball_constant_holomorphic_curvature():
    rng = np.random.default_rng(3)
    for _ in range(6):
        z, v = rand_zv(rng, 2, r=0.5)
        k = at_point(holomorphic_sectional_curvature, BALL2, z, v)
        assert k == pytest.approx(-4.0, abs=1e-6)


@pytest.mark.parametrize("metric", [POINCARE, BALL2, NONKAHLER])
def test_hermitian_oracle_agreement(metric):
    n = metric.n

    def h_fn(zz):
        return hermitian_matrix(metric.spec["params"]["catalog"], zz)

    rng = np.random.default_rng(4)
    for _ in range(4):
        z, v = rand_zv(rng, n, r=0.4)
        k_engine = at_point(holomorphic_sectional_curvature, metric, z, v)
        k_oracle = hermitian_holomorphic_curvature(h_fn, z, v)
        assert k_engine == pytest.approx(k_oracle, abs=5e-6, rel=1e-5)


def test_hermitian_reduction_of_connection():
    # for Hermitian metrics the horizontal coefficients drop the v-dependence
    # and the vertical coefficients vanish
    rng = np.random.default_rng(5)
    z, _ = rand_zv(rng, 2, r=0.4)
    _, v1 = rand_zv(rng, 2)
    _, v2 = rand_zv(rng, 2)
    d1 = at_point(chern_finsler, BALL2, z, v1)
    d2 = at_point(chern_finsler, BALL2, z, v2)
    assert np.abs(d1.gamma_h - d2.gamma_h).max() < 1e-9
    assert np.abs(d1.gamma_v).max() < 1e-11

    # classical Chern coefficients g^{tbar a} d_mu g_{b tbar}, with d_mu the
    # holomorphic derivative of the closed-form matrix by central differences
    n, h = 2, 1e-5

    def H(zz):
        return hermitian_matrix("poincare_ball", zz)

    ginv = np.linalg.inv(H(z))
    dg = np.empty((n, n, n), dtype=complex)  # dg[mu][b][t]
    for mu in range(n):
        e = h * np.eye(n)[mu]
        re = (H(z + e) - H(z - e)) / (2 * h)
        im = (H(z + 1j * e) - H(z - 1j * e)) / (2 * h)
        dg[mu] = 0.5 * (re - 1j * im)
    classical = np.einsum("tA,mbt->Abm", ginv, dg)
    assert np.abs(classical - d1.gamma_h).max() < 1e-8


def test_finite_difference_delta_oracle():
    # horizontal derivative of the Levi matrix re-derived with central
    # differences in z, with the nonlinear connection re-evaluated
    rng = np.random.default_rng(6)
    z, v = rand_zv(rng, 2, r=0.3)
    d = at_point(chern_finsler, SZABO, z, v)
    n = 2
    h = 1e-5

    def levi(zz, vv):
        return levi_at(SZABO, zz, vv)

    for mu in range(n):
        e = np.zeros(n, complex)
        e[mu] = 1.0
        # d/dz^mu via complex-step pair of real central differences
        re = (levi(z + h * e, v) - levi(z - h * e, v)) / (2 * h)
        im = (levi(z + 1j * h * e, v) - levi(z - 1j * h * e, v)) / (2 * h)
        dz = 0.5 * (re - 1j * im)
        # vertical correction with the nonlinear coefficients
        dv = np.empty((n, n, n), dtype=complex)
        for s in range(n):
            ev = np.zeros(n, complex)
            ev[s] = 1.0
            re_v = (levi(z, v + h * ev) - levi(z, v - h * ev)) / (2 * h)
            im_v = (levi(z, v + 1j * h * ev) - levi(z, v - 1j * h * ev)) / (2 * h)
            dv[s] = 0.5 * (re_v - 1j * im_v)
        delta_fd = dz - np.einsum("s,sbt->bt", d.nonlinear[:, mu], dv)
        gamma_fd = np.einsum("tA,bt->Ab", d.levi_inv, delta_fd)
        assert np.abs(gamma_fd - d.gamma_h[:, :, mu]).max() < 1e-5


def test_scale_invariance():
    rng = np.random.default_rng(7)
    # K_G(v) = K_G(zeta v) for nonzero complex zeta (homogeneity)
    z, v = rand_zv(rng, 1, r=0.5)
    zs, vs = rand_zv(rng, 2, r=0.3)
    cases = [(POINCARE, z, v, zeta) for zeta in (2.0, np.exp(1j * np.pi / 3), 1e-3)]
    cases += [(SZABO, zs, vs, np.exp(1j * np.pi / 3)), (MINKOWSKI, zs, vs, 1e-3)]
    for m, zc, vc, zeta in cases:
        k = at_point(holomorphic_sectional_curvature, m, zc, vc)
        assert abs(k - at_point(holomorphic_sectional_curvature, m, zc, zeta * vc)) < 1e-8, \
            (m.family_id, zeta)


def test_szabo_curvature_is_real_and_scale_free():
    rng = np.random.default_rng(8)
    for _ in range(4):
        z, v = rand_zv(rng, 2, r=0.25)
        d = at_point(chern_finsler, SZABO, z, v)
        k = 2 * curvature_pairing(d) / d.G ** 2
        assert abs(k.imag) < 1e-9
        assert np.isfinite(k.real)


def test_ill_conditioned_levi_matrix_is_degenerate():
    m = instantiate({"family": "hermitian", "complex_dim": 2,
                     "params": {"catalog": "constant", "matrix": [[1, 0], [0, 1e-11]]}})
    with pytest.raises(DegenerateMetricError, match="condition number"):
        at_point(chern_finsler, m, np.zeros(2, complex), np.array([1.0, 0.3j]))


def test_singular_levi_matrix_is_degenerate_not_linalg_error():
    class SingularLevi:
        n = 1

        def complex_rows(self, z, v, basis):
            return wirtinger_coeffs(np.zeros((len(z), basis.n)), basis, ((0, 1), (2, 3)))

    with pytest.raises(DegenerateMetricError, match="singular"):
        at_point(chern_finsler, SingularLevi(), np.zeros(1, complex), np.ones(1, complex))
