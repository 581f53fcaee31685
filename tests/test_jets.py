"""Jet arithmetic on the oracles' eager ring (seed semantics, chain/Leibniz
exactness), derivative readouts, and the index and Wirtinger tables."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsler.errors import ConfigurationError, StructuralError
from finsler.jets import CJet, Jet, JetSpace, _monomials, _wirtinger_rows, wirtinger

from oracles import (EagerSpace, dict_poly_mult, eager, extract, gaussian_curvature,
                     gradient_identity, invert_jet_matrix, levi_identity_residual,
                     log_density_comparison, loop_conj_perm, loop_extract_table, loop_monomials,
                     loop_mult_table, loop_wirtinger_rows, probe_catalog, pullback_density,
                     random_expression, richardson_partial, truncate)


def test_lift_seed_semantics():
    (j,) = EagerSpace.get(1, 2).variables([2.0])
    assert j.value == 2.0
    assert j.partial([0]) == 1.0
    assert j.partial([0, 0]) == 0.0


def test_lift_bilinear_mixed_partial():
    x, y = EagerSpace.get(2, 2).variables([1.0, 3.0])
    assert (x * y).partial([0, 1]) == 1.0


def test_lift_monomial_factorial():
    (x,) = EagerSpace.get(1, 4).variables([1.0])
    assert (x ** 4).partial([0, 0, 0, 0]) == pytest.approx(24.0)


def test_jet_space_rejects_an_order_above_the_maximum():
    with pytest.raises(ConfigurationError):
        JetSpace.get(1, 5)


@st.composite
def integer_polys(draw, nvars=2, order=4):
    basis = loop_monomials(nvars, order)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(basis), max_size=len(basis)))
    return {m: float(c) for m, c in zip(basis, coeffs) if c}


@settings(max_examples=60, deadline=None)
@given(integer_polys(), integer_polys())
def test_product_rule_is_exact_convolution(pa, pb):
    # integer coefficients keep float arithmetic exact regardless of order
    sp = JetSpace.get(2, 4, False)
    index = {m: i for i, m in enumerate(loop_monomials(2, 4))}
    ja = np.zeros(sp.n)
    jb = np.zeros(sp.n)
    for m, c in pa.items():
        ja[index[m]] = c
    for m, c in pb.items():
        jb[index[m]] = c
    prod = Jet(sp, ja) * Jet(sp, jb)
    ref = dict_poly_mult(pa or {(0, 0): 0.0}, pb or {(0, 0): 0.0}, 4)
    expect = np.zeros(sp.n)
    for m, c in ref.items():
        expect[index[m]] = c
    assert np.array_equal(prod.coeffs, expect)


@pytest.mark.parametrize("seed", range(12))
def test_composites_match_richardson_fd(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(1, 4))
    expr = random_expression(rng, nvars)
    x0 = rng.uniform(0.6, 1.4, size=nvars)
    jets = EagerSpace.get(nvars, 4).variables(x0)
    jf = expr(jets)
    if not isinstance(jf, Jet):  # the random tree may degenerate to a constant
        return

    def plain(y):
        return expr(list(y))

    for mono in jf.space.exponents.tolist():
        k = sum(mono)
        if k == 0:
            assert plain(x0) == pytest.approx(jf.value, rel=1e-12)
            continue
        multi = [i for i, e in enumerate(mono) for _ in range(e)]
        fd = richardson_partial(plain, x0, multi)
        exact = jf.partial(multi)
        scale = max(1.0, abs(fd), abs(exact))
        assert abs(exact - fd) / scale < 1e-6, (mono, exact, fd)


def test_division_and_roots_invert():
    x, y = EagerSpace.get(2, 4).variables([0.8, 1.7])
    f = (x * x * y + 2.0)
    g = f / (y + 0.5)
    back = g * (y + 0.5)
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-13)
    h = f.sqrt()
    assert np.allclose((h * h).coeffs, f.coeffs, atol=1e-13)
    assert np.allclose(f.log().exp().coeffs, f.coeffs, atol=1e-12)


def test_mixed_order_alignment_truncates():
    x, y = EagerSpace.get(2, 4).variables([0.5, 0.25])
    f4 = x * x * y
    f2 = truncate(f4, 2)
    out = f4 + f2
    assert out.order == 2
    assert out.value == pytest.approx(2 * f4.value)


def test_extract_consistency():
    x, y = EagerSpace.get(2, 4).variables([0.8, -0.4])
    f = (x * y + y * y) ** 2
    fx = extract(f, 0)
    assert fx.order == 3
    assert fx.value == pytest.approx(f.partial([0]))
    assert fx.partial([1]) == pytest.approx(f.partial([0, 1]))


# -- Wirtinger tables ---------------------------------------------------------


def test_wirtinger_mod_square():
    x, y = EagerSpace.get(2, 2).variables([0.3, -0.7])
    w = wirtinger(x * x + y * y, [(0, 1)])
    assert w.partial([0, 1]) == pytest.approx(1.0)
    assert abs(w.partial([0, 0])) < 1e-14


def test_wirtinger_real_part():
    x, y = EagerSpace.get(2, 1).variables([0.3, -0.7])
    w = wirtinger(x, [(0, 1)])
    assert w.partial([0]) == pytest.approx(0.5)


def test_wirtinger_mod_fourth_at_one():
    x, y = EagerSpace.get(2, 2).variables([1.0, 0.0])
    w = wirtinger((x * x + y * y) ** 2, [(0, 1)])
    assert w.partial([0, 1]) == pytest.approx(4.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=15, max_size=15))
def test_wirtinger_hermitian_symmetry(coeffs):
    # jets of real-valued functions have conjugate-symmetric Wirtinger tables
    sp = JetSpace.get(2, 4, False)
    c = np.zeros(sp.n)
    c[:15] = coeffs
    w = wirtinger(Jet(sp, c), [(0, 1)])
    perm = w.space.conj_perm()
    sym = np.conj(w.coeffs)[perm] - w.coeffs
    assert np.abs(sym).max() < 1e-12


def test_wirtinger_rejects_partial_pairings():
    x, y, z = EagerSpace.get(3, 2).variables([1.0, 2.0, 3.0])
    with pytest.raises(StructuralError):
        wirtinger(x + y + z, [(0, 1)])


def test_wirtinger_rejects_pairs_that_do_not_split_the_variables():
    x, y = EagerSpace.get(2, 2).variables([1.0, 2.0])
    for pairs in ([(0, 0)], [(0, 2)], [(-1, 0)], [(0, 1), (0, 1)]):
        with pytest.raises(StructuralError):
            wirtinger(x + y, pairs)


def test_conj_swaps_blocks():
    x, y = EagerSpace.get(2, 3).variables([0.4, 0.9])
    w = wirtinger(x * y + x, [(0, 1)])
    wc = eager(w).conj()
    assert wc.partial([0]) == pytest.approx(np.conj(w.partial([1])))


# -- jet matrices --------------------------------------------------------------


def test_invert_jet_matrix_roundtrip():
    x, y = EagerSpace.get(2, 2).variables([0.2, -0.1])
    M = [[x + 3.0, x * y], [y, y * y + 2.0]]
    Minv = invert_jet_matrix(M)
    for i in range(2):
        for j in range(2):
            acc = None
            for k in range(2):
                t = M[i][k] * Minv[k][j]
                acc = t if acc is None else acc + t
            expect = 1.0 if i == j else 0.0
            assert abs(acc.value - expect) < 1e-13
            assert np.abs(acc.coeffs[1:]).max() < 1e-12


def test_cjet_field_operations():
    x, y = EagerSpace.get(2, 3).variables([0.6, -0.3])
    z = CJet(x, y)
    w = CJet(y + 1.0, x * y)
    q = (z * w) / w
    assert np.allclose(q.re.coeffs, z.re.coeffs, atol=1e-13)
    assert np.allclose(q.im.coeffs, z.im.coeffs, atol=1e-13)
    assert np.allclose((z * z.conj()).re.coeffs, (x * x + y * y).coeffs, atol=1e-14)


@pytest.mark.parametrize("c", [0.7 - 1.3j, np.complex128(-0.25 + 2.0j), 1j, 2.5 + 0j])
def test_cjet_times_complex_constant_is_a_coefficient_scale(c):
    x, y = EagerSpace.get(2, 4).variables([0.6, -0.3])
    z = CJet(x * y + 0.5, x - y * y)
    const = CJet(x.space.constant(complex(c).real), x.space.constant(complex(c).imag))
    for got in (z * c, c * z):
        want = z * const
        assert np.array_equal(got.re.coeffs, want.re.coeffs)
        assert np.array_equal(got.im.coeffs, want.im.coeffs)


def test_gradient_and_hessian_gathers_match_partials():
    rng = np.random.default_rng(4)
    for nvars, order in ((2, 2), (4, 3), (8, 2), (4, 4), (8, 4)):
        jets = EagerSpace.get(nvars, order).variables(rng.standard_normal(nvars))
        f = (jets[0] * jets[-1] + jets[1].exp()) * jets[nvars // 2] + jets[0] ** 3
        assert np.array_equal(f.derivatives(1), [f.partial([i]) for i in range(nvars)])
        assert np.array_equal(f.derivatives(2), [[f.partial([i, j]) for j in range(nvars)]
                                            for i in range(nvars)])
        for k in range(3, order + 1):
            want = np.empty((nvars,) * k)
            for ix in itertools.product(range(nvars), repeat=k):
                want[ix] = f.partial(ix)
            assert np.array_equal(f.derivatives(k), want)
        with pytest.raises(StructuralError):
            f.derivatives(order + 1)
    with pytest.raises(StructuralError):
        EagerSpace.get(2, 1).variables([0.1, 0.2])[0].derivatives(2)


def test_engine_reads_no_scalar_partials(monkeypatch):
    # every derivative readout in the engine goes through derivatives() gathers
    # (wirtinger, levi_matrix, PoleDistance.rho, realified jets, probe Jacobians),
    # reached here through the oracles that call them
    from finsler.kahler import weakly_kahler_pde_residual
    from finsler.metrics import build_map, build_profile, instantiate

    def refuse(self, variables):
        raise AssertionError("scalar partial() readout")

    monkeypatch.setattr(Jet, "partial", refuse)
    disk = instantiate({"family": "hermitian", "complex_dim": 1,
                        "params": {"catalog": "poincare_disk"}})
    ball = instantiate({"family": "hermitian", "complex_dim": 2,
                        "params": {"catalog": "poincare_ball"}})
    euclid = instantiate({"family": "hermitian", "complex_dim": 1,
                          "params": {"catalog": "euclidean"}})
    assert weakly_kahler_pde_residual(build_profile({"form": "gradient", "f": "exp"})).passed
    out = levi_identity_residual(ball, lambda xs: xs[0] * xs[3], np.array([0.2 + 0.1j, -0.3j]),
                                 np.array([0.3, -0.5, 0.7, 0.1]))
    assert out["relative_residual"] < 1e-8
    rep = gradient_identity(euclid, np.zeros(1, complex), np.array([0.5 + 0.2j]))
    assert rep["relative_error_real"] < 1e-6 and rep["relative_error_complex"] < 1e-6
    mob = build_map({"map": "mobius", "params": {"a": [0.3, -0.2]}})
    a = complex(0.3, -0.2)
    z = 0.1 + 0.4j
    assert mob.evaluate(np.array([[z]]))[1][0, 0, 0] == pytest.approx(
        (abs(a) ** 2 - 1) / (1 - z * a.conjugate()) ** 2, abs=1e-14)
    probes = probe_catalog(ball, np.array([0.2 + 0.1j, -0.1j]), np.array([1.0, 0.5j]))
    assert list(probes) == ["affine", "geodesic"]
    assert gaussian_curvature(pullback_density(ball, probes["geodesic"]), 0.1j) == pytest.approx(
        -4.0, abs=1e-8)
    margins = log_density_comparison(disk, build_map({"map": "identity", "params": {"n": 1}}),
                                     lambda zc: [zc], -4.0, [0.1, 0.3 - 0.2j])
    assert len(margins) == 2 and min(margins) > -1e-6


# -- index tables against the loop builders ---------------------------------------

SHAPES = [(nvars, order) for nvars in range(1, 9) for order in range(5)]


def assert_identical(got, want, bits=False):
    # equal values in equal order and dtype keep every bincount/add.at
    # summation order; complex values compare bit patterns, signed zeros too
    assert got.dtype == want.dtype and got.shape == want.shape
    if bits:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("nvars, order", SHAPES)
def test_basis_and_real_tables_match_loop_builders(nvars, order):
    want = loop_monomials(nvars, order)
    rows = np.array(want, dtype=np.int64).reshape(len(want), nvars)
    assert_identical(_monomials(nvars, order), rows)
    sp = JetSpace.get(nvars, order)
    assert_identical(sp.exponents, rows)
    assert [sp.locate(np.array(m)) for m in want] == list(range(len(want)))
    table = loop_mult_table(nvars, order)
    for got, ref in zip(sp.mult_table(), table):
        assert_identical(got, ref)
    for var in range(nvars if order else 0):
        for got, ref in zip(sp.extract_table(var), loop_extract_table(nvars, order, var)):
            assert_identical(got, ref)
    # kept bases: fibre degree >= degree - reach, over the u half of (x, u)
    # and over the (v, vbar) blocks of [z, v, zbar, vbar]
    fibres = [tuple(range(nvars // 2, nvars))] if nvars > 1 else []
    if nvars % 4 == 0:
        n = nvars // 4
        fibres.append((*range(n, 2 * n), *range(3 * n, 4 * n)))
    for fibre, reach in itertools.product(fibres, range(order)):
        kept = JetSpace.get(nvars, order, fibre=fibre, reach=reach)
        keep = np.array([sum(m) - sum(m[i] for i in fibre) <= reach for m in want])
        assert_identical(kept.exponents, rows[keep])
        # closed under divisors: lowering a positive exponent stays in the basis
        for var in range(nvars):
            lower = kept.exponents[kept.exponents[:, var] > 0] - np.eye(nvars, dtype=np.int64)[var]
            assert (kept.locate(lower) < kept.n).all()
        assert (kept.locate(rows[~keep]) == kept.n).all()
        # the loop builder's table filtered, in order, to its kept outputs
        index = np.cumsum(keep) - 1
        on = keep[table[2]]
        for got, ref in zip(kept.mult_table(), table):
            assert_identical(got, index[ref[on]])


def test_kept_tables_count_the_work_they_skip():
    # product-table entries, full and kept, a machine-independent work count:
    # Chern-Finsler and Cartan at order 4, the spray, the Jacobi system
    for nvars, order, reach, full, kept in ((4, 4, 2, 495, 360), (8, 4, 2, 4845, 3435),
                                            (4, 2, 1, 45, 35), (8, 2, 1, 153, 117),
                                            (4, 3, 2, 165, 145), (8, 3, 2, 969, 849)):
        fibre = range(nvars // 2, nvars)
        assert len(JetSpace.get(nvars, order).mult_table()[0]) == full
        assert len(JetSpace.get(nvars, order, fibre=fibre, reach=reach).mult_table()[0]) == kept
    # the Wirtinger image of the n = 2 Chern-Finsler basis keeps as many
    assert len(JetSpace.get(8, 4, True, (2, 3, 6, 7), 2).mult_table()[0]) == 3435
    # a reach of at least the order keeps everything: it is the full space
    assert JetSpace.get(4, 2, fibre=(2, 3), reach=2) is JetSpace.get(4, 2)


def test_gathering_a_partial_the_basis_drops_is_an_error():
    sp = JetSpace.get(4, 3, fibre=(2, 3), reach=2)
    rows = np.ones((2, sp.n))
    U = slice(2, None)
    assert sp.gather(rows, 3, U).shape == (2, 2, 4, 4)
    assert sp.gather(rows[0], 2).shape == (4, 4)
    # d^3 / dx0 dx1 dx0 has u-degree 0 < 3 - 2: a bug, not a zero
    for blocks in ((), (slice(0, 2), slice(0, 2), 0)):
        with pytest.raises(StructuralError, match="does not keep"):
            sp.gather(rows, 3, *blocks)


def pair_layouts(nvars):
    """The block and interleaved pairings of 2P real variables, and the one
    complex jets use over (x, u) when 4 divides nvars."""
    P = nvars // 2
    layouts = [[(a, P + a) for a in range(P)], [(2 * a, 2 * a + 1) for a in range(P)]]
    if nvars % 4 == 0:
        n = nvars // 4
        layouts.append([(a, n + a) for a in range(n)] + [(2 * n + a, 3 * n + a)
                                                         for a in range(n)])
    return [tuple(layout) for layout in layouts]


@pytest.mark.parametrize("nvars, order", [s for s in SHAPES if s[0] % 2 == 0])
def test_complex_tables_match_loop_builders(nvars, order):
    assert_identical(JetSpace.get(nvars, order, True).conj_perm(), loop_conj_perm(nvars, order))
    for pairs in pair_layouts(nvars):
        dst, src, val, cx_sp = _wirtinger_rows(nvars, order, pairs)
        want = loop_wirtinger_rows(nvars, order, pairs)
        assert_identical(dst, want[0])
        assert_identical(src, want[1])
        assert_identical(val, want[2], bits=True)
        assert cx_sp is JetSpace.get(nvars, order, True)
