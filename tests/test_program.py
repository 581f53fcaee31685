"""Recorded jet programs: ``MetricDef.real_jet`` replays each formula's tape.

The replay must give the coefficients of the formula evaluated on fresh
``Jet``/``CJet`` objects (``oracles.real_jet_by_objects``) bit for bit, at
every order, for every family, and so must every opcode at every row of a
replay of B points; value-derived Taylor coefficients are recomputed per
call; formulas that read a jet's value are refused. A tape records each entry
once and replays as the tape of every emitted entry
(``oracles.record_unmerged``) does; a replay of B points gives, row by row,
the one-row replays of each point.
"""

import math

import numpy as np
import pytest

from finsler.errors import DomainError, SlitBundleError, StructuralError
from finsler.geometry import MetricDef, complex_to_real_components, levi_matrix, realify_metric
from finsler.cartan import cartan, spray_coefficients, spray_jacobian
from finsler.chern import chern_finsler, holomorphic_sectional_curvature
from finsler.jets import (_ADD, _ADDC, _CONST, _EXP, _MUL, _NEG, _POW, _REC, _RSUBC,
                          _SCALE, _SUB, MAX_ORDER, PLANS, ROW_PRODUCTS, Jet, JetProgram,
                          JetSpace)
from finsler.metrics import _hermitian_form, instantiate

from oracles import (EagerSpace, at_point, complex_jet_by_objects, eager, eager_cjets,
                     levi_at, real_jet_by_objects, record_unmerged, replay_rows_unpruned)


def _replay(prog, point, order):
    """The jet of ``prog`` at one point: its replay as one row."""
    sp = JetSpace.get(prog.nvars, order)
    return Jet(sp, prog.replay_rows(np.asarray(point, dtype=float)[None], order)[0])


def _disk(**params):
    return {"catalog": "poincare_disk", **params}


# every family and catalog entry, the unitary-invariant profiles included
SPECS = [
    {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "euclidean"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}},
    {"family": "hermitian", "complex_dim": 2,
     "params": {"catalog": "constant", "matrix": [[2.0, [0.3, 0.4]], [[0.3, -0.4], 1.5]]}},
    {"family": "hermitian", "complex_dim": 1, "params": _disk()},
    {"family": "hermitian", "complex_dim": 1, "params": _disk(scale=2.5)},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "product_disks"}},
    {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"}},
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}},
    {"family": "minkowski", "complex_dim": 2, "params": {"k": 3, "eps": 0.25}},
    {"family": "minkowski", "complex_dim": 2, "params": {
        "k": 2, "eps": 0.5, "base": [[1.5, [0.2, -0.1]], [[0.2, 0.1], 1.0]],
        "factors": [[[1.0, [0.2, 0.1]], [[0.2, -0.1], 0.5]], [[0.5, 0.0], [0.0, 1.0]]]}},
    {"family": "szabo", "params": {"k": 2, "eps": 1.0}},
    {"family": "szabo", "params": {"k": 3, "eps": 0.5,
                                   "factor1": {"complex_dim": 1, "params": _disk()},
                                   "factor2": {"complex_dim": 1, "params": _disk()}}},
    {"family": "szabo", "params": {"k": 2, "eps": 1.0, "factors": [[[1.0]], [[1.5]]]}},
    {"family": "un_invariant", "complex_dim": 2,
     "params": {"profile": {"form": "gradient", "f": "exp", "c": 0.7}}},
    {"family": "un_invariant", "complex_dim": 2,
     "params": {"profile": {"form": "gradient", "f": "inv_one_minus_t"}}},
    {"family": "un_invariant", "complex_dim": 2,
     "params": {"profile": {"form": "free", "expr": "one_plus_s2"}}},
    {"family": "un_invariant", "complex_dim": 2,
     "params": {"profile": {"form": "free", "expr": "one_plus_ts2"}}},
]
POINTS_PER_SPEC = 3


def _points(m, rng):
    for _ in range(POINTS_PER_SPEC):
        z = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        z *= 0.7 * rng.random() / np.linalg.norm(z)   # inside every unit-ball domain
        v = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        yield z, v


def test_replay_equals_object_evaluation_bitwise():
    rng = np.random.default_rng(20261018)
    compared = 0
    for spec in SPECS:
        m = instantiate(spec)
        mr = realify_metric(m)
        for z, v in _points(m, rng):
            x, u = complex_to_real_components(z), complex_to_real_components(v)
            for order in range(MAX_ORDER + 1):
                for metric in (m, mr):
                    got = metric.real_jet(x, u, order).coeffs
                    want = real_jet_by_objects(metric, x, u, order).coeffs
                    assert got.tobytes() == want.tobytes(), (m.family_id, order)
                got = m.complex_jet(z, v, order).coeffs
                want = complex_jet_by_objects(m, z, v, order).coeffs
                assert got.tobytes() == want.tobytes(), (m.family_id, order)
                compared += 1
    assert compared == 270


def test_value_derived_coefficients_are_recomputed_per_call():
    prog = JetProgram.record(lambda s: (s[0] * 0.5).exp() + s[1] ** 0.5, 2)
    for point in ([0.3, 2.0], [-1.2, 0.7]):
        jet = _replay(prog, point, 2)
        assert jet.value == pytest.approx(np.exp(0.5 * point[0]) + np.sqrt(point[1]),
                                          rel=1e-15)
        assert eager(jet).derivatives(2)[0, 0] == pytest.approx(0.25 * np.exp(0.5 * point[0]),
                                                    rel=1e-15)


@pytest.mark.parametrize("op, bad, error", [
    (lambda s: 1.0 / s[0], 0.0, ZeroDivisionError),
    (lambda s: s[0] ** -2, 0.0, ZeroDivisionError),
    (lambda s: s[0] ** 0.5, -1.0, ValueError),
    (lambda s: s[0] ** 1.5, 0.0, ValueError),
    (lambda s: s[0] ** 2.5, 0.0, ValueError),
    (lambda s: s[0] ** 0.25, -2.0, ValueError),
])
def test_replay_raises_on_a_bad_base(op, bad, error):
    prog = JetProgram.record(op, 1)
    _replay(prog, [0.8], 3)   # the same program at a good base
    for order in range(MAX_ORDER + 1):
        with pytest.raises(error):
            _replay(prog, [bad], order)


def _branching(x, u):
    scale = 2.0 if x[0] > 0 else 1.0
    return scale * (u[0] * u[0] + u[1] * u[1])


@pytest.mark.parametrize("formula", [
    _branching,
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * (1.0 + complex(x[0]).real),
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * float(1.0 + x[0] * x[0]),
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) if x[1] == 0 else u[0] * u[0],
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * abs(x[0]),
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * (x[0] + 1j),
])
def test_a_formula_that_reads_values_is_refused(formula):
    # a value is the order-0 replay of the same program: no route runs the
    # formula on numbers
    m = MetricDef("real", formula, dim_real=2)
    x, u = np.array([0.3, 0.1]), np.array([1.0, 0.5])
    with pytest.raises(StructuralError):
        m.value(x, u)
    with pytest.raises(StructuralError):
        m.real_jet(x, u, 2)


@pytest.mark.parametrize("op", [
    lambda s, J: s[0] * J, lambda s, J: J * s[0],
    lambda s, J: s[0] + J, lambda s, J: J + s[0],
    lambda s, J: s[0] - J, lambda s, J: J - s[0],
    lambda s, J: s[0] / J, lambda s, J: J / s[0],
])
def test_a_jet_from_outside_the_tape_is_refused(op):
    sp = JetSpace.get(1, 2)
    outside = Jet(sp, sp.seed_coeffs(np.array([[0.5]]))[0])
    with pytest.raises(StructuralError, match="outside the tape"):
        JetProgram.record(lambda s: op(s, outside), 1)


def test_a_metric_is_recorded_once():
    m = instantiate(SPECS[5])   # the Poincare ball
    calls = []
    formula = m.formula

    def counted(z, v):
        calls.append(1)
        return formula(z, v)

    m.formula = counted
    z, v = np.array([0.2 + 0.1j, -0.3j]), np.array([1.0, 0.5 + 0.5j])
    x, u = complex_to_real_components(z), complex_to_real_components(v)
    for order in (2, 0, 4, 1, 3, 2):
        m.real_jet(x, u, order)
        m.complex_jet(z, v, order)
    levi_at(m, z, v)
    at_point(m.fundamental_real, x, u)
    assert len(calls) == 1


def test_hermitian_fold_equals_the_full_form():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = a @ a.conj().T
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        full = np.einsum("ab,a,b->", H, v, np.conj(v)).real
        assert _hermitian_form(H, eager_cjets(v)).value == pytest.approx(full, rel=1e-14)


# -- value numbering at record time ----------------------------------------------


def _program_of(m):
    d = m.dim
    return JetProgram.record(lambda s: m.real_formula(s[:d], s[d:]), 2 * d)


def test_repeated_entries_are_recorded_once():
    # the Poincare ball repeats 4 products, Minkowski 4 of its 10
    assert len(_program_of(instantiate(SPECS[5])).ops) == 44
    assert len(_program_of(instantiate(SPECS[8])).ops) == 12
    assert len(JetProgram.record(lambda s: s[0] * s[1] + s[0] * s[1], 2).ops) == 2
    # commuted operands sum in another order, so they stay apart
    assert len(JetProgram.record(lambda s: s[0] * s[1] + s[1] * s[0], 2).ops) == 3


def test_merged_tape_replays_as_the_unmerged_one_bitwise():
    rng = np.random.default_rng(20261019)
    shrunk = 0
    for spec in SPECS:
        m = instantiate(spec)
        d = m.dim
        merged = _program_of(m)
        unmerged = record_unmerged(lambda s: m.real_formula(s[:d], s[d:]), 2 * d)
        shrunk += len(merged.ops) < len(unmerged.ops)
        for z, v in _points(m, rng):
            values = np.concatenate([complex_to_real_components(z), complex_to_real_components(v)])
            for order in range(MAX_ORDER + 1):
                got = _replay(merged, values, order).coeffs
                want = _replay(unmerged, values, order).coeffs
                assert got.tobytes() == want.tobytes(), (m.family_id, order)
    assert shrunk >= 2


def test_signed_zero_constants_are_not_merged():
    prog = JetProgram.record(lambda s: (s[0] + 0.0) * (s[0] - 0.0), 1)
    assert prog.ops == [(_ADDC, 0, 0.0), (_ADDC, 0, -0.0), (_MUL, 1, 2)]
    # the entries differ at -0: -0 + 0 = 0, while -0 + -0 = -0
    for out, sign in ((1, 1.0), (2, -1.0)):
        value = _replay(JetProgram(1, prog.ops[:2], out), [-0.0], 0).value
        assert value == 0.0 and math.copysign(1.0, value) == sign
    consts = JetProgram.record(lambda s: s[0].space.constant(0.0) + s[0].space.constant(-0.0), 1)
    assert [code for code, _, _ in consts.ops] == [_CONST, _CONST, _ADD]


# -- batched replay ------------------------------------------------------------------


def _every_op(s):
    a = s[0] * s[1] + s[2]                   # MUL, ADD
    b = (a - s[1]) * 0.5                     # SUB, SCALE
    c = -(2.0 - b) + 1.5                     # RSUBC, NEG, ADDC
    e = (c * c + 1.0) ** 0.5 + (0.1 * s[2]).exp()
    f = 1.0 / (s[0] * s[0] + 2.0) + (s[1] * s[1] + 1.0) ** 0.75
    return e + f * s[0].space.constant(0.25)  # REC, POW, CONST


EVERY_OP = {_MUL, _ADD, _SUB, _SCALE, _ADDC, _RSUBC, _NEG, _CONST, _REC, _EXP, _POW}
BATCH_SPECS = [SPECS[3], SPECS[5], SPECS[8], SPECS[12], SPECS[16]]   # disk, ball, Minkowski,
#                                                      Szabo of disks, one_plus_s2


def _batch(m, rng, rows):
    x = rng.standard_normal((rows, m.dim))
    x *= 0.7 * rng.random((rows, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    return x, rng.standard_normal((rows, m.dim))


def _assert_rows_are_point_replays(prog, values, order):
    rows = prog.replay_rows(values, order)
    assert rows.shape == (len(values), JetSpace.get(prog.nvars, order).n)
    for b, point in enumerate(values):
        assert rows[b].tobytes() == _replay(prog, point, order).coeffs.tobytes(), (order, b)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_every_opcode_replays_as_the_eager_ring(rows):
    # the eager ring of the tests evaluates the formula on objects, one point
    # at a time and with no tape: a reference for the replay's dispatch of
    # every opcode, its seeds and its raveled rows
    rng = np.random.default_rng(100 + rows)
    prog = JetProgram.record(_every_op, 3)
    assert {code for code, _, _ in prog.ops} == EVERY_OP
    for order in range(MAX_ORDER + 1):
        values = rng.uniform(0.2, 1.5, (rows, 3))
        got = prog.replay_rows(values, order)
        for b, point in enumerate(values):
            want = _every_op(EagerSpace.get(3, order).variables(point)).coeffs
            assert got[b].tobytes() == want.tobytes(), (order, b)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_batched_replay_rows_equal_point_replays(rows):
    rng = np.random.default_rng(rows)
    prog = JetProgram.record(_every_op, 3)
    for order in range(MAX_ORDER + 1):
        _assert_rows_are_point_replays(prog, rng.uniform(0.2, 1.5, (rows, 3)), order)
    for spec in BATCH_SPECS:
        m = realify_metric(instantiate(spec))
        x, u = _batch(m, rng, rows)
        for order in range(MAX_ORDER + 1):
            rows_jet = m.real_rows(x, u, order)
            for b in range(rows):
                point = m.real_jet(x[b], u[b], order).coeffs
                assert rows_jet[b].tobytes() == point.tobytes(), (m.family_id, order, b)


def test_batched_replay_chunks_its_rows():
    # 8 rows of the ball at order 4 (8 variables) exceed one stacked product,
    # over the full basis and over Cartan's and Chern-Finsler's kept one, so
    # test_batched_replay_rows_equal_point_replays and
    # test_kept_replays_are_the_kept_coefficients_of_full_replays cross chunk
    # boundaries; a chunk counts the kept entries, so it holds more rows
    m = instantiate(SPECS[5])
    full, kept = JetSpace.get(8, 4), m.fibre_space(4, 2)
    assert ROW_PRODUCTS // len(full.mult_table()[0]) < ROW_PRODUCTS // len(kept.mult_table()[0])
    assert 8 * len(kept.mult_table()[0]) > ROW_PRODUCTS


def _reader_spaces(m):
    """The kept bases over (x, u) of the real fundamental tensor, the spray,
    the spray Jacobian and Cartan, and the (real basis, its Wirtinger image
    over [z, v, zbar, vbar]) of the Levi matrix and of Chern-Finsler, of a
    complex metric m."""
    n, fibre = m.n, (*range(m.n, 2 * m.n), *range(3 * m.n, 4 * m.n))
    return ((m.fibre_space(2, 0), m.fibre_space(2, 1), m.fibre_space(3, 2), m.fibre_space(4, 2)),
            [(m.fibre_space(order, reach), JetSpace.get(4 * n, order, True, fibre, reach))
             for order, reach in ((2, 0), (4, 2))])


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_kept_replays_are_the_kept_coefficients_of_full_replays(rows):
    # a kept basis is closed under divisors, so its product table sums each
    # kept coefficient's terms as the full one does: bit for bit, every family
    rng = np.random.default_rng(30 + rows)
    for spec in SPECS:
        m = instantiate(spec)
        x, u = _batch(m, rng, rows)
        z, v = x[:, :m.n] + 1j * x[:, m.n:], u[:, :m.n] + 1j * u[:, m.n:]
        real, images = _reader_spaces(m)
        for sp in real:
            full = m.real_rows(x, u, sp.order)[:, JetSpace.get(2 * m.dim, sp.order).locate(
                sp.exponents)]
            assert m.real_rows(x, u, sp).tobytes() == full.tobytes(), (m.family_id, sp)
            assert m.real_jet(x[0], u[0], sp).coeffs.tobytes() == full[0].tobytes()
        for sp, cx in images:
            full_sp, full = m.complex_rows(z, v, sp.order)
            assert full_sp is JetSpace.get(4 * m.n, sp.order, True)
            kept_sp, kept = m.complex_rows(z, v, sp)
            assert kept_sp is cx
            assert kept.tobytes() == full[:, full_sp.locate(cx.exponents)].tobytes(), (
                m.family_id, sp)


def _signed_zero_square(z, v):
    """|v|^2 of C^2, recorded so that its mixed coefficients are -0.0 but +0.0
    at q0 p1: the real and the imaginary part of L_{0 1bar} each take the
    difference of two of them, which a Wirtinger jet sums from +0.0."""
    (p0, q0), (p1, q1) = ((w.re, w.im) for w in v)
    negative = (-p0) * p0 + (-q0) * q0 + (-p1) * p1 + (-q1) * q1
    square = -(p0 * p0 + q0 * q0 + p1 * p1 + q1 * q1)
    return ((square - q0 * (-p1)) + (q0 * p1) * -1.0) - 2.0 * negative


def test_levi_matrix_is_the_wirtinger_gather_bit_for_bit():
    # L read off the real fundamental tensor against its oracle, the (v, vbar)
    # block of the order-2 Wirtinger jet, on every family and on a form whose
    # zero coefficients are -0.0: at random rows and along the axes of v,
    # where most parts are zeros that must keep their sign
    rng = np.random.default_rng(41)
    signed_zeros = MetricDef("complex", _signed_zero_square, n_complex=2)
    for m in [instantiate(spec) for spec in SPECS] + [signed_zeros]:
        n = m.n
        x, u = _batch(realify_metric(m), rng, 6)
        axes = np.concatenate([np.eye(n), -1j * np.eye(n)])
        for z, v in ((x[:, :n] + 1j * x[:, n:], u[:, :n] + 1j * u[:, n:]),
                     (np.zeros((2 * n, n), complex), axes)):
            sp, rows = m.complex_rows(z, v, m.fibre_space(2, 0))
            want = sp.gather(rows, 2, slice(n, 2 * n), slice(3 * n, 4 * n))
            g = m.fundamental_real(complex_to_real_components(z), complex_to_real_components(v))
            assert levi_matrix(g).tobytes() == want.tobytes(), m.family_id


@pytest.mark.parametrize("rows", [1, 3])
def test_readers_equal_their_full_basis_readouts(monkeypatch, rows):
    # every reader over its kept basis, against the same reader with every
    # space full (the oracle), bit for bit on every family; the oracle takes
    # a metric of its own, so no basis a metric keeps leaks into it
    def readouts(m, x, u, z, v):
        cf, ct = chern_finsler(m, z, v), cartan(m, x, u)
        jac = [spray_jacobian(m.real_jet(x[b], u[b], m.fibre_space(3, 2)), u[b])
               for b in range(rows)]
        return ([getattr(cf, f) for f in vars(cf)] + [getattr(ct, f) for f in vars(ct)]
                + [holomorphic_sectional_curvature(m, z, v), spray_coefficients(m, x, u),
                   levi_matrix(m.fundamental_real(x, u)), m.fundamental_real(x, u)]
                + [a for out in jac for a in out])

    rng = np.random.default_rng(40 + rows)
    get = JetSpace.get
    for spec in SPECS:
        m = instantiate(spec)
        x, u = _batch(m, rng, rows)
        z, v = x[:, :m.n] + 1j * x[:, m.n:], u[:, :m.n] + 1j * u[:, m.n:]
        kept = readouts(m, x, u, z, v)
        with monkeypatch.context() as patch:
            patch.setattr(JetSpace, "get", staticmethod(
                lambda nvars, order, is_complex=False, fibre=(), reach=None:
                get(nvars, order, is_complex)))
            m = instantiate(spec)
            assert m.fibre_space(4, 2) is get(2 * m.dim, 4)
            assert m.spray_space is get(2 * m.dim, 2)
            full = readouts(m, x, u, z, v)
        for a, b in zip(kept, full, strict=True):
            assert a.tobytes() == b.tobytes(), m.family_id


def test_row_tables_offset_each_row():
    sp = JetSpace(3, 2)
    prog = JetProgram.record(_every_op, 3)
    for rows in (1, 3):
        tabled = 0
        for code, a, b, tables in prog._plan(sp, sp, rows)[1]:
            if tables is None:
                continue
            base = sp.support_table(prog.support[a], prog.support[b if code == _MUL else a])
            for t, t1 in zip(tables, base, strict=True):
                assert np.array_equal(t.reshape(rows, -1), t1 + sp.n * np.arange(rows)[:, None])
            # one row multiplies over the support table itself, built once per space
            assert (tables is base) == (rows == 1)
            tabled += 1
        assert tabled == 9   # 5 products, a reciprocal, 2 powers and an exp


# the bit-identity families: the disk, C^2, the ball, nonkahler, Minkowski, the
# Szabo polydisk of disks and a unitary-invariant profile
UNPRUNED_SPECS = [SPECS[3], SPECS[1], SPECS[5], SPECS[7], SPECS[8], SPECS[12], SPECS[16]]


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_replay_rows_equal_the_unpruned_kernel(rows):
    # a pruned product drops only terms with a factor of exactly +-0, which
    # leave a bincount's bins as they are; 8 rows of the ball cross a chunk
    # at order 4 (test_batched_replay_chunks_its_rows)
    rng = np.random.default_rng(50 + rows)
    for spec in UNPRUNED_SPECS:
        m = instantiate(spec)
        x, u = _batch(m, rng, rows)
        values = np.concatenate([x, u], axis=1)
        bases = [*range(MAX_ORDER + 1), m.fibre_space(2, 0), m.spray_space,
                 m.fibre_space(3, 2), m.fibre_space(4, 2)]
        for basis in bases:
            got = m.program.replay_rows(values, basis)
            want = replay_rows_unpruned(m.program, values, basis)
            assert got.tobytes() == want.tobytes(), (m.family_id, basis)
    prog = JetProgram.record(_every_op, 3)
    for order in range(MAX_ORDER + 1):
        values = rng.uniform(0.2, 1.5, (rows, 3))
        assert (prog.replay_rows(values, order).tobytes()
                == replay_rows_unpruned(prog, values, order).tobytes())


def _table_entries(prog, sp):
    """Product-table entries of one one-row replay over ``sp``, pruned and
    full: a Taylor entry runs ``order`` Horner products."""
    pruned = full = 0
    for code, _, _, tables in prog._plan(sp, sp, 1)[1]:
        if tables is not None:
            products = 1 if code == _MUL else sp.order
            pruned += products * len(tables[0])
            full += products * len(sp.mult_table()[0])
    return full, pruned


def test_pruned_replays_count_their_table_entries():
    # machine-independent work of one replay: each product multiplies only
    # the monomials of the variables its operands depend on
    disk, ball, minkowski = (instantiate(SPECS[i]) for i in (3, 5, 8))
    assert _table_entries(ball.program, ball.spray_space) == (3159, 241)
    assert _table_entries(ball.program, ball.fibre_space(4, 2)) == (99615, 1523)
    assert _table_entries(minkowski.program, minkowski.fibre_space(4, 2)) == (34350, 2180)
    assert _table_entries(disk.program, disk.spray_space) == (280, 45)


def test_a_program_keeps_its_last_plans():
    prog = JetProgram.record(lambda s: s[1], 2)   # the output is a seed
    for rows in range(1, PLANS + 4):
        prog.replay_rows(np.full((rows, 2), 0.5), 2)
    assert len(prog._plans) == PLANS and next(iter(prog._plans)) == (2, 4)
    # each replay writes its values into its plan's seeds: an output that is a
    # seed is copied, so a later replay leaves the rows it returned
    for rows in (1, 3):
        first = prog.replay_rows(np.full((rows, 2), 0.25), 2)
        prog.replay_rows(np.full((rows, 2), 0.75), 2)
        assert (first[:, 0] == 0.25).all()


def test_zero_rows_give_empty_arrays():
    prog = JetProgram.record(_every_op, 3)
    for order in range(MAX_ORDER + 1):
        assert prog.replay_rows(np.empty((0, 3)), order).shape == (0, JetSpace.get(3, order).n)
    m = instantiate(SPECS[5])   # the Poincare ball
    none = np.empty((0, m.n), dtype=complex)
    assert m.real_rows(np.empty((0, m.dim)), np.empty((0, m.dim)), 2).shape == (
        0, JetSpace.get(2 * m.dim, 2).n)
    assert m.value(none, none).shape == (0,)
    assert levi_matrix(m.fundamental_real(np.empty((0, m.dim)), np.empty((0, m.dim)))).shape == (
        0, m.n, m.n)


def test_complex_rows_equal_point_complex_jets():
    rng = np.random.default_rng(9)
    for spec in BATCH_SPECS:
        m = instantiate(spec)
        x, u = _batch(realify_metric(m), rng, 5)
        z, v = (w[:, :m.n] + 1j * w[:, m.n:] for w in (x, u))
        for order in range(MAX_ORDER + 1):
            sp, rows = m.complex_rows(z, v, order)
            assert sp is JetSpace.get(4 * m.n, order, True)
            for b in range(5):
                point = m.complex_jet(z[b], v[b], order).coeffs
                assert rows[b].tobytes() == point.tobytes(), (m.family_id, order, b)


def test_batched_spray_equals_point_sprays():
    rng = np.random.default_rng(5)
    for spec in BATCH_SPECS:
        m = realify_metric(instantiate(spec))
        x, u = _batch(m, rng, 8)
        sprays = spray_coefficients(m, x, u)
        assert sprays.shape == (8, m.dim)
        for b in range(8):
            assert sprays[b].tobytes() == spray_coefficients(m, x[b:b + 1], u[b:b + 1]).tobytes()


@pytest.mark.parametrize("op, bad, error", [
    (lambda s: 1.0 / s[0], 0.0, ZeroDivisionError),
    (lambda s: s[0] ** 1.5, 0.0, ValueError),
    (lambda s: s[0] ** 0.5, -2.0, ValueError),
])
def test_batched_replay_raises_as_the_bad_member_does(op, bad, error):
    prog = JetProgram.record(op, 1)
    for order in range(MAX_ORDER + 1):
        with pytest.raises(error):
            _replay(prog, [bad], order)
        with pytest.raises(error):
            prog.replay_rows(np.array([[0.8], [bad], [1.3]]), order)


def test_batched_metric_guards_each_member():
    m = realify_metric(instantiate(SPECS[3]))   # the unit disk
    x = np.array([[0.1, 0.2], [1.5, 0.0]])
    u = np.ones((2, 2))
    with pytest.raises(StructuralError):   # rows go through real_rows only
        m.real_jet(x, u, 2)
    with pytest.raises(DomainError):
        m.real_jet(x[1], u[1], 2)
    with pytest.raises(DomainError):
        spray_coefficients(m, x, u)
    u[0] = 0.0
    with pytest.raises(SlitBundleError):
        m.real_jet(x[0], u[0], 2)
    with pytest.raises(SlitBundleError):
        spray_coefficients(m, x[:1], u[:1])


def _first_member_error(m, x, u):
    """The error type of the first row that the exact point guards,
    ``Domain.require`` then ``MetricDef._check_slit``, refuse, or None."""
    for xb, ub in zip(x, u):
        try:
            m.domain.require(xb)
            m._check_slit(xb, ub)
        except (DomainError, SlitBundleError) as exc:
            return type(exc)
    return None


@pytest.mark.parametrize("spec, outside", [
    (SPECS[5], [0.8, 0.0, 0.7, 0.0]),    # the ball: |z| > 1
    (SPECS[12], [1.05, 0.1, 0.0, 0.0]),  # the Szabo polydisk: member 0 outside
    (SPECS[12], [0.1, 0.0, 0.2, 1.0]),   # the Szabo polydisk: member 1 outside
])
def test_batched_guards_raise_the_first_bad_members_error(spec, outside):
    m = realify_metric(instantiate(spec))
    inside, slit = np.array([0.1, -0.2, 0.3, 0.1]), np.zeros(4)
    # inside both polydisk members, though outside the ball of radius 1
    x = np.array([inside, [0.6, 0.0, 0.6, 0.7]])
    if m.domain.kind == "polydisk":
        assert np.all(np.isfinite(m.real_rows(x, np.ones((2, 4)), 1)))
    cases = [  # rows x, rows u, the error of the first bad row
        ([inside, outside], [np.ones(4)] * 2, DomainError),
        ([inside, inside, outside], [np.ones(4), slit, np.ones(4)], SlitBundleError),
        ([inside, outside, inside], [np.ones(4), np.ones(4), slit], DomainError),
        ([outside, inside], [slit, slit], DomainError),   # the domain guard comes first
        # inside by less than the rounding slack of the batched guard
        ([[1.0 - 1e-13, 0.0, 0.0, 0.0], outside], [np.ones(4)] * 2, DomainError),
        ([inside, [math.nan] * 4], [np.ones(4)] * 2, DomainError),
    ]
    for rows_x, rows_u, error in cases:
        x, u = np.array(rows_x, dtype=float), np.array(rows_u, dtype=float)
        assert _first_member_error(m, x, u) is error
        with pytest.raises(error):
            m.real_rows(x, u, 0)


def test_batched_guards_on_the_whole_space_check_the_slit_only():
    m = realify_metric(instantiate(SPECS[8]))   # Minkowski
    x = np.array([[0.1, 0.2, 0.3, 0.4], [50.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    u = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1e-9, 0.0, 0.0, 0.0]])
    assert np.all(np.isfinite(m.real_rows(x[:2], u[:2], 1)))
    assert _first_member_error(m, x, u) is SlitBundleError
    with pytest.raises(SlitBundleError):
        m.real_rows(x, u, 0)
