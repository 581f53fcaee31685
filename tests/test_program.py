"""Recorded jet programs: ``MetricDef.real_jet`` replays each formula's tape.

The replay must give the coefficients of the formula evaluated on fresh
``Jet``/``CJet`` objects (``oracles.real_jet_by_objects``) bit for bit, at
every order, for every family; value-derived Taylor coefficients are
recomputed per call; formulas that read a jet's value are refused. A tape
records each entry once and replays as the tape of every emitted entry
(``oracles.record_unmerged``) does; a replay of B points gives, row by row,
the replays of each point.
"""

import math

import numpy as np
import pytest

from finsler.errors import DomainError, SlitBundleError, StructuralError
from finsler.geometry import (MetricDef, complex_to_real_components, creal_value,
                              realify_metric)
from finsler.cartan import spray_coefficients
from finsler.jets import (_ADD, _ADDC, _CONST, _EXP, _LOG, _MUL, _NEG, _POW, _REC, _RSUBC,
                          _SCALE, _SUB, MAX_ORDER, JetProgram, spow)
from finsler.metrics import _hermitian_form, instantiate

from oracles import complex_jet_by_objects, real_jet_by_objects, record_unmerged


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
        jet = prog.replay(np.array(point), 2)
        assert jet.value == pytest.approx(np.exp(0.5 * point[0]) + np.sqrt(point[1]),
                                          rel=1e-15)
        assert jet.hessian()[0, 0] == pytest.approx(0.25 * np.exp(0.5 * point[0]),
                                                    rel=1e-15)


@pytest.mark.parametrize("op, bad, error", [
    (lambda s: 1.0 / s[0], 0.0, ZeroDivisionError),
    (lambda s: spow(s[0], -2), 0.0, ZeroDivisionError),
    (lambda s: s[0] ** 0.5, -1.0, ValueError),
    (lambda s: s[0] ** 1.5, 0.0, ValueError),
    (lambda s: s[0].log(), 0.0, ValueError),
    (lambda s: s[0].log(), -2.0, ValueError),
])
def test_replay_raises_on_a_bad_base(op, bad, error):
    prog = JetProgram.record(op, 1)
    prog.replay(np.array([0.8]), 3)   # the same program at a good base
    for order in range(MAX_ORDER + 1):
        with pytest.raises(error):
            prog.replay(np.array([bad]), order)


def _branching(x, u):
    scale = 2.0 if x[0] > 0 else 1.0
    return scale * (u[0] * u[0] + u[1] * u[1])


@pytest.mark.parametrize("formula", [
    _branching,
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * (1.0 + creal_value(x[0])),
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * float(1.0 + x[0] * x[0]),
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) if x[1] == 0 else u[0] * u[0],
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * abs(x[0]),
    lambda x, u: (u[0] * u[0] + u[1] * u[1]) * (x[0] + 1j),
])
def test_a_formula_that_reads_values_is_refused(formula):
    m = MetricDef("real", formula, dim_real=2)
    x, u = np.array([0.3, 0.1]), np.array([1.0, 0.5])
    assert m.value(x, u) > 0   # plain numbers still evaluate
    with pytest.raises(StructuralError):
        m.real_jet(x, u, 2)


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
    m.levi_matrix(z, v)
    m.fundamental_real(x, u)
    assert len(calls) == 1


def test_hermitian_fold_equals_the_full_form():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = a @ a.conj().T
        v = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        full = np.einsum("ab,a,b->", H, v, np.conj(v)).real
        assert _hermitian_form(H, v) == pytest.approx(full, rel=1e-14)


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
                got = merged.replay(values, order).coeffs
                want = unmerged.replay(values, order).coeffs
                assert got.tobytes() == want.tobytes(), (m.family_id, order)
    assert shrunk >= 2


def test_signed_zero_constants_are_not_merged():
    prog = JetProgram.record(lambda s: (s[0] + 0.0) * (s[0] - 0.0), 1)
    assert prog.ops == [(_ADDC, 0, 0.0), (_ADDC, 0, -0.0), (_MUL, 1, 2)]
    # the entries differ at -0: -0 + 0 = 0, while -0 + -0 = -0
    for out, sign in ((1, 1.0), (2, -1.0)):
        value = JetProgram(1, prog.ops[:2], out).replay(np.array([-0.0]), 0).value
        assert value == 0.0 and math.copysign(1.0, value) == sign
    consts = JetProgram.record(lambda s: s[0].space.constant(0.0) + s[0].space.constant(-0.0), 1)
    assert [code for code, _, _ in consts.ops] == [_CONST, _CONST, _ADD]


# -- batched replay ------------------------------------------------------------------


def _every_op(s):
    a = s[0] * s[1] + s[2]                   # MUL, ADD
    b = (a - s[1]) * 0.5                     # SUB, SCALE
    c = -(2.0 - b) + 1.5                     # RSUBC, NEG, ADDC
    e = (c * c + 1.0).log() + (0.1 * s[2]).exp()
    f = 1.0 / (s[0] * s[0] + 2.0) + (s[1] * s[1] + 1.0) ** 0.75
    return e + f * s[0].space.constant(0.25)  # REC, POW, CONST


EVERY_OP = {_MUL, _ADD, _SUB, _SCALE, _ADDC, _RSUBC, _NEG, _CONST, _REC, _EXP, _LOG, _POW}
BATCH_SPECS = [SPECS[3], SPECS[5], SPECS[8], SPECS[12], SPECS[16]]   # disk, ball, Minkowski,
#                                                      Szabo of disks, one_plus_s2


def _batch(m, rng, rows):
    x = rng.standard_normal((rows, m.dim))
    x *= 0.7 * rng.random((rows, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    return x, rng.standard_normal((rows, m.dim))


def _assert_rows_are_point_replays(prog, values, order):
    rows = prog.replay_rows(values, order)
    assert rows.shape == (len(values), prog.replay(values[0], order).coeffs.size)
    for b, point in enumerate(values):
        assert rows[b].tobytes() == prog.replay(point, order).coeffs.tobytes(), (order, b)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_batched_replay_rows_equal_point_replays(rows):
    rng = np.random.default_rng(rows)
    prog = JetProgram.record(_every_op, 3)
    assert {code for code, _, _ in prog.ops} == EVERY_OP
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


def test_batched_spray_equals_point_sprays():
    rng = np.random.default_rng(5)
    for spec in BATCH_SPECS:
        m = realify_metric(instantiate(spec))
        x, u = _batch(m, rng, 8)
        sprays = spray_coefficients(m, x, u)
        assert sprays.shape == (8, m.dim)
        for b in range(8):
            assert sprays[b].tobytes() == spray_coefficients(m, x[b], u[b]).tobytes()


@pytest.mark.parametrize("op, bad, error", [
    (lambda s: 1.0 / s[0], 0.0, ZeroDivisionError),
    (lambda s: s[0].log(), 0.0, ValueError),
    (lambda s: s[0].log(), -2.0, ValueError),
])
def test_batched_replay_raises_as_the_bad_member_does(op, bad, error):
    prog = JetProgram.record(op, 1)
    for order in range(MAX_ORDER + 1):
        with pytest.raises(error):
            prog.replay(np.array([bad]), order)
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
    """The error type of the first row's ``real_jet`` that raises, or None."""
    for xb, ub in zip(x, u):
        try:
            m.real_jet(xb, ub, 0)
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
