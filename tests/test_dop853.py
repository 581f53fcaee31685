"""The package's own DOP853 against scipy's.

``finsler.dop853`` must take scipy's steps bit for bit from the same first
step: the stages, the error norm, the step-size rule, the initial-step probe,
the event roots and the failure exit. Every integration of a test is run a
second time by ``oracles.scipy_dop853`` with the same right-hand side and
arguments (``_twins``).
"""

import math

import numpy as np
import pytest

from finsler import dop853, geodesic
from finsler.errors import DomainError, ShootingError
from finsler.geodesic import PoleDistance, distance_hessian, integrate_geodesic
from finsler.geometry import realify_metric, unit_directions
from finsler.metrics import instantiate

from oracles import scipy_dop853, scipy_proposals, scipy_step_roots


def _metric(spec):
    return realify_metric(instantiate(spec))


def _disk(**params):
    return {"complex_dim": 1, "params": {"catalog": "poincare_disk", **params}}


DISK = _metric({"family": "hermitian", **_disk()})
BALL = _metric({"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}})
C2 = _metric({"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}})
SZABO = _metric({"family": "szabo", "params": {"k": 2, "eps": 0.5, "factor1": _disk(),
                                               "factor2": _disk()}})
# scale 1e-3: fan members leave the domain near arc length 0.34 (the disk) and
# 0.42-0.49 (the polydisk), as in test_fan.py
SMALL_DISK = _metric({"family": "hermitian", **_disk(scale=1e-3)})
SMALL_SZABO = _metric({"family": "szabo", "params": {
    "k": 2, "eps": 0.5, "factor1": _disk(scale=1e-3), "factor2": _disk(scale=1e-3)}})


def _twins(monkeypatch, dense=False):
    """Record every integration as (ours, scipy's, the call's arguments)."""
    ours, pairs = geodesic.solve_ivp, []

    def both(fun, t_span, y0, **kwargs):
        sol = ours(fun, t_span, y0, **kwargs)
        pairs.append((sol, scipy_dop853(fun, t_span, y0, dense_output=dense, **kwargs),
                      (fun, t_span, y0, kwargs)))
        return sol

    monkeypatch.setattr(geodesic, "solve_ivp", both)
    return pairs


def _assert_bitwise(pairs):
    for ours, ref, _ in pairs:
        assert ours.status == ref.status and ours.message == ref.message
        assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
        assert ours.nfev == ref.nfev


def _queries(d, count, seed):
    rng = np.random.default_rng(seed)
    return [r * v for r, v in zip(np.linspace(0.2, 0.7, count), unit_directions(count, d, seed))
            ] + [0.3 * rng.standard_normal(d) / math.sqrt(d)]


@pytest.mark.parametrize("m", [DISK, BALL, C2, SZABO], ids=["disk", "ball", "c2", "szabo"])
def test_shots_match_scipy_bitwise(monkeypatch, m):
    pairs = _twins(monkeypatch)
    pd = PoleDistance(m, np.zeros(m.dim))
    for q in _queries(m.dim, 4, 11):
        pd.rho(q)
    _assert_bitwise(pairs)
    cold = [kwargs["rtol"] for *_, (_, _, _, kwargs) in pairs if kwargs["first_step"] is None]
    # the first shot at each tolerance takes the initial-step probe, every
    # later one the step its predecessor left off at
    assert pairs[0][2][3]["first_step"] is None and len(cold) == len(set(cold)) < len(pairs)


def test_cold_probe_picks_scipys_first_step(monkeypatch):
    pairs = _twins(monkeypatch)
    for m in (DISK, BALL, C2, SZABO):
        PoleDistance(m, np.zeros(m.dim)).rho(_queries(m.dim, 1, 3)[0])
    cold = [(ours, ref) for ours, ref, (*_, kwargs) in pairs if kwargs["first_step"] is None]
    assert len(cold) >= 4
    for ours, ref in cold:
        assert ours.t[1] == ref.t[1]


def test_a_fan_and_a_jacobi_system_match_scipy_bitwise(monkeypatch):
    pairs = _twins(monkeypatch)
    dirs = unit_directions(4, BALL.dim, 101)
    integrate_geodesic(BALL, np.zeros(4), dirs / np.sqrt(BALL.value(np.zeros(4), dirs))[:, None],
                       0.7)
    assert len(pairs) == 1 and pairs[0][0].y.shape[0] == 4 * 2 * BALL.dim   # one stacked state
    pd = PoleDistance(DISK, np.zeros(2))
    distance_hessian(pd, np.array([0.45, -0.3]))
    jacobi = pairs[-1][0]
    assert jacobi.y.shape[0] == 2 * 2 + 4 * 2   # (x, u) and the 2 x 2 blocks of Y
    _assert_bitwise(pairs)


def test_variational_shots_match_scipy_bitwise(monkeypatch):
    # a Hessian query's shot carries (x, u, Y) at per-component tolerances,
    # which scipy takes as arrays too: a solver's first variational shot
    # starts at the initial-step probe, the next where the first left off
    queries = [np.array([0.3, -0.2, 0.1, 0.4]), np.array([-0.5, 0.1, 0.2, 0.3])]
    pd = PoleDistance(BALL, np.zeros(4))
    alone = [distance_hessian(pd, q).boundary_form() for q in queries]
    with monkeypatch.context() as dense:
        # scipy's dense output evaluates the right-hand side after ours
        # reached the end state, where the system reads g and N, so the
        # system reads them again
        _twins(dense, dense=True)
        pd = PoleDistance(BALL, np.zeros(4))
        twinned = [distance_hessian(pd, q).boundary_form() for q in queries]
    assert all(np.array_equal(a, b) for a, b in zip(alone, twinned))
    pairs = _twins(monkeypatch)
    pd = PoleDistance(BALL, np.zeros(4))
    for q in queries:
        distance_hessian(pd, q)
    (cold, _, (*_, first)), (continued, _, (*_, second)) = pairs
    assert first["first_step"] is None and second["first_step"] is not None
    assert cold.y.shape[0] == len(first["rtol"]) == len(first["atol"]) == 2 * 4 + 2 * 4 * 4
    assert len(np.unique(first["rtol"])) == 2   # one tolerance for (x, u), one for Y
    _assert_bitwise(pairs)


def test_dense_output_matches_scipys(monkeypatch):
    pairs = _twins(monkeypatch, dense=True)
    dirs = unit_directions(4, BALL.dim, 101)
    integrate_geodesic(BALL, np.zeros(4), dirs / np.sqrt(BALL.value(np.zeros(4), dirs))[:, None],
                       0.7)
    distance_hessian(PoleDistance(SZABO, np.zeros(4)), np.array([0.3, -0.2, 0.1, 0.4]))
    for ours, ref, _ in pairs:
        scale = np.abs(ref.y).max()
        for t in np.linspace(ours.t[0], ours.t[-1], 52)[1:-1]:
            assert np.abs(ours.sol(t) - ref.sol(t)).max() <= 1e-15 * scale


@pytest.mark.parametrize("m, segments", [(SMALL_DISK, 1), (SMALL_SZABO, 2)],
                         ids=["small_disk", "small_szabo"])
def test_exit_times_match_scipys_brentq_roots(monkeypatch, m, segments):
    pairs = _twins(monkeypatch)
    dirs = unit_directions(4, m.dim, 0)
    pole = np.zeros(m.dim)
    integrate_geodesic(m, pole, dirs / np.sqrt(m.value(pole, dirs))[:, None], 0.63)
    firsts = further = 0
    for ours, ref, (fun, t_span, y0, kwargs) in pairs:
        assert ours.status == ref.status == 1   # every segment ends at an exit
        # scipy records the earliest root of the terminating step; the others
        # crossed there are scipy's brentq roots on that step's dense output
        roots = scipy_step_roots(fun, t_span, y0, **kwargs)
        for mine, theirs, root in zip(ours.t_events, ref.t_events, roots, strict=True):
            if len(theirs):
                assert mine == list(theirs) == [root]
                firsts += 1
            elif root is None:
                assert mine == []
            else:
                assert len(mine) == 1 and abs(mine[0] - root) <= 1e-12
                further += 1
    # each member's root, in the segment it ends in: the first per segment
    assert firsts == len(pairs) == segments and firsts + further == 4
    _assert_bitwise(pairs)   # the first roots and the restarts from them, bit for bit


def test_h_next_is_the_larger_of_the_last_two_proposals():
    def rhs(t, y):
        return np.array([y[1], -math.sin(y[0])])

    for first_step in (None, 0.05):
        sol = dop853.solve_ivp(rhs, (0.0, 3.0), np.array([1.0, 0.0]), rtol=1e-10, atol=1e-12,
                               first_step=first_step)
        proposals = scipy_proposals(rhs, (0.0, 3.0), np.array([1.0, 0.0]), rtol=1e-10,
                                    atol=1e-12, first_step=first_step)
        assert len(proposals) == len(sol.t) - 1 > 2
        assert sol.h_next == max(proposals[-2:])


def _nan_beyond(radius, monkeypatch):
    """Sprays that turn NaN where |x| exceeds ``radius``."""
    spray = geodesic.spray_coefficients

    def nan_beyond(m, x, u):
        if not np.linalg.norm(np.atleast_2d(x), axis=1).max() <= radius:   # NaN included
            return np.full(np.shape(u), np.nan)
        return spray(m, x, u)

    monkeypatch.setattr(geodesic, "spray_coefficients", nan_beyond)


def test_a_nan_right_hand_side_ends_in_scipys_too_small_step(monkeypatch):
    _nan_beyond(0.3, monkeypatch)
    pairs = _twins(monkeypatch)
    with pytest.raises(ShootingError, match="Required step size is less than spacing between "
                                            "numbers"):
        geodesic._integrate_affine(DISK, np.zeros(2), np.array([1.0, 0.5]), 1.0)
    (ours, ref, _), = pairs
    assert ours.status == ref.status == -1 and ours.message == ref.message
    assert ours.nfev == ref.nfev


def test_a_sample_error_in_the_right_hand_side_propagates_as_it_is(monkeypatch):
    spray, raised, calls = geodesic.spray_coefficients, DomainError("injected"), []

    def failing(m, x, u):
        calls.append(None)
        if len(calls) == 20:
            raise raised
        return spray(m, x, u)

    monkeypatch.setattr(geodesic, "spray_coefficients", failing)
    with pytest.raises(DomainError) as info:
        geodesic._integrate_affine(DISK, np.zeros(2), np.array([1.0, 0.5]), 1.0)
    assert info.value is raised and len(calls) == 20


def test_an_empty_span_returns_the_initial_state():
    # a Jacobi system of arc length 0 is its initial data, with no step taken
    system = geodesic.jacobi_boundary_field(DISK, np.zeros(2), np.array([1.0, 0.0]), 0.0)
    assert system.path.nfev == 1 and system.path.steps == 0
    assert np.array_equal(system.M, np.zeros((2, 2))) and np.array_equal(system.W, np.eye(2))
    assert np.array_equal(system.path.state_at(0, 0.0)[1], [1.0, 0.0])


def test_a_backward_span_is_refused():
    def rhs(t, y):
        return -y

    with pytest.raises(ValueError, match="forward"):
        dop853.solve_ivp(rhs, (1.0, 0.0), np.array([1.0]), rtol=1e-10, atol=1e-12)
    # forward and empty spans integrate as before
    assert dop853.solve_ivp(rhs, (0.0, 1.0), np.array([1.0]), rtol=1e-10, atol=1e-12).success
    assert dop853.solve_ivp(rhs, (1.0, 1.0), np.array([1.0]), rtol=1e-10, atol=1e-12).success
