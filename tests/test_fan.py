"""Radial fans integrated as one stacked state, against one geodesic at a time.

``geodesic.integrate_fan`` carries every direction of ``radial_flag_bounds``
in one DOP853 state at tolerances divided by sqrt(B); each member must
follow its own ``integrate_geodesic`` path (``oracles.fan_by_paths``). A
member that leaves the domain ends at its own exit, while the others go on.
"""

import functools
import math
import sys

import numpy as np
import pytest

from finsler import geodesic
from finsler.cartan import cartan, radial_flag_bounds
from finsler.errors import ConfigurationError, DegenerateMetricError, SlitBundleError
from finsler.geometry import MetricDef, SamplePlan, realify_metric, unit_directions
from finsler.jets import JetProgram
from finsler.metrics import instantiate

from oracles import endpoint, fan_by_paths, radial_flag_bounds_by_paths


def _disk(**params):
    return {"complex_dim": 1, "params": {"catalog": "poincare_disk", **params}}


DISK = {"family": "hermitian", **_disk()}
BALL = {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}}
MINKOWSKI = {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}}
SZABO = {"family": "szabo", "params": {"k": 2, "eps": 0.5, "factor1": _disk(),
                                       "factor2": _disk()}}
# scale 1e-3 shrinks distances by sqrt(1e-3), so the geodesics reach the
# domain margin near arc length 0.34 (disk) or 0.42-0.49 (polydisk) while
# their Euclidean speed is still above the slit guard; at scale 1 the guard
# fires first (near arc length 9.6, against 10.7 for the margin)
SMALL_DISK = {"family": "hermitian", **_disk(scale=1e-3)}
SMALL_SZABO = {"family": "szabo", "params": {"k": 2, "eps": 0.5, "factor1": _disk(scale=1e-3),
                                             "factor2": _disk(scale=1e-3)}}
BOUNDS_PLAN = SamplePlan(seed=101, n_points=3, n_dirs=4, radial_range=(0.1, 0.7))
EXIT_PLAN = SamplePlan(seed=0, n_points=12, n_dirs=4, radial_range=(0.05, 0.6))
# the polydisk members exit at arc lengths 0.4240, 0.4264, 0.4884 and 0.4933:
# a fan of length 1.05 * hi = 0.425 ends just past the first exit, so the
# others restart with less time left than the last step
FIRST_EXIT_PLAN = SamplePlan(seed=0, n_points=12, n_dirs=4, radial_range=(0.05, 0.425 / 1.05))
CASES = {"disk": (DISK, BOUNDS_PLAN), "ball": (BALL, BOUNDS_PLAN),
         "minkowski": (MINKOWSKI, BOUNDS_PLAN), "szabo": (SZABO, BOUNDS_PLAN),
         "small_disk": (SMALL_DISK, EXIT_PLAN), "small_szabo": (SMALL_SZABO, EXIT_PLAN),
         "small_szabo_first_exit": (SMALL_SZABO, FIRST_EXIT_PLAN)}


@functools.cache
def _integrated(name):
    """(metric, plan, stacked fan, ``fan_by_paths`` oracle) of a case."""
    spec, plan = CASES[name]
    m = realify_metric(instantiate(spec))
    d = m.dim
    dirs = unit_directions(max(plan.n_dirs, 3), d, plan.seed)
    pole = np.zeros(d)
    fan = geodesic.integrate_fan(m, pole, [w / math.sqrt(m.value(pole, w)) for w in dirs],
                                 plan.radial_range[1] * 1.05)
    return m, plan, fan, fan_by_paths(m, pole, plan)


@pytest.mark.parametrize("name", list(CASES))
def test_fan_members_follow_their_single_geodesics(name):
    _, _, fan, ref = _integrated(name)
    for b, (path, arcs) in enumerate(ref):
        for s in arcs:
            x, u = fan.state_at(b, s)
            x_ref, u_ref = path.state_at(s)
            assert np.abs(x - x_ref).max() < 1e-9 and np.abs(u - u_ref).max() < 1e-9, (b, s)


@pytest.mark.parametrize("name", ["small_disk", "small_szabo"])
def test_a_member_that_leaves_the_domain_ends_alone(name):
    m, plan, fan, ref = _integrated(name)
    assert all(path.truncated for path, _ in ref)
    # every exit restarts the others: the disk's members exit together, up
    # to rounding, and the polydisk's axis-like and diagonal ones apart
    assert len(fan.segments) >= 2 and fan.segments[0][1] == list(range(4))
    # the margin falls exponentially slowly along these paths, so an
    # integration error of ~1e-14 in x moves the exit by ~1e-8 in arc length
    exits = [path.arc_length for path, _ in ref]
    assert np.allclose(fan.arc_lengths, exits, rtol=1e-6, atol=0)
    for b, arc in enumerate(fan.arc_lengths):
        x, _ = fan.state_at(b, arc)
        assert abs(m.domain.margin(x) - 1e-9) < 1e-12   # its own exit event
        assert np.array_equal(fan.state_at(b, 2 * arc)[0], x)   # clamped to its own end
    if name == "small_szabo":
        assert max(exits) - min(exits) > 0.05
        # near one factor's edge g mixes blocks of ~1e14 and ~1, so the
        # connection at a clamped sample is refused, on either route
        with pytest.raises(DegenerateMetricError, match="condition number"):
            cartan(m, *fan.state_at(0, 0.999 * fan.arc_lengths[0]))
        return
    k_inf, k_sup, n = radial_flag_bounds_by_paths(m, np.zeros(m.dim), plan)
    got = radial_flag_bounds(m, np.zeros(m.dim), plan)
    assert got.n_samples == n > 0
    assert got.k_inf == pytest.approx(k_inf, rel=1e-6)
    assert got.k_sup == pytest.approx(k_sup, rel=1e-6)


def test_the_first_ill_conditioned_sample_fails_the_fan():
    # the stacked connection names the first sample, in fan order, whose
    # fundamental tensor fails the condition gate, as a loop over the
    # samples meets it, not the worst one (8.69e+13)
    m = realify_metric(instantiate(SMALL_SZABO))
    with pytest.raises(DegenerateMetricError, match=r"condition number 5\.17e\+13$"):
        radial_flag_bounds(m, np.zeros(m.dim), EXIT_PLAN)


@pytest.mark.parametrize("name", ["disk", "ball", "minkowski", "small_disk"])
def test_a_fan_takes_one_stacked_connection(monkeypatch, name):
    spec, plan = CASES[name]
    m = realify_metric(instantiate(spec))
    calls = []

    def counted(owner, method, label):
        real = getattr(owner, method)

        def call(*args, **kwargs):
            calls.append(label(*args))
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, method, call)

    counted(JetProgram, "replay_rows", lambda program, values, order: ("replay_rows", order))
    counted(JetProgram, "replay", lambda program, values, order: ("replay", order))
    counted(MetricDef, "real_jet", lambda m, x, u, order: ("real_jet", order))
    # the package exports the function under the module's name
    counted(sys.modules["finsler.cartan"], "cartan", lambda m, x, u: ("cartan", np.shape(x)))
    got = radial_flag_bounds(m, np.zeros(m.dim), plan)
    # the unit-speed directions and the fan's energies are one order-0 replay
    # each, its sprays order-2 rows; its samples take one order-4 replay
    n_dirs = max(plan.n_dirs, 3)
    samples = n_dirs * max(3, plan.n_points // n_dirs + 1)
    assert [c for c in calls if c != ("replay_rows", 2)] == [
        ("replay_rows", 0), ("replay_rows", 0), ("cartan", (samples, m.dim)), ("replay_rows", 4)]
    assert got.n_samples > 0


def test_a_fan_ending_just_past_the_first_exit_finishes_the_others():
    m, plan, fan, ref = _integrated("small_szabo_first_exit")
    length = plan.radial_range[1] * 1.05
    exits = [path.arc_length if path.truncated else None for path, _ in ref]
    assert exits[0] < length and exits[1:] == [None] * 3
    assert len(fan.segments) == 2 and fan.segments[1][1] == [1, 2, 3]
    assert fan.arc_lengths[0] == pytest.approx(ref[0][0].arc_length, rel=1e-6)
    assert fan.arc_lengths[1:] == pytest.approx([length] * 3, rel=1e-14)
    for b in (1, 2, 3):
        x, u = fan.state_at(b, length)
        x_ref, u_ref = endpoint(ref[b][0])
        assert np.abs(x - x_ref).max() < 1e-9 and np.abs(u - u_ref).max() < 1e-9


def test_a_member_leaving_after_its_own_length_ends_at_its_length():
    m = realify_metric(instantiate(SMALL_DISK))
    pole = np.zeros(2)
    w = np.array([1.0, 0.0]) / math.sqrt(m.value(pole, np.array([1.0, 0.0])))
    # at twice the speed the second member reaches its length 0.25 at half
    # the fan's affine time and leaves the domain (arc 0.339) after that,
    # while the first is still inside
    fan = geodesic.integrate_fan(m, pole, [w, 2.0 * w], 0.25)
    assert fan.arc_lengths == pytest.approx([0.25, 0.25], rel=1e-14)
    path = geodesic.integrate_geodesic(m, pole, w, 0.25)
    for b, speed in ((0, 1.0), (1, 2.0)):
        for s in (0.1, 0.25, 0.3):
            x, u = fan.state_at(b, s)
            x_ref, u_ref = path.state_at(s)
            assert np.abs(x - x_ref).max() < 1e-9 and np.abs(u - speed * u_ref).max() < 1e-9


def test_a_member_reaching_the_slit_fails_the_fan_as_its_geodesic_does():
    m = realify_metric(instantiate(DISK))
    plan = SamplePlan(seed=0, n_points=3, n_dirs=3, radial_range=(0.05, 12.0))
    with pytest.raises(SlitBundleError):
        fan_by_paths(m, np.zeros(2), plan)
    with pytest.raises(SlitBundleError):
        radial_flag_bounds(m, np.zeros(2), plan)


def test_fan_bounds_match_the_single_geodesic_sampling():
    for spec, (lo, hi) in ((DISK, (-4.0, -4.0)), (BALL, (-4.0, -1.0)), (MINKOWSKI, (0.0, 0.0))):
        m = realify_metric(instantiate(spec))
        got = radial_flag_bounds(m, np.zeros(m.dim), BOUNDS_PLAN)
        k_inf, k_sup, n = radial_flag_bounds_by_paths(m, np.zeros(m.dim), BOUNDS_PLAN)
        assert got.n_samples == n
        assert got.k_inf == pytest.approx(k_inf, rel=1e-9, abs=1e-12)
        assert got.k_sup == pytest.approx(k_sup, rel=1e-9, abs=1e-12)
        assert lo - 1e-6 <= got.k_inf <= got.k_sup <= hi + 1e-6


def test_fan_values_are_pinned():
    # each segment after an exit starts at the step the previous one settled
    # on, capped at the time left; these values pin that rule bit for bit
    pins = {"disk": (-4.0000000000000036, -3.999999999999997, 36),
            "ball": (-3.8854850197014583, -1.0000745950932932, 96),
            "minkowski": (0.0, 0.0, 96)}
    for name, pinned in pins.items():
        spec, plan = CASES[name]
        m = realify_metric(instantiate(spec))
        got = radial_flag_bounds(m, np.zeros(m.dim), plan)
        assert (got.k_inf, got.k_sup, got.n_samples) == pinned
    _, _, fan, _ = _integrated("small_szabo_first_exit")
    assert fan.arc_lengths[0] == 0.4240125163408244
    x, u = fan.state_at(1, fan.arc_lengths[1])
    assert np.concatenate([x, u]).tolist() == [
        -0.37997828481506896, 0.3566852693648884, 0.9249953896436325, 0.9342213723820781,
        -2.683336872900909e-07, 3.4003108179499246e-05, 6.532147587070938e-07,
        8.906011298215148e-05]


def test_fan_rejects_a_zero_velocity_and_a_nonpositive_length():
    m = realify_metric(instantiate(DISK))
    with pytest.raises(ConfigurationError, match="nonzero"):
        geodesic.integrate_fan(m, np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ConfigurationError, match="positive"):
        geodesic.integrate_fan(m, np.zeros(2), np.eye(2), 0.0)
